"""tools/lp_times.py times the exact LP on every listed system shape."""

import importlib.util
import time
from pathlib import Path
from unittest import mock

_SPEC = importlib.util.spec_from_file_location(
    "lp_times", Path(__file__).parents[1] / "tools" / "lp_times.py")
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)

SHAPES = ["exact", "marginals", "band", "band-1e9", "rows-1", "rows-2"]


def test_lp_times_prints_one_line_per_shape_within_a_second(capsys):
    start = time.perf_counter()
    with mock.patch.multiple(tool, COUNT=2, REPEATS=1):
        assert tool.main([]) == 0
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == SHAPES
    assert all(float(line.split()[1]) > 0.0 for line in lines)
    assert elapsed < 1.0


def test_lp_times_systems_have_the_feasibility_shapes():
    # (rows, columns with slack) as fine_feasibility builds them.
    shapes = {"exact": (9, 16), "marginals": (9, 16), "band": (13, 24), "band-1e9": (13, 24)}
    batches = tool.systems(1, 4)
    assert [len(batches[name]) for name in SHAPES] == [4] * len(SHAPES)
    for name, (rows, width) in shapes.items():
        for A_eq, _, A_ub, _ in batches[name]:
            assert len(A_eq) + len(A_ub) == rows
            assert len(A_eq[0]) + len(A_ub) == width
    assert any(max(x.denominator for x in b_ub) > 10**6 for *_, b_ub in batches["band-1e9"])
