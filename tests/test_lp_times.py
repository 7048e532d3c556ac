"""tools/lp_times.py times the exact LP on every listed system shape."""

import importlib.util
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

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
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[0] for line in lines] == SHAPES
    assert all(len(line) == 3 for line in lines)
    assert all(float(line[1]) > 0.0 for line in lines)
    # Pivots per call: every feasibility system needs some, as its basis
    # starts all artificial and its first equality's right-hand side is
    # positive.
    assert all(float(pivots) > 0.0 for name, _, pivots in lines if name in tool.VERDICT_SHAPES)
    assert elapsed < 1.0


def test_pivot_column_counts_every_pivot_step():
    from lhvlab import exactlp
    # One row: one pivot. Two rows whose second is the first's double: one
    # pivot, after which no reduced cost is positive. Two rows that
    # contradict each other: one pivot, then the same, with an artificial
    # left at 1. The identity: one pivot per row.
    batch = [([[1, 1]], [1]), ([[1, 1], [2, 2]], [1, 2]), ([[1, 1], [1, 1]], [1, 2])]
    counts = [tool.pivots(exactlp, exactlp.feasible_point, [args]) for args in batch]
    assert counts == [1.0, 1.0, 1.0]
    assert tool.pivots(exactlp, exactlp.feasible_point, batch) == 1.0
    assert tool.pivots(exactlp, exactlp.feasible_point, [([[1, 0], [0, 1]], [1, 1])]) == 2.0


def test_lp_times_names_the_shape_whose_batch_is_empty():
    from lhvlab import inequalities
    with mock.patch.object(inequalities, "fine_feasibility", lambda *args: None):
        with pytest.raises(ValueError, match="for shape 'exact'"):
            tool.systems(1, 2)


def test_lp_times_systems_have_the_feasibility_shapes():
    # (rows, columns with slack) as fine_feasibility builds them.
    shapes = {"exact": (9, 16), "marginals": (9, 16), "band": (13, 24), "band-1e9": (13, 24)}
    batches = tool.systems(1, 4)
    assert [len(batches[name]) for name in SHAPES] == [4] * len(SHAPES)
    for name, (rows, width) in shapes.items():
        for A_eq, _, A_ub, _ in batches[name]:
            assert len(A_eq) + len(A_ub) == rows
            assert len(A_eq[0]) + len(A_ub) == width
    # Right-hand sides over the first equality's (the atoms' sum), so that
    # integers over the inputs' common denominator read as the rationals.
    assert any(max(Fraction(x, b_eq[0]).denominator for x in b_ub) > 10**6
               for _, b_eq, _, b_ub in batches["band-1e9"])
