"""tools/freewill_times.py times every free-will builder at every size."""

import importlib.util
import time
from pathlib import Path
from unittest import mock

_SPEC = importlib.util.spec_from_file_location(
    "freewill_times", Path(__file__).parents[1] / "tools" / "freewill_times.py")
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)


def test_freewill_times_prints_one_line_per_case_within_a_second(capsys):
    start = time.perf_counter()
    with mock.patch.multiple(tool, SIZES=(2, 4), REPEATS=1):
        assert tool.main([]) == 0
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        f"{name}/n{n}" for name in ("pinned", "independent", "dictated") for n in (2, 4)]
    assert all(float(x) > 0.0 for line in lines for x in line.split()[1:])
    assert elapsed < 1.0
