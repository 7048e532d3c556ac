"""tools/cli_times.py times the command line's stages on every exact verdict."""

import importlib.util
import time
from pathlib import Path
from unittest import mock

_SPEC = importlib.util.spec_from_file_location(
    "cli_times", Path(__file__).parents[1] / "tools" / "cli_times.py")
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)

KINDS = ["feasibility-exact", "feasibility-marginals", "feasibility-band", "law", "chsh",
         "freewill-pinned", "freewill-dictated"]


def test_cli_times_prints_one_line_per_kind_within_a_second(capsys):
    start = time.perf_counter()
    with mock.patch.multiple(tool, COUNT=2, REPEATS=1):
        assert tool.main([]) == 0
    elapsed = time.perf_counter() - start
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[0] for line in lines] == KINDS
    for line in lines:
        assert len(line) == 7
        assert all(float(us) > 0.0 for us in line[1:5])  # parse, command, report, total
        assert all(float(count) >= 0.0 for count in line[5:])  # collections per pass
    assert elapsed < 1.0


def test_cli_times_argv_are_seeded_verdicts_of_every_kind():
    lists = tool.argv_lists(1, 3)
    assert lists == tool.argv_lists(1, 3) != tool.argv_lists(2, 3)
    assert list(lists) == KINDS
    for name, batch in lists.items():
        assert len(batch) == 3
        for argv in batch:
            assert argv[0] == name.split("-")[0] and argv[-2] == "--seed"
            assert "--trials" not in argv  # nothing is sampled
