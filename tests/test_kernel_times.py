"""tools/kernel_times.py times every listed kernel on a small chunk."""

import importlib.util
import time
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "kernel_times", Path(__file__).parents[1] / "tools" / "kernel_times.py")
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)

KERNELS = ["sgn", "malus_outcome", "uniform_signs", "dot", "sphere_point", "sphere_rows",
           "hall_spins", "_bin_index", "watch_vector", "uniform_rows", "cross", "malus_pair",
           "malus_pair_atoms", "hall_outcomes", "one_bit_tau", "outcome_counts",
           "outcome_counts_binned", "csv_rows"]


def test_kernel_times_prints_one_line_per_kernel_at_1024_rows_within_a_second(capsys):
    start = time.perf_counter()
    assert tool.main(["--rows", "1024"]) == 0
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == KERNELS
    assert all(float(line.split()[1]) >= 0.0 for line in lines)
    assert elapsed < 1.0


def test_kernel_times_prints_the_minor_faults_per_call_as_a_third_column(capsys):
    assert tool.main(["--rows", "1024"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [fields[0] for fields in lines] == KERNELS
    assert all(len(fields) == 3 for fields in lines)
    assert all(float(fields[2]) >= 0.0 for fields in lines)
