"""tools/chunk_memory.py prints each run's chunk peak and command peak."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "chunk_memory", Path(__file__).parents[1] / "tools" / "chunk_memory.py")
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)

RUNS = ["tb", "tb-freewill", "shared-coin", "detection-symmetric", "detection-asymmetric",
        "detection-sphere", "watch-pinned", "watch-hall", "audit-honest", "audit-slave",
        "signal-action", "signal-slave-will", "simulate-tb", "simulate-tb-ext1",
        "simulate-tb-ext2", "simulate-tb-freewill", "simulate-pinned", "simulate-hall",
        "simulate-mixed", "feasibility-pinned", "feasibility-hall", "feasibility-tb-freewill",
        "transcript-tb", "transcript-shared-coin", "transcript-watch-pinned",
        "transcript-detection-sphere"]


def test_chunk_memory_lists_every_runner_and_sampler():
    assert list(tool.RUNS) == RUNS


def test_chunk_memory_prints_bytes_per_trial_and_megabytes_at_tiny_sizes(capsys):
    only = ["watch-hall", "detection-sphere", "simulate-tb-ext1", "feasibility-hall",
            "transcript-shared-coin"]
    assert tool.main(["--rows", "1024", "--trials", "1000", "--only", *only]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [fields[0] for fields in lines] == only
    assert all(len(fields) == 3 for fields in lines)
    assert all(float(fields[1]) > 0.0 and float(fields[2]) > 0.0 for fields in lines)
