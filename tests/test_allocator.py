"""cli.main keeps freed chunk temporaries mapped on glibc, and only there."""

import ctypes
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from lhvlab import cli
from lhvlab.cli import main


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Median minor page faults of 5 warm estimate_law calls at 1e6 trials per
# model, after one cli.main call (at glibc's defaults: 13k-22k per call).
WARM_FAULTS = """
import os, resource, statistics
from lhvlab import cli
from lhvlab.geometry import RandomStream, planar_setting
from lhvlab.models import estimate_law
assert cli.main(["law", "--model", "singlet", "--out", os.devnull]) == 0
a, b = planar_setting(0.0), planar_setting(60.0)
for model in ("pinned", "tb", "hall"):
    estimate_law(model, a, b, 1_000_000, RandomStream(1))
    faults = []
    for seed in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        estimate_law(model, a, b, 1_000_000, RandomStream(seed))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(model, statistics.median(faults))
"""


@pytest.mark.skipif(not _on_glibc(), reason="the allocator setting applies on glibc only")
def test_warm_estimates_after_a_cli_run_take_almost_no_page_faults():
    faults = dict(line.split() for line in _python(WARM_FAULTS).splitlines())
    assert sorted(faults) == ["hall", "pinned", "tb"]
    assert all(float(n) < 500 for n in faults.values()), faults


def test_importing_the_cli_leaves_the_allocator_alone():
    out = _python("from lhvlab import cli; print(cli._keep_chunk_memory.cache_info().currsize)")
    assert out.split() == ["0"]


@pytest.mark.skipif(not _on_glibc(), reason="the allocator setting applies on glibc only")
def test_the_allocator_is_set_once_per_process(monkeypatch):
    keep = cache(cli._keep_chunk_memory.__wrapped__)
    monkeypatch.setattr(cli, "_keep_chunk_memory", keep)
    for _ in range(2):
        assert main(["law", "--model", "singlet", "--out", os.devnull]) == 0
    assert keep.cache_info().misses == 1
    assert keep() is True


ARGVS = [["simulate", "--model", "pinned", "--trials", "70000"],
         ["protocol", "--name", "watch-hall", "--trials", "70000"],
         ["chsh", "--model", "hall", "--trials", "3000"]]


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: argv[0])
def test_without_glibc_the_cli_writes_the_same_report(tmp_path, monkeypatch, argv):
    kept = tmp_path / "kept.json"
    assert main([*argv, "--out", str(kept)]) == 0

    def no_such_name(name):
        raise ValueError("unrecognized configuration name")

    def no_libc(*args, **kwargs):
        raise AssertionError("libc loaded without glibc")

    keep = cache(cli._keep_chunk_memory.__wrapped__)
    monkeypatch.setattr(cli, "_keep_chunk_memory", keep)
    monkeypatch.setattr(os, "confstr", no_such_name)
    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    default = tmp_path / "default.json"
    assert main([*argv, "--out", str(default)]) == 0
    assert keep() is False
    assert default.read_bytes() == kept.read_bytes()
