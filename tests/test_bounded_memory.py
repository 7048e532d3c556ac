"""Monte Carlo runs take bounded memory: each chunk reads its own windows
of the draws and the overlap sums are folded chunk by chunk, so the
tracemalloc peak at 4n trials stays within 1.25 times the peak at n. The
runs use 2,048-row chunks, so that n = 32,768 is already 16 chunks and the
test stays quick. The runs that record nothing, library and CLI, run their
chunks on one thread: on two, how far the threads' chunks overlap is
chance, and it moved these small peaks (a few hundred KB) past the bound on
a loaded host. The chunk-budget test below bounds each chunk's own peak.
After one warm-up run, the peak at n is the largest of four library runs,
which see as many chunks as the one run at 4n, or of two CLI runs. The CLI
writes a transcript chunk by chunk as the run goes, and is held to the same
bound; so is a library run recorded to an open file, at the writer's own
chunk size. These recorded runs keep 2 threads, as they test the pool's
in-order writes.

The largest chunk kernel, the Hall spins at per-trial settings, is held to
a stated size per trial, on one thread.

Every chunk of tools/chunk_memory.py is held to one budget, on one thread
in one chunk, as the tool traces it: at most 120 bytes per trial in a
65,536-row chunk that records nothing, and at most 200 bytes per row in a
chunk of protocols._CSV_CHUNK_ROWS rows recorded to a discarding writer."""

import importlib.util
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lhvlab
from lhvlab import geometry, protocols
from lhvlab.cli import main
from lhvlab.geometry import RandomStream, planar_setting
from lhvlab.models import MODEL_IDS, estimate_law, hall_spins

N = 1 << 15
A, B = planar_setting(0.0), planar_setting(75.0)
P = {"tb-ext1": 0.3, "tb-ext2": 0.7}

RUNS = {
    "tb": lambda n: protocols.run_tb_protocol(n, A, B, 5, record=False),
    "tb-freewill": lambda n: protocols.run_tb_freewill(n, A, B, 5, record=False),
    "shared-coin": lambda n: protocols.run_shared_coin(n, 5, record=False),
    **{f"watch-{m}": (lambda n, m=m: protocols.run_watch_realization(n, m, 5, record=False))
       for m in ("pinned", "hall")},
    # Each runner's library default, which records nothing.
    "tb-default": lambda n: protocols.run_tb_protocol(n, A, B, 5),
    "tb-freewill-default": lambda n: protocols.run_tb_freewill(n, A, B, 5),
    "shared-coin-default": lambda n: protocols.run_shared_coin(n, 5),
    **{f"watch-{m}-default": (lambda n, m=m: protocols.run_watch_realization(n, m, 5))
       for m in ("pinned", "hall")},
    **{f"audit-{mode}": (lambda n, mode=mode: protocols.run_conspiracy_audit(n, A, B, mode, 5))
       for mode in ("honest", "slave")},
    # Detection reads its index draws window by window.
    **{f"detection-{mode}": (lambda n, mode=mode: protocols.run_detection_loophole(
        n, mode, 5, n_directions=16)) for mode in ("symmetric", "asymmetric", "sphere")},
    # signal counts its (intended, received) bit pairs chunk by chunk.
    **{f"signal-{mode}": (lambda n, mode=mode: protocols.run_signaling_experiment(
        [0, 1, 1, 0, 1], mode, n, 5)) for mode in ("action", "slave-will")},
    **{f"estimate_law-{m}": (lambda n, m=m: estimate_law(m, A, B, n, RandomStream(5),
                                                         p=P.get(m)))
       for m in MODEL_IDS},
}


def _peak(run, n: int) -> int:
    tracemalloc.start()
    try:
        run(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", RUNS)
def test_peak_memory_does_not_grow_with_trials(monkeypatch, name):
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 1 << 11)
    monkeypatch.setattr(geometry, "_workers", lambda: 1)
    _peak(RUNS[name], N)  # warm-up: first-call allocations do not count
    small = max(_peak(RUNS[name], N) for _ in range(4))
    large = _peak(RUNS[name], 4 * N)
    assert large <= 1.25 * small, (small, large)


class _Discard:
    def write(self, text):
        pass


def test_recorded_run_memory_does_not_grow_with_rows(monkeypatch):
    # A run recorded to an open file keeps no whole-length column and no
    # more than a few chunks of text, so 4n rows peak like n rows (n = 4
    # chunks).
    monkeypatch.setattr(geometry, "_workers", lambda: 2)
    n = 4 * protocols._CSV_CHUNK_ROWS

    def run(n):
        protocols.run_shared_coin(n, 5, record=_Discard())
    run(100)  # the digit tables are built once per process
    peak_small = max(_peak(run, n) for _ in range(2))
    peak_large = _peak(run, 4 * n)
    assert peak_large <= 1.25 * peak_small, (peak_small, peak_large)


CLI_TRANSCRIPTS = {
    "tb": (["--name", "tb"], 0),
    "shared-coin": (["--name", "shared-coin"], 0),
    "watch-pinned": (["--name", "watch-pinned"], 0),
    "detection-sphere": (["--name", "detection-loophole", "--mode", "sphere",
                          "--n-directions", "16"], 0),
}


@pytest.mark.parametrize("name", CLI_TRANSCRIPTS)
def test_cli_transcript_memory_does_not_grow_with_trials(monkeypatch, tmp_path, name):
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 1 << 11)
    monkeypatch.setattr(protocols, "_CSV_CHUNK_ROWS", 1 << 11)
    monkeypatch.setattr(geometry, "_workers", lambda: 2)
    argv, per_trial = CLI_TRANSCRIPTS[name]

    def run(n):
        main(["protocol", *argv, "--trials", str(n), "--seed", "5",
              "--transcript", str(tmp_path / "transcript.csv"),
              "--out", str(tmp_path / "report.json")])
    run(100)  # the parser and the digit tables are built once per process
    # Each chunk writes its own text in turn, so at most one text per thread
    # is alive; how far the threads' chunks overlap is still chance, so the
    # peak at n is the largest of two runs and the peak at 4n the smaller.
    small = max(_peak(run, N) for _ in range(2))
    large = min(_peak(run, 4 * N) for _ in range(2))
    assert large - per_trial * 3 * N <= 1.25 * small, (small, large)


def _cli(*argv):
    return lambda n: main([*argv, "--trials", str(n), "--seed", "5", "--out", os.devnull])


# chsh --trials and feasibility --from-model read their correlators from
# outcome-count tables summed chunk by chunk, so they keep no per-trial
# column either.
CLI_CORRELATORS = {
    "chsh": _cli("chsh", "--model", "mixed"),
    "feasibility-from-model": _cli("feasibility", "--from-model", "pinned"),
}


@pytest.mark.parametrize("name", CLI_CORRELATORS)
def test_cli_correlator_memory_does_not_grow_with_trials(monkeypatch, name):
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 1 << 11)
    monkeypatch.setattr(geometry, "_workers", lambda: 1)
    run = CLI_CORRELATORS[name]
    run(100)  # the parser is built once per process
    small = max(_peak(run, N) for _ in range(2))
    large = _peak(run, 4 * N)
    assert large <= 1.25 * small, (small, large)


def test_hall_spins_at_per_trial_settings_trace_at_most_160_bytes_per_trial():
    # The frame e1, e2, e3 is built in place: at its peak, one chunk of
    # watch-vector rows holds e1, e3, the sphere points, the output and two
    # columns, 112 bytes per trial, and little more.
    m = 1 << 16
    t = (np.arange(m) + 0.5) * protocols.EMISSION_STEP
    a = protocols.watch_vector(t, protocols.WATCH_A)
    b = protocols.watch_vector(t, protocols.WATCH_B)
    w = RandomStream(5, 4).uniform((4, m))
    hall_spins(a, b, w)
    assert _peak(lambda n: hall_spins(a, b, w), m) <= 160 * m


_SPEC = importlib.util.spec_from_file_location(
    "chunk_memory", Path(__file__).parents[1] / "tools" / "chunk_memory.py")
chunk_memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(chunk_memory)
RECORDED = [name for name in chunk_memory.RUNS if name.startswith("transcript-")]


@pytest.mark.parametrize("name", [name for name in chunk_memory.RUNS if name not in RECORDED])
def test_every_chunk_traces_at_most_120_bytes_per_trial(name):
    run = chunk_memory.RUNS[name][0]
    assert chunk_memory.chunk_peak(lhvlab, run, 1 << 16) <= 120.0


@pytest.mark.parametrize("name", RECORDED)
def test_every_recorded_chunk_traces_at_most_200_bytes_per_row(name):
    run = chunk_memory.RUNS[name][0]
    assert chunk_memory.chunk_peak(lhvlab, run, protocols._CSV_CHUNK_ROWS) <= 200.0
