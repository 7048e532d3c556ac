"""Monte Carlo runs take bounded memory: each chunk reads its own windows
of the draws and the overlap sums are folded chunk by chunk, so the
tracemalloc peak at 4n trials stays within 1.25 times the peak at n. The
runs use 2,048-row chunks on 2 threads, so that n = 32,768 is already 16
chunks and the test stays quick. How far the two threads' chunks overlap is
chance, and a run with more chunks is likelier to catch both threads at
their peak together. So, after one warm-up run, the peak at n is the
largest of four runs, which see as many chunks as the one run at 4n. The
CLI writes a transcript chunk by chunk as the run goes, and is held to the
same bound; so is a library run recorded to an open file, at the writer's
own chunk size.

The runs that still keep a whole-length array are held to its stated size
per trial instead, on one thread, where the chunks run inline and the peak
does not depend on chance."""

import os
import tracemalloc

import pytest

from lhvlab import geometry, protocols
from lhvlab.cli import main
from lhvlab.geometry import RandomStream, planar_setting
from lhvlab.models import MODEL_IDS, estimate_law

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
    monkeypatch.setattr(geometry, "_workers", lambda: 2)
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


# The detection runs keep their three index draws (setting a, setting b and
# spin) whole, one byte per trial each.
CLI_TRANSCRIPTS = {
    "tb": (["--name", "tb"], 0),
    "shared-coin": (["--name", "shared-coin"], 0),
    "watch-pinned": (["--name", "watch-pinned"], 0),
    "detection-sphere": (["--name", "detection-loophole", "--mode", "sphere",
                          "--n-directions", "16"], 3),
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
    # A chunk's CSV text waits for the writer, so how many chunks are alive
    # at once varies more here: the peak at 4n is the smaller of two runs.
    small = max(_peak(run, N) for _ in range(2))
    large = min(_peak(run, 4 * N) for _ in range(2))
    assert large - per_trial * 3 * N <= 1.25 * small, (small, large)


def _cli(*argv):
    return lambda n: main([*argv, "--trials", str(n), "--seed", "5", "--out", os.devnull])


# Bytes per trial of the whole-length arrays a run keeps at its peak.
GROWING = {
    # The three index draws, stored as uint8.
    **{f"detection-{mode}": (3, lambda n, mode=mode: protocols.run_detection_loophole(
        n, mode, 5, n_directions=16)) for mode in ("symmetric", "asymmetric", "sphere")},
}


@pytest.mark.parametrize("name", GROWING)
def test_whole_length_arrays_keep_their_stated_size(monkeypatch, name):
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 1 << 11)
    monkeypatch.setattr(geometry, "_workers", lambda: 1)
    per_trial, run = GROWING[name]
    run(100)
    small, large = _peak(run, N), _peak(run, 4 * N)
    assert large - small <= per_trial * 3 * N + 4096, (small, large)


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
    monkeypatch.setattr(geometry, "_workers", lambda: 2)
    run = CLI_CORRELATORS[name]
    run(100)  # the parser is built once per process
    small = max(_peak(run, N) for _ in range(2))
    large = _peak(run, 4 * N)
    assert large <= 1.25 * small, (small, large)
