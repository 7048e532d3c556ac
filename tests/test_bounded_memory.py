"""Monte Carlo runs without a transcript take bounded memory: each chunk
reads its own windows of the draws and the overlap sums are folded chunk by
chunk, so the tracemalloc peak at 4n trials stays within 1.25 times the
peak at n. The runs use 2,048-row chunks on 2 threads, so that n = 32,768
is already 16 chunks and the test stays quick. How far the two threads'
chunks overlap is chance, so the peak at n is the larger of two runs. The
transcript writer is held to the same bound at its own chunk size."""

import tracemalloc

import pytest

from lhvlab import geometry, protocols
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
    small = max(_peak(RUNS[name], N) for _ in range(2))
    large = _peak(RUNS[name], 4 * N)
    assert large <= 1.25 * small, (small, large)


class _Discard:
    def write(self, text):
        pass


def test_transcript_writer_memory_does_not_grow_with_rows(monkeypatch):
    # The writer keeps no whole-length column and no more than a few chunks
    # of text, so 4n rows peak like n rows (n = 4 chunks).
    monkeypatch.setattr(geometry, "_workers", lambda: 2)
    n = 4 * protocols._CSV_CHUNK_ROWS
    small = protocols.run_shared_coin(n, 5).transcripts
    large = protocols.run_shared_coin(4 * n, 5).transcripts
    peak_small = max(_peak(lambda _: small.to_csv(_Discard()), n) for _ in range(2))
    peak_large = _peak(lambda _: large.to_csv(_Discard()), 4 * n)
    assert peak_large <= 1.25 * peak_small, (peak_small, peak_large)
