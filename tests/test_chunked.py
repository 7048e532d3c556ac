"""Chunked Monte Carlo runs give the same bytes at any chunk size and
thread count: every sampler and runner is run in one chunk, then in
1,000-row chunks on 1, 2 and 3 threads, and every output is compared."""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from lhvlab import geometry, protocols
from lhvlab.geometry import RandomStream, planar_setting, streamed
from lhvlab.inequalities import chsh_mc, counterfactual_correlators
from lhvlab.models import MODEL_IDS, MODELS, estimate_law, sample_outcomes
from recorded_runs import recorded

SIZES = (999, 1000, 1001, 3017)
WORKERS = (1, 2, 3)
A, B = planar_setting(0.0), planar_setting(75.0)
A2, B2 = planar_setting(45.0), planar_setting(135.0)
P = {"tb-ext1": 0.3, "tb-ext2": 0.7}
GRID_A = np.array([planar_setting(0.0), planar_setting(60.0), planar_setting(120.0)])
GRID_B = np.array([planar_setting(30.0), planar_setting(100.0)])


def _chunking(monkeypatch, rows, workers):
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", rows)
    monkeypatch.setattr(protocols, "_CSV_CHUNK_ROWS", rows)  # the chunks of a recording run
    monkeypatch.setattr(geometry, "_workers", lambda: workers)


def _layouts(monkeypatch, outputs):
    """outputs() in one chunk, then in 1,000-row chunks on each thread count."""
    _chunking(monkeypatch, 1 << 30, 1)
    whole = outputs()
    for workers in WORKERS:
        _chunking(monkeypatch, 1000, workers)
        yield workers, whole, outputs()


def _model_outputs(model, n):
    p = P.get(model)
    out = []
    stream = RandomStream(11, 1)
    law = estimate_law(model, A, B, n, stream, p=p)
    out.append((law.p.tobytes(), law.n_trials, stream.counter))
    stream = RandomStream(11, 2)
    out.append((chsh_mc(model, A, A2, B, B2, n, stream, p=p).as_dict(), stream.counter))
    if MODELS[model].local:
        stream = RandomStream(11, 3)
        estimates = counterfactual_correlators(model, A, A2, B, B2, n, stream)
        out.append(([e.as_dict() for e in estimates], stream.counter))
    return repr(out)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("model", MODEL_IDS)
def test_samplers_are_the_same_in_any_chunk_layout(monkeypatch, model, n):
    for workers, whole, chunked_run in _layouts(monkeypatch, lambda: _model_outputs(model, n)):
        assert chunked_run == whole, workers


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("model", MODEL_IDS)
def test_sampled_outcomes_are_the_same_in_any_chunk_layout(monkeypatch, model, n):
    # sample_outcomes fills its arrays through geometry.gathered, chunk by chunk.
    def outputs():
        stream = RandomStream(11, 4)
        arrays = sample_outcomes(model, A, B, n, stream, p=P.get(model))
        return [(x.dtype.str, x.shape, x.tobytes()) for x in arrays], stream.counter
    for workers, whole, chunked_run in _layouts(monkeypatch, outputs):
        assert chunked_run == whole, workers


# The runners that take record write their transcript, and it is compared too.
RECORDING = {
    "tb": lambda n, record: protocols.run_tb_protocol(n, A, B, 5, record),
    "tb-freewill": lambda n, record: protocols.run_tb_freewill(n, A, B, 5, record),
    "shared-coin": lambda n, record: protocols.run_shared_coin(n, 5, record=record),
    "shared-coin-fixed": lambda n, record: protocols.run_shared_coin(n, 5, A, B, record),
    "watch-pinned": lambda n, record: protocols.run_watch_realization(n, "pinned", 5, record),
    "watch-hall": lambda n, record: protocols.run_watch_realization(n, "hall", 5, record),
    **{f"detection-{mode}": (lambda n, record, mode=mode: protocols.run_detection_loophole(
        n, mode, 5, n_directions=64, record=record))
       for mode in ("symmetric", "asymmetric", "sphere")},
    "detection-grid": lambda n, record: protocols.run_detection_loophole(
        n, "symmetric", 5, GRID_A, GRID_B, record=record),
}
RUNNERS = {
    **RECORDING,
    **{f"audit-{mode}": (lambda n, mode=mode: protocols.run_conspiracy_audit(n, A, B, mode, 5))
       for mode in ("honest", "slave", "third-party")},
    **{f"signal-{mode}": (lambda n, mode=mode: protocols.run_signaling_experiment(
        [0, 1, 1, 0, 1], mode, n, 5)) for mode in ("action", "slave-will")},
}


def _runner_outputs(monkeypatch, name, n):
    streams = []

    def recording_substream(seed, stream_id):
        streams.append(RandomStream(seed, stream_id))
        return streams[-1]
    monkeypatch.setattr(protocols, "substream", recording_substream)
    run = RUNNERS[name]
    res, csv, _ = recorded(run, n) if name in RECORDING else (run(n), None, None)
    out = {"summary": res.summary(),
           "counters": [(s.stream_id, s.counter) for s in streams],
           "counts": getattr(res, "counts", None),
           "comparison": getattr(res, "singlet_comparison", None),
           "csv": csv}
    return repr(out)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", RUNNERS)
def test_runners_are_the_same_in_any_chunk_layout(monkeypatch, name, n):
    for workers, whole, chunked_run in _layouts(
            monkeypatch, lambda: _runner_outputs(monkeypatch, name, n)):
        assert chunked_run == whole, workers


def test_runner_columns_survive_thread_stress(monkeypatch):
    # More threads than CPUs, 7-row chunks and a short switch interval: a
    # lost write, or a column made twice, would change the transcript.
    _chunking(monkeypatch, 1 << 30, 1)
    whole = _runner_outputs(monkeypatch, "shared-coin", 3017)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _chunking(monkeypatch, 7, 6)
        stressed = _runner_outputs(monkeypatch, "shared-coin", 3017)
    finally:
        sys.setswitchinterval(interval)
    assert stressed == whole


def test_chunks_cover_the_rows_in_order(monkeypatch):
    _chunking(monkeypatch, 10, 2)
    assert list(streamed(35, lambda rows: (rows.start, rows.stop))) == [
        (0, 10), (10, 20), (20, 30), (30, 35)]
    assert list(streamed(0, lambda rows: (rows.start, rows.stop))) == [(0, 0)]


def test_nested_chunked_call_runs_inline(monkeypatch):
    _chunking(monkeypatch, 10, 2)

    def outer(rows):
        me = threading.get_ident()
        return me, list(streamed(35, lambda inner: threading.get_ident()))

    results = list(streamed(40, outer))
    assert len(results) == 4
    for me, inner in results:
        assert inner == [me] * 4
    assert threading.get_ident() not in {me for me, _ in results}


def test_chunk_exception_reraises_unchanged(monkeypatch):
    _chunking(monkeypatch, 10, 2)
    error = ValueError("sgn requires finite input")

    def work(rows):
        if rows.start == 20:
            raise error
        return rows.start

    with pytest.raises(ValueError) as info:
        list(streamed(50, work))
    assert info.value is error


def _chunk_starts(queue):
    queue.put(list(streamed(50, lambda rows: rows.start)))


def test_forked_child_makes_its_own_pool(monkeypatch):
    _chunking(monkeypatch, 10, 2)
    list(streamed(50, lambda rows: rows.start))  # the parent's pool exists
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_chunk_starts, args=(queue,), daemon=True)
    child.start()
    try:
        starts = queue.get(timeout=30)  # a child waiting on the parent's threads hangs
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert starts == [0, 10, 20, 30, 40]


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 20, 21, 35])
def test_gathered_fills_each_part_whole(monkeypatch, n):
    # 10-row chunks on 2 threads: n = 0, one row, and both sides of the
    # chunk edges; each part keeps its dtype and trailing shape.
    _chunking(monkeypatch, 10, 2)

    def parts(rows):
        i = np.arange(rows.start, rows.stop)
        return i, i / 7.0, np.stack([i, -i, 2 * i], axis=-1) * 0.5, i % 3 == 0

    got = geometry.gathered(n, parts)
    want = parts(slice(0, n))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()
