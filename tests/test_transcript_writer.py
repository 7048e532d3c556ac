"""The byte-matrix transcript writer: its dense %.9g cells against _fmt, and
its output against the row-by-row reference in any chunk layout."""

import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lhvlab import geometry, protocols
from lhvlab.protocols import (_CSV_COLUMNS, TranscriptBatch, _codes, _csv_rows, _float_cells,
                              _fmt, _joint_parts)
from test_protocols import B63, RUNNERS, X, reference_csv, transcript


def dense_cells(values) -> list:
    """The cells _float_cells writes for values, as strings."""
    rows = _float_cells(np.array(values, dtype=np.float64))
    return [bytes(row[row != 0]).decode() for row in rows]


def product_rounding_cases(count: int = 40) -> list:
    """Doubles x in [1e-4, 10) whose rounded product fl(x * 10**k) rounds to
    an integer other than the exact product x * 10**k does, with k the
    power that puts the product in [1e8, 1e9): the product lands on a half."""
    rng = random.Random(15)
    found = []
    while len(found) < count:
        k = rng.randint(8, 12)
        half = Fraction(2 * rng.randrange(10 ** 8, 10 ** 9) + 1, 2 * 10 ** k)
        near = float(half)
        for x in (math.nextafter(near, 0.0), near, math.nextafter(near, 1.0)):
            if round(Fraction(x) * 10 ** k) != np.rint(x * float(10 ** k)):
                found.append(x)
    return found


FIXED = [0.0, -0.0, 1.0, -1.0, 1 + 2 ** -52, 0.1, 1e-4, 9.9999999995e-05, 0.9999999995,
         0.99999999949999, 5e-324, math.nan, math.inf, -math.inf]
# Either side of each edge of the dense rule: the 1e-4 and 10 bounds of its
# range, 1e-5, powers of ten where log10 may round across, and values that
# carry to the next power (1 - 2**-53 prints as 1).
EDGES = [x for edge in (1e-5, 1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0)
         for x in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))]
EDGES += [1 - 2 ** -53, 9.9999999995, 9.99999999949999, 0.099999999995, 1.23456789e-300,
          1.23456789e+300, 123456789.0]


def test_dense_cells_match_fmt_on_fixed_values():
    values = FIXED + [-x for x in FIXED] + product_rounding_cases()
    assert dense_cells(values) == [_fmt(x) for x in values]


def test_dense_cells_match_fmt_at_the_edges_after_a_prefix_and_side_by_side():
    # The 16-character cells of -1.23456789e+-300 widen the rows after ",".
    values = EDGES + [-x for x in EDGES] + FIXED + product_rounding_cases(10)
    assert dense_cells(values) == [_fmt(x) for x in values]
    pairs = np.array([values, values[::-1]], dtype=np.float64).T
    rows = _float_cells(pairs, ",")
    assert [bytes(row[row != 0]).decode() for row in rows] == [
        f",{_fmt(x)},{_fmt(y)}" for x, y in pairs]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(-1.5, 1.5)), min_size=1, max_size=50))
def test_dense_cells_after_a_prefix_match_fmt_on_any_float(pairs):
    rows = _float_cells(np.array(pairs, dtype=np.float64), ",")
    assert [bytes(row[row != 0]).decode() for row in rows] == [
        f",{_fmt(x)},{_fmt(y)}" for x, y in pairs]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_dense_cells_match_fmt_on_any_float(values):
    assert dense_cells(values) == [_fmt(x) for x in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=50))
def test_dense_cells_match_fmt_on_overlaps(values):
    assert dense_cells(values) == [_fmt(x) for x in values]


CELL_COLUMNS = {
    "constant-int": np.full(40, 3, np.int64),
    "broadcast-int": np.broadcast_to(np.int64(1), (40,)),
    "constant-bool": np.ones(40, bool),
    "broadcast-bool": np.broadcast_to(True, (40,)),
    "mixed-int": np.arange(40) % 3 - 1,
    "constant-float": np.full(40, -1.0),
    "broadcast-float": np.broadcast_to(0.25, (40,)),
    "zeros": np.array([0.0, -0.0] * 20),
    "negative-zero": np.full(40, -0.0),
    "nan": np.full(40, math.nan),
    "broadcast-nan": np.broadcast_to(math.nan, (40,)),
    "mixed-float": np.array([math.nan, 0.0, -0.0, 1.0, -1.0] * 8),
    # More distinct values than a joint table codes, or values at the ends
    # of their dtype's range.
    "many-int": np.arange(40) % 37 - 18,
    "sixteen-int": np.arange(40) % 16 + 7,
    "seventeen-int": np.arange(40) % 17,
    "sixteen-float": np.arange(40) % 16 * 0.5 - 2,
    "seventeen-float": np.arange(40) % 17 * 0.5 - 2,
    "distinct-float": np.linspace(-1.0, 1.0, 40),
    "int8-ends": np.array([-128, 127, -113] * 13 + [-128], np.int8),
    "int64-ends": np.array([-2 ** 63, 2 ** 63 - 1] * 20, np.int64),
    "uint64-high": np.array([2 ** 64 - 1, 2 ** 64 - 16] * 20, np.uint64),
    "float32": np.array([0.1, -0.0, 3.0] * 13 + [0.5], np.float32),
    "mixed-bool": np.arange(40) % 3 == 0,
    # A table of its own, past _JOINT cells; a hidden-cell code past uint8.
    "over-joint-int": np.arange(5000) * 7919 % 5000 - 2500,
    "over-uint8-float": np.linspace(-1.0, 1.0, 300)[::-1],
}
SHOWN = {
    "all": None,
    "some": lambda m: np.arange(m) % 3 > 0,
    "broadcast": lambda m: np.broadcast_to(False, (m,)),
}


# _csv_rows codes no column of an empty chunk, so every column here has rows.
@pytest.mark.parametrize("shown", SHOWN.values(), ids=SHOWN.keys())
@pytest.mark.parametrize("column", CELL_COLUMNS.values(), ids=CELL_COLUMNS.keys())
def test_cells_match_fmt_for_constant_broadcast_and_mixed_columns(column, shown):
    # The coder alone: row i's cell is texts[codes[i]], and a fully shown
    # column of one cell, constant or broadcast, has no codes at all.
    visible = np.ones(len(column), bool) if shown is None else shown(len(column))
    codes, texts = _codes(column, None if shown is None else visible)
    cells = [texts[0]] * len(column) if codes is None else [texts[c] for c in codes]
    assert cells == [_fmt(v) if show else "" for v, show in zip(column, visible)]
    if shown is None:
        assert (codes is None) == (len(set(cells)) == 1)


@pytest.mark.parametrize("shown", SHOWN.values(), ids=SHOWN.keys())
@pytest.mark.parametrize("column", CELL_COLUMNS.values(), ids=CELL_COLUMNS.keys())
def test_joint_cells_match_fmt_for_any_column(column, shown):
    # 0.0, -0.0 and NaN keep their own cells.
    visible = np.ones(len(column), bool) if shown is None else shown(len(column))
    expected = [f"<{_fmt(v) if show else ''}>" for v, show in zip(column, visible)]
    parts = _joint_parts(["<", (column, None if shown is None else visible), ">"])
    rows = np.hstack([np.broadcast_to(p, (len(column), p.shape[1])) for p in parts])
    rows = np.ascontiguousarray(rows).view(np.uint8)
    assert [bytes(row[row != 0]).decode() for row in rows] == expected


def batch(n, overlaps=None, sigma=None, tau=None, **columns) -> TranscriptBatch:
    """A hand-built batch of n trials, with fair coins for sigma and tau
    unless given. With overlaps x, u = (x, -0.0, -0.0) is read against
    a_used = (1, 1, 1) and b_used = (-1, 1, 1): u.a_used = x and
    u.b_used = -x exactly."""
    stream = geometry.RandomStream(46)
    if overlaps is None:
        u, a_used, b_used = geometry.sphere_rows(stream, n)(slice(0, n)), X, B63
    else:
        u = np.stack([overlaps, np.full(n, -0.0), np.full(n, -0.0)], axis=1)
        a_used, b_used = np.ones(3), np.array([-1.0, 1.0, 1.0])
    sigma = 2.0 * (stream.uniform(n) < 0.5) - 1.0 if sigma is None else sigma
    tau = 2.0 * (stream.uniform(n) < 0.5) - 1.0 if tau is None else tau
    return TranscriptBatch("hand-built", u, a_used, b_used, sigma=sigma, tau=tau, **columns)


def special_overlaps(n) -> np.ndarray:
    values = np.array(EDGES + FIXED + product_rounding_cases(10), dtype=np.float64)
    values = np.concatenate([values, -values])
    return np.resize(values, n)


LAYOUTS = {
    "shared-coin": lambda: transcript("shared-coin", 300, 45)[1],
    "detection-sphere": lambda: transcript("detection-sphere", 300, 45)[1],
    "special-overlaps": lambda: batch(300, overlaps=special_overlaps(300)),
    "wide-columns": lambda: batch(
        300, c=np.arange(300) % 40 - 20, d=np.arange(300) % 23 * 0.25,
        sigma=np.arange(300) % 19 - 9.0, tau=np.linspace(-1, 1, 300),
        detected_a=np.arange(300) % 4 != 0, bits_a_to_b=np.arange(300) % 31),
    "joint-split": lambda: batch(
        300, c=np.arange(300) % 16, d=np.arange(300) % 16 * 1.5,
        sigma=np.arange(300) % 16 - 8.0, tau=np.arange(300) % 15 - 7.0,
        detected_a=np.arange(300) % 3 != 0, detected_b=np.arange(300) % 5 != 0,
        bits_a_to_b=np.arange(300) % 16, bits_b_to_a=np.arange(300) % 7),
    "constant-c-broadcast-d": lambda: batch(
        300, c=np.full(300, -1), d=np.broadcast_to(0.5, (300,)), sigma=np.ones(300),
        tau=np.full(300, -1.0)),
    "absent-c-and-d": lambda: batch(300),
    "absent-c-constant-d": lambda: batch(300, d=np.full(300, 2.0)),
    "mixed-detection": lambda: batch(
        300, c=np.arange(300) % 3 - 1, sigma=np.where(np.arange(300) % 4 == 0, np.nan, 1.0),
        tau=np.where(np.arange(300) % 5 == 0, -0.0, -1.0),
        detected_a=np.arange(300) % 4 != 0, detected_b=np.arange(300) % 5 != 0,
        bits_a_to_b=np.arange(300) % 2, bits_b_to_a=7),
    "none-detected": lambda: batch(
        300, detected_a=np.zeros(300, bool), detected_b=np.zeros(300, bool)),
}
# Chunk starts straddling the indices where the index cells gain a word.
STARTS = [0, 9_850, 10_000, 99_999_850, 100_000_000, 10 ** 12 - 150]


def shifted(text: str, start: int) -> str:
    """The rows of a CSV (header dropped) with each trial index moved up by start."""
    rows = text.splitlines(keepends=True)[1:]
    return "".join(f"{start + i}{row[row.index(','):]}" for i, row in enumerate(rows))


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_rows_match_reference_in_any_layout_at_any_start(layout, start):
    tr = layout()
    cols = {k: x for k in _CSV_COLUMNS if (x := getattr(tr, k)) is not None}
    assert _csv_rows(tr.model, start, cols) == shifted(reference_csv(tr), start)


def written(tr) -> str:
    fh = io.StringIO()
    tr.to_csv(fh)
    return fh.getvalue()


@pytest.mark.parametrize("fh", [None, False, "x.csv"])
def test_writer_needs_an_open_file(fh):
    # _tally reads None and False as no transcript; to_csv has one to write.
    with pytest.raises(TypeError):
        batch(10).to_csv(fh)


@pytest.mark.parametrize("name", RUNNERS)
def test_writer_matches_reference_in_any_chunk_layout(monkeypatch, name):
    tr = transcript(name, 3017, 44)[1]
    expected = reference_csv(tr)
    monkeypatch.setattr(protocols, "_CSV_CHUNK_ROWS", 1000)
    for workers in (1, 2, 3):
        monkeypatch.setattr(geometry, "_workers", lambda: workers)
        assert written(tr) == expected, workers


class SinkFailed(Exception):
    pass


class FailingSink:
    """Takes `good` writes, then raises on every later one."""

    def __init__(self, good: int):
        self.good = good
        self.writes = 0
        self.error = SinkFailed()

    def write(self, text):
        self.writes += 1
        if self.writes > self.good:
            raise self.error


@pytest.mark.parametrize("good", [0, 1, 2])
def test_writer_raises_what_the_sink_raises(monkeypatch, good):
    tr = transcript("shared-coin", 3017, 44)[1]
    monkeypatch.setattr(protocols, "_CSV_CHUNK_ROWS", 1000)
    monkeypatch.setattr(geometry, "_workers", lambda: 2)
    # The batch's writer, then a run that streams its own transcript.
    for write in (tr.to_csv, lambda sink: RUNNERS["shared-coin"](3017, 44, sink)):
        sink = FailingSink(good)
        with pytest.raises(SinkFailed) as exc:
            write(sink)
        assert exc.value is sink.error and sink.writes == good + 1
