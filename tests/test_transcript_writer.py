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
from lhvlab.protocols import _cells, _float_cells, _fmt, _text_cells
from test_protocols import RUNNERS, reference_csv


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


def test_dense_cells_match_fmt_on_fixed_values():
    values = FIXED + [-x for x in FIXED] + product_rounding_cases()
    assert dense_cells(values) == [_fmt(x) for x in values]


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
    "empty": np.zeros(0),
}
SHOWN = {
    "all": None,
    "some": lambda m: np.arange(m) % 3 > 0,
    "broadcast": lambda m: np.broadcast_to(False, (m,)),
}


@pytest.mark.parametrize("shown", SHOWN.values(), ids=SHOWN.keys())
@pytest.mark.parametrize("column", CELL_COLUMNS.values(), ids=CELL_COLUMNS.keys())
def test_cells_match_fmt_for_constant_broadcast_and_mixed_columns(column, shown):
    # Constant and broadcast columns skip the sort; 0.0, -0.0 and NaN keep
    # their own cells. A cell may be wider than its text: NULs are dropped.
    visible = np.ones(len(column), bool) if shown is None else shown(len(column))
    expected = _text_cells([_fmt(v) if show else "" for v, show in zip(column, visible)])
    got = _cells(column, None if shown is None else visible)
    assert len(got) == len(expected)
    assert [bytes(row[row != 0]) for row in got] == [bytes(row[row != 0]) for row in expected]


def written(tr) -> str:
    fh = io.StringIO()
    tr.to_csv(fh)
    return fh.getvalue()


@pytest.mark.parametrize("name", RUNNERS)
def test_writer_matches_reference_in_any_chunk_layout(monkeypatch, name):
    tr = RUNNERS[name](3017, 44).transcripts
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
    tr = RUNNERS["shared-coin"](3017, 44).transcripts
    monkeypatch.setattr(protocols, "_CSV_CHUNK_ROWS", 1000)
    monkeypatch.setattr(geometry, "_workers", lambda: 2)
    sink = FailingSink(good)
    with pytest.raises(SinkFailed) as exc:
        tr.to_csv(sink)
    assert exc.value is sink.error and sink.writes == good + 1
