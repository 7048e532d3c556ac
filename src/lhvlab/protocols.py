"""Two-station + entangler protocol runners with exact resource metering.

Every classical realization runs as a sequential trial machine
(vectorized over trials) with explicit per-party random streams:
entangler, station A, station B, the station-to-station shared stream
(only where the protocol grants one), and the entangler's sampling
stream for the watch-driven variant. Station outcome rules read only
their own setting, their local/global hidden variables, and logged
channel messages, so corrupting one side cannot move the other side's
outcomes in the zero-communication protocols.

Prices are counted, not declared. Station B reads station A's bit only
through the meter ``_a_to_b``, which adds one bit per trial to the
chunk's ``bits_a_to_b`` column; ``_tally`` sums the ``bits_a_to_b`` and
``bits_b_to_a`` columns of the chunks as it sums their outcome counts,
and the transcript's bitsAB and bitsBA cells are those columns. A run's
shared draws are how far the counter of the stations' shared stream
moved during the run. A nonzero station-to-station count marks the run
communication-assisted.

Every runner reserves its draws whole and in a fixed order first, then
runs the per-trial rules chunk by chunk, each chunk reading its own
windows of the uniforms (``RandomStream.uniform_rows``) and of the index
draws (``RandomStream.index_rows``): detection's settings and spins, as
atom codes that its rules read once per pair of directions, and the
signaling run's atoms, which it only counts. No run keeps a whole-length
array. Every run that counts outcome pairs does so in ``_tally``, which sums
integer counts per group over the chunks and folds each chunk's overlaps t
into the per-group sums in chunk order, so the sums are those of one pass.
The signaling run counts its (intended, received) bit pairs there too:
every result keeps its count table, and no per-trial column.

A runner's ``record`` is None (no transcript; False means the same) or an
open text file, checked before the run draws anything (``_transcript``).
``_tally`` streams the transcript CSV to it, and is the one loop that
writes a transcript, ``TranscriptBatch.to_csv`` included: each chunk
formats its own rows and writes them once the chunks before it have, so
the rows come in trial order and no whole-length column is kept.
``_csv_rows`` lays out a chunk of rows as one matrix of NUL-padded 4-byte
words and drops the NULs once. Each row is the trial index, ",model,c,d"
and ",sigma,tau,detA,detB,bitsAB,bitsBA\n", each gathered from a table of
joined cells by one mixed-radix code of its columns (``_codes``, the one
cell coder), and between them the two overlaps, written in numpy by a
%.9g rule that hands any value it cannot prove to ``_fmt``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .geometry import (assert_unit, dot, planar_setting, select, sphere_point, sphere_rows,
                       streamed, substream, uniform_bits, uniform_signs)
from .models import (AtomSpins, JointLaw2x2, _draw_uv, hall_outcomes, hall_spin_rows,
                     law_table, malus_pair, one_bit_station_a, one_bit_tau, outcome_counts,
                     sign_outcome, singlet_law, spin_map)


# Stream ids per party; fixed so runs are reproducible and so that one
# party's draws can never shift another's.
STREAM_ENTANGLER = 0
STREAM_A = 1
STREAM_B = 2
STREAM_SHARED_AB = 3
STREAM_W0 = 4

CSV_HEADER = "trial_index,model,c,d,u_dot_a,u_dot_b,sigma,tau,detA,detB,bitsAB,bitsBA"
# The per-trial columns _csv_rows reads.
_CSV_COLUMNS = ("u", "a_used", "b_used", "sigma", "tau", "c", "d", "detected_a", "detected_b",
                "bits_a_to_b", "bits_b_to_a")


class WatchDesyncError(RuntimeError):
    """A station's reconstructed emission epoch, and so its watch vector,
    differs from the entangler's."""


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


# Rows per chunk of a recording run: each chunk's CSV text is one write,
# so this bounds the writer's transient memory.
_CSV_CHUNK_ROWS = 1 << 15
# Rows per block of _csv_rows' NUL drop.
_DROP_ROWS = 1 << 13

# 10**k for k in 0..22, each exact in float64.
_POW10 = np.array([float(10 ** k) for k in range(23)])
# y = |x| * 10**k is rounded once, by at most 2**-24 in [1e8, 1e9), so its
# rint is that of the exact product unless its fraction is this close to 1/2.
_TIE = 2.0 ** -22
# A column of at most _SMALL distinct values is coded without a sort, and
# neighbouring columns share a table of at most _JOINT joined cells.
_SMALL = 16
_JOINT = 1 << 12


# Cells are built from 4-byte words; NULs may sit anywhere in a cell, as
# they are dropped.
def _word_cells(strings) -> np.ndarray:
    """Strings, UTF-8 encoded and NUL-padded to whole 4-byte words, as the
    rows of a (len, words) uint32 matrix."""
    a = np.array([s.encode() for s in strings])
    return a.astype(f"S{-(-a.itemsize // 4) * 4}").view(np.uint32).reshape(len(a), -1)


@cache  # built by the first transcript written, not at import
def _digit_words() -> np.ndarray:
    """The 4 decimal digits of each k in 0..9999 as a 4-byte word, in three
    rows: all of them; without trailing zeros; without leading zeros (but
    for k = 0)."""
    k = np.arange(10_000)[:, None]
    digits = k // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    shown = (True, k % np.array([10_000, 1000, 100, 10]) > 0, k >= np.array([1000, 100, 10, 0]))
    return np.stack([np.where(s, digits, 0).astype(np.uint8).view(np.uint32)[:, 0] for s in shown])


@cache  # one table per prefix, built on first use
def _lead_words(prefix: str) -> np.ndarray:
    """The first two words of a _float_cells cell, as one uint64 indexed by
    (sign, -e, d0, point): prefix (at most one character), sign, then the
    integer digit and point, or "0.", the zeros after the point and d0 when
    e < 0, at the end of the 8 bytes. The NULs before them run on from the
    part before the cell, and one long run of NULs costs less to drop than
    several short ones."""
    cells = [prefix + s + (d + p if z == 0 else "0." + "0" * (z - 1) + d)
             for s in ("", "-") for z in range(5) for d in "0123456789" for p in ("", ".")]
    return _word_cells([cell.rjust(8, "\0") for cell in cells]).view(np.uint64)[:, 0]


def _codes(x: np.ndarray, shown=None):
    """The cells of a nonempty column, as (codes, texts): row i's cell is
    texts[codes[i]], _fmt of its value or "" where shown is false, and codes
    is None where every row's is texts[0].

    A column of at most _SMALL distinct values is coded without a sort: a
    bool is its own code, an int its offset from the column's least value,
    and a float the order in which its bits first appear. Any other column
    takes np.unique's inverse. Floats are keyed by their bits, so 0.0, -0.0
    and NaN keep their own cells.
    """
    kind = x.dtype.kind
    keys, codes, values = x, None, None
    if x.strides[0] == 0:
        values = x[:1]
    elif kind == "b":
        codes, values = (x.view(np.uint8), (False, True)) if x.any() and not x.all() else (None, x[:1])
    elif kind in "iu":
        lo, hi = int(x.min()), int(x.max())
        if hi - lo < _SMALL:
            codes = (x - x.dtype.type(lo)).astype(np.uint8) if hi > lo else None
            values = range(lo, hi + 1)
    elif kind == "f":
        keys = np.ascontiguousarray(x, dtype=np.float64).view(np.int64)
        codes, found = np.zeros(len(x), np.uint8), [0]
        seen = keys == keys[0]
        # Until every row is coded (seen[first]) or _SMALL values are found.
        while not seen[first := seen.argmin()] and len(found) < _SMALL:
            same = keys == keys[first]
            codes += same * np.uint8(len(found))
            seen |= same
            found.append(first)
        if seen[first]:
            codes, values = (codes if len(found) > 1 else None), x[found]
    if values is None:
        values, codes = np.unique(keys, return_inverse=True)
        if kind == "f":
            values = values.view(np.float64)
    texts = [_fmt(v) for v in values]
    if shown is not None and not (shown := shown.astype(bool, copy=False)).all():
        hidden = len(texts)  # the code of the "" cell, in uint8 while it fits
        codes = ((0 if codes is None else codes * shown)
                 + ~shown * np.min_scalar_type(hidden).type(hidden))
        texts.append("")
    return codes, texts


def _joint_parts(pieces) -> list:
    """The word rows of a run of pieces, each a text or a (column, shown)
    pair: one row of words per row of the columns, or one for all.

    Neighbouring pieces share one table of their joined cells, looked up
    by a mixed-radix code of the columns' _codes, while the table holds at
    most _JOINT cells; a column of more cells than that is a table of its
    own.
    """
    parts, run, code, size = [], [], None, 1

    def flush():
        if run:
            table = _word_cells(["".join(cells) for cells in product(*run)])
            parts.append(table if code is None else table.take(code, axis=0))

    for piece in pieces:
        codes, texts = (None, [piece]) if isinstance(piece, str) else _codes(*piece)
        if size * len(texts) > _JOINT:
            flush()
            run, code, size = [], None, 1
        run.append(texts)
        size *= len(texts)
        if codes is not None:
            code = codes.astype(np.intp) if code is None else code * len(texts) + codes
    flush()
    return parts


def _float_cells(x: np.ndarray, prefix: str = "") -> np.ndarray:
    """The _fmt cells of a float column of mostly distinct values, as rows
    of NUL-padded bytes, each cell after prefix (at most one character),
    computed in numpy; for an (n, k) array, each row's k cells side by side.

    %.9g writes |x| with 9 significant digits d0..d8 and decimal exponent e
    in fixed notation when -4 <= e <= 8, trailing zeros dropped. Here the
    digits are those of r = rint(y), y = |x| * 10**(8 - e) in [1e8, 1e9), for
    0 and for 1e-4 <= |x| <= 9 (|x| <= 1 covers the overlaps u.x); a carry
    to 1e9 moves e up one. Every other value, and every y within _TIE of a
    half, goes through _fmt, one row at a time. A cell is four 4-byte words:
    two for prefix, sign, then the integer digit and point, or "0.", the
    zeros after the point and d0 when e < 0 (_lead_words); d1..d4; d5..d8.
    Only a _fmt cell longer than that widens the rows.
    """
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    a = np.fmax(np.fmin(ax, 9.0), 1e-4)  # NaN becomes 9
    near = a == ax
    e = np.floor(np.log10(a)).astype(np.int32)
    y = a * _POW10.take(8 - e)
    if ((y < 1e8) | (y >= 1e9)).any():  # log10 rounded across a power of ten
        e += y >= 1e9
        e -= y < 1e8
        y = a * _POW10.take(8 - e)
    del a
    rounded = np.rint(y)
    r = rounded.astype(np.int32)
    carry = r == 10 ** 9
    e += carry
    r -= carry * np.int32(9 * 10 ** 8)
    slow = (ax != 0) & ~near | (np.abs(y - rounded) > 0.5 - _TIE)
    del ax, y, rounded, carry  # each value's working set is dead once read
    r *= near  # 0 has no digits and no exponent
    e *= near
    del near

    top = r // 10 ** 4  # d0..d4
    low = r - top * 10 ** 4
    d0 = top // 10 ** 4
    mid = top - d0 * 10 ** 4
    point = mid + low > 0
    del r, top
    # The lead-word index (d0 - 10 e) * 2 + point + 100 signbit(x), built in
    # e's buffer, with the sign bits in point's once point is added.
    lead = np.multiply(e, -10, out=e)
    lead += d0
    lead *= 2
    lead += point
    np.add(lead, 100, out=lead, where=np.signbit(x, out=point))
    del e, d0, point
    words = _digit_words()
    out = np.empty(x.shape + (4,), np.uint32)
    # Slow cells may index out of range.
    out.view(np.uint64)[..., 0] = _lead_words(prefix).take(lead, mode="clip")
    del lead
    out[..., 2] = words[:2].ravel().take(mid + (low == 0) * np.int32(10_000))
    out[..., 3] = words[1].take(low)
    if slow.any():
        cells = _word_cells([prefix + _fmt(v) for v in x[slow]])
        width = max(4, cells.shape[1])
        out = np.pad(out, ((0, 0),) * x.ndim + ((0, width - 4),))
        out[slow] = np.pad(cells, ((0, 0), (0, width - cells.shape[1])))
    return out.reshape(len(x), -1).view(np.uint8)


def _index_cells(lo: int, hi: int) -> np.ndarray:
    """The trial indices lo..hi-1 in decimal as rows of 4-byte words, one
    word per 4 digits: the leading group without its leading zeros and the
    groups above it empty."""
    groups = -(-len(str(max(hi - 1, 0))) // 4)
    out = np.empty((hi - lo, groups), np.uint32)
    words = _digit_words()
    # The lowest group changes every row: without leading zeros below
    # 10**4, with them from there on.
    digits = np.arange(lo % 10 ** 4, lo % 10 ** 4 + hi - lo)
    full = max(10 ** 4 - lo, 0)
    out[:full, -1] = words[2].take(digits[:full])
    out[full:, -1] = words[0].take(digits[full:], mode="wrap")
    # Group k is one word for each run of 10**(4k) indices i with the same
    # i // 10**(4k) = b: empty for b = 0.
    for k in range(1, groups):
        step = 10 ** (4 * k)
        for b in range(lo // step, (hi - 1) // step + 1):
            word = words[0 if b >= 10 ** 4 else 2][b % 10 ** 4] if b else 0
            out[max(b * step - lo, 0):(b + 1) * step - lo, groups - 1 - k] = word
    return out


def _csv_rows(model: str, start: int, cols) -> str:
    """The CSV rows of the trials start, start + 1, ... of a run of model,
    from their columns cols: u, a_used and b_used (a row per trial, or one
    vector for all), sigma, tau and any of c, d, detected_a, detected_b
    (default true), bits_a_to_b and bits_b_to_a (default 0), the last four
    a value per trial or one for all. Other entries of cols are not read.

    cols is emptied as it is read, so a column that the caller holds no
    other reference to is released once its cells are built: the entries
    not read at once, u, a_used and b_used as soon as the overlaps
    u.a_used and u.b_used are taken (their cells are built first), the
    other columns once their table of joined cells is.

    Every part of a row is a run of whole 4-byte words whose NULs are
    dropped: the trial index (_index_cells); ",model,c,d" from one table of
    joined cells; ",u_dot_a" and ",u_dot_b" (_float_cells); and
    ",sigma,tau,detA,detB,bitsAB,bitsBA\\n" from another (_joint_parts).
    The parts are laid side by side in one word matrix, and dropping its
    NULs leaves the text, _DROP_ROWS rows at a time, into the matrix
    itself. The index and the overlaps pad mostly in front and the tables
    behind, so most rows hold three runs of NULs: the fewer the runs, the
    less the drop costs.
    """
    for name in set(cols).difference(_CSV_COLUMNS):
        del cols[name]  # not read, so released at once
    u, a_used, b_used = (cols.pop(k) for k in ("u", "a_used", "b_used"))
    m = len(u)
    if not m:
        cols.clear()
        return ""
    overlaps = np.stack((dot(u, a_used), dot(u, b_used)), axis=1)
    del u, a_used, b_used
    overlap_cells = _float_cells(overlaps, ",").view(np.uint32)
    del overlaps

    def each(name, default):
        return np.broadcast_to(cols.pop(name, default), (m,))

    def cells(name):
        x = cols.pop(name, None)
        return "" if x is None else (x, None)
    shown_a, shown_b = each("detected_a", True), each("detected_b", True)
    head = _joint_parts([f",{model},", cells("c"), ",", cells("d")])
    tail = _joint_parts([",", (cols.pop("sigma"), shown_a), ",", (cols.pop("tau"), shown_b),
                         ",", (shown_a, None), ",", (shown_b, None),
                         ",", (each("bits_a_to_b", 0), None), ",", (each("bits_b_to_a", 0), None),
                         "\n"])
    cols.clear()
    parts = [_index_cells(start, start + m), *head, overlap_cells, *tail]
    del head, tail, overlap_cells
    text = np.concatenate([np.broadcast_to(part, (m, part.shape[1])) for part in parts], axis=1)
    del parts  # each transient is freed as soon as the next step holds its bytes
    # Each block's text moves down into the matrix, never past its own rows.
    width = text.shape[1] * 4
    text = text.view(np.uint8).ravel()
    end = 0
    for lo in range(0, m * width, _DROP_ROWS * width):
        block = text[lo:lo + _DROP_ROWS * width]
        kept = block[block != 0]
        text[end:end + len(kept)] = kept
        end += len(kept)
    return str(text[:end], "utf-8")


class TranscriptBatch:
    """The transcript CSV of columns a caller already holds, written by
    to_csv through _tally as a recording run writes its own; no runner
    makes one. It stays because the benchmark's tracer times to_csv by
    name, reading its n and its file argument fh.

    u is a row per trial; a_used and b_used a row per trial or one vector
    for all; sigma, tau, c and d a value per trial; detected_a, detected_b
    (default true), bits_a_to_b and bits_b_to_a (default 0) a value per
    trial or one for all."""

    def __init__(self, model: str, u, a_used, b_used, sigma, tau, c=None, d=None,
                 detected_a=True, detected_b=True, bits_a_to_b=0, bits_b_to_a=0):
        self.model = model
        self.n = n = len(u)
        self.u = np.asarray(u)
        self.a_used = np.broadcast_to(np.asarray(a_used, float), (n, 3))
        self.b_used = np.broadcast_to(np.asarray(b_used, float), (n, 3))
        self.sigma = np.asarray(sigma)
        self.tau = np.asarray(tau)
        self.c = None if c is None else np.asarray(c)
        self.d = None if d is None else np.asarray(d)
        self.detected_a = np.broadcast_to(np.asarray(detected_a, bool), (n,))
        self.detected_b = np.broadcast_to(np.asarray(detected_b, bool), (n,))
        self.bits_a_to_b = np.broadcast_to(np.asarray(bits_a_to_b, np.int64), (n,))
        self.bits_b_to_a = np.broadcast_to(np.asarray(bits_b_to_a, np.int64), (n,))

    def to_csv(self, fh) -> None:
        """Write the transcript CSV to the open text file fh, as _tally
        writes a recording run's."""
        if not hasattr(fh, "write"):
            raise TypeError(f"fh must be an open text file, not {fh!r}")
        _tally(self.n, fh, self._csv_chunk, model=self.model)

    def _csv_chunk(self, rows) -> dict:
        return {k: x[rows] for k in _CSV_COLUMNS if (x := getattr(self, k)) is not None}


N_BINS = 12  # overlap bins of the binned singlet comparison


def _bin_index(t, n_bins: int):
    """The bin of each overlap t among n_bins equal bins of [-1, 1]:
    np.digitize(t, edges) - 1 clipped to [0, n_bins - 1], NaN in the last
    bin. It is n_bins less the number of edges above t, counted edge by edge
    without the branches of digitize's binary search."""
    above = np.zeros(np.shape(t), np.int8 if n_bins < 127 else np.int64)
    for edge in np.linspace(-1.0, 1.0, n_bins + 1):
        above += t < edge
    return np.clip(np.subtract(n_bins, above, dtype=np.intp), 0, n_bins - 1)


def deviation_from_binned_counts(counts, t_sums) -> dict:
    """Worst absolute deviation of the per-bin empirical laws from the
    singlet table at each bin's mean overlap.

    The law is linear in the overlap, so comparing against the bin-mean
    overlap introduces no discretization bias. Besides the deviations, the
    result keeps the (n_bins, 2, 2) counts and, as reference, the singlet
    table each bin is compared with (zeros for an empty bin).
    """
    counts = np.asarray(counts)
    t_sums = np.asarray(t_sums, float)
    reference = np.zeros(counts.shape)
    max_dev = 0.0
    min_count = None
    bins = []
    for k in range(counts.shape[0]):
        cnt = int(counts[k].sum())
        if cnt == 0:
            continue
        tmean = float(t_sums[k]) / cnt
        reference[k] = law_table(tmean)
        dev = float(np.abs(counts[k] / cnt - reference[k]).max())
        max_dev = max(max_dev, dev)
        min_count = cnt if min_count is None else min(min_count, cnt)
        bins.append({"t_mean": tmean, "count": cnt, "max_abs_dev": dev})
    return {"max_abs_dev": max_dev, "n_bins": counts.shape[0],
            "min_bin_count": min_count or 0, "bins": bins, "counts": counts,
            "reference": reference}


@dataclass
class ProtocolResult:
    """A run's law and its counted price: the bits that crossed each way
    between the stations (_tally) and the draws of the stations' shared
    stream. causal_mode is "settings_cause_lambda" or
    "lambda_causes_settings"."""

    model: str
    n_trials: int
    law: JointLaw2x2
    causal_mode: str
    bits_a_to_b: int = 0
    bits_b_to_a: int = 0
    shared_draws_total: int = 0
    singlet_comparison: dict | None = None

    def summary(self) -> dict:
        out = {
            "model": self.model,
            "n_trials": self.n_trials,
            "law": self.law.as_dict(),
            "correlator": self.law.correlator(),
            "channels": {"bits_a_to_b": self.bits_a_to_b, "bits_b_to_a": self.bits_b_to_a,
                         "communication_assisted": self.bits_a_to_b + self.bits_b_to_a > 0},
            "shared_draws_total": self.shared_draws_total,
            "causal_mode": self.causal_mode,
        }
        if self.singlet_comparison is not None:
            out["singlet_comparison"] = {
                k: self.singlet_comparison[k]
                for k in ("max_abs_dev", "n_bins", "min_bin_count")}
        return out


def _tally(n: int, record, trials, n_groups: int = 1, model: str = "", **fixed):
    """The chunk loop of every run that counts outcome pairs.

    trials(rows) gives the columns of the trials in the slice rows: sigma,
    tau, optionally each trial's group (default 0) and overlap t, and the
    transcript's other columns; fixed gives the columns that hold one value
    on every trial. Returns the (n_groups, 2, 2) counts, the per-group
    sums of t (None without t) and the totals of the bits_a_to_b and
    bits_b_to_a columns (default 0) as two ints. If record is an open
    text file (not None), the transcript CSV of model is written to it:
    the header, then each chunk's rows (_csv_rows), one write per chunk of
    _CSV_CHUNK_ROWS rows. Each chunk formats its rows on the thread pool of
    geometry.streamed and writes them itself once the chunks before it have
    written theirs, so the rows come in trial order and no finished text
    waits in the pool's queue: at most one text per thread is alive. The
    chunks' overlaps are added in trial order as the chunks complete, so
    the sums are bit for bit those of one np.bincount pass. A chunk's
    counts are taken before its text: then _csv_rows gets the chunk's
    columns and releases each as its cells are built, so only the group
    and overlap columns outlive the text.
    """
    turn = threading.Condition()
    written = 0  # rows written so far; -1 once the loop below has ended

    def work(rows):
        nonlocal written
        cols = {**fixed, **trials(rows)}
        group, t = cols.pop("group", 0), cols.pop("t", None)
        bits = [_column_total(cols.get(k, 0), rows.stop - rows.start)
                for k in ("bits_a_to_b", "bits_b_to_a")]
        counts = outcome_counts(cols["sigma"], cols["tau"], group, n_groups)
        # A chunk waiting its turn keeps only what the overlap sums read:
        # the overlaps and their groups, in the narrowest dtype.
        group = None if t is None else np.asarray(group).astype(np.min_scalar_type(n_groups - 1))
        if record is not None:
            # _csv_rows empties cols, releasing each column as its cells are built.
            text = _csv_rows(model, rows.start, cols)
            with turn:
                # The chunks before this one were taken from the pool's queue
                # first, so they finish; a run that stopped writes no more.
                turn.wait_for(lambda: written in (rows.start, -1))
                if written == -1:
                    return None
                record.write(text)
                written = rows.stop
                turn.notify_all()
        return counts, bits, group, t

    if record is not None:
        record.write(CSV_HEADER + "\n")
    counts, t_sums, bits = 0, None, (0, 0)
    chunk_rows = None if record is None else _CSV_CHUNK_ROWS
    try:
        for chunk_counts, chunk_bits, group, t in streamed(n, work, chunk_rows):
            counts = counts + chunk_counts
            bits = tuple(map(sum, zip(bits, chunk_bits)))
            if t is not None:
                t_sums = np.zeros(n_groups) if t_sums is None else t_sums
                np.add.at(t_sums, np.broadcast_to(group, t.shape), t)
    finally:
        # A chunk that raised (or a write that did) ends the loop: the
        # chunks still waiting for their turn return without writing.
        with turn:
            written = -1
            turn.notify_all()
    return counts, t_sums, bits


def _column_total(column, m: int) -> int:
    """The total of an integer column over m trials: the sum of a per-trial
    column, or a scalar's value times m, with no broadcast to sum."""
    column = np.asarray(column)
    return int(column.sum()) if column.ndim else int(column) * m


def _transcript(record):
    """A runner's record as _tally takes it: None (no transcript; False
    means the same) or an open text file. Checked before any draw."""
    if record is None or record is False:
        return None
    if not hasattr(record, "write"):
        raise TypeError(f"record must be None, False or an open text file, not {record!r}")
    return record


def _protocol_run(model: str, causal_mode: str, n: int, record, trials,
                  **fixed) -> ProtocolResult:
    """The tally and result of every ProtocolResult run.

    trials(rows) gives the per-trial columns of the trials in the slice
    rows: u, sigma, tau, and any of the transcript's other columns; fixed
    gives the columns that hold one vector on every trial. Without a fixed
    a_used the settings vary per trial, and the run is compared with the
    singlet law in overlap bins. record is None or a file the transcript
    CSV is written to (see _tally). The bits are those _tally counts; a
    runner whose stations share a stream sets shared_draws_total.
    """
    binned = "a_used" not in fixed

    def binned_trials(rows):
        trial = trials(rows)
        trial["t"] = dot(trial["a_used"], trial["b_used"])
        trial["group"] = _bin_index(trial["t"], N_BINS)
        return trial

    counts, t_sums, bits = _tally(n, record, binned_trials if binned else trials,
                                  N_BINS if binned else 1, model, **fixed)
    comparison = deviation_from_binned_counts(counts, t_sums) if binned else None
    return ProtocolResult(model, n, JointLaw2x2.from_counts(counts.sum(0)), causal_mode, *bits,
                          singlet_comparison=comparison)


def _a_to_b(bit, trial: dict):
    """Hand station A's bit to station B through the A->B meter: count one
    bit per trial in the bits_a_to_b column of the chunk's columns trial,
    and return bit."""
    trial["bits_a_to_b"] = trial.get("bits_a_to_b", 0) + 1
    return bit


def _select_rows(mask, spin, u, requested):
    """Column-major (m, 3) setting rows: row i is spin[i] * u[i] where
    mask[i] is set, else requested, one vector or column-major (m, 3) rows.
    The bits of np.where, built a coordinate at a time by select, into the
    requested rows' own buffer when there are rows."""
    out = requested.T if requested.ndim == 2 else np.empty((3, len(spin)))
    for k in range(3):
        out[k] = select(mask, spin * u[:, k], requested[..., k])
    return out.T


def _along_axis(u, x):
    """Whether each spin u lies along +-x, up to rounding, for the detectors
    and the audit alike; u and x are each one vector, rows or AtomSpins."""
    return spin_map(_along, u, x)


def _along(t):
    """Whether spins lie along +-x, from their overlaps t = u.x, up to rounding."""
    return np.abs(t) >= 1.0 - 1e-9


def _policy(policy):
    """A station's fixed setting: None for 'random', whose settings are
    sphere points drawn from the station's stream (always the same stream
    budget), or the one unit vector used on every trial."""
    if isinstance(policy, str):
        if policy == "random":
            return None
        raise ValueError(f"unknown settings policy {policy!r}")
    arr = np.asarray(policy, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"a settings policy is 'random' or one unit vector, not {policy!r}")
    return assert_unit(arr, "setting")


# ---------------------------------------------------------------------------
# One-bit communication protocol


def run_tb_protocol(n_trials: int, a, b, seed: int, record=None) -> ProtocolResult:
    """Shared uniform (u, v) from the entangler; station A computes sigma
    and a single bit that crosses the A->B channel every trial; station B
    combines the bit with its shared hidden variables.

    The A->B meter counts exactly n_trials bits, B->A exactly 0.
    """
    return _run_one_bit("tb", n_trials, a, b, seed, record, sends=True)


def run_tb_freewill(n_trials: int, a, b, seed: int, record=None) -> ProtocolResult:
    """Constrained-choice reading of the one-bit protocol: the bit is a
    hidden variable and station A's setting must satisfy
    c = sgn(u.a) sgn(v.a); no station-to-station channel carries anything.

    The requested setting is always used; the constraint selects c, which
    is the dependent variable of the hidden-variable distribution.
    """
    return _run_one_bit("tb-freewill", n_trials, a, b, seed, record, sends=False)


def _run_one_bit(model: str, n_trials: int, a, b, seed: int, record,
                 sends: bool) -> ProtocolResult:
    record = _transcript(record)
    a = assert_unit(a, "a")
    b = assert_unit(b, "b")
    uv = _draw_uv(a, b, n_trials, substream(seed, STREAM_ENTANGLER), None)

    def trials(rows):
        u, v = uv(rows)
        # Station A: local outcome and the bit c = sgn(u.a) sgn(v.a), sent
        # to B through the meter or held as a hidden variable; the rule is
        # the same either way.
        sigma, c = one_bit_station_a(u, v, a)
        trial = {"u": u, "v": v, "c": c, "sigma": sigma}
        # Station B: own setting, shared (u, v) and the bit. Never reads a.
        trial["tau"] = one_bit_tau(u, v, _a_to_b(c, trial) if sends else c, b)
        return trial
    return _protocol_run(model, "settings_cause_lambda", n_trials, record, trials,
                         a_used=a, b_used=b)


# ---------------------------------------------------------------------------
# Shared-coin realization (zero communication, two shared draws per trial)


def run_shared_coin(n_trials: int, seed: int, a_policy="random",
                              b_policy="random", record=None) -> ProtocolResult:
    """Stations hold identical pseudo-random streams producing coins
    (c, d) each trial. When c = 0, station A orients along d*u and
    station B chooses freely; when c = 1 the roles reverse. Outcomes are
    Malus draws from each station's own stream. Zero bits cross between
    the stations, and the run counts the draws of the shared stream: 2
    per trial.
    """
    return _shared_coin(n_trials, seed, a_policy, b_policy, record)


def _shared_coin(n_trials: int, seed: int, a_policy, b_policy, record,
                 each_chunk=None, coin: bool = True) -> ProtocolResult:
    """run_shared_coin, calling each_chunk(rows, trial) with the columns of
    every chunk of trials if given. With coin false (the honest and
    third-party audits) no coin chooses: the shared stream draws nothing,
    each station measures its policy, one vector, on every trial, and the
    run is not binned. The other streams draw as with the coin."""
    record = _transcript(record)
    policies = {"a_used": _policy(a_policy), "b_used": _policy(b_policy)}
    declared = {k: x for k, x in policies.items() if x is not None}
    ent = substream(seed, STREAM_ENTANGLER)
    shared = substream(seed, STREAM_SHARED_AB)
    shared_before = shared.counter  # the run's draws are how far it moves
    sa = substream(seed, STREAM_A)
    sb = substream(seed, STREAM_B)

    u_at = sphere_rows(ent, n_trials)
    coins = shared.uniform_rows((2, n_trials)) if coin else None  # the coins c, d
    free = {k: sphere_rows(stream, n_trials)
            for k, stream in (("a_used", sa), ("b_used", sb)) if k not in declared}
    noise_a, noise_b = sa.uniform_rows(n_trials), sb.uniform_rows(n_trials)

    def requested(k, rows):
        return declared[k] if k in declared else free[k](rows)

    def trials(rows):
        u = u_at(rows)
        trial = {"u": u}
        if coins is None:
            trial.update(declared)
        else:
            wc, wd = coins(rows)
            c, d = uniform_bits(wc, np.uint8), uniform_signs(wd, np.int8)  # one byte each
            del wc, wd  # the coins' window
            forced_a = (c == 0)
            # Each station's requested rows are drawn for its selection only and
            # overwritten by it.
            a_used = _select_rows(forced_a, d, u, requested("a_used", rows))
            b_used = _select_rows(~forced_a, -d, u, requested("b_used", rows))  # d*v, v = -u
            trial.update(c=c, d=d, a_used=a_used, b_used=b_used)
        trial["sigma"], trial["tau"] = malus_pair((u, noise_a(rows), noise_b(rows)),
                                                  trial["a_used"], trial["b_used"])
        if each_chunk is not None:
            each_chunk(rows, trial)
        return trial
    res = _protocol_run("shared-coin", "lambda_causes_settings", n_trials, record, trials,
                        **({} if coin else declared))
    res.shared_draws_total = shared.counter - shared_before
    return res


# ---------------------------------------------------------------------------
# Detection-loophole realization


@dataclass
class EfficiencyReport:
    mode: str
    n_pairs: int
    n_coincidences: int
    efficiency: float
    conditional_law: JointLaw2x2
    singlet_deviation: float
    expected_efficiency: float
    # The (groups, 2, 2) coincidence counts per setting pair (per overlap
    # bin in sphere mode) and the singlet table each group is compared with.
    counts: np.ndarray | None = None
    reference: np.ndarray | None = None

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "n_pairs": self.n_pairs,
            "n_coincidences": self.n_coincidences,
            "efficiency": self.efficiency,
            "expected_efficiency": self.expected_efficiency,
            "conditional_law": self.conditional_law.as_dict(),
            "singlet_deviation": self.singlet_deviation,
        }


def _fibonacci_antipodal_grid(n_directions: int) -> np.ndarray:
    """Antipodally closed set of n unit directions (n even): a Fibonacci
    spiral on the upper hemisphere plus the antipodes, so index i and
    i + n/2 are opposite."""
    if n_directions % 2 or n_directions < 2:
        raise ValueError("need an even number of directions >= 2")
    m = n_directions // 2
    k = np.arange(m)
    upper = sphere_point((k + 0.5) / m, _phase(k * (math.sqrt(5.0) - 1.0) / 2.0))
    return np.vstack([upper, -upper])


def run_detection_loophole(n_trials: int, mode: str, seed: int,
                           settings_a=None, settings_b=None,
                           delta_omega: float | None = None,
                           n_directions: int | None = None,
                           record=None) -> EfficiencyReport:
    """Each particle carries a bit and a hidden spin; the particle whose
    bit is set fires only when its station's setting coincides with the
    spin axis, the other behaves as a plain Malus detector.

    mode 'symmetric': two settings per side, the spin uniform over the
    eight values +-a_i, +-b_j, the firing bit on a random side; expected
    efficiency 1/4. mode 'asymmetric': side A always fires, the spin
    uniform over +-b_j; expected efficiency 1/2. mode 'sphere': settings
    and spin drawn from an antipodally closed grid of N cells of solid
    angle delta_omega = 4*pi/N; expected efficiency delta_omega/(2*pi).
    """
    record = _transcript(record)
    if mode in ("symmetric", "asymmetric"):
        if settings_a is None:
            settings_a = np.array([planar_setting(0.0), planar_setting(90.0)])
        if settings_b is None:
            settings_b = np.array([planar_setting(45.0), planar_setting(135.0)])
        settings_a = assert_unit(np.atleast_2d(settings_a), "settings_a")
        settings_b = assert_unit(np.atleast_2d(settings_b), "settings_b")
        u_values = np.vstack([settings_a, -settings_a, settings_b, -settings_b]
                             if mode == "symmetric" else [settings_b, -settings_b])
        # Duplicate vectors (not antipodes) would double-weight an atom.
        gram = u_values @ u_values.T - 2.0 * np.eye(len(u_values))
        if gram.max() > 1.0 - 1e-6:
            raise ValueError("instruction-set directions must be pairwise distinct")
    elif mode == "sphere":
        if n_directions is None:
            if delta_omega is None:
                raise ValueError("sphere mode needs delta_omega or n_directions")
            n_directions = 2 * int(round(2.0 * math.pi / delta_omega))
        settings_a = settings_b = u_values = _fibonacci_antipodal_grid(n_directions)
    else:
        raise ValueError(f"unknown detection mode {mode!r}")

    ent = substream(seed, STREAM_ENTANGLER)
    sa = substream(seed, STREAM_A)
    sb = substream(seed, STREAM_B)
    # Side A always fires in asymmetric mode; otherwise the firing bit is a coin.
    w_fire = None if mode == "asymmetric" else ent.uniform_rows(n_trials)
    index_rows = [stream.index_rows(len(table), n_trials)
                  for stream, table in ((sa, settings_a), (sb, settings_b), (ent, u_values))]
    noise_a, noise_b = sa.uniform_rows(n_trials), sb.uniform_rows(n_trials)
    # Symmetric and asymmetric modes count coincidences per setting pair
    # k = i * len(settings_b) + j, sphere mode per overlap bin of a.b
    # (_bin_index), summing the bin's overlaps.
    nb = len(settings_b)
    n_groups = N_BINS if mode == "sphere" else len(settings_a) * nb

    def trials(rows):
        # Each trial's settings and spin are atom codes, rows of the direction
        # sets, so every overlap is read once per pair of rows (spin_map).
        a_used, b_used, u = (AtomSpins(table, draw(rows)) for table, draw
                             in zip((settings_a, settings_b, u_values), index_rows))
        # The flagged particle fires only when its setting lies along +-u.
        fires_b = _along_axis(u, b_used)
        if w_fire is None:
            c_a, fires_a = np.broadcast_to(np.uint8(0), fires_b.shape), np.True_
        else:
            flagged = w_fire(rows) < 0.5  # c = 1: the bit rides on side A
            fires_a = _along_axis(u, a_used)
            fires_a |= ~flagged
            fires_b |= flagged
            c_a = flagged.view(np.uint8)
        sigma, tau = malus_pair((u, noise_a(rows), noise_b(rows)), a_used, b_used)
        trial = {"c": c_a, "sigma": sigma, "tau": tau}
        if mode == "sphere":
            trial["t"] = spin_map(np.positive, a_used, b_used)
            group = _bin_index(trial["t"], N_BINS)
        else:
            group = np.multiply(a_used.code, nb, dtype=np.intp) + b_used.code if n_groups > 1 else 0
        if record is not None:
            trial.update(u=u.rows(), a_used=a_used.rows(), b_used=b_used.rows(),
                         detected_a=fires_a, detected_b=fires_b)
        # Trials without a coincidence go to one extra group, then dropped.
        trial["group"] = n_groups + (fires_a & fires_b) * (group - n_groups)
        return trial

    model = f"detection-{mode}"
    counts, t_sums, _ = _tally(n_trials, record, trials, n_groups + 1, model)
    counts = counts[:n_groups]
    cond_counts = counts.sum(0)
    n_coinc = int(cond_counts.sum())
    if n_coinc == 0:
        raise RuntimeError("no coincidences recorded; cannot form conditional law")

    if mode == "sphere":
        reference = deviation_from_binned_counts(counts, t_sums[:n_groups])["reference"]
        # The pooled figure, against the singlet entry at the coincidences'
        # mean overlap: the law is linear in a.b, so this is the mean of the
        # per-trial entries.
        dev = np.abs(cond_counts / n_coinc - law_table(t_sums[:n_groups].sum() / n_coinc)).max()
    else:
        reference = np.array([singlet_law(x, y).p for x in settings_a for y in settings_b])
        seen = counts.any(axis=(1, 2))
        dev = np.abs(counts[seen] / counts[seen].sum(axis=(1, 2), keepdims=True)
                     - reference[seen]).max()

    return EfficiencyReport(
        mode=mode,
        n_pairs=n_trials,
        n_coincidences=n_coinc,
        efficiency=n_coinc / n_trials,
        conditional_law=JointLaw2x2.from_counts(cond_counts),
        singlet_deviation=float(dev),
        expected_efficiency=2.0 / len(u_values),
        counts=counts,
        reference=reference,
    )


# ---------------------------------------------------------------------------
# Watch-driven realization (shared randomness only with the entangler)


@dataclass(frozen=True)
class Watch:
    """Two-hand watch; hand periods are mutually incommensurable surds so
    the induced orbit equidistributes on the sphere."""

    period_small: float
    period_large: float


WATCH_A = Watch(1.0, math.sqrt(2.0))
WATCH_B = Watch(math.sqrt(3.0), math.sqrt(5.0))
EMISSION_STEP = math.pi / 10.0
TIME_OF_FLIGHT = 1.0


def watch_vector(t, watch: Watch):
    """Map hand phases to a direction, area-preserving: the small hand's
    phase fixes cos(theta) in [-1, 1], the large hand's phase the azimuth."""
    t = np.asarray(t, dtype=float)
    return sphere_point(2.0 * _phase(t / watch.period_small) - 1.0,
                        _phase(t / watch.period_large))


def _phase(x):
    """np.mod(x, 1.0), the same bits, at a third of its cost: for x >= 0
    the difference is exact (Sterbenz), for x < 0 both round the one real
    fmod(x, 1) + 1, and an integer x gives +0.0 in both."""
    return x - np.floor(x)


def _emission_epoch(arrival_times) -> np.ndarray:
    """The emission epoch a station reconstructs from arrival times:
    subtract the known time of flight, then snap to the emission tick so
    the reconstruction is exact rather than drifting by float roundoff."""
    k = np.rint((np.asarray(arrival_times) - TIME_OF_FLIGHT) / EMISSION_STEP)
    return k * EMISSION_STEP


def run_watch_realization(n_trials: int, model: str, seed: int,
                          record=None, start_tick: int = 0) -> ProtocolResult:
    """Entangler and stations hold synchronized watches; the per-trial
    settings are the watch vectors, so no station-to-station shared
    randomness exists (each station shares state only with the entangler).

    model 'pinned': the entangler flips a watch-choice coin and a side
    coin, pitches spins +-z_j, and the stations apply Malus detectors.
    model 'hall': the entangler draws the spin from the
    setting-conditioned density via its own sampling stream and the
    station outcomes are deterministic signs.
    """
    record = _transcript(record)
    if model not in ("pinned", "hall"):
        raise ValueError(f"watch realization model must be pinned or hall, got {model!r}")
    if model == "pinned":
        ent = substream(seed, STREAM_ENTANGLER)
        coins = ent.uniform_rows((2, n_trials))  # watch choice j, sign d
        noise_a = substream(seed, STREAM_A).uniform_rows(n_trials)
        noise_b = substream(seed, STREAM_B).uniform_rows(n_trials)
    else:
        w = substream(seed, STREAM_W0).uniform_rows((4, n_trials))  # see models._draw_hall

    def trials(rows):
        t_emit = (start_tick + np.arange(rows.start, rows.stop, dtype=float)) * EMISSION_STEP
        # The stations read their watches at the epoch they reconstruct; if it
        # is t_emit bit for bit, their vectors are the entangler's z_a, z_b.
        epoch = _emission_epoch(t_emit + TIME_OF_FLIGHT)
        if not np.array_equal(epoch.view(np.int64), t_emit.view(np.int64)):
            raise WatchDesyncError("station watch reconstruction differs from entangler")
        del epoch
        z_a = watch_vector(t_emit, WATCH_A)
        z_b = watch_vector(t_emit, WATCH_B)
        del t_emit
        trial = {"a_used": z_a, "b_used": z_b}
        if model == "pinned":
            wj, wd = coins(rows)
            j, d = uniform_bits(wj, np.uint8), uniform_signs(wd, np.int8)  # one byte each
            del wj, wd  # the coins' window
            u = (d * select(j == 0, z_a.T, z_b.T)).T
            sigma, tau = malus_pair((u, noise_a(rows), noise_b(rows)), z_a, z_b)
            trial.update(c=j, d=d)
        else:
            # z_a, z_b hold the chunk's rows only, so w is read through the
            # chunk's window and the spins are built for rows 0 .. m of it.
            window = lambda block: w(slice(rows.start + block.start, rows.start + block.stop))
            u = hall_spin_rows(z_a, z_b, window, slice(0, len(z_a)))
            sigma, tau = hall_outcomes(u, z_a, z_b)
        return {**trial, "u": u, "sigma": sigma, "tau": tau}

    return _protocol_run(f"watch-{model}", "lambda_causes_settings", n_trials, record, trials)


# ---------------------------------------------------------------------------
# Signaling discrimination experiment


@dataclass
class SignalingResult:
    mode: str
    n_trials: int
    n_usable: int
    usable_fraction: float
    counts: np.ndarray  # the usable trials' (intended, received) bit pairs, 1 first
    n_matches: int  # usable trials whose received bit is the intended one
    success_rate: float
    empirical_entropy: float

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "n_trials": self.n_trials,
            "n_usable": self.n_usable,
            "usable_fraction": self.usable_fraction,
            "success_rate": self.success_rate,
            "empirical_entropy": self.empirical_entropy,
        }


def _binary_entropy(ones: int, n: int) -> float:
    """The entropy in bits of n bits of which ones are 1; 0 for n = 0."""
    p = ones / n if n else 0.0
    return 0.0 - sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)  # +0.0, not -0.0


def _signal_bits(rows, message, b, fresh) -> dict:
    """The columns of the usable trials in the slice rows, as _tally counts
    them: sigma, the message bit sent, and tau, the bit station B decodes
    (bool). fresh is None in action mode, else the rows of fresh uniforms."""
    sent = message[np.arange(rows.start, rows.stop) % message.size]
    # Switch target d*(+-b); action-at-a-distance re-forces u = +-b.
    d = 1 - 2 * sent if fresh is None else uniform_signs(fresh(rows))
    u_final = (b[:, None] * d).T
    return {"sigma": sent, "tau": sign_outcome(-u_final, b) > 0}


def run_signaling_experiment(message, mode: str, n_trials: int, seed: int,
                             angle_a: float = 0.0, angle_b: float = 90.0) -> SignalingResult:
    """Attempted instantaneous signaling over the setting-tied model with
    both stations restricted to two orthogonal axes.

    Station A reads the hidden spin mid-flight; on the half of trials
    where it lies along +-a she switches toward +-b to encode the next
    message bit, and station B reads the bit from its certain outcome.
    In 'action' mode the switch genuinely re-forces the remote spin, so
    the message arrives verbatim. In 'slave-will' mode the apparent
    switch is itself dictated by a fresh hidden draw, and the bits B
    decodes are fair coin flips regardless of the message.
    """
    if mode not in ("action", "slave-will"):
        raise ValueError(f"mode must be 'action' or 'slave-will', got {mode!r}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials!r}")
    a = planar_setting(angle_a)
    b = planar_setting(angle_b)
    if abs(float(dot(a, b))) > 1e-9:
        raise ValueError("signaling protocol requires orthogonal axes")
    message = np.asarray(message, dtype=np.int64)
    if message.size == 0 or np.any((message != 0) & (message != 1)):
        raise ValueError("message must be a nonempty bit sequence")

    ent = substream(seed, STREAM_ENTANGLER)
    # The atoms 0:+a 1:-a 2:+b 3:-b, drawn and counted window by window.
    atoms = ent.index_rows(4, n_trials)
    n_usable = sum(streamed(n_trials, lambda rows: int(np.count_nonzero(atoms(rows) < 2))))
    fresh = ent.uniform_rows(n_usable) if mode == "slave-will" else None  # fresh signs

    counts = _tally(n_usable, None, lambda rows: _signal_bits(rows, message, b, fresh))[0][0]

    n_matches = int(counts[0, 0] + counts[1, 1])
    return SignalingResult(
        mode=mode,
        n_trials=n_trials,
        n_usable=n_usable,
        usable_fraction=n_usable / n_trials,
        counts=counts,
        n_matches=n_matches,
        success_rate=n_matches / n_usable if n_usable else 0.0,
        empirical_entropy=_binary_entropy(int(counts[:, 0].sum()), n_usable),
    )


# ---------------------------------------------------------------------------
# Conspiracy audit: pre-declared settings


@dataclass
class AuditResult:
    mode: str
    n_trials: int
    deviations: int
    deviations_match_u: bool
    law: JointLaw2x2
    singlet_deviation: float

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "n_trials": self.n_trials,
            "deviations": self.deviations,
            "deviations_match_u": self.deviations_match_u,
            "law": self.law.as_dict(),
            "singlet_deviation": self.singlet_deviation,
        }


def run_conspiracy_audit(n_trials: int, a, b, mode: str, seed: int) -> AuditResult:
    """Both stations commit to a settings list before any pair is
    produced, then the run counts trials whose used settings differ from
    the declaration.

    Every mode runs the shared-coin realization (_shared_coin) with the
    declared settings as the stations' policies. mode 'honest': the
    stations comply, so no coin chooses; with the settings fixed externally
    the hidden spin cannot track them, so the spin is uniform, no
    deviations occur, and the observed law departs from the singlet.
    mode 'slave': the coins choose, so the hidden variables dictate one
    station's setting each trial; every deviation lands exactly on +-u and
    the singlet survives in overlap bins. mode 'third-party': an
    independent party re-imposes the declared settings at the last moment.
    Whatever the hidden variables dictated is overridden, so the run is the
    honest one: the same draws and summary (but for mode), with zero
    deviations and a uniform spin.
    """
    if mode not in ("honest", "slave", "third-party"):
        raise ValueError(f"unknown audit mode {mode!r}")
    a = assert_unit(a, "a")
    b = assert_unit(b, "b")
    audits = {}  # each chunk's _audit, taken as the chunk runs

    def audit(rows, trial):
        audits[rows.start] = _audit(trial["u"], trial["a_used"], trial["b_used"], a, b)
    res = _shared_coin(n_trials, seed, a, b, None, audit, coin=mode == "slave")
    dev = (res.singlet_comparison["max_abs_dev"] if mode == "slave"
           else res.law.max_abs_diff(singlet_law(a, b)))
    return AuditResult(mode, n_trials, sum(k for k, _ in audits.values()),
                       all(m for _, m in audits.values()), res.law, float(dev))


def _audit(u, a_used, b_used, a, b):
    """(trials whose used settings, rows or one vector per side, differ from
    the declared a and b, counted per side; whether every such setting lies
    along +-u)."""
    # Column by column and without row gathers, which cost about 1 ms each
    # on the column-major rows of a chunk.
    dev_a = (a_used[..., 0] != a[0]) | (a_used[..., 1] != a[1]) | (a_used[..., 2] != a[2])
    dev_b = (b_used[..., 0] != b[0]) | (b_used[..., 1] != b[1]) | (b_used[..., 2] != b[2])
    return (int(np.count_nonzero(dev_a) + np.count_nonzero(dev_b)),
            bool(np.all(_along_axis(u, a_used) | ~dev_a)
                 and np.all(_along_axis(u, b_used) | ~dev_b)))
