"""Two-station + entangler protocol runners with exact resource metering.

Every classical realization runs as a sequential trial machine
(vectorized over trials) with explicit per-party random streams:
entangler, station A, station B, the station-to-station shared stream
(only where the protocol grants one), and the entangler's sampling
stream for the watch-driven variant. Station outcome rules read only
their own setting, their local/global hidden variables, and logged
channel messages, so corrupting one side cannot move the other side's
outcomes in the zero-communication protocols.

Channel accounting is exact: counters are incremented per trial, not
estimated, and a nonzero station-to-station count marks the run
communication-assisted.

Every runner reserves its draws whole and in a fixed order first, then
runs the per-trial rules chunk by chunk, each chunk reading its own
windows of the uniforms (``RandomStream.uniform_rows``). ``integers``
draws, whose word count depends on their values, are made in order, piece
by piece: detection keeps its index draws in the narrowest unsigned dtype
(``RandomStream.indices``), and the signaling run only counts its atoms.
Every run that counts outcome pairs does so in ``_tally``, which sums
integer counts per group over the chunks and folds each chunk's overlaps t
into the per-group sums in chunk order, so the sums are those of one pass.

A runner's ``record`` is None (no transcript; False means the same) or an
open text file, which ``_tally`` streams the transcript CSV to: each chunk
formats its own rows and they are written in trial order, so no
whole-length column is kept. ``_csv_rows`` lays out a chunk of rows as one
matrix of NUL-padded 4-byte words and drops the NULs once. Each row is the
trial index, ",model,c,d" and ",sigma,tau,detA,detB,bitsAB,bitsBA\n",
each gathered from a table of joined cells by one mixed-radix code of its
small-alphabet columns, and between them the two overlaps, written in
numpy by a %.9g rule that hands any value it cannot prove to ``_fmt``.
The signaling bits are filled by ``geometry.gathered``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from itertools import product

import numpy as np

from .geometry import (assert_unit, dot, gathered, planar_setting, select,
                       sphere_point, sphere_rows, streamed, substream, uniform_bits,
                       uniform_signs)
from .models import (JointLaw2x2, _draw_uv, hall_outcomes, hall_spins, law_table,
                     malus_pair, one_bit_station_a, one_bit_tau, outcome_counts,
                     sign_outcome, singlet_law)


class PartyRole(str, Enum):
    ENTANGLER = "entangler"
    STATION_A = "station_a"
    STATION_B = "station_b"


class CausalMode(str, Enum):
    SETTINGS_CAUSE_LAMBDA = "settings_cause_lambda"
    LAMBDA_CAUSES_SETTINGS = "lambda_causes_settings"


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


@dataclass
class MeteredChannel:
    """A channel that carries bits_per_trial bits on each of n_trials trials."""

    sender: PartyRole
    receiver: PartyRole
    n_trials: int
    bits_per_trial: int = 0

    @property
    def bits_sent(self) -> int:
        return self.n_trials * self.bits_per_trial

    def log(self):
        """(trial index, bits) for every trial that carried bits."""
        bits = self.bits_per_trial
        return [(i, bits) for i in range(self.n_trials)] if bits else []


class ChannelLedger:
    """All channels of one run, keyed by (sender, receiver)."""

    def __init__(self, n_trials: int):
        self.n_trials = n_trials
        self.channels: dict = {}

    def send(self, sender: PartyRole, receiver: PartyRole, bits_per_trial: int) -> None:
        key = (sender, receiver)
        ch = self.channels.setdefault(key, MeteredChannel(*key, self.n_trials))
        ch.bits_per_trial += int(bits_per_trial)

    def bits(self, sender: PartyRole, receiver: PartyRole) -> int:
        ch = self.channels.get((sender, receiver))
        return ch.bits_sent if ch else 0

    @property
    def station_to_station_bits(self) -> int:
        return (self.bits(PartyRole.STATION_A, PartyRole.STATION_B)
                + self.bits(PartyRole.STATION_B, PartyRole.STATION_A))

    @property
    def communication_assisted(self) -> bool:
        return self.station_to_station_bits > 0

    def as_dict(self) -> dict:
        return {
            "bits_a_to_b": self.bits(PartyRole.STATION_A, PartyRole.STATION_B),
            "bits_b_to_a": self.bits(PartyRole.STATION_B, PartyRole.STATION_A),
            "communication_assisted": self.communication_assisted,
        }


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

# 10**k for k in 0..22, each exact in float64.
_POW10 = np.array([float(10 ** k) for k in range(23)])
# y = |x| * 10**k is rounded once, by at most 2**-24 in [1e8, 1e9), so its
# rint is that of the exact product unless its fraction is this close to 1/2.
_TIE = 2.0 ** -22
# A column of at most _SMALL distinct values is coded without a sort, and
# neighbouring such columns share a table of at most _JOINT joined cells.
_SMALL = 16
_JOINT = 1 << 12


def _text_cells(strings) -> np.ndarray:
    """ASCII strings as the rows of a NUL-padded (len, width) uint8 matrix."""
    a = np.array(strings, dtype=bytes)
    return a.view(np.uint8).reshape(len(a), a.itemsize)


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


def _cells(x: np.ndarray, shown=None) -> np.ndarray:
    """_text_cells([_fmt(v) for v in x]), with "" where shown is false, for a
    bool, int or float column.

    A broadcast or all-equal column is formatted once, without a sort; in
    any other column each distinct value is formatted once and its cells are
    looked up. Floats are told apart by their bits, so 0.0, -0.0 and NaN
    keep their own cells.
    """
    kind = x.dtype.kind
    keys = x[:1] if len(x) and x.strides[0] == 0 else x  # one row of a broadcast column
    if kind == "f":
        keys = np.ascontiguousarray(keys, dtype=np.float64).view(np.int64)
    if len(x) and (keys == keys[0]).all():
        distinct, inverse = x[:1], np.zeros(len(x), np.intp)
    else:
        distinct, inverse = np.unique(keys, return_inverse=True)
        if kind == "f":
            distinct = distinct.view(np.float64)
    table = _text_cells([_fmt(v) for v in distinct] + [""])
    if shown is not None:
        inverse = np.where(shown, inverse, len(distinct))
    return table[inverse]


def _small_codes(x: np.ndarray, shown=None):
    """The cells of a nonempty column as _cells writes them, as (codes,
    texts): row i's cell is texts[codes[i]], and codes is None where every
    row's is texts[0]. None for a column of more than _SMALL distinct values.

    Nothing is sorted: a bool is its own code, an int its offset from the
    column's least value, and a float the order in which its bits first
    appear, so 0.0, -0.0 and NaN keep their own cells.
    """
    kind = x.dtype.kind
    if x.strides[0] == 0:
        codes, values = None, x[:1]
    elif kind == "b":
        codes, values = (x.view(np.uint8), (False, True)) if x.any() and not x.all() else (None, x[:1])
    elif kind in "iu":
        lo, hi = int(x.min()), int(x.max())
        if hi - lo >= _SMALL:
            return None
        codes = (x - x.dtype.type(lo)).astype(np.uint8) if hi > lo else None
        values = range(lo, hi + 1)
    elif kind == "f":
        keys = np.ascontiguousarray(x, dtype=np.float64).view(np.int64)
        codes, found = np.zeros(len(x), np.uint8), [0]
        seen = keys == keys[0]
        while not seen[first := seen.argmin()]:  # the first row not yet coded
            if len(found) == _SMALL:
                return None
            same = keys == keys[first]
            codes += same * np.uint8(len(found))
            seen |= same
            found.append(first)
        codes, values = (codes if len(found) > 1 else None), x[found]
    else:
        return None
    texts = [_fmt(v) for v in values]
    if shown is not None and not (shown := shown.astype(bool, copy=False)).all():
        codes = (0 if codes is None else codes * shown) + ~shown * np.uint8(len(texts))
        texts.append("")
    return codes, texts


def _joint_parts(pieces) -> list:
    """The word rows of a run of pieces, each a text or a (column, shown)
    pair: one row of words per row of the columns, or one for all.

    Neighbouring pieces share one table of their joined cells, looked up
    by a mixed-radix code of the columns' _small_codes; a column of more
    distinct values than that takes _cells and a part of its own.
    """
    parts, run, code, size = [], [], None, 1

    def flush():
        if run:
            table = _word_cells(["".join(cells) for cells in product(*run)])
            parts.append(table if code is None else table.take(code, axis=0))

    for piece in pieces:
        coded = ((None, [piece]) if isinstance(piece, str) else _small_codes(*piece))
        if coded is None:
            flush()
            cells = _cells(*piece)
            parts.append(np.pad(cells, ((0, 0), (0, -cells.shape[1] % 4))).view(np.uint32))
            run, code, size = [], None, 1
            continue
        codes, texts = coded
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
    """_cells of a float column of mostly distinct values, each cell after
    prefix (at most one character), computed in numpy; for an (n, k) array,
    each row's k cells side by side.

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
    rounded = np.rint(y)
    r = rounded.astype(np.int32)
    carry = r == 10 ** 9
    e += carry
    r -= carry * np.int32(9 * 10 ** 8)
    slow = (ax != 0) & ~near | (np.abs(y - rounded) > 0.5 - _TIE)
    r *= near  # 0 has no digits and no exponent
    e *= near

    top = r // 10 ** 4  # d0..d4
    low = r - top * 10 ** 4
    d0 = top // 10 ** 4
    mid = top - d0 * 10 ** 4
    point = mid + low > 0
    words = _digit_words()
    out = np.empty(x.shape + (4,), np.uint32)
    out.view(np.uint64)[..., 0] = _lead_words(prefix).take(  # slow cells may be out of range
        (d0 - 10 * e) * 2 + point + np.signbit(x) * np.int32(100), mode="clip")
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

    Every part of a row is a run of whole 4-byte words whose NULs are
    dropped: the trial index (_index_cells); ",model,c,d" from one table of
    joined cells; ",u_dot_a" and ",u_dot_b" (_float_cells); and
    ",sigma,tau,detA,detB,bitsAB,bitsBA\\n" from another (_joint_parts).
    The parts are laid side by side in one word matrix, and dropping its
    NULs leaves the text. The index and the overlaps pad mostly in front
    and the tables behind, so most rows hold three runs of NULs: the fewer
    the runs, the less the drop costs.
    """
    u = cols["u"]
    m = len(u)
    if not m:
        return ""

    def each(name, default):
        return np.broadcast_to(cols.get(name, default), (m,))
    shown_a, shown_b = each("detected_a", True), each("detected_b", True)
    c, d = cols.get("c"), cols.get("d")
    parts = [
        _index_cells(start, start + m),
        *_joint_parts([f",{model},", "" if c is None else (c, None),
                       ",", "" if d is None else (d, None)]),
        _float_cells(np.stack((dot(u, cols["a_used"]), dot(u, cols["b_used"])), axis=1),
                     ",").view(np.uint32),
        *_joint_parts([",", (cols["sigma"], shown_a), ",", (cols["tau"], shown_b),
                       ",", (shown_a, None), ",", (shown_b, None),
                       ",", (each("bits_a_to_b", 0), None), ",", (each("bits_b_to_a", 0), None),
                       "\n"]),
    ]
    text = np.concatenate([np.broadcast_to(part, (m, part.shape[1])) for part in parts], axis=1)
    del parts  # each transient is freed as soon as the next step holds its bytes
    text = text.view(np.uint8).ravel()
    text = text[text != 0]
    return str(text, "utf-8")


class TranscriptBatch:
    """The transcript CSV of columns a caller already holds, written by
    to_csv through _csv_rows as a recording run writes its own; no runner
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
        """Stream one row per trial under the fixed header, one write per
        chunk of _CSV_CHUNK_ROWS rows; the chunks are formatted by _csv_rows
        on the thread pool of geometry.streamed and written in order."""
        fh.write(CSV_HEADER + "\n")
        for text in streamed(self.n, self._csv_chunk, _CSV_CHUNK_ROWS):
            fh.write(text)

    def _csv_chunk(self, rows) -> str:
        return _csv_rows(self.model, rows.start, {
            k: x[rows] for k in _CSV_COLUMNS if (x := getattr(self, k)) is not None})


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


def binned_outcome_counts(t, sigma, tau, n_bins: int = N_BINS):
    """Per-bin outcome counts and overlap sums for trials binned by the
    realized setting overlap t = a.b. Counts from independent runs may be
    summed before calling deviation_from_binned_counts."""
    t = np.asarray(t, float)
    idx = _bin_index(t, n_bins)
    return outcome_counts(sigma, tau, idx, n_bins), np.bincount(idx, weights=t,
                                                                minlength=n_bins)


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


def binned_singlet_deviation(t, sigma, tau, n_bins: int = N_BINS) -> dict:
    """Compare outcomes against the singlet law, binning trials by the
    realized setting overlap t = a.b."""
    return deviation_from_binned_counts(*binned_outcome_counts(t, sigma, tau, n_bins))


@dataclass
class ProtocolResult:
    model: str
    n_trials: int
    law: JointLaw2x2
    channels: ChannelLedger
    causal_mode: CausalMode
    shared_draws_total: int = 0
    singlet_comparison: dict | None = None

    def summary(self) -> dict:
        out = {
            "model": self.model,
            "n_trials": self.n_trials,
            "law": self.law.as_dict(),
            "correlator": self.law.correlator(),
            "channels": self.channels.as_dict(),
            "shared_draws_total": self.shared_draws_total,
            "causal_mode": self.causal_mode.value,
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
    on every trial. Returns the (n_groups, 2, 2) counts and the per-group
    sums of t (None without t). If record is an open text file (not None
    or False), the transcript CSV of model is written to it: each chunk
    formats its own rows (_csv_rows), the chunks are written in trial
    order, and a recording run takes _CSV_CHUNK_ROWS rows per chunk. The
    chunks' overlaps are added in trial order as the chunks complete, so
    the sums are bit for bit those of one np.bincount pass.
    """
    if record is False:
        record = None
    if record is not None and not hasattr(record, "write"):
        raise TypeError(f"record must be None, False or an open text file, not {record!r}")

    def work(rows):
        trial = trials(rows)
        group, t = trial.pop("group", 0), trial.pop("t", None)
        text = "" if record is None else _csv_rows(model, rows.start, {**fixed, **trial})
        return outcome_counts(trial["sigma"], trial["tau"], group, n_groups), group, t, text

    if record is not None:
        record.write(CSV_HEADER + "\n")
    counts, t_sums = 0, None
    chunk_rows = None if record is None else _CSV_CHUNK_ROWS
    for chunk_counts, group, t, text in streamed(n, work, chunk_rows):
        if record is not None:
            record.write(text)
        counts = counts + chunk_counts
        if t is not None:
            t_sums = np.zeros(n_groups) if t_sums is None else t_sums
            np.add.at(t_sums, np.broadcast_to(group, t.shape), t)
    return counts, t_sums


def _protocol_run(model: str, causal_mode: CausalMode, n: int, record, trials,
                  bits_a_to_b: int = 0, shared_draws: int = 0, **fixed) -> ProtocolResult:
    """The tally and result of every ProtocolResult run.

    trials(rows) gives the per-trial columns of the trials in the slice
    rows: u, sigma, tau, and any of the transcript's other columns; fixed
    gives the columns that hold one vector on every trial. Without a fixed
    a_used the settings vary per trial, and the run is compared with the
    singlet law in overlap bins. record is None, False or a file the
    transcript CSV is written to (see _tally). bits_a_to_b is the A->B
    meter and shared_draws the station-to-station draws, per trial.
    """
    binned = "a_used" not in fixed

    def binned_trials(rows):
        trial = trials(rows)
        trial["t"] = dot(trial["a_used"], trial["b_used"])
        trial["group"] = _bin_index(trial["t"], N_BINS)
        return trial

    counts, t_sums = _tally(n, record, binned_trials if binned else trials,
                            N_BINS if binned else 1, model, **fixed, bits_a_to_b=bits_a_to_b)
    comparison = deviation_from_binned_counts(counts, t_sums) if binned else None
    channels = ChannelLedger(n)
    if bits_a_to_b:
        channels.send(PartyRole.STATION_A, PartyRole.STATION_B, bits_a_to_b)
    return ProtocolResult(model, n, JointLaw2x2.from_counts(counts.sum(0)), channels,
                          causal_mode, shared_draws_total=shared_draws * n,
                          singlet_comparison=comparison)


def _columns(x):
    """The (3, m) columns of (m, 3) rows x, or one vector x as a (3, 1) column."""
    return x.T if x.ndim == 2 else x[:, None]


def _along_axis(u, x):
    """Whether the spin u lies along +-x, up to rounding."""
    return np.abs(dot(u, x)) >= 1.0 - 1e-9


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

    The A->B meter reads exactly n_trials bits, B->A exactly 0.
    """
    return _run_one_bit("tb", 1, n_trials, a, b, seed, record)


def run_tb_freewill(n_trials: int, a, b, seed: int, record=None) -> ProtocolResult:
    """Constrained-choice reading of the one-bit protocol: the bit is a
    hidden variable and station A's setting must satisfy
    c = sgn(u.a) sgn(v.a); no station-to-station channel carries anything.

    The requested setting is always used; the constraint selects c, which
    is the dependent variable of the hidden-variable distribution.
    """
    return _run_one_bit("tb-freewill", 0, n_trials, a, b, seed, record)


def _run_one_bit(model: str, bits_a_to_b: int, n_trials: int, a, b, seed: int,
                 record) -> ProtocolResult:
    a = assert_unit(a, "a")
    b = assert_unit(b, "b")
    uv = _draw_uv(a, b, n_trials, substream(seed, STREAM_ENTANGLER), None)

    def trials(rows):
        u, v = uv(rows)
        # Station A: local outcome and the bit c = sgn(u.a) sgn(v.a), sent
        # to B or held as a hidden variable; the rule is the same either way.
        sigma, c = one_bit_station_a(u, v, a)
        # Station B: own setting, shared (u, v) and the bit. Never reads a.
        return {"u": u, "v": v, "c": c, "sigma": sigma, "tau": one_bit_tau(u, v, c, b)}
    return _protocol_run(model, CausalMode.SETTINGS_CAUSE_LAMBDA, n_trials, record, trials,
                         bits_a_to_b=bits_a_to_b, a_used=a, b_used=b)


# ---------------------------------------------------------------------------
# Shared-coin realization (zero communication, two shared draws per trial)


def run_shared_coin(n_trials: int, seed: int, a_policy="random",
                              b_policy="random", record=None) -> ProtocolResult:
    """Stations hold identical pseudo-random streams producing coins
    (c, d) each trial. When c = 0, station A orients along d*u and
    station B chooses freely; when c = 1 the roles reverse. Outcomes are
    Malus draws from each station's own stream. Zero bits cross between
    the stations; the shared stream is metered as 2 draws per trial.
    """
    return _shared_coin(n_trials, seed, a_policy, b_policy, record)


def _shared_coin(n_trials: int, seed: int, a_policy, b_policy, record,
                 each_chunk=None) -> ProtocolResult:
    """run_shared_coin, calling each_chunk(rows, trial) with the columns of
    every chunk of trials if given."""
    policies = {"a_requested": _policy(a_policy), "b_requested": _policy(b_policy)}
    fixed = {k: x for k, x in policies.items() if x is not None}
    ent = substream(seed, STREAM_ENTANGLER)
    shared = substream(seed, STREAM_SHARED_AB)
    sa = substream(seed, STREAM_A)
    sb = substream(seed, STREAM_B)

    u_at = sphere_rows(ent, n_trials)
    coins = shared.uniform_rows((2, n_trials))  # the coins c, d
    free = {k: sphere_rows(stream, n_trials)
            for k, stream in (("a_requested", sa), ("b_requested", sb)) if k not in fixed}
    noise_a, noise_b = sa.uniform_rows(n_trials), sb.uniform_rows(n_trials)

    def trials(rows):
        u = u_at(rows)
        wc, wd = coins(rows)
        c, d = uniform_bits(wc), uniform_signs(wd)
        drawn = {k: points(rows) for k, points in free.items()}
        req = {**fixed, **drawn}
        forced_a = (c == 0)
        # Column-major setting rows: the (3, m) selections, transposed.
        a_used = select(forced_a, d * u.T, _columns(req["a_requested"])).T
        b_used = select(~forced_a, -d * u.T, _columns(req["b_requested"])).T  # d*v, v = -u
        sigma, tau = malus_pair((u, noise_a(rows), noise_b(rows)), a_used, b_used)
        trial = {"u": u, "c": c, "d": d, "a_used": a_used, "b_used": b_used,
                 "sigma": sigma, "tau": tau, **drawn}
        if each_chunk is not None:
            each_chunk(rows, trial)
        return trial
    return _protocol_run("shared-coin", CausalMode.LAMBDA_CAUSES_SETTINGS, n_trials, record,
                         trials, shared_draws=2)


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
    per_setting: dict = field(default_factory=dict)
    # The (groups, 2, 2) coincidence counts per setting pair (one group in
    # sphere mode) and the singlet table each group is compared with.
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
    ia = sa.indices(len(settings_a), n_trials)
    ib = sb.indices(len(settings_b), n_trials)
    iu = ent.indices(len(u_values), n_trials)
    noise_a, noise_b = sa.uniform_rows(n_trials), sb.uniform_rows(n_trials)
    # Symmetric and asymmetric modes count coincidences per setting pair
    # k = i * len(settings_b) + j; sphere mode counts them in one group and
    # sums their overlaps a.b.
    nb = len(settings_b)
    n_pairs = len(settings_a) * nb if mode != "sphere" else 1
    # The (3, k) columns of each direction set: rows taken from them by index
    # come out column-major.
    tables = [np.ascontiguousarray(x.T) for x in (settings_a, settings_b, u_values)]

    def trials(rows):
        c_a = (np.zeros(rows.stop - rows.start, dtype=np.int64) if w_fire is None
               else uniform_bits(w_fire(rows)))
        a_used, b_used, u = (table.take(i[rows], axis=1).T
                             for table, i in zip(tables, (ia, ib, iu)))
        # The flagged particle fires only when its setting lies along +-u.
        fires_a = (c_a == 0) | _along_axis(u, a_used)
        fires_b = (c_a == 1) | _along_axis(u, b_used)
        sigma, tau = malus_pair((u, noise_a(rows), noise_b(rows)), a_used, b_used)
        # The indices are stored narrow; int64 keeps the pair from wrapping.
        pair = ia[rows].astype(np.int64) * nb + ib[rows] if n_pairs > 1 else 0
        # Trials without a coincidence go to one extra group, then dropped.
        trial = {"u": u, "a_used": a_used, "b_used": b_used, "sigma": sigma, "tau": tau,
                 "c": c_a, "detected_a": fires_a, "detected_b": fires_b,
                 "group": n_pairs + (fires_a & fires_b) * (pair - n_pairs)}
        if mode == "sphere":
            trial["t"] = dot(a_used, b_used)
        return trial

    model = f"detection-{mode}"
    counts, t_sums = _tally(n_trials, record, trials, n_pairs + 1, model)
    pair_counts = counts[:n_pairs]
    expected_eff = 2.0 / len(u_values)

    cond_counts = pair_counts.sum(0)
    n_coinc = int(cond_counts.sum())
    if n_coinc == 0:
        raise RuntimeError("no coincidences recorded; cannot form conditional law")
    cond_law = JointLaw2x2.from_counts(cond_counts)

    per_setting = {}
    if mode in ("symmetric", "asymmetric"):
        dev = 0.0
        reference = np.array([singlet_law(x, y).p for x in settings_a for y in settings_b])
        for k, counts in enumerate(pair_counts):
            if not counts.any():
                continue
            i, j = divmod(k, nb)
            law_ij = JointLaw2x2.from_counts(counts)
            dev_ij = float(np.abs(law_ij.p - reference[k]).max())
            per_setting[f"a{i}b{j}"] = {"law": law_ij.as_dict(), "n": law_ij.n_trials,
                                        "max_abs_dev": dev_ij}
            dev = max(dev, dev_ij)
    else:
        # The singlet entry at the coincidences' mean overlap: the law is
        # linear in a.b, so this is the mean of the per-trial entries.
        comparison = deviation_from_binned_counts(pair_counts, t_sums[:1])
        dev, reference = comparison["max_abs_dev"], comparison["reference"]

    return EfficiencyReport(
        mode=mode,
        n_pairs=n_trials,
        n_coincidences=n_coinc,
        efficiency=n_coinc / n_trials,
        conditional_law=cond_law,
        singlet_deviation=float(dev),
        expected_efficiency=float(expected_eff),
        per_setting=per_setting,
        counts=pair_counts,
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


def station_watch_vectors(arrival_times, watch: Watch) -> np.ndarray:
    """Reconstruct the emission-epoch watch vector at a station."""
    return watch_vector(_emission_epoch(arrival_times), watch)


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
    if model not in ("pinned", "hall"):
        raise ValueError(f"watch realization model must be pinned or hall, got {model!r}")
    if model == "pinned":
        ent = substream(seed, STREAM_ENTANGLER)
        coins = ent.uniform_rows((2, n_trials))  # watch choice j, sign d
        noise_a = substream(seed, STREAM_A).uniform_rows(n_trials)
        noise_b = substream(seed, STREAM_B).uniform_rows(n_trials)
    else:
        w = substream(seed, STREAM_W0).uniform_rows((4, n_trials))  # see hall_sample

    def trials(rows):
        t_emit = (start_tick + np.arange(rows.start, rows.stop, dtype=float)) * EMISSION_STEP
        # The stations read their watches at the epoch they reconstruct; if it
        # is t_emit bit for bit, their vectors are the entangler's z_a, z_b.
        epoch = _emission_epoch(t_emit + TIME_OF_FLIGHT)
        if not np.array_equal(epoch.view(np.int64), t_emit.view(np.int64)):
            raise WatchDesyncError("station watch reconstruction differs from entangler")
        z_a = watch_vector(t_emit, WATCH_A)
        z_b = watch_vector(t_emit, WATCH_B)
        trial = {"a_used": z_a, "b_used": z_b}
        if model == "pinned":
            wj, wd = coins(rows)
            j, d = uniform_bits(wj), uniform_signs(wd)
            u = (d * select(j == 0, z_a.T, z_b.T)).T
            sigma, tau = malus_pair((u, noise_a(rows), noise_b(rows)), z_a, z_b)
            trial.update(c=j, d=d)
        else:
            u = hall_spins(z_a, z_b, w(rows))
            sigma, tau = hall_outcomes(u, z_a, z_b)
        return {**trial, "u": u, "sigma": sigma, "tau": tau}

    return _protocol_run(f"watch-{model}", CausalMode.LAMBDA_CAUSES_SETTINGS, n_trials,
                         record, trials)


# ---------------------------------------------------------------------------
# Signaling discrimination experiment


@dataclass
class SignalingResult:
    mode: str
    n_trials: int
    n_usable: int
    usable_fraction: float
    intended: np.ndarray
    received: np.ndarray
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


def _binary_entropy(bits: np.ndarray) -> float:
    if bits.size == 0:
        return 0.0
    p = float(np.mean(bits))
    h = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            h -= q * math.log2(q)
    return h


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
    # The atoms 0:+a 1:-a 2:+b 3:-b, drawn and counted piece by piece.
    n_usable = sum(int(np.count_nonzero(atom < 2)) for atom in ent.integer_pieces(0, 4, n_trials))
    fresh = ent.uniform_rows(n_usable) if mode == "slave-will" else None  # fresh signs

    def bits(rows):
        sent = message[np.arange(rows.start, rows.stop) % message.size]
        # Switch target d*(+-b); action-at-a-distance re-forces u = +-b.
        d = 1 - 2 * sent if fresh is None else uniform_signs(fresh(rows))
        u_final = (b[:, None] * d).T
        return sent, (sign_outcome(-u_final, b) > 0).astype(np.int64)
    intended, received = gathered(n_usable, bits)

    n_matches = int(np.count_nonzero(received == intended))
    return SignalingResult(
        mode=mode,
        n_trials=n_trials,
        n_usable=n_usable,
        usable_fraction=n_usable / n_trials,
        intended=intended,
        received=received,
        n_matches=n_matches,
        success_rate=n_matches / n_usable if n_usable else 0.0,
        empirical_entropy=_binary_entropy(received),
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

    mode 'honest': the stations comply; with the settings fixed
    externally the hidden spin cannot track them, so the spin is uniform,
    no deviations occur, and the observed law departs from the singlet.
    mode 'slave': the hidden variables dictate one station's setting each
    trial; every deviation lands exactly on +-u and the singlet survives.
    mode 'third-party': an independent party re-imposes the declared
    settings at the last moment. Whatever the hidden variables dictated
    is overridden, so the run is the honest one: the same code, streams
    and summary (but for mode), with zero deviations and a uniform spin.
    """
    if mode not in ("honest", "slave", "third-party"):
        raise ValueError(f"unknown audit mode {mode!r}")
    a = assert_unit(a, "a")
    b = assert_unit(b, "b")
    audits = {}  # each chunk's _audit, taken as the chunk runs

    def audit(rows, trial):
        audits[rows.start] = _audit(trial["u"], trial["a_used"], trial["b_used"], a, b)
    if mode == "slave":
        # The shared-coin realization with the declared settings as the
        # stations' free choices.
        res = _shared_coin(n_trials, seed, a, b, None, audit)
        law, dev = res.law, res.singlet_comparison["max_abs_dev"]
    else:
        u_at = sphere_rows(substream(seed, STREAM_ENTANGLER), n_trials)
        noise_a = substream(seed, STREAM_A).uniform_rows(n_trials)
        noise_b = substream(seed, STREAM_B).uniform_rows(n_trials)

        def honest(rows):
            u = u_at(rows)
            a_used = np.broadcast_to(a, u.shape)
            b_used = np.broadcast_to(b, u.shape)
            sigma, tau = malus_pair((u, noise_a(rows), noise_b(rows)), a_used, b_used)
            trial = {"u": u, "a_used": a_used, "b_used": b_used, "sigma": sigma, "tau": tau}
            audit(rows, trial)
            return trial
        counts, _ = _tally(n_trials, None, honest)
        law = JointLaw2x2.from_counts(counts[0])
        dev = law.max_abs_diff(singlet_law(a, b))
    return AuditResult(mode, n_trials, sum(k for k, _ in audits.values()),
                       all(m for _, m in audits.values()), law, float(dev))


def _audit(u, a_used, b_used, a, b):
    """(trials whose used settings differ from the declared a and b, counted
    per side; whether every such setting lies along +-u)."""
    # Column by column and without row gathers, which cost about 1 ms each
    # on the column-major rows of a chunk.
    dev_a = (a_used[:, 0] != a[0]) | (a_used[:, 1] != a[1]) | (a_used[:, 2] != a[2])
    dev_b = (b_used[:, 0] != b[0]) | (b_used[:, 1] != b[1]) | (b_used[:, 2] != b[2])
    return (int(np.count_nonzero(dev_a) + np.count_nonzero(dev_b)),
            bool(np.all(_along_axis(u, a_used) | ~dev_a)
                 and np.all(_along_axis(u, b_used) | ~dev_b)))
