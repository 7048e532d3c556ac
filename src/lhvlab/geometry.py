"""Deterministic geometry and randomness substrate.

Unit vectors on the sphere (n of them as a column-major (n, 3) array), the
one dot product (every u.x of the model rules and protocol runners, every
closed-form a.b and every norm rounds alike), the global sign convention
and the branch-free +-1 and selection kernels, seeded splittable random
streams whose uniforms a run reserves whole and reads window by window
(``RandomStream.uniform_rows``), ``streamed``/``chunked``, the one loop over
the trials of a Monte Carlo run, and ``gathered``/``Columns``, the one fill
of full-length arrays from its chunks. Everything downstream draws exclusively through
:class:`RandomStream` so that a run is reproducible bit-for-bit from its
master seed.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque

import numpy as np

UNIT_TOL = 1e-12

# Rows per chunk of a Monte Carlo trial loop (see chunked).
_CHUNK_ROWS = 1 << 16

# (workers, executor), made by the first run of two or more chunks. It lives
# as long as the process: an executor per run cut mc_sweep's work rate by
# 6-13 % (3 of 3 pairs), more than thread start-up explains.
_pool = None
_pool_lock = threading.Lock()
_worker = threading.local()  # .busy is set in the pool's threads

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])


def dot(u, x):
    """u.x over the last axis, summed left to right as
    np.sum(u * x, axis=-1) sums (the same bits), accumulated in place.
    Rows of column-major (n, 3) arrays are read as contiguous columns."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    out = u[..., 0] * x[..., 0]
    if out.ndim == 0:
        return out + u[..., 1] * x[..., 1] + u[..., 2] * x[..., 2]
    term = u[..., 1] * x[..., 1]
    out += term
    out += np.multiply(u[..., 2], x[..., 2], out=term)
    return out


def sgn(x):
    """Sign with sgn(0) = +1, applied elementwise.

    The convention at zero is fixed globally; the zero set has measure
    zero under every sampler here, so estimated probabilities do not
    depend on it (test-verified). The sign is the comparison times 2 minus
    1, exact arithmetic: np.where's loop branches on each element, and on
    random signs it mispredicts so often that it takes about five times as
    long.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("sgn requires finite input")
    out = (x >= 0.0) * 2.0 - 1.0
    return float(out) if out.ndim == 0 else out


def streamed(n: int, work, rows: int | None = None):
    """Yield work(chunk) for each slice chunk of range(n), rows (default
    _CHUNK_ROWS) at a time, in order; one empty slice when n is 0.

    work reads the draws of its rows through windows (see
    RandomStream.uniform_rows) and turns them into outcomes, counts and
    columns. work must write only its own rows of shared arrays, so results
    do not depend on the chunk size or the thread count. The chunks run on a
    pool of one thread per CPU of the process (numpy releases the GIL inside
    large ufuncs), at most two per thread ahead of the one yielded next, so
    memory stays bounded whatever n is; a single chunk, a single CPU or a
    call from inside a chunk runs inline. An exception raised by a chunk
    re-raises as it is.
    """
    rows = _CHUNK_ROWS if rows is None else rows
    chunks = (slice(lo, min(lo + rows, n)) for lo in range(0, max(n, 1), rows))
    if n <= rows or getattr(_worker, "busy", False) or (workers := _workers()) == 1:
        yield from map(work, chunks)
        return
    executor = _executor(workers)
    pending = deque()
    try:
        for chunk in chunks:
            pending.append(executor.submit(work, chunk))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def chunked(n: int, work) -> list:
    """[work(rows) for each slice rows of range(n), _CHUNK_ROWS at a time],
    in order (see streamed)."""
    return list(streamed(n, work))


class Columns(dict):
    """Full-length per-trial columns filled chunk by chunk: put(rows, parts)
    writes each part into those rows of its column, which the first put of
    the part makes with the part's trailing shape and dtype."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def put(self, rows, parts: dict) -> None:
        for name, x in parts.items():
            full = self.get(name)
            if full is None:
                x = np.asarray(x)
                full = self.setdefault(name, np.empty((self.n, *x.shape[1:]), x.dtype))
            full[rows] = x


def gathered(n: int, work) -> tuple:
    """The full-length arrays of the parts of work(rows), one per part,
    each chunk's parts written into their rows (see chunked)."""
    columns = Columns(n)
    chunked(n, lambda rows: columns.put(rows, dict(enumerate(work(rows)))))
    return tuple(columns[k] for k in range(len(columns)))


def _workers() -> int:
    """CPUs in this process's affinity mask."""
    return len(os.sched_getaffinity(0))


def _executor(workers: int):
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != workers:
            from concurrent.futures import ThreadPoolExecutor  # import on first use
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (workers, ThreadPoolExecutor(workers, initializer=_mark_busy))
        return _pool[1]


def _mark_busy() -> None:
    _worker.busy = True


def _forget_pool() -> None:
    """A forked child has none of the pool's threads: it makes its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def normalize(v) -> np.ndarray:
    """Scale v to unit length |v| = sqrt(dot(v, v)). Idempotent: a vector
    already within UNIT_TOL of unit norm is returned unchanged."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"can normalize a 3-vector only, got shape {v.shape}")
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norm = math.sqrt(dot(v, v))
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError("cannot normalize zero or non-finite vector")
    if abs(norm - 1.0) <= UNIT_TOL:
        return v
    return v / norm


def unit_vector(x, y, z) -> np.ndarray:
    return normalize(np.array([x, y, z], dtype=float))


def planar_setting(angle_deg: float) -> np.ndarray:
    """Analyzer direction at the given angle in the x-y plane."""
    t = math.radians(angle_deg)
    return np.array([math.cos(t), math.sin(t), 0.0])


def assert_unit(v, name: str = "vector") -> np.ndarray:
    """v as floats if it is a unit vector or rows of them; else ValueError
    naming the first vector whose norm^2, dot(v, v), is NaN or off 1 by
    over 1e-9."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"{name} must be a 3-vector or rows of them, got shape {v.shape}")
    norm2 = dot(v, v)
    bad = np.flatnonzero(~(np.abs(norm2 - 1.0) <= 1e-9))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{name} must be a unit vector, got {v.reshape(norm2.size, -1)[i]!r} "
                         f"with norm^2={float(norm2.ravel()[i])!r}")
    return v


class RandomStream:
    """Counter-based splittable random stream.

    A stream is identified by (master_seed, stream_id); equal
    identifiers reproduce the identical draw sequence on any platform,
    and distinct stream_ids give statistically independent sequences
    (Philox counter-based generator keyed by the pair). The number of
    values drawn so far is tracked in ``counter``.
    """

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)
        self.counter = 0
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.Philox(seq))

    def __repr__(self):
        return (f"RandomStream(master_seed={self.master_seed}, "
                f"stream_id={self.stream_id}, counter={self.counter})")

    def _count(self, size) -> None:
        self.counter += 1 if size is None else int(np.prod(size))

    def uniform(self, size=None):
        """Uniform draws in [0, 1)."""
        self._count(size)
        return self._gen.random(size)

    def uniform_rows(self, size):
        """Reserve the draws of uniform(size) now, for size n or (k, n), and
        return draw(rows): uniform(size)[..., rows] for a slice rows of
        range(n), computed when asked for.

        Every uniform takes one 64-bit Philox word, and Philox computes the
        words of any counter directly (Salmon et al., SC11), so each call of
        draw reads only its own windows of the stream. The counter and the
        generator state move on at once exactly as the whole draw moves
        them, so later draws do not change.
        """
        k, n = (1, size) if np.ndim(size) == 0 else size
        bits = self._gen.bit_generator
        state = bits.state
        key = state["state"]["key"]
        counter = sum(int(c) << (64 * i) for i, c in enumerate(state["state"]["counter"]))
        start = 4 * counter - 4 + state["buffer_pos"]  # the word the next draw reads
        self._count(size)
        if k * n:
            end = _philox_at(key, start + k * n - 1)
            end.random_raw(1)
            bits.state = {**end.state, "has_uint32": state["has_uint32"],
                          "uinteger": state["uinteger"]}

        def draw(rows):
            lo, hi, step = rows.indices(n)
            if step != 1:
                raise ValueError(f"draw reads contiguous rows, not the slice {rows!r}")
            out = np.empty((k, max(hi - lo, 0)))
            for j in range(k):
                np.random.Generator(_philox_at(key, start + j * n + lo)).random(out=out[j])
            return out if np.ndim(size) else out[0]
        return draw

    def signs(self, size=None):
        """Fair draws from {-1.0, +1.0}."""
        u = self.uniform(size)
        return uniform_signs(u) if size is not None else (-1.0 if u < 0.5 else 1.0)

    def bits(self, size=None):
        """Fair draws from {0, 1}."""
        u = self.uniform(size)
        return uniform_bits(u) if size is not None else int(u < 0.5)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in [low, high)."""
        self._count(size)
        return self._gen.integers(low, high, size=size)

    def integer_pieces(self, low: int, high: int, n: int):
        """Yield the draws of integers(low, high, n) in order, in pieces of
        at most _CHUNK_ROWS.

        Generator.integers keeps a buffered 32-bit half in the bit
        generator's state, not in the call, so consecutive calls give the
        values, the state and the counter of one whole call. Each piece is
        drawn when it is asked for: take them all before the next draw.
        """
        for lo in range(0, n, _CHUNK_ROWS):
            yield self.integers(low, high, min(_CHUNK_ROWS, n - lo))

    def indices(self, k: int, n: int) -> np.ndarray:
        """integers(0, k, n), the same values and stream state, stored in the
        narrowest unsigned dtype that holds k - 1 (uint8 up to k = 256)."""
        out = np.empty(n, np.min_scalar_type(k - 1))
        at = 0
        for piece in self.integer_pieces(0, k, n):
            out[at:at + len(piece)] = piece
            at += len(piece)
        return out

    def sphere(self, size=None):
        """Uniform unit vectors on the sphere; see sample_uniform_sphere."""
        return sample_uniform_sphere(self, size)


def uniform_signs(w):
    """-1.0 where a uniform is below 1/2, else +1.0: the draws of signs(),
    by exact arithmetic on the comparison (see sgn)."""
    return (np.asarray(w) < 0.5) * -2.0 + 1.0


def select(mask, x, y) -> np.ndarray:
    """np.where(mask, x, y) for floats, bit for bit, without its branch: the
    bits of y, with those that differ from x's flipped where mask is set."""
    xi = np.asarray(x, dtype=float).view(np.int64)
    yi = np.asarray(y, dtype=float).view(np.int64)
    flips = xi ^ yi  # mask broadcasts to the shape of x and y
    flips &= -np.asarray(mask, dtype=np.int64)
    flips ^= yi
    return flips.view(np.float64)


def uniform_bits(w):
    """1 where a uniform is below 1/2, else 0, as int64: the draws of bits()."""
    return (np.asarray(w) < 0.5).astype(np.int64)


def _philox_at(key, word: int):
    """A Philox keyed by key whose next draw reads the given word."""
    bits = np.random.Philox(key=key).advance(word // 4)
    bits.random_raw(word % 4)
    return bits


def substream(master_seed: int, trial_index: int) -> RandomStream:
    """Deterministic per-trial (or per-party) stream. Distinct
    trial_index values map to distinct stream ids by construction."""
    return RandomStream(master_seed, trial_index)


def sphere_point(z, phi) -> np.ndarray:
    """(r cos phi, r sin phi, z), r = sqrt(1 - z^2), along a new last axis: the
    one area-preserving map of heights z and azimuths phi to the sphere.

    The coordinates are written into a (3, ...) buffer whose transpose is
    returned, so n points are a column-major (n, 3) array: each coordinate
    is one contiguous column (see dot)."""
    out = np.empty((3, *np.broadcast_shapes(np.shape(z), np.shape(phi))))
    x, y, r = out[0, ...], out[1, ...], out[2, ...]  # r until z is written
    np.multiply(z, z, out=r)
    np.subtract(1.0, r, out=r)
    np.sqrt(np.maximum(0.0, r, out=r), out=r)
    np.multiply(r, np.cos(phi, out=x), out=x)
    np.multiply(r, np.sin(phi, out=y), out=y)
    out[2, ...] = z
    return np.moveaxis(out, 0, -1)


def sphere_rows(stream: RandomStream, n: int):
    """Reserve the uniforms of n points on the sphere, all z then all
    azimuths; return points(rows), the points of the trials in the slice rows.

    Inverse transform (see sphere_point): z uniform in [-1, 1], azimuth
    uniform in [0, 2*pi). Exactly two uniform draws per vector, never
    rejection, so the draw count per sample is fixed.
    """
    w = stream.uniform_rows((2, n))

    def points(rows):
        wz, wphi = w(rows)
        return sphere_point(2.0 * wz - 1.0, 2.0 * math.pi * wphi)
    return points


def sample_uniform_sphere(stream: RandomStream, size=None):
    """Uniform direction(s) on the unit sphere; see sphere_rows."""
    n = 1 if size is None else int(size)
    points = sphere_rows(stream, n)
    out = gathered(n, lambda rows: (points(rows),))[0]
    return out[0] if size is None else out
