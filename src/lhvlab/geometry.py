"""Deterministic geometry and randomness substrate.

Unit vectors on the sphere (n of them as a column-major (n, 3) array, made
by ``sphere_point`` from heights and azimuths in turns, whose cos and sin
``turn_cos_sin`` computes from a table and short polynomials, in IEEE
arithmetic only, so the bits do not depend on the C library), the
one dot product (every u.x of the model rules and protocol runners, every
closed-form a.b and every norm rounds alike), the one cross product
``cross`` (np.cross's bits, rows column-major), the global sign convention
and the branch-free +-1 and selection kernels, seeded splittable random
streams whose uniforms and index draws a run reserves whole and reads
window by window, each window from a per-thread generator set to its word
(``RandomStream.uniform_rows``, ``RandomStream.index_rows``),
``streamed``, the one loop over the trials of a Monte Carlo run, and
``gathered``, the one fill of full-length arrays from its chunks.
Everything downstream draws exclusively through :class:`RandomStream` so
that a run is reproducible bit-for-bit from its master seed.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque

import numpy as np

UNIT_TOL = 1e-12

# Rows per chunk of a Monte Carlo trial loop (see streamed).
_CHUNK_ROWS = 1 << 16

# (workers, executor), made by the first run of two or more chunks. It lives
# as long as the process: an executor per run cut mc_sweep's work rate by
# 6-13 % (3 of 3 pairs), more than thread start-up explains.
_pool = None
_pool_lock = threading.Lock()
_worker = threading.local()  # .busy is set in the pool's threads
# .generator: each thread's Generator for reading windows of a stream.
_local = threading.local()
_WORD = (1 << 64) - 1

# Halves per block of the rejection count of RandomStream.index_rows: a
# window draws about this many values at most before its own.
_HALF_BLOCK = 1 << 12

# Points per block of the sphere map (see sphere_point). With the chunk
# pool on two threads (2 vCPU Sapphire Rapids, numpy 2.4.6, the allocator
# as cli.main sets it) a million sampled points took 19-22 ms at 32,768
# and 65,536 rows, 20-24 ms at 16,384 and 27-30 ms at 8,192 (libm cos and
# sin: 31-33 ms); on one thread the map took 13-19 ns per point at 32,768
# and 17-20 ns at 65,536.
_TRIG_ROWS = 1 << 15

# turn_cos_sin's table: cos(2 pi k/_TURN_N) for k = 0, ..., _TURN_N/4,
# correctly rounded, a quarter wave from which symmetry gives both whole
# tables (+ 0.0 makes their zeros +0.0).
_TURN_N = 256
_QUARTER_COS = np.array([
    1.0, 0.9996988186962042, 0.9987954562051724, 0.9972904566786902,
    0.9951847266721969, 0.99247953459871, 0.989176509964781, 0.9852776423889412,
    0.9807852804032304, 0.9757021300385286, 0.970031253194544, 0.9637760657954398,
    0.9569403357322088, 0.9495281805930367, 0.9415440651830208, 0.9329927988347388,
    0.9238795325112867, 0.9142097557035307, 0.9039892931234433, 0.8932243011955153,
    0.881921264348355, 0.8700869911087115, 0.8577286100002721, 0.8448535652497071,
    0.8314696123025452, 0.8175848131515837, 0.8032075314806449, 0.7883464276266062,
    0.773010453362737, 0.7572088465064846, 0.7409511253549591, 0.7242470829514669,
    0.7071067811865476, 0.6895405447370669, 0.6715589548470184, 0.6531728429537768,
    0.6343932841636455, 0.6152315905806268, 0.5956993044924334, 0.5758081914178453,
    0.5555702330196022, 0.5349976198870973, 0.5141027441932218, 0.49289819222978404,
    0.47139673682599764, 0.4496113296546066, 0.4275550934302821, 0.40524131400498986,
    0.3826834323650898, 0.35989503653498817, 0.33688985339222005, 0.31368174039889146,
    0.2902846772544624, 0.26671275747489837, 0.2429801799032639, 0.2191012401568698,
    0.19509032201612828, 0.17096188876030122, 0.14673047445536175, 0.1224106751992162,
    0.0980171403295606, 0.07356456359966743, 0.049067674327418015, 0.024541228522912288,
    0.0])
_COS_TURNS = np.concatenate([_QUARTER_COS[:-1], -_QUARTER_COS[:0:-1],
                             -_QUARTER_COS[:-1], _QUARTER_COS[:0:-1]]) + 0.0
_SIN_TURNS = np.roll(_COS_TURNS, _TURN_N // 4)
# Taylor coefficients of sin x and cos x - 1 in e = x N / (2 pi), lowest
# first, correctly rounded: e (w, -w^3/6, w^5/120) and e^2 (-w^2/2, w^4/24,
# -w^6/720), w = 2 pi / N.
_SIN_POLY = (0.02454369260617026, -2.4641574764489986e-06, 7.421954185344935e-11)
_COS_POLY = (-0.0003011964233730883, 1.5119880908790113e-08, -3.036036034369748e-13)

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


def cross(u, x):
    """u x x over the last axis, with np.cross's bits: coordinate k is
    u_i x_j - u_j x_i, (i, j) = (k + 1, k + 2) mod 3. The coordinates are
    written into a (3, ...) buffer whose transpose is returned, as in
    sphere_point, so rows come out column-major."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(u.shape[:-1], x.shape[:-1])
    out, term = np.empty((3, *shape)), np.empty(shape)
    for k in range(3):
        cross_coordinate(u, x, k, out[k, ...], term)
    return np.moveaxis(out, 0, -1)


def cross_coordinate(u, x, k: int, out, term):
    """Coordinate k of u x x, as cross computes it, written into out (term
    is scratch of out's shape); returns out."""
    i, j = (k + 1) % 3, (k + 2) % 3
    np.multiply(u[..., i], x[..., j], out=out)
    out -= np.multiply(u[..., j], x[..., i], out=term)
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


def gathered(n: int, work) -> tuple:
    """The full-length arrays of the parts of work(rows), one per part,
    each chunk's parts written into their rows (see streamed). The first
    chunk to finish part k makes its array, with the part's trailing shape
    and dtype; setdefault keeps one array when two chunks race."""
    columns = {}

    def put(rows) -> None:
        for k, x in enumerate(work(rows)):
            full = columns.get(k)
            if full is None:
                x = np.asarray(x)
                full = columns.setdefault(k, np.empty((n, *x.shape[1:]), x.dtype))
            full[rows] = x
    for _ in streamed(n, put):
        pass
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
        """Add the values a draw of the given size takes: 1 for None, the
        product for a tuple or list (1 for ()), else int(size)."""
        if size is None:
            self.counter += 1
        elif isinstance(size, (tuple, list)):
            self.counter += int(math.prod(size))
        else:
            self.counter += int(size)

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
        state = self._gen.bit_generator.state
        key, start = state["state"]["key"], _next_word(state)
        self._count(size)
        self._move_to(start + k * n, state["has_uint32"], state["uinteger"])

        def draw(rows):
            lo, hi = _window(rows, n)
            out = np.empty((k, hi - lo))
            for j in range(k):
                _generator_at(key, start + j * n + lo).random(out=out[j])
            return out if np.ndim(size) else out[0]
        return draw

    def index_rows(self, k: int, n: int):
        """Reserve the draws of integers(0, k, n), 1 <= k < 2**32, now, and
        return draw(rows): their values for a slice rows of range(n), in the
        narrowest unsigned dtype that holds k - 1 (uint8 up to k = 256),
        computed when asked for.

        Generator.integers reads the 32-bit halves of the Philox words, low
        half first, after the half a previous call may have left buffered.
        It keeps a half h iff (h k) mod 2**32 >= (2**32 - k) mod k and gives
        (h k) >> 32 (Lemire, ACM TOMACS 29(1), 2019). For k a power of two
        no half is rejected, so value i reads half i. For any other k one
        pass, on the calling thread, counts the rejected halves of each block
        of _HALF_BLOCK halves, and a window starts at the block that holds its
        first value. Either way draw runs Generator.integers itself from the
        half its window starts at, so the values are its own. As with
        uniform_rows, the counter and the generator state move on at once
        exactly as the whole draw moves them.
        """
        if not 1 <= k < 2 ** 32:
            raise ValueError(f"index_rows draws from 1 <= k < 2**32 values, got k = {k!r}")
        state = self._gen.bit_generator.state
        key, start = state["state"]["key"], _next_word(state)
        buffered = state["uinteger"] if state["has_uint32"] else None
        self._count(n)
        dtype = np.min_scalar_type(k - 1)
        threshold = (2 ** 32 - k) % k

        # The stream's number of the call's half 0 (half h of the stream is
        # half h % 2 of word h // 2); a buffered half stands in for it.
        base = 2 * start - (buffered is not None)

        def at(half):
            """The generator whose next 32-bit draw reads the call's given half."""
            word, odd = divmod(base + half, 2)
            if half == 0 or not odd:
                return _generator_at(key, word + odd, buffered if half == 0 else None)
            high = _generator_at(key, word).bit_generator.random_raw() >> 32
            return _generator_at(key, word + 1, high)

        def rejected(first, count):
            """The rejected halves of each of count blocks from block first,
            read as raw words, low half first."""
            lo, m = base + first * _HALF_BLOCK, count * _HALF_BLOCK
            words = _generator_at(key, lo // 2).bit_generator.random_raw((lo % 2 + m + 1) // 2)
            h = np.asarray(words, "<u8").view("<u4")[lo % 2:lo % 2 + m]
            if first == 0 and buffered is not None:
                h[0] = buffered
            h *= np.uint32(k)  # (h k) mod 2**32
            return np.count_nonzero((h < threshold).reshape(-1, _HALF_BLOCK), axis=1)

        # kept[j]: the values the blocks before block j give.
        kept = np.zeros(1, np.int64)
        while threshold and kept[-1] < n:
            more = -(-(n - int(kept[-1])) // _HALF_BLOCK)
            done, step = len(kept) - 1, max(1, _CHUNK_ROWS // _HALF_BLOCK)
            counts = np.concatenate([rejected(done + b, min(step, more - b))
                                     for b in range(0, more, step)])
            kept = np.concatenate([kept, kept[-1] + np.cumsum(_HALF_BLOCK - counts)])

        def first(lo):
            """(the half value lo's draw starts from, the values before lo it gives)."""
            if not threshold:
                return lo, 0
            j = int(np.searchsorted(kept, lo, side="right")) - 1
            return j * _HALF_BLOCK, lo - int(kept[j])

        if n and k > 1:
            half, skip = first(n - 1)
            end = at(half)
            end.integers(0, k, skip + 1, dtype=np.uint32)
            end = end.bit_generator.state
            self._move_to(_next_word(end), end["has_uint32"], end["uinteger"])

        def draw(rows):
            lo, hi = _window(rows, n)
            if hi == lo or k == 1:
                return np.zeros(hi - lo, dtype)
            half, skip = first(lo)
            return at(half).integers(0, k, skip + hi - lo, dtype=np.uint32)[skip:].astype(dtype)
        return draw

    def _move_to(self, word: int, has_uint32: int, uinteger: int) -> None:
        """Set the generator to the state a draw leaves when its next word is
        word and its buffered 32-bit half is (has_uint32, uinteger)."""
        bits = self._gen.bit_generator
        state = bits.state
        if word > _next_word(state):
            end = _generator_at(state["state"]["key"], word - 1).bit_generator
            end.random_raw()
            state = end.state
        bits.state = {**state, "has_uint32": has_uint32, "uinteger": uinteger}

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in [low, high)."""
        self._count(size)
        return self._gen.integers(low, high, size=size)


def uniform_signs(w, dtype=np.float64):
    """-1 where a uniform is below 1/2, else +1, in dtype: a fair sign per
    uniform, by exact arithmetic on the comparison (see sgn)."""
    return (np.asarray(w) < 0.5) * dtype(-2) + dtype(1)


def select(mask, x, y) -> np.ndarray:
    """np.where(mask, x, y) for floats, bit for bit, without its branch: the
    bits of y, with those that differ from x's flipped where mask is set."""
    xi = np.asarray(x, dtype=float).view(np.int64)
    yi = np.asarray(y, dtype=float).view(np.int64)
    flips = xi ^ yi  # mask broadcasts to the shape of x and y
    flips &= -np.asarray(mask, dtype=np.int64)
    flips ^= yi
    return flips.view(np.float64)


def uniform_bits(w, dtype=np.int64):
    """1 where a uniform is below 1/2, else 0, in dtype: a fair bit per
    uniform."""
    return (np.asarray(w) < 0.5).astype(dtype)


def _next_word(state: dict) -> int:
    """The Philox word the next draw from the given state reads."""
    counter = sum(int(c) << (64 * i) for i, c in enumerate(state["state"]["counter"]))
    return 4 * counter - 4 + state["buffer_pos"]


def _window(rows: slice, n: int) -> tuple:
    """(lo, hi) of a contiguous slice rows of range(n), hi >= lo."""
    lo, hi, step = rows.indices(n)
    if step != 1:
        raise ValueError(f"draw reads contiguous rows, not the slice {rows!r}")
    return lo, max(hi, lo)


def _generator_at(key, word: int, half: int | None = None):
    """This thread's Generator, its Philox keyed by key and set so that its
    next draw reads the given word; half, if given, is the buffered 32-bit
    half that Generator.integers reads first. The state is set, not a
    Philox built: a new Philox draws OS entropy for a seed sequence it
    would never use."""
    gen = getattr(_local, "generator", None)
    if gen is None:
        gen = _local.generator = np.random.Generator(np.random.Philox(0))
    block, skip = divmod(word, 4)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [(block >> shift) & _WORD for shift in (0, 64, 128, 192)],
                  "key": key},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4,
        "has_uint32": int(half is not None), "uinteger": half or 0}
    if skip:
        gen.bit_generator.random_raw(skip)
    return gen


def substream(master_seed: int, trial_index: int) -> RandomStream:
    """Deterministic per-trial (or per-party) stream. Distinct
    trial_index values map to distinct stream ids by construction."""
    return RandomStream(master_seed, trial_index)


def turn_cos_sin(turns, out=None):
    """cos(2 pi t) and sin(2 pi t) of the turns t, a float array, written
    into out = (c, s) (arrays of t's shape) if given; returns (c, s).

    With N = _TURN_N = 256, j = rint(N t) and e = N t - j (|e| <= 1/2), 2 pi t
    is the table angle 2 pi k/N, k = j mod N, plus x = 2 pi e/N. Then
    c = ct + (ct pc - st ps) and s = st + (st pc + ct ps), where ct, st are
    the table's cos and sin of 2 pi k/N and pc = cos x - 1, ps = sin x are
    Taylor polynomials in e. Only IEEE *, +, rint and the table enter, so
    the bits do not depend on the C library. The error bound is derived
    in sphere_point."""
    t = np.asarray(turns, dtype=float)
    c, s = (np.empty(t.shape), np.empty(t.shape)) if out is None else out
    e, j, pc, e2 = (np.empty(t.shape) for _ in range(4))
    k = e2.view(np.int64)  # the index until e2 is needed
    np.multiply(t, _TURN_N, out=e)
    np.rint(e, out=j)
    np.copyto(k, j, casting="unsafe")
    np.bitwise_and(k, _TURN_N - 1, out=k)
    np.take(_COS_TURNS, k, out=c, mode="clip")
    np.take(_SIN_TURNS, k, out=s, mode="clip")
    e -= j
    np.multiply(e, e, out=e2)
    ps = np.multiply(e2, _SIN_POLY[2], out=j)
    ps += _SIN_POLY[1]
    ps *= e2
    ps += _SIN_POLY[0]
    ps *= e
    np.multiply(e2, _COS_POLY[2], out=pc)
    pc += _COS_POLY[1]
    pc *= e2
    pc += _COS_POLY[0]
    pc *= e2
    dc = np.multiply(c, pc, out=e)
    dc -= np.multiply(s, ps, out=e2)
    pc *= s
    pc += np.multiply(c, ps, out=ps)
    c += dc
    s += pc
    return c, s


def sphere_point(z, turns) -> np.ndarray:
    """(r cos 2 pi t, r sin 2 pi t, z), r = sqrt(1 - z^2), along a new last
    axis: the one area-preserving map of heights z and azimuths t, in turns,
    to the sphere.

    cos 2 pi t and sin 2 pi t come from turn_cos_sin, and for |t| < 2**55
    each is within 2**-52 of its true value:
    - the reduction rounds nowhere: N t is exact, and so is e = N t - j,
      as j = rint(N t) is within 1/2 of it (Sterbenz);
    - the table holds correctly rounded values, off by at most half an
      ulp, 2**-54;
    - the final sum ct + (...) rounds once, by at most 2**-54;
    - the Taylor terms left out, x**7/5040 and x**8/40320 at
      |x| <= pi/256 < 0.0123, are below 1e-17, and the roundings inside
      the correction term, which is below 0.0123 in size, add under
      1e-17.
    Whole, half and quarter turns are exact: (1, 0), (-1, 0), (0, +-1).
    The azimuth is taken in turns because only then is the reduction
    exact: cos(fl(2 pi w)) is off by up to 6.9e-16 from rounding its
    argument alone.

    The coordinates are written into a (3, ...) buffer whose transpose is
    returned, so n points are a column-major (n, 3) array: each coordinate
    is one contiguous column (see dot). The map runs _TRIG_ROWS points at
    a time, so its temporaries stay in cache."""
    shape = np.broadcast_shapes(np.shape(z), np.shape(turns))
    out = np.empty((3, *shape))
    out[2, ...] = z
    x, y, zs = (out[i, ...].reshape(-1) for i in range(3))
    t = np.broadcast_to(turns, shape).reshape(-1)
    for lo in range(0, t.size, _TRIG_ROWS):
        rows = slice(lo, lo + _TRIG_ROWS)
        c, s = turn_cos_sin(t[rows], out=(x[rows], y[rows]))
        r = np.multiply(zs[rows], zs[rows])
        np.subtract(1.0, r, out=r)
        np.sqrt(np.maximum(0.0, r, out=r), out=r)
        c *= r
        s *= r
    return np.moveaxis(out, 0, -1)


def sphere_rows(stream: RandomStream, n: int):
    """Reserve the uniforms of n points on the sphere, all z then all
    azimuths; return points(rows), the points of the trials in the slice rows.

    Inverse transform (see sphere_point): z uniform in [-1, 1], azimuth
    uniform in [0, 1) turns. Exactly two uniform draws per vector, never
    rejection, so the draw count per sample is fixed.
    """
    w = stream.uniform_rows((2, n))

    def points(rows):
        wz, wphi = w(rows)
        wz *= 2.0  # z = 2 wz - 1, in the window's own row
        wz -= 1.0
        return sphere_point(wz, wphi)
    return points
