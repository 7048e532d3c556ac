"""Hidden-variable models of the two-particle spin singlet.

Each model exposes its analytic joint law, a sampler for its hidden
variables, the per-trial outcome rule, and a set of hypothesis-compliance
flags; the MODELS table at the end names them per model id and is the one
place that dispatches over ids. All samplers are pure
functions of their inputs and a :class:`~lhvlab.geometry.RandomStream`;
vector arguments broadcast, so the same functions serve single trials
and batched Monte Carlo.
The shared rules are written once, for models and protocol runners alike:
``outcome_counts``, ``law_table``, ``overlap``, the detectors
``sign_outcome`` and ``malus_outcome`` (each reads u.x through
``spin_map``, so a spin given as an atom code is read once per atom), the
Malus station pair ``malus_pair``, and the one-bit stations
``one_bit_station_a`` and ``one_bit_tau``. A sampled run reserves
its uniforms whole and then reads them and turns them into outcomes chunk
by chunk (``RandomStream.uniform_rows``, ``geometry.streamed``); whole
arrays are filled by ``geometry.gathered``.

Conventions: outcomes are +-1, analyzers and hidden spins are unit
vectors, and the sign convention sgn(0) = +1 applies throughout.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .geometry import (X_HAT, Y_HAT, RandomStream, assert_unit, cross, cross_coordinate, dot,
                       gathered, select, sgn, sphere_point, sphere_rows, streamed)

LAW_TOL = 1e-12

_OUT_INDEX = {1: 0, -1: 1}
_OUTCOMES = (1, -1)


class JointLaw2x2:
    """Joint probability table for a pair of +-1 outcomes at fixed settings.

    Indexed by (sigma, tau) with +1 first; entries must be nonnegative
    and sum to one within LAW_TOL. A law estimated from trials keeps their
    integer (2, 2) outcome-count table as counts; a closed-form law has
    counts None.
    """

    counts = None

    def __init__(self, p, n_trials: int | None = None):
        p = np.asarray(p, dtype=float)
        if p.shape != (2, 2):
            raise ValueError("joint law needs a 2x2 table")
        if not np.all(np.isfinite(p)):
            raise ValueError(f"joint law entries must be finite, got {p!r}")
        if np.any(p < -LAW_TOL):
            raise ValueError(f"negative probability in joint law: {p!r}")
        if abs(float(p.sum()) - 1.0) > LAW_TOL:
            raise ValueError(f"joint law must sum to 1, got {float(p.sum())!r}")
        self.p = np.maximum(p, 0.0)
        self.n_trials = n_trials

    def prob(self, sigma: int, tau: int) -> float:
        return float(self.p[_OUT_INDEX[sigma], _OUT_INDEX[tau]])

    def correlator(self) -> float:
        """Expectation of sigma*tau."""
        return float(self.p[0, 0] - self.p[0, 1] - self.p[1, 0] + self.p[1, 1])

    def std_error(self) -> float:
        """Worst-case Monte Carlo standard error per entry (0 if analytic)."""
        if not self.n_trials:
            return 0.0
        return 0.5 / math.sqrt(self.n_trials)

    def max_abs_diff(self, other: "JointLaw2x2") -> float:
        return float(np.abs(self.p - other.p).max())

    def as_dict(self) -> dict:
        return {f"p({s:+d},{t:+d})": self.prob(s, t) for s in _OUTCOMES for t in _OUTCOMES}

    @classmethod
    def from_counts(cls, counts) -> "JointLaw2x2":
        """Empirical law from a 2x2 table of outcome counts, kept as counts."""
        n = int(counts.sum())
        if n == 0:
            raise ValueError("cannot estimate a law from zero trials")
        law = cls(counts / n, n_trials=n)
        law.counts = counts
        return law

    @classmethod
    def from_outcomes(cls, sigma, tau) -> "JointLaw2x2":
        """Empirical law from arrays of +-1 outcomes."""
        return cls.from_counts(outcome_counts(sigma, tau)[0])

    def __repr__(self):
        return f"JointLaw2x2({self.p.tolist()})"


def outcome_counts(sigma, tau, group=0, n_groups: int = 1) -> np.ndarray:
    """(n_groups, 2, 2) int64 counts of the outcome pairs, trial i counted
    in group[i], each table in JointLaw2x2 order: +1 first, and an outcome
    that is not positive (NaN included) counted as -1. Tables over disjoint
    sets of trials sum to the table over their union. One table is counted
    from its positive sigma, tau and pairs alone, with no cell index; a
    group outside [0, n_groups) is a ValueError. The cell index
    4 group + 2 (1 - s) + (1 - t) takes one byte per trial while
    4 n_groups <= 256 (the binned tallies and detection's pair groups)."""
    s, t = np.asarray(sigma) > 0, np.asarray(tau) > 0
    if n_groups == 1 and np.ndim(group) == 0 and group == 0:
        s, t = np.broadcast_arrays(s, t)
        both, ns, nt = (np.count_nonzero(x) for x in (s & t, s, t))
        return np.array([[[both, ns - both], [nt - both, s.size - ns - nt + both]]],
                        dtype=np.int64)
    group, s, t = np.broadcast_arrays(group, s, t)
    if group.size and not (0 <= group.min() and group.max() < n_groups):
        raise ValueError(f"groups must lie in [0, {n_groups}), "
                         f"got {group.min()!r} to {group.max()!r}")
    cell = group.astype(np.uint8 if 4 * n_groups <= 256 else np.intp)
    cell *= 4
    cell |= 3
    for x in (s, s, t):
        cell -= x.view(np.uint8)
    return np.bincount(cell.ravel(), minlength=4 * n_groups).reshape(n_groups, 2, 2)


def law_table(q) -> np.ndarray:
    """P(sigma, tau) = (1 - sigma*tau q)/4: fair marginals, correlator -q."""
    return np.array([[1 - q, 1 + q], [1 + q, 1 - q]]) / 4.0


def uniform_law() -> JointLaw2x2:
    return JointLaw2x2(law_table(0.0))


def overlap(a, b) -> float:
    """a.b of the unit settings a and b, by geometry.dot: the closed forms
    read the same bits as the per-trial rules, which sum u.x the same way."""
    return float(dot(assert_unit(a, "a"), assert_unit(b, "b")))


def singlet_law(a, b) -> JointLaw2x2:
    """Reference joint law P(sigma, tau) = (1 - sigma*tau a.b)/4."""
    return JointLaw2x2(law_table(overlap(a, b)))


def malus_marginal(u, n, outcome):
    """Malus probability (1 + outcome * u.n)/2 for hidden spin u and analyzer n."""
    return (1.0 + np.asarray(outcome) * dot(u, n)) / 2.0


class AtomSpins:
    """Unit vectors as atom codes: trial i's vector is the row
    table[code[i]] of a few unit vectors, code an unsigned integer array.
    The finite models draw their hidden spins so, and the detection runs
    their spins and settings too. A rule reads u.x once per table row, or
    once per pair of rows, and gives each trial its row's value (see
    spin_map)."""

    def __init__(self, table, code):
        self.table, self.code = table, code

    def __len__(self):
        return len(self.code)

    def __neg__(self):
        return AtomSpins(-self.table, self.code)

    def rows(self) -> np.ndarray:
        """The per-trial vectors, a column-major (m, 3) array."""
        return self.table.T.take(self.code, axis=1).T


def spin_map(f, u, x):
    """f(u.x) for each trial's spin u (one spin, rows of them, or AtomSpins)
    at the setting x (one vector, rows of them, or AtomSpins). With atom
    codes and one setting, f runs once per table row, and with atom codes
    on both sides once per pair of table rows if there are no more pairs
    than trials; each trial takes its row's value: the same bits as on the
    trial's own rows, as dot sums every row alike. f gets a new array of
    u.x, which it may overwrite."""
    both = isinstance(u, AtomSpins) and isinstance(x, AtomSpins)
    if both and len(u.table) * len(x.table) <= len(u):
        pair = np.multiply(u.code, len(x.table), dtype=np.intp)
        pair += x.code
        return f(dot(u.table[:, None], x.table[None])).ravel().take(pair)
    if isinstance(u, AtomSpins):
        if np.ndim(x) == 1:
            return f(dot(u.table, x)).take(u.code)
        u = u.rows()
    return f(dot(u, x.rows() if isinstance(x, AtomSpins) else x))


def malus_outcome(u, n, noise):
    """Malus detector: +1 where the uniform noise is below (1 + u.n)/2, else -1,
    by exact arithmetic on the comparison (see geometry.sgn)."""
    return _malus_sign(noise, spin_map(lambda t: 1.0 + t, u, n))


def _malus_sign(noise, twice_p):
    """+1 where 2 noise < twice_p, else -1: noise < twice_p/2 compared
    without the halving, as both scalings by 2 are exact."""
    return (np.multiply(noise, 2.0) < twice_p) * 2.0 - 1.0


def sign_outcome(u, n):
    """Sign-rule detector: sgn(u.n), the deterministic outcome of spin u
    at analyzer n."""
    return spin_map(sgn, u, n)


# ---------------------------------------------------------------------------
# Communication model and its two indeterministic extensions


def tb_outcomes(u, v, a, b):
    """Deterministic outcome pair of the one-bit communication model.

    sigma = sgn(u.a); the bit c = sgn(u.a)*sgn(v.a) travels to the other
    station, which outputs tau = -sgn((u + c v).b).
    """
    sigma, c = one_bit_station_a(u, v, a)
    return sigma, one_bit_tau(u, v, c, b)


def one_bit_station_a(u, v, a):
    """First-station rule of the one-bit model: sigma = sgn(u.a) and the
    bit c = sgn(u.a)*sgn(v.a), from the shared (u, v) and the setting a."""
    sigma = sign_outcome(u, a)
    return sigma, sigma * sign_outcome(v, a)


def one_bit_tau(u, v, c, b):
    """Second-station rule of the one-bit model: tau = -sgn((u + c v).b),
    from the shared (u, v), the bit c and the local setting b only.
    (u + c v).b is summed coordinate by coordinate as geometry.dot sums it,
    with the same bits, and b is one vector or rows of them."""
    u, v, b = (np.asarray(x, dtype=float) for x in (u, v, b))
    out = (v[..., 0] * c + u[..., 0]) * b[..., 0]
    for k in (1, 2):
        out += (v[..., k] * c + u[..., k]) * b[..., k]
    return -sgn(out)


class IncompatiblePriors:
    """Sentinel for the 0/0 conditional branch: the queried outcome cannot
    occur together with the given hidden variables and setting."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INCOMPATIBLE_PRIORS"


INCOMPATIBLE_PRIORS = IncompatiblePriors()


def tb_conditional(u, v, a, b, sigma, tau):
    """Conditional probability of tau at the second station given sigma.

    Unreachable in forward simulation when sigma disagrees with the
    deterministic first-station outcome; querying that branch returns the
    INCOMPATIBLE_PRIORS sentinel instead of a number.
    """
    s, t = tb_outcomes(u, v, a, b)
    if float(s) != float(sigma):
        return INCOMPATIBLE_PRIORS
    return 1.0 if float(t) == float(tau) else 0.0


def tb_extension_law(p: float, family: int, a, b) -> JointLaw2x2:
    """Averaged law of the two indeterministic extensions.

    Family 1 keeps the bit a function of (u, v, a) and gives
    (1 - (2p-1) sigma*tau a.b)/4; family 2 ties the bit to the actual
    outcome and gives (1 - p sigma*tau a.b)/4.
    """
    _check_extension(p, family)
    k = (2.0 * p - 1.0) if family == 1 else p
    return JointLaw2x2(law_table(k * overlap(a, b)))


def tb_extension_sample(p: float, family: int, u, v, a, b, stream: RandomStream):
    """Sampled outcomes of the indeterministic extensions.

    The first station outputs its deterministic value with probability p
    and the flipped value otherwise. Family 1 computes the bit from
    (u, v, a); family 2 computes it from the realized sigma.
    """
    _check_extension(p, family)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    return _tb_extension_rule(family, (u, v, stream.uniform(u.shape[0]) < p), a, b)


def _check_extension(p, family: int = 1) -> None:
    if p is None or not 0.0 <= p <= 1.0:
        raise ValueError(f"the mixing probability p must lie in [0, 1], got {p!r}")
    if family not in (1, 2):
        raise ValueError(f"family must be 1 or 2, got {family!r}")


def _tb_extension_rule(family: int, hidden, a, b):
    """Outcomes of an extension from (u, v, keep), where keep marks the
    trials on which the first station keeps its deterministic value. The
    flip is a product with the exact +-1 of keep (see geometry.sgn)."""
    u, v, keep = hidden
    S, c = one_bit_station_a(u, v, a)
    flip = keep * 2.0 - 1.0
    if family == 2:  # the bit follows the flip
        c = c * flip
    return S * flip, one_bit_tau(u, v, c, b)


def tb_freewill_density(u, v, c, a, b):
    """Hidden-variable density of the constrained-choice reading.

    Uniform over (u, v) times an indicator selecting the bit value
    compatible with the setting: c must equal sgn(u.a)*sgn(v.a).
    """
    match = np.asarray(c) == one_bit_station_a(u, v, a)[1]
    return np.where(match, 1.0 / (4.0 * math.pi) ** 2, 0.0)


def tb_freewill_sample(a, b, n: int, stream: RandomStream):
    """Draw (u, v, c) with u, v uniform and c fixed by the constraint."""
    return gathered(n, _draw_tb_freewill(a, b, n, stream, None))


# ---------------------------------------------------------------------------
# Maximal-measurement-dependence model (deterministic outcomes)


def hall_f(u, a, b):
    """Correlation kernel sgn(u.a) * sgn(-u.b) * (a.b), with the partner
    spin fixed to -u. Invariant under u -> -u."""
    sigma, tau = hall_outcomes(np.asarray(u, dtype=float), a, b)
    # np.dot, not overlap: a.b only scales f, so its last bit decides no
    # sign, and hall_density keeps the bits its tests pin.
    return sigma * tau * float(np.dot(a, b))


def _hall_g(f):
    """(1 - f)/(8 arccos f) with the removable singularity at f -> 1
    evaluated as its limit 0."""
    f = np.asarray(f, dtype=float)
    near_one = f > 1.0 - 1e-9
    safe = np.where(near_one, 0.0, f)
    # a.b of unit vectors can round to 1 + 2e-16, putting f just below -1,
    # where arccos gives NaN; clip it to -1 in place.
    np.maximum(safe, -1.0, out=safe)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (1.0 - safe) / (8.0 * np.arccos(safe))
    return np.where(near_one, 0.0, g)


def hall_density(u, a, b):
    """Setting-conditioned density of the hidden spin u on the sphere."""
    out = _hall_g(hall_f(u, a, b))
    return float(out) if np.ndim(out) == 0 else out


def hall_settings_conditional(u, a, b):
    """Conditional density of the settings pair (a, b) given u, under a
    uniform prior on settings; equals hall_density / (4*pi)."""
    return hall_density(u, a, b) / (4.0 * math.pi)


def hall_sample(a, b, n: int, stream: RandomStream) -> np.ndarray:
    """Draw n hidden spins from hall_density, exactly, from 4n uniforms.

    a and b are unit vectors, or (n, 3) rows of per-trial settings. The
    density is constant on each of the four lunes cut by the planes normal
    to a and b: the two where sgn(u.a) = sgn(u.b) carry (1 + a.b)/4 each,
    the other two (1 - a.b)/4. Trial i reads the uniforms i, n + i, 2n + i
    and 3n + i: they pick the pair, the lune of the pair, the height along
    a x b and the azimuth across the lune.
    """
    spins = _draw_hall(a, b, n, stream, None)
    return gathered(n, lambda rows: (spins(rows),))[0]


def _setting_rows(x, n: int, name: str) -> np.ndarray:
    x = assert_unit(x, name)
    if x.ndim != 1 and x.shape != (n, 3):
        raise ValueError(f"{name} must be a unit vector or ({n}, 3) unit rows, got {x.shape}")
    return x


# Trials per block of hall_spin_rows. A block's frame, sphere points and
# their map's temporaries take about 150 B per trial, so at 16,384 a watch-hall
# chunk of 65,536 trials peaks at 115 B/trial, against 148 at 32,768.
_HALL_ROWS = 1 << 14


def hall_spin_rows(a, b, w, rows):
    """hall_spins(a, b, w(rows)) for the trials in the slice rows: a, b
    are vectors or (n, 3) rows and w the draw of the n trials' uniforms
    (RandomStream.uniform_rows((4, n))), both indexed by trial. The same
    bits, built _HALL_ROWS trials at a time, each block reading its own
    rows of a, b and window of w and writing its spins into one output. So
    a chunk holds the uniforms and the frame of one block at a time, each
    block's released before the next."""
    out = np.empty((3, rows.stop - rows.start))
    for lo in range(rows.start, rows.stop, _HALL_ROWS):
        block = slice(lo, min(lo + _HALL_ROWS, rows.stop))
        hall_spins(*(x if x.ndim == 1 else x[block] for x in (a, b)), w(block),
                   out[:, lo - rows.start:block.stop - rows.start])
    return out.T


def hall_spins(a, b, w, out=None):
    """Hall spins from the (4, m) uniforms w of m trials (see hall_sample)
    at the settings a, b (vectors or (m, 3) rows), as a column-major (m, 3)
    array: the transpose of out, a (3, m) array the coordinates are
    written into, if given. In
    the frame e1 = a, e2, e3 along a x b, b lies at azimuth theta, and the
    lunes with sgn(u.a) = +1 are (theta - 1/4, 1/4) where sgn(u.b) = +1
    and (-1/4, theta - 1/4) where it is -1, in turns; the other two turn
    these by half a turn. The frame is built in place, a coordinate at a
    time, so per-trial settings hold few (m, 3) buffers at once: the
    scalar columns are released before the sphere points are made, and
    only rows with b = +-a get a spare axis. A chunk's spins are built by
    hall_spin_rows, a block at a time."""
    e1 = a / np.sqrt(dot(a, a))[..., None]
    t = dot(a, b)
    axis = cross(e1, b)
    # Drop the rounding error along a, which is large next to |a x b| when b ~ +-a.
    along = dot(axis, e1)
    for k in range(3):
        axis[..., k] -= along * e1[..., k]
    s = np.sqrt(dot(axis, axis))
    theta = np.arctan2(s, t)
    flat = s < 1e-12
    if np.any(flat):
        # b = +-a up to rounding: the lunes between them are empty, so any
        # axis normal to a will do.
        e1_flat = np.broadcast_to(e1, axis.shape)[flat]
        axis[flat] = cross(e1_flat, np.where(np.abs(e1_flat[..., :1]) < 0.5, X_HAT, Y_HAT))
        s = np.sqrt(dot(axis, axis))
    e3 = np.divide(axis, s[..., None], out=axis)
    same = w[0] < (1.0 + t) / 2.0
    theta /= 2.0 * math.pi  # in turns from here on
    phi = select(same, theta + (0.5 - theta) * w[3], theta * w[3])
    phi -= 0.25
    del along, s, t, theta, flat, same  # dead before the point and frame buffers
    rc, rs, z = sphere_point(2.0 * w[2] - 1.0, phi).T
    side = (w[1] < 0.5) * 2.0 - 1.0  # the lune pair's side, an exact sign flip
    rc *= side
    rs *= side
    del phi, side
    out = np.empty((3, len(z))) if out is None else out
    term = np.empty(len(z))
    e2_k = np.empty(e3.shape[:-1])  # e2 = e3 x e1, one coordinate at a time
    scratch = term if e2_k.shape == term.shape else np.empty(e2_k.shape)
    for k, row in enumerate(out):
        np.multiply(rc, e1[..., k], out=row)
        row += np.multiply(rs, cross_coordinate(e3, e1, k, e2_k, scratch), out=term)
        row += np.multiply(z, e3[..., k], out=term)
    return out.T


def hall_outcomes(u, a, b):
    """Deterministic outcomes sigma = sgn(u.a), tau = sgn(-u.b). tau is sgn
    of the negated u.b: -(u.b) is (-u).b but for the sign of an exact zero,
    and sgn(+-0) = +1."""
    # Negated in place, so the n-long u.b is not held while sgn allocates.
    return sign_outcome(u, a), spin_map(lambda t: sgn(np.negative(t, out=np.asarray(t))), u, b)


# ---------------------------------------------------------------------------
# Setting-tied atomic model (Malus outcomes) and the bound-breaking mixture


def pinned_spin_sample(a, b, n: int, stream: RandomStream):
    """Draw hidden spins from the four setting-tied atoms.

    Coins c in {0, 1} and d in {-1, +1} are uniform; c = 0 puts the spin
    at u = d*a, c = 1 puts it at u = -d*b (so the partner spin -u equals
    d*b). Each of the four atoms carries weight 1/4. Returns the (n, 3)
    spins u, the int64 coins c and the float signs d, decoded from the
    atom codes the models draw.
    """
    atoms = _draw_atoms(a, b, n, stream, None)

    def columns(rows):
        spins = atoms(rows)[0]
        return spins.rows(), (spins.code >> 1).astype(np.int64), (spins.code & 1) * -2.0 + 1.0
    return gathered(n, columns)


def pinned_spin_outcomes(u, a, b, stream: RandomStream):
    """Independent Malus draws on each side: sigma from (u, a), tau from
    (-u, b)."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    return malus_pair((u, stream.uniform(len(u)), stream.uniform(len(u))), a, b)


def malus_pair(hidden, x, y):
    """Zero-communication station pair: from hidden = (u, noise_a, noise_b),
    spins u and -u, each station a Malus detector at its own setting (x or
    y) reading its own noise draw. Station B compares against 1 - u.y:
    (-u).y is -(u.y) but for the sign of an exact zero, which 1 + t cannot
    see."""
    u, noise_a, noise_b = hidden
    return malus_outcome(u, x, noise_a), _malus_sign(noise_b, spin_map(lambda t: 1.0 - t, u, y))


def mixed_law(a, b) -> JointLaw2x2:
    """Joint law (1 - sigma*tau sgn(a.b))/4 of the mixture that keeps the
    atomic hidden-spin distribution but replaces Malus outcomes with the
    deterministic sign rule.

    At a.b = +-0 (orthogonal settings, by overlap) each atom's overlap with
    the other station's setting is a signed zero, which sgn reads as +1:
    the atom d*a gives (d, +1) and the atom -d*b gives (+1, d). The law is
    then p(+1,+1) = 1/2, p(+1,-1) = p(-1,+1) = 1/4, p(-1,-1) = 0, with
    correlator 0, which is what the sampler draws.
    """
    t = overlap(a, b)
    if t == 0.0:
        return JointLaw2x2([[0.5, 0.25], [0.25, 0.0]])
    return JointLaw2x2(law_table(sgn(t)))


# ---------------------------------------------------------------------------
# The model table: the one place that dispatches over model ids


@dataclass(frozen=True)
class ModelFlags:
    """Hypothesis compliance of a model; every flag is exercised by the
    property suite rather than merely declared."""

    deterministic: bool
    setting_independent: bool
    reducible_correlations: bool
    uncorrelated_choice: bool
    malus_compliant: bool


@dataclass(frozen=True)
class ModelSpec:
    """law(a, b, p) is the closed-form joint law. draw(a, b, n, stream, p)
    reserves the draws of n trials at the settings (a, b) and returns
    hidden(rows), the hidden variables of the trials in the slice rows; it
    is None for a law without a sampler. outcomes(hidden, x, y) is the
    (sigma, tau) they give at the settings (x, y). local marks the singlet
    constructions whose rule is local: sigma reads only the hidden
    variables and x, tau only the hidden variables and y, each side its
    own noise draw whatever the other side's setting. So one frozen draw
    gives outcomes at every setting pair, the counterfactual reading, and
    the sigma of outcomes(h, x, y) is the same bits for every y (tau for
    every x): counterfactual runs evaluate each side once per setting.
    (The mixed model's rule is local too, but its law is not the singlet.)
    The finite models, pinned and mixed, draw their hidden spins as atom
    codes (AtomSpins); their rules take those or per-trial spin rows alike.
    """

    law: Callable
    draw: Callable | None = None
    outcomes: Callable | None = None
    flags: ModelFlags | None = None
    local: bool = False
    needs_p: bool = False


def _draw_uv(a, b, n, stream, p):
    u, v = sphere_rows(stream, n), sphere_rows(stream, n)
    return lambda rows: (u(rows), v(rows))


def _draw_tb_extension(a, b, n, stream, p):
    _check_extension(p)
    uv = _draw_uv(a, b, n, stream, p)
    w = stream.uniform_rows(n)
    return lambda rows: (*uv(rows), w(rows) < p)


def _draw_tb_freewill(a, b, n, stream, p):
    """(u, v) and the bit c fixed by the constraint at the reference a."""
    uv = _draw_uv(a, b, n, stream, p)

    def hidden(rows):
        u, v = uv(rows)
        return u, v, one_bit_station_a(u, v, a)[1]
    return hidden


def _draw_atoms(a, b, n, stream, p):
    """The coins c, then the signs d, of pinned_spin_sample, as bits() and
    signs() draw them; hidden(rows) is (spins,), the trials' AtomSpins.
    Each trial's atom is one byte, 2c + (d < 0), a row of the table
    [a, -a, -b, b] made once per run: the spin d*a (c = 0) or -d*b (c = 1),
    exactly, as negation is exact."""
    a, b = assert_unit(a, "a"), assert_unit(b, "b")
    table = np.stack([a, -a, -b, b])
    w = stream.uniform_rows((2, n))

    def hidden(rows):
        wc, wd = w(rows)
        code = (wc < 0.5).view(np.uint8)  # c, as uniform_bits reads it
        code += code
        code += (wd < 0.5).view(np.uint8)  # d < 0, as uniform_signs reads it
        return (AtomSpins(table, code),)
    return hidden


def _draw_pinned(a, b, n, stream, p):
    """The atomic spin plus each side's Malus noise draw."""
    atoms = _draw_atoms(a, b, n, stream, p)
    noise = stream.uniform_rows((2, n))
    return lambda rows: (atoms(rows)[0], *noise(rows))


def _draw_hall(a, b, n, stream, p):
    """The 4n uniforms of hall_sample; a and b are vectors or (n, 3) rows."""
    a = _setting_rows(a, n, "a")
    b = _setting_rows(b, n, "b")
    w = stream.uniform_rows((4, n))
    return lambda rows: hall_spin_rows(a, b, w, rows)


# Entries call the public functions by name, at call time, so a wrapper
# installed on a module attribute sees the calls made through the table.
def _singlet(a, b, p):
    return singlet_law(a, b)


def _hall_rule(u, x, y):
    return hall_outcomes(u, x, y)


MODELS = {
    "singlet": ModelSpec(_singlet),
    "uniform": ModelSpec(lambda a, b, p: uniform_law()),
    "tb": ModelSpec(_singlet, _draw_uv, lambda h, x, y: tb_outcomes(*h, x, y),
                    ModelFlags(True, False, True, True, False)),
    "tb-ext1": ModelSpec(lambda a, b, p: tb_extension_law(p, 1, a, b), _draw_tb_extension,
                         lambda h, x, y: _tb_extension_rule(1, h, x, y),
                         ModelFlags(False, False, True, True, False), needs_p=True),
    "tb-ext2": ModelSpec(lambda a, b, p: tb_extension_law(p, 2, a, b), _draw_tb_extension,
                         lambda h, x, y: _tb_extension_rule(2, h, x, y),
                         ModelFlags(False, True, False, True, False), needs_p=True),
    # The bit c is a hidden variable, fixed at the reference setting a.
    "tb-freewill": ModelSpec(_singlet, _draw_tb_freewill,
                             lambda h, x, y: (sign_outcome(h[0], x), one_bit_tau(*h, y)),
                             ModelFlags(True, True, True, False, False), local=True),
    "pinned": ModelSpec(_singlet, _draw_pinned, malus_pair,
                        ModelFlags(False, True, True, False, True), local=True),
    "hall": ModelSpec(_singlet, _draw_hall, _hall_rule,
                      ModelFlags(True, True, True, False, False), local=True),
    # The atomic spins without the Malus noise, under the sign rule.
    "mixed": ModelSpec(lambda a, b, p: mixed_law(a, b),
                       _draw_atoms, lambda h, x, y: _hall_rule(h[0], x, y),
                       ModelFlags(True, True, True, False, False)),
}

MODEL_IDS = tuple(m for m, spec in MODELS.items() if spec.draw is not None)


def model_spec(model_id: str) -> ModelSpec:
    try:
        return MODELS[model_id]
    except KeyError:
        raise KeyError(f"unknown model {model_id!r}; known: {sorted(MODELS)}") from None


def model_flags(model_id: str) -> ModelFlags:
    flags = model_spec(model_id).flags
    if flags is None:
        raise KeyError(f"model {model_id!r} has a law but no sampler to flag")
    return flags


def analytic_law(model_id: str, a, b, p: float | None = None) -> JointLaw2x2:
    """Closed-form joint law of the named model."""
    return model_spec(model_id).law(a, b, p)


def _sampled(model_id: str, a, b, n: int, stream: RandomStream, p):
    """Draw n trials of the named model at fixed settings; return
    outcomes(rows), the (sigma, tau) of the trials in the slice rows."""
    a = assert_unit(a, "a")
    b = assert_unit(b, "b")
    spec = model_spec(model_id)
    if spec.draw is None:
        raise KeyError(f"model {model_id!r} has a law but no sampler")
    hidden = spec.draw(a, b, n, stream, p)
    return lambda rows: spec.outcomes(hidden(rows), a, b)


def sample_outcomes(model_id: str, a, b, n: int, stream: RandomStream,
                    p: float | None = None):
    """Draw n outcome pairs from the named model at fixed settings."""
    return gathered(n, _sampled(model_id, a, b, n, stream, p))


def estimate_law(model_id: str, a, b, n: int, stream: RandomStream,
                 p: float | None = None) -> JointLaw2x2:
    """Monte Carlo estimate of the joint law at fixed settings."""
    outcomes = _sampled(model_id, a, b, n, stream, p)
    counts = streamed(n, lambda rows: outcome_counts(*outcomes(rows))[0])
    return JointLaw2x2.from_counts(sum(counts))  # summed as the chunks stream
