"""Each station evaluated once: local rules, counterfactual counts and the
station kernels.

The counterfactual correlators count all four setting pairs from two rule
calls per chunk, which rests on the locality that ModelSpec.local declares;
the station kernels (Malus stations, Hall stations, the one-bit tau, the
one-table outcome count and geometry.cross) are checked bit for bit against
the formulas they replace, written out here as they were.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lhvlab import geometry, protocols
from lhvlab.geometry import X_HAT, RandomStream, cross, dot, planar_setting, sgn
from lhvlab.inequalities import correlator, counterfactual_correlators
from lhvlab.models import (MODELS, JointLaw2x2, hall_outcomes, hall_spins, malus_outcome,
                           malus_pair, one_bit_tau, outcome_counts)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
LOCAL = [m for m, spec in MODELS.items() if spec.local]
ANGLE = st.floats(0.0, 360.0)


def _same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    return (got.dtype == expected.dtype and got.shape == expected.shape
            and got.tobytes() == expected.tobytes())


def _units(seed: int, n: int):
    """n unit vectors, C-ordered, with exact zeros and axis directions mixed in."""
    u = np.ascontiguousarray(RandomStream(seed, 9).sphere(n))
    u[::7] = planar_setting(90.0)
    u[3::11] = -X_HAT
    return u


# ---------------------------------------------------------------------------
# Locality and the counterfactual counts


@PROPERTY
@given(st.sampled_from(LOCAL), st.integers(0, 2**32), ANGLE, ANGLE, ANGLE, ANGLE)
def test_local_rules_read_only_their_own_setting(model, seed, ax, ax2, ay, ay2):
    spec = MODELS[model]
    a, b = planar_setting(0.0), planar_setting(60.0)
    h = spec.draw(a, b, 500, RandomStream(seed, 1), None)(slice(0, 500))
    x, x2, y, y2 = (planar_setting(t) for t in (ax, ax2, ay, ay2))
    (s_y, t_x), (s_y2, t_x2) = spec.outcomes(h, x, y), spec.outcomes(h, x2, y2)
    assert _same_bits(s_y, spec.outcomes(h, x, y2)[0])
    assert _same_bits(t_x, spec.outcomes(h, x2, y)[1])
    assert _same_bits(s_y2, spec.outcomes(h, x2, y)[0])
    assert _same_bits(t_x2, spec.outcomes(h, x, y2)[1])


def _one_call_per_pair(model, a, a2, b, b2, n, stream):
    spec = MODELS[model]
    hidden = spec.draw(a, b, n, stream, None)

    def counts(rows):
        h = hidden(rows)
        return np.array([outcome_counts(*spec.outcomes(h, x, y))[0]
                         for x, y in ((a, b), (a2, b), (a, b2), (a2, b2))])
    return tuple(correlator(JointLaw2x2.from_counts(c))
                 for c in sum(geometry.chunked(n, counts)))


@pytest.mark.parametrize("model", LOCAL)
@pytest.mark.parametrize("n", [1, 3_000, 65_537])
def test_counterfactual_correlators_equal_one_rule_call_per_pair(model, n):
    a, a2, b, b2 = (planar_setting(t) for t in (0.0, 90.0, 45.0, 135.0))
    got = counterfactual_correlators(model, a, a2, b, b2, n, RandomStream(7, 3))
    assert got == _one_call_per_pair(model, a, a2, b, b2, n, RandomStream(7, 3))


def _trials(hidden):
    """The trials of a chunk's hidden variables: Hall's are one spin array,
    the others a tuple of per-trial columns."""
    return len(hidden if isinstance(hidden, np.ndarray) else hidden[0])


@pytest.mark.parametrize("model", LOCAL)
def test_counterfactual_correlators_make_two_rule_calls_per_chunk(model, monkeypatch):
    calls = []
    spec = MODELS[model]
    rule = spec.outcomes
    monkeypatch.setitem(MODELS, model, type(spec)(
        spec.law, spec.draw, lambda h, x, y: calls.append(_trials(h)) or rule(h, x, y),
        spec.flags, spec.local, spec.needs_p))
    a, a2, b, b2 = (planar_setting(t) for t in (0.0, 90.0, 45.0, 135.0))
    n = 2 * geometry._CHUNK_ROWS + 5
    counterfactual_correlators(model, a, a2, b, b2, n, RandomStream(7, 3))
    assert sorted(calls) == [5, 5] + [geometry._CHUNK_ROWS] * 4


# ---------------------------------------------------------------------------
# The one cross product


SPECIAL = [0.0, -0.0, 5e-324, -1.0, 1.0, 0.5, 1e300, -1e300, math.nan, math.inf]


def _rows(seed, n, layout):
    x = np.random.default_rng(seed).normal(size=(n, 3))
    x[::5, 1] = 0.0
    x[1::5, 2] = -0.0
    x[2::9] = [SPECIAL[k % len(SPECIAL)] for k in range(3)]
    x[4::9, 0] = math.nan
    return np.asfortranarray(x) if layout == "F" else x


@pytest.mark.parametrize("layouts", [("C", "C"), ("C", "F"), ("F", "C"), ("F", "F")])
def test_cross_is_np_cross_bit_for_bit_on_rows(layouts):
    u, x = (_rows(seed, 200, layout) for seed, layout in zip((1, 2), layouts))
    with np.errstate(all="ignore"):
        got, expected = cross(u, x), np.cross(u, x)
        assert _same_bits(got, expected) and got.flags.f_contiguous
        for vector in (u[0], u[2], u[4], X_HAT, np.array([-0.0, 0.0, -0.0])):
            assert _same_bits(cross(vector, x), np.cross(vector, x))
            assert _same_bits(cross(x, vector), np.cross(x, vector))


@PROPERTY
@given(st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL)), min_size=6, max_size=6))
def test_cross_is_np_cross_bit_for_bit_on_vectors(values):
    u, x = np.array(values[:3]), np.array(values[3:])
    with np.errstate(all="ignore"):
        assert _same_bits(cross(u, x), np.cross(u, x))


def test_hall_spins_need_no_np_cross(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.cross called")
    w = RandomStream(5, 4).uniform((4, 300))
    a = planar_setting(10.0)
    settings_b = [planar_setting(70.0), a, -a, planar_setting(10.0 + 1e-13)]
    monkeypatch.setattr(np, "cross", refuse)
    for b in settings_b:  # b = +-a takes the flat branch
        assert hall_spins(a, b, w).shape == (300, 3)
    rows = np.stack([planar_setting(t) for t in np.linspace(0.0, 180.0, 300)])
    hall_spins(np.broadcast_to(a, rows.shape), rows, w)


# ---------------------------------------------------------------------------
# Station kernels against the formulas they replace


def _old_malus(u, n, noise):
    return (noise < (1.0 + np.asarray(1) * dot(u, n)) / 2.0) * 2.0 - 1.0


def _malus_cases():
    """Spins (t, 0, 0) against X_HAT, so u.x is t exactly, and noise draws
    at 0, at (1 + t)/2, a step either side of it and at random."""
    ts = [1.0, -1.0, -1.0 - 2.0**-52, 1.0 + 2.0**-52, 0.0, -0.0, 0.5, -0.5, 5e-324, math.nan]
    rng = np.random.default_rng(4)
    rows, noise = [], []
    for t in ts:
        half = (1.0 + t) / 2.0
        for w in (0.0, half, np.nextafter(half, 0.0), np.nextafter(half, 1.0), rng.random()):
            rows.append([t, 0.0, 0.0])
            noise.append(w)
    return np.array(rows), np.array(noise)


def test_malus_outcome_and_pair_are_the_old_formulas_at_the_edges():
    u, noise = _malus_cases()
    with np.errstate(invalid="ignore"):
        assert _same_bits(malus_outcome(u, X_HAT, noise), _old_malus(u, X_HAT, noise))
        sigma, tau = malus_pair((u, noise, noise[::-1]), X_HAT, -X_HAT)
        assert _same_bits(sigma, _old_malus(u, X_HAT, noise))
        assert _same_bits(tau, _old_malus(-u, -X_HAT, noise[::-1]))
    for k in range(len(noise)):  # one trial at a time, scalar noise
        with np.errstate(invalid="ignore"):
            assert _same_bits(malus_outcome(u[k], X_HAT, noise[k]),
                              _old_malus(u[k], X_HAT, noise[k]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_malus_pair_is_the_old_formula_on_sampled_spins_and_setting_rows(seed):
    n = 5_000
    u = _units(seed, n)
    y = np.asfortranarray(_units(seed + 10, n))
    noise = RandomStream(seed, 2).uniform((2, n))
    noise[1, ::4] = (1.0 - dot(u, y)[::4]) / 2.0  # on the threshold
    for x in (planar_setting(30.0), y):
        sigma, tau = malus_pair((u, *noise), x, y)
        assert _same_bits(sigma, _old_malus(u, x, noise[0]))
        assert _same_bits(tau, _old_malus(-u, y, noise[1]))


def test_hall_outcomes_are_the_old_formula_at_exact_zero_overlaps():
    u = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [-0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                  [-1.0, 0.0, 0.0], [5e-324, 1.0, 0.0], [-5e-324, 1.0, 0.0]])
    u = np.vstack([u, _units(8, 200)])
    for a, b in ((X_HAT, X_HAT), (X_HAT, planar_setting(90.0)), (planar_setting(90.0), X_HAT),
                 (planar_setting(30.0), planar_setting(120.0))):
        sigma, tau = hall_outcomes(u, a, b)
        assert _same_bits(sigma, sgn(dot(u, a)))
        assert _same_bits(tau, sgn(dot(-u, b)))
        for k in range(7):
            assert hall_outcomes(u[k], a, b) == (sgn(dot(u[k], a)), sgn(dot(-u[k], b)))


def _old_one_bit_tau(u, v, c, b):
    return -sgn(dot(u + np.asarray(c)[..., None] * np.asarray(v), b))


@pytest.mark.parametrize("seed", [1, 2])
def test_one_bit_tau_is_the_old_formula_at_vector_and_row_settings(seed):
    n = 3_000
    u, v = _units(seed, n), _units(seed + 1, n)[::-1]
    c = np.where(RandomStream(seed, 3).uniform(n) < 0.5, -1.0, 1.0)
    u[::13] = -v[::13] * c[::13, None]  # u + c v = 0: an exact-zero overlap
    rows = np.asfortranarray(_units(seed + 2, n))
    for b in (planar_setting(75.0), X_HAT, rows, np.ascontiguousarray(rows)):
        assert _same_bits(one_bit_tau(u, v, c, b), _old_one_bit_tau(u, v, c, b))
    for k in range(20):
        assert _same_bits(one_bit_tau(u[k], v[k], c[k], rows[k]),
                          _old_one_bit_tau(u[k], v[k], c[k], rows[k]))


def _old_outcome_counts(sigma, tau, group=0, n_groups=1):
    cell = 2 * ~(np.asarray(sigma) > 0) + ~(np.asarray(tau) > 0)
    return np.bincount(np.ravel(4 * np.asarray(group) + cell),
                       minlength=4 * n_groups).reshape(n_groups, 2, 2)


@pytest.mark.parametrize("sigma, tau", [
    (1.0, -1.0), (-0.0, 0.0), (math.nan, 1.0), (np.float64(1.0), np.array(1.0)),
    (np.array([1.0, -1.0, 0.0, -0.0, math.nan, 2.0]), -1.0),
    (1.0, np.array([1.0, -1.0, 0.0, -0.0, math.nan, 2.0])),
    (np.array([[1.0], [-1.0], [math.nan]]), np.array([1.0, -0.0, 1.0, -1.0])),
    (np.array([], dtype=float), np.array([], dtype=float)),
    (np.array([1, -1, 1, 1]), np.array([True, False, True, True])),
])
def test_one_table_outcome_counts_are_the_bincount_formula(sigma, tau):
    got = outcome_counts(sigma, tau)
    assert _same_bits(got, _old_outcome_counts(sigma, tau))


def test_one_table_outcome_counts_on_sampled_outcomes_and_groups():
    w = RandomStream(9, 1).uniform((3, 70_001))
    sigma, tau = np.sign(w[0] - 0.3), np.sign(w[1] - 0.6)
    sigma[::17], tau[::19] = math.nan, -0.0
    assert _same_bits(outcome_counts(sigma, tau), _old_outcome_counts(sigma, tau))
    group = (w[2] * 7).astype(np.int64)
    assert _same_bits(outcome_counts(sigma, tau, group, 7),
                      _old_outcome_counts(sigma, tau, group, 7))


# ---------------------------------------------------------------------------
# Every zero-communication Malus runner calls protocols.malus_pair per chunk


def _shared_coin():
    protocols.run_shared_coin(N_SPY, 3, record=False)


def _audit(mode):
    return lambda: protocols.run_conspiracy_audit(N_SPY, planar_setting(0.0),
                                                  planar_setting(90.0), mode, 3)


N_SPY = 2 * geometry._CHUNK_ROWS + 7
MALUS_RUNNERS = {
    "shared-coin": _shared_coin,
    **{f"detection-{mode}": (lambda mode=mode: protocols.run_detection_loophole(
        N_SPY, mode, 3, n_directions=8 if mode == "sphere" else None))
       for mode in ("symmetric", "asymmetric", "sphere")},
    "watch-pinned": lambda: protocols.run_watch_realization(N_SPY, "pinned", 3, record=False),
    "audit-slave": _audit("slave"),
    "audit-honest": _audit("honest"),
}


@pytest.mark.parametrize("run", MALUS_RUNNERS.values(), ids=MALUS_RUNNERS.keys())
def test_malus_runners_call_protocols_malus_pair_on_every_chunk(run, monkeypatch):
    sizes = []
    pair = protocols.malus_pair
    monkeypatch.setattr(protocols, "malus_pair",
                        lambda hidden, x, y: sizes.append(len(hidden[0])) or pair(hidden, x, y))
    run()
    rows = geometry._CHUNK_ROWS
    assert sorted(sizes) == [7, rows, rows]

