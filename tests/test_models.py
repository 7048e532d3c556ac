import math

import numpy as np
import pytest
from scipy import stats

from lhvlab.geometry import RandomStream, planar_setting, sgn
from lhvlab.models import (INCOMPATIBLE_PRIORS, MODEL_IDS, MODELS, JointLaw2x2,
                           analytic_law, pinned_spin_outcomes, pinned_spin_sample,
                           estimate_law, hall_density, hall_f, hall_outcomes,
                           hall_sample, hall_settings_conditional,
                           malus_marginal, mixed_law, model_flags, outcome_counts,
                           sample_outcomes, singlet_law, tb_conditional,
                           tb_extension_law, tb_extension_sample,
                           tb_freewill_density, tb_freewill_sample,
                           tb_outcomes, uniform_law, _hall_g)
from lhvlab.geometry import _CHUNK_ROWS

X = planar_setting(0.0)
Y = planar_setting(90.0)


# ---------------------------------------------------------------------------
# Joint law container


def test_joint_law_validation():
    with pytest.raises(ValueError):
        JointLaw2x2(np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        JointLaw2x2(np.array([[-0.1, 0.6], [0.3, 0.2]]))
    law = uniform_law()
    assert law.prob(1, -1) == 0.25
    assert law.correlator() == 0.0


def test_singlet_law_reference_points():
    a = planar_setting(30.0)
    assert singlet_law(a, a).prob(1, 1) == 0.0
    assert singlet_law(X, Y).prob(1, 1) == pytest.approx(0.25)
    assert singlet_law(a, -a).prob(1, 1) == 0.5
    law = singlet_law(X, planar_setting(60.0))
    assert law.prob(1, 1) == pytest.approx(0.125)
    assert law.correlator() == pytest.approx(-0.5)


def test_malus_marginal():
    u = planar_setting(20.0)
    assert malus_marginal(u, u, 1) == pytest.approx(1.0)
    assert malus_marginal(X, Y, 1) == pytest.approx(0.5)
    assert malus_marginal(X, Y, -1) == pytest.approx(0.5)
    n = planar_setting(60.0)  # u.n = 0.5
    assert malus_marginal(X, n, -1) == pytest.approx(0.25)


OUTCOME_VALUES = np.array([1.0, -1.0, 0.0, -0.0, np.nan])


def _count_nonzero_table(sigma, tau):
    """Reference: the four cells of one outcome table as count_nonzero masks."""
    sp = sigma > 0
    tp = tau > 0
    return np.array([[np.count_nonzero(sp & tp), np.count_nonzero(sp & ~tp)],
                     [np.count_nonzero(~sp & tp), np.count_nonzero(~sp & ~tp)]])


def _mixed_outcomes(seed: int, n: int):
    """Every pair of OUTCOME_VALUES once, then n random pairs of them."""
    stream = RandomStream(seed)
    sigma = np.concatenate([np.repeat(OUTCOME_VALUES, 5),
                            OUTCOME_VALUES[stream.integers(0, 5, n)]])
    tau = np.concatenate([np.tile(OUTCOME_VALUES, 5),
                          OUTCOME_VALUES[stream.integers(0, 5, n)]])
    return sigma, tau, stream


def test_outcome_counts_match_count_nonzero_reference():
    sigma, tau, stream = _mixed_outcomes(61, 20_000)
    counts = outcome_counts(sigma, tau)
    assert counts.dtype == np.int64 and counts.shape == (1, 2, 2)
    assert np.array_equal(counts[0], _count_nonzero_table(sigma, tau))
    law = JointLaw2x2.from_outcomes(sigma, tau)
    assert law.n_trials == len(sigma)
    assert np.array_equal(law.p, _count_nonzero_table(sigma, tau) / len(sigma))
    # Group 7 of 8 receives no trial and keeps a zero table.
    group = stream.integers(0, 7, len(sigma))
    grouped = outcome_counts(sigma, tau, group, 8)
    assert grouped.dtype == np.int64 and grouped.shape == (8, 2, 2)
    for g in range(8):
        assert np.array_equal(grouped[g], _count_nonzero_table(sigma[group == g],
                                                               tau[group == g]))
    assert not grouped[7].any()


def test_outcome_counts_over_windows_sum_to_the_whole_run():
    sigma, tau, stream = _mixed_outcomes(62, 1_000_003)
    group = stream.integers(0, 12, len(sigma))
    whole = outcome_counts(sigma, tau, group, 12)
    merged = sum(outcome_counts(sigma[lo:lo + 65_537], tau[lo:lo + 65_537],
                                group[lo:lo + 65_537], 12)
                 for lo in range(0, len(sigma), 65_537))
    assert np.array_equal(merged, whole)
    assert np.array_equal(merged.sum(axis=0), outcome_counts(sigma, tau)[0])


def test_law_from_zero_trials_is_an_error():
    with pytest.raises(ValueError, match="zero trials"):
        JointLaw2x2.from_outcomes([], [])
    with pytest.raises(ValueError, match="zero trials"):
        JointLaw2x2.from_counts(np.zeros((2, 2), dtype=np.int64))


# ---------------------------------------------------------------------------
# Communication model and extensions


def test_tb_outcomes_direct_evaluation():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.6, 0.8, 0.0])
    sigma, tau = tb_outcomes(u, v, X, Y)
    assert (sigma, tau) == (1.0, -1.0)
    # u = a forces sigma = +1 whatever v
    for seed in range(5):
        v = RandomStream(seed).sphere()
        assert tb_outcomes(X, v, X, Y)[0] == 1.0


def test_tb_correlator_matches_singlet():
    stream = RandomStream(101)
    n = 1_000_000
    u = stream.sphere(n)
    v = stream.sphere(n)
    b = planar_setting(63.0)
    sigma, tau = tb_outcomes(u, v, X, b)
    assert abs(float(np.mean(sigma * tau)) - (-X @ b)) < 0.005


def test_tb_conditional_incompatible_priors():
    u = planar_setting(10.0)
    v = planar_setting(200.0)
    sigma, tau = tb_outcomes(u, v, X, Y)
    assert tb_conditional(u, v, X, Y, sigma, tau) == 1.0
    assert tb_conditional(u, v, X, Y, sigma, -tau) == 0.0
    assert tb_conditional(u, v, X, Y, -sigma, tau) is INCOMPATIBLE_PRIORS


def test_tb_conditional_equals_marginal_over_sampled_hidden_variables():
    # Determinism identity: wherever the conditioning outcome can occur,
    # the conditional puts all mass on the deterministic partner value.
    stream = RandomStream(77)
    b = planar_setting(100.0)
    for _ in range(200):
        u = stream.sphere()
        v = stream.sphere()
        sigma, tau = tb_outcomes(u, v, X, b)
        assert tb_conditional(u, v, X, b, sigma, tau) == 1.0
        assert tb_conditional(u, v, X, b, sigma, -tau) == 0.0
        assert tb_conditional(u, v, X, b, -sigma, tau) is INCOMPATIBLE_PRIORS


def test_tb_extension_law_values():
    b = planar_setting(60.0)
    assert tb_extension_law(1.0, 1, X, b).max_abs_diff(singlet_law(X, b)) < 1e-15
    assert tb_extension_law(0.5, 1, X, b).max_abs_diff(uniform_law()) < 1e-15
    law = tb_extension_law(0.5, 2, X, -X)  # a.b = -1
    assert law.prob(1, 1) == pytest.approx(0.375)
    with pytest.raises(ValueError):
        tb_extension_law(1.5, 1, X, b)
    with pytest.raises(ValueError):
        tb_extension_law(0.5, 3, X, b)


def test_tb_extension_sample_degenerates_to_deterministic():
    stream = RandomStream(3)
    u = stream.sphere(500)
    v = stream.sphere(500)
    b = planar_setting(25.0)
    s0, t0 = tb_outcomes(u, v, X, b)
    s1, t1 = tb_extension_sample(1.0, 1, u, v, X, b, RandomStream(4))
    assert np.array_equal(s0, s1) and np.array_equal(t0, t1)
    s2, t2 = tb_extension_sample(1.0, 2, u, v, X, b, RandomStream(5))
    assert np.array_equal(s0, s2) and np.array_equal(t0, t2)


@pytest.mark.parametrize("family", [1, 2])
def test_tb_extension_sample_matches_law(family):
    stream = RandomStream(40 + family)
    n = 1_000_000
    u = stream.sphere(n)
    v = stream.sphere(n)
    b = planar_setting(63.0)
    sigma, tau = tb_extension_sample(0.75, family, u, v, X, b, stream)
    est = JointLaw2x2.from_outcomes(sigma, tau)
    assert est.max_abs_diff(tb_extension_law(0.75, family, X, b)) < 0.005


def test_tb_freewill_density_and_normalization():
    u = planar_setting(10.0)
    v = planar_setting(77.0)
    want = sgn(u @ X) * sgn(v @ X)
    assert tb_freewill_density(u, v, want, X, Y) == pytest.approx(1.0 / (4 * math.pi) ** 2)
    assert tb_freewill_density(u, v, -want, X, Y) == 0.0
    # Monte Carlo integral over (u, v) and sum over c
    stream = RandomStream(6)
    n = 200_000
    uu = stream.sphere(n)
    vv = stream.sphere(n)
    total = sum(tb_freewill_density(uu, vv, c, X, Y).sum() for c in (1.0, -1.0))
    integral = (4 * math.pi) ** 2 * total / n
    assert abs(integral - 1.0) < 0.005


def test_tb_freewill_sample_satisfies_constraint():
    u, v, c = tb_freewill_sample(X, Y, 10_000, RandomStream(7))
    assert np.array_equal(c, sgn(u @ X) * sgn(v @ X))


# ---------------------------------------------------------------------------
# Maximal-measurement-dependence model


def test_hall_f_values_and_flip_invariance():
    b = planar_setting(60.0)  # a.b = 0.5
    assert hall_f(X, X, b) == pytest.approx(-0.5)
    assert hall_f(planar_setting(33.0), X, Y) == pytest.approx(0.0, abs=1e-15)
    stream = RandomStream(8)
    u = stream.sphere(1000)
    assert np.allclose(hall_f(u, X, b), hall_f(-u, X, b))


def test_hall_f_equals_the_np_sum_form_bit_for_bit():
    stream = RandomStream(9)
    # Planar settings, and settings off every axis, so all three products count.
    settings = [(planar_setting(0.0), planar_setting(60.0)),
                (planar_setting(30.0), planar_setting(120.0)),
                *(tuple(stream.sphere(2)) for _ in range(3))]
    for a, b in settings:
        # Random spins, then atoms orthogonal to a or to b (u.a or u.b
        # near 0, where a different summation order could flip a sign).
        u = np.vstack([stream.sphere(20_000),
                       np.cross(a, stream.sphere(2_000)), np.cross(b, stream.sphere(2_000))])
        t = float(np.dot(a, b))
        expected = sgn(np.sum(u * a, axis=-1)) * sgn(-np.sum(u * b, axis=-1)) * t
        assert hall_f(u, a, b).tobytes() == expected.tobytes()


def test_hall_density_limits():
    # a = b forces f = -1: the density is 1/(4*pi) there.
    assert hall_density(planar_setting(12.0), X, X) == pytest.approx(1 / (4 * math.pi))
    assert _hall_g(np.array([-1.0]))[0] == pytest.approx(1 / (4 * math.pi))
    # Removable singularity at f -> 1 evaluates to the limit 0.
    assert _hall_g(np.array([1.0]))[0] == 0.0
    assert _hall_g(np.array([1.0 - 1e-12]))[0] == 0.0
    assert _hall_g(np.array([1.0 - 1e-6]))[0] == pytest.approx(math.sqrt(1e-6 / 2) / 8, rel=1e-2)


def test_hall_density_normalizes():
    stream = RandomStream(9)
    u = stream.sphere(1_000_000)
    b = planar_setting(40.0)
    integral = 4 * math.pi * float(hall_density(u, X, b).mean())
    assert abs(integral - 1.0) < 0.005


def _expected_bin_probs(alpha_deg, beta_deg, n_z=10, n_phi=10):
    """Exact bin probabilities of the hidden-spin density for planar
    settings: the sign regions are bounded by meridians, so each z-slice
    contributes arc lengths computable in closed form."""
    t = math.cos(math.radians(beta_deg - alpha_deg))
    g_plus = float(_hall_g(np.array([t]))[0])    # sign-differ region
    g_minus = float(_hall_g(np.array([-t]))[0])  # same-sign region
    alpha = math.radians(alpha_deg)
    beta = math.radians(beta_deg)
    # sign(u.a) != sign(u.b) exactly on two arcs of length |beta-alpha|.
    width = beta - alpha
    differ_arcs = [(alpha + math.pi / 2, beta + math.pi / 2),
                   (alpha - math.pi / 2, beta - math.pi / 2)]

    def arc_overlap(lo, hi, a0, a1):
        # length of [a0, a1] inside [lo, hi], all on the circle
        length = 0.0
        for shift in (-2 * math.pi, 0.0, 2 * math.pi):
            length += max(0.0, min(hi, a1 + shift) - max(lo, a0 + shift))
        return length

    dz = 2.0 / n_z
    dphi = 2 * math.pi / n_phi
    probs = np.empty((n_z, n_phi))
    for j in range(n_phi):
        lo = j * dphi
        hi = lo + dphi
        in_differ = sum(arc_overlap(lo, hi, a0, a1) for a0, a1 in differ_arcs)
        probs[:, j] = dz * (g_plus * in_differ + g_minus * (dphi - in_differ))
    assert width > 0
    return probs.ravel()


def test_hall_sample_goodness_of_fit():
    b = planar_setting(63.0)
    n = 1_000_000
    u = hall_sample(X, b, n, RandomStream(10))
    z_idx = np.clip(((u[:, 2] + 1.0) / 0.2).astype(int), 0, 9)
    phi = np.mod(np.arctan2(u[:, 1], u[:, 0]), 2 * math.pi)
    phi_idx = np.clip((phi / (2 * math.pi / 10)).astype(int), 0, 9)
    counts = np.bincount(z_idx * 10 + phi_idx, minlength=100)
    expected = n * _expected_bin_probs(0.0, 63.0)
    assert abs(expected.sum() - n) < 1e-6 * n
    stat = float(((counts - expected) ** 2 / expected).sum())
    p_value = stats.chi2.sf(stat, df=99)
    assert p_value > 0.001


def test_hall_sample_reproduces_singlet():
    b = planar_setting(117.0)
    n = 1_000_000
    u = hall_sample(X, b, n, RandomStream(11))
    sigma, tau = hall_outcomes(u, X, b)
    est = JointLaw2x2.from_outcomes(sigma, tau)
    assert est.max_abs_diff(singlet_law(X, b)) < 0.005


def test_hall_equal_settings_with_dot_product_above_one():
    # a.a rounds to 1 + 2e-16 here, so hall_f gives -1 - 2e-16; arccos of
    # that is NaN, and both rejection samplers used to accept nothing.
    a = planar_setting(225.0)
    assert float(np.dot(a, a)) > 1.0
    assert _hall_g(np.array([np.nextafter(-1.0, -2.0)]))[0] == pytest.approx(
        1 / (4 * math.pi))
    n = 100_000
    est = estimate_law("hall", a, a, n, RandomStream(16))
    assert est.max_abs_diff(singlet_law(a, a)) <= 5 * est.std_error()
    rows = np.tile(a, (n, 1))
    u = hall_sample(rows, rows, n, RandomStream(17))
    est = JointLaw2x2.from_outcomes(*hall_outcomes(u, a, a))
    assert est.max_abs_diff(singlet_law(a, a)) <= 5 * est.std_error()


def _watch_like_rows(n, seed):
    stream = RandomStream(seed)
    return stream.sphere(n), stream.sphere(n)


@pytest.mark.parametrize("rows", [False, True], ids=["vectors", "rows"])
def test_hall_sample_draws_exactly_four_uniforms_per_trial(rows):
    n = 12_345
    a, b = _watch_like_rows(n, 40) if rows else (X, planar_setting(63.0))
    stream = RandomStream(41)
    hall_sample(a, b, n, stream)
    assert stream.counter == 4 * n
    hall_sample(a, b, n, stream)
    assert stream.counter == 8 * n


class _FixedUniforms:
    """Stands in for a RandomStream and hands out preset uniforms."""

    def __init__(self, w):
        self.w = w

    def uniform(self, size):
        assert size == self.w.shape
        return self.w

    def uniform_rows(self, size):
        assert size == self.w.shape
        return lambda rows: self.w[..., rows]


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_hall_sample_is_the_same_on_row_slices(offset):
    # Trial i reads uniforms i, n + i, 2n + i and 3n + i and its own
    # settings only, so slices fed their part of the draws give the same
    # spins as one call, whatever the block edges.
    n = _CHUNK_ROWS + offset
    a, b = _watch_like_rows(n, 42)
    w = RandomStream(43).uniform((4, n))
    whole = hall_sample(a, b, n, _FixedUniforms(w))
    for cut in (1, 1000, n // 2, n - 1):
        parts = [hall_sample(a[s], b[s], len(a[s]), _FixedUniforms(w[:, s]))
                 for s in (slice(0, cut), slice(cut, n))]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


def _lune_cells(u, a, b):
    """0: both signs +, 1: u.a > 0 > u.b, 2: u.b > 0 > u.a, 3: both -."""
    return 2 * (sgn(u @ a) < 0) + (sgn(u @ b) < 0)


def _random_rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def test_hall_sample_fits_exact_lune_masses_off_plane():
    # Settings with every component nonzero; each lune's mass is exact.
    a = np.array([1.0, 2.0, 2.0]) / 3.0
    b = np.array([-2.0, 3.0, 6.0]) / 7.0
    t = float(a @ b)
    n = 1_000_000
    u = hall_sample(a, b, n, RandomStream(44))
    counts = np.bincount(_lune_cells(u, a, b), minlength=4)
    expected = n * np.array([1 + t, 1 - t, 1 - t, 1 + t]) / 4
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stats.chi2.sf(stat, df=3) > 0.001


def test_hall_sample_fits_rotated_planar_bins():
    # Rotating the planar settings (0, 63 degrees) to a general position and
    # the spins back must reproduce the planar test's exact 100-bin law.
    rot = _random_rotation(45)
    n = 1_000_000
    u = hall_sample(rot @ X, rot @ planar_setting(63.0), n, RandomStream(46)) @ rot
    z_idx = np.clip(((u[:, 2] + 1.0) / 0.2).astype(int), 0, 9)
    phi = np.mod(np.arctan2(u[:, 1], u[:, 0]), 2 * math.pi)
    phi_idx = np.clip((phi / (2 * math.pi / 10)).astype(int), 0, 9)
    counts = np.bincount(z_idx * 10 + phi_idx, minlength=100)
    expected = n * _expected_bin_probs(0.0, 63.0)
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stats.chi2.sf(stat, df=99) > 0.001


@pytest.mark.parametrize("rows", [False, True], ids=["vectors", "rows"])
@pytest.mark.parametrize("theta", [1e-9, 1e-7, 1e-5, 0.0, math.pi, math.pi - 1e-9],
                         ids=["1e-9", "1e-7", "1e-5", "a=b", "a=-b", "pi-1e-9"])
@pytest.mark.parametrize("a", [X, np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)],
                         ids=["axis", "off-axis"])
def test_hall_sample_near_parallel_settings(a, theta, rows):
    # The axis a x b is tiny or zero here: the spins must stay unit vectors
    # and the law must still be the singlet's.
    p = np.cross(a, Y if abs(a[1]) < 0.5 else X)
    p /= np.linalg.norm(p)
    b = math.cos(theta) * a + math.sin(theta) * p
    b /= np.linalg.norm(b)
    n = 200_000
    u = hall_sample(np.tile(a, (n, 1)) if rows else a, np.tile(b, (n, 1)) if rows else b,
                    n, RandomStream(47))
    assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() <= 1e-12
    est = JointLaw2x2.from_outcomes(*hall_outcomes(u, a, b))
    assert est.max_abs_diff(singlet_law(a, b)) <= 5 * est.std_error()
    # The mass sits in the right lunes: none in those that a = +-b empties.
    cells = np.bincount(_lune_cells(u, a, b), minlength=4)
    empty = [1, 2] if theta < 1.0 else [0, 3]
    assert cells[empty].sum() <= 1


def test_hall_sample_spins_are_unit_for_settings_nearly_unit():
    # Settings pass the unit check within 1e-9; the spins are unit anyway.
    a = X * (1 + 4e-10)
    for b in (planar_setting(63.0) * (1 - 4e-10), a):
        u = hall_sample(a, b, 10_000, RandomStream(49))
        assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() <= 1e-12


def test_hall_sample_rejects_bad_settings():
    with pytest.raises(ValueError):
        hall_sample(X, 2 * Y, 10, RandomStream(48))
    with pytest.raises(ValueError):
        hall_sample(np.tile(X, (9, 1)), Y, 10, RandomStream(48))
    with pytest.raises(ValueError):
        hall_sample(np.tile(2 * X, (10, 1)), Y, 10, RandomStream(48))


def test_hall_outcomes_direct():
    assert hall_outcomes(X, X, -X) == (1.0, 1.0)
    assert hall_outcomes(X, X, X) == (1.0, -1.0)
    u = RandomStream(12).sphere(100_000)
    sigma, tau = hall_outcomes(u, X, planar_setting(50.0))
    assert set(np.unique(sigma)) <= {-1.0, 1.0}
    assert set(np.unique(tau)) <= {-1.0, 1.0}


def test_hall_settings_conditional_relations():
    stream = RandomStream(13)
    b = planar_setting(25.0)
    for _ in range(50):
        u = stream.sphere()
        assert hall_settings_conditional(u, X, b) == pytest.approx(
            hall_density(u, X, b) / (4 * math.pi))
    # f = -1 at coinciding settings
    assert hall_settings_conditional(planar_setting(5.0), X, X) == pytest.approx(
        1.0 / (16 * math.pi ** 2))
    # integral over both settings for fixed u
    n = 1_000_000
    aa = stream.sphere(n)
    bb = stream.sphere(n)
    u0 = stream.sphere()
    f = (sgn(aa @ u0) * sgn(-(bb @ u0))
         * np.einsum("ij,ij->i", aa, bb))
    vals = _hall_g(f) / (4 * math.pi)
    integral = (4 * math.pi) ** 2 * float(vals.mean())
    assert abs(integral - 1.0) < 0.01


def test_hall_marginal_depends_on_remote_setting():
    # Histogram of the hidden spin changes with the remote setting: the
    # two-sample chi-square strongly rejects equality.
    n = 100_000
    u1 = hall_sample(X, planar_setting(45.0), n, RandomStream(14))
    u2 = hall_sample(X, planar_setting(135.0), n, RandomStream(15))
    phi1 = np.mod(np.arctan2(u1[:, 1], u1[:, 0]), 2 * math.pi)
    phi2 = np.mod(np.arctan2(u2[:, 1], u2[:, 0]), 2 * math.pi)
    bins = np.linspace(0, 2 * math.pi, 13)
    c1, _ = np.histogram(phi1, bins)
    c2, _ = np.histogram(phi2, bins)
    _, p_value, _, _ = stats.chi2_contingency(np.stack([c1, c2]))
    assert p_value < 1e-3


# ---------------------------------------------------------------------------
# Setting-tied atomic model and the mixture


def test_pinned_spin_sample_atoms():
    b = planar_setting(100.0)
    u, c, d = pinned_spin_sample(X, b, 1_000_000, RandomStream(16))
    m = (c == 0) & (d == 1)
    assert np.all(u[m] == X)
    m = (c == 1) & (d == -1)
    assert np.all(u[m] == b)  # v = -u = -b, matching the b-pinned atom
    # all four atoms equally likely
    for cc in (0, 1):
        for dd in (-1.0, 1.0):
            freq = float(np.mean((c == cc) & (d == dd)))
            assert abs(freq - 0.25) < 0.005


def test_pinned_full_run_recovers_singlet():
    b = planar_setting(63.0)
    stream = RandomStream(17)
    n = 1_000_000
    u, _, _ = pinned_spin_sample(X, b, n, stream)
    sigma, tau = pinned_spin_outcomes(u, X, b, stream)
    est = JointLaw2x2.from_outcomes(sigma, tau)
    assert est.max_abs_diff(singlet_law(X, b)) < 0.005
    # station marginal stays unbiased (no signaling at the observed level)
    assert abs(float(np.mean(sigma))) < 3.0 / math.sqrt(n) * 1.5


def test_pinned_spin_forced_branch_is_deterministic():
    stream = RandomStream(18)
    b = planar_setting(100.0)
    u, c, d = pinned_spin_sample(X, b, 10_000, stream)
    sigma, _ = pinned_spin_outcomes(u, X, b, stream)
    m = c == 0
    assert np.array_equal(sigma[m], d[m])


def test_no_signaling_marginal_insensitive_to_remote_setting():
    n = 500_000
    cases = [("pinned", None), ("hall", None), ("tb", None),
             ("tb-freewill", None), ("mixed", None),
             ("tb-ext1", 0.6), ("tb-ext2", 0.6)]
    for model, p in cases:
        m = []
        for seed, bdeg in ((21, 30.0), (22, 140.0)):
            sigma, _ = sample_outcomes(model, X, planar_setting(bdeg), n,
                                       RandomStream(seed), p=p)
            m.append(float(np.mean(sigma)))
        assert abs(m[0] - m[1]) < 3.5 * math.sqrt(2.0 / n), model


def test_mixed_law_and_sampler():
    b_acute = planar_setting(60.0)
    b_obtuse = planar_setting(120.0)
    assert mixed_law(X, b_acute).prob(1, 1) == 0.0
    assert mixed_law(X, b_obtuse).prob(1, 1) == 0.5
    stream = RandomStream(19)
    u, _, _ = pinned_spin_sample(X, b_acute, 200_000, stream)
    sigma, tau = hall_outcomes(u, X, b_acute)
    est = JointLaw2x2.from_outcomes(sigma, tau)
    assert est.max_abs_diff(mixed_law(X, b_acute)) < 0.005


# ---------------------------------------------------------------------------
# Hypothesis flags, verified operationally


def test_model_flags_table():
    f = model_flags("pinned")
    assert (f.deterministic, f.setting_independent, f.reducible_correlations,
            f.uncorrelated_choice, f.malus_compliant) == (False, True, True, False, True)
    assert model_flags("hall").malus_compliant is False
    assert model_flags("hall").uncorrelated_choice is False
    assert model_flags("tb-ext2").reducible_correlations is False
    assert model_flags("tb-ext2").setting_independent is True
    assert model_flags("tb-ext1").setting_independent is False
    assert model_flags("tb").deterministic is True
    with pytest.raises(KeyError):
        model_flags("nonsense")


def test_flag_setting_independence_operational():
    # With a fixed hidden sample and fixed stream, the remote setting must
    # not move the local outcome in setting-independent models.
    stream = RandomStream(23)
    b1 = planar_setting(30.0)
    u, _, _ = pinned_spin_sample(X, b1, 20_000, RandomStream(24))
    _, tau1 = pinned_spin_outcomes(u, X, b1, RandomStream(25))
    _, tau1_again = pinned_spin_outcomes(u, planar_setting(70.0), b1, RandomStream(25))
    assert np.array_equal(tau1, tau1_again)  # remote analyzer never read
    # The communication model is the counterexample: the message depends
    # on the remote setting and moves the partner outcome.
    u = stream.sphere(20_000)
    v = stream.sphere(20_000)
    _, tb_tau1 = tb_outcomes(u, v, X, b1)
    _, tb_tau2 = tb_outcomes(u, v, planar_setting(70.0), b1)
    assert not np.array_equal(tb_tau1, tb_tau2)


def test_flag_malus_compliance_operational():
    # Atom-conditioned frequency of sigma = +1 must match the Malus value
    # for the compliant model; the deterministic model fails it.
    b = planar_setting(100.0)
    stream = RandomStream(26)
    n = 400_000
    u, c, d = pinned_spin_sample(X, b, n, stream)
    sigma, _ = pinned_spin_outcomes(u, X, b, stream)
    m = (c == 1) & (d == 1)  # u = -b, u.a = -cos(100 deg)
    emp = float(np.mean(sigma[m] == 1))
    want = malus_marginal(-b, X, 1)
    assert abs(emp - want) < 0.01
    sig_det, _ = hall_outcomes(-b, X, b)
    assert sig_det in (-1.0, 1.0)
    assert abs(float(sig_det == 1) - want) > 0.3  # nowhere near Malus


def test_flag_determinism_operational():
    u = RandomStream(27).sphere(1000)
    v = RandomStream(28).sphere(1000)
    b = planar_setting(77.0)
    s1, t1 = tb_outcomes(u, v, X, b)
    s2, t2 = tb_outcomes(u, v, X, b)
    assert np.array_equal(s1, s2) and np.array_equal(t1, t2)
    sig_a = pinned_spin_outcomes(u, X, b, RandomStream(29))[0]
    sig_b = pinned_spin_outcomes(u, X, b, RandomStream(30))[0]
    assert not np.array_equal(sig_a, sig_b)  # stochastic given the sample


# ---------------------------------------------------------------------------
# Conditioned factorization (reducibility of correlations)


def _equal_area_bin(u, alpha_sectors=4):
    z_band = np.clip(((u[:, 2] + 1.0) * 1.5).astype(int), 0, 2)
    phi = np.mod(np.arctan2(u[:, 1], u[:, 0]), 2 * math.pi)
    sector = np.clip((phi / (2 * math.pi / alpha_sectors)).astype(int),
                     0, alpha_sectors - 1)
    return z_band * alpha_sectors + sector


def _max_factorization_gap(cells, sigma, tau, min_count=1000):
    gap = 0.0
    for cell in np.unique(cells):
        m = cells == cell
        if np.count_nonzero(m) < min_count:
            continue
        ps = float(np.mean(sigma[m] == 1))
        pt = float(np.mean(tau[m] == 1))
        joint = float(np.mean((sigma[m] == 1) & (tau[m] == 1)))
        gap = max(gap, abs(joint - ps * pt))
    return gap


def test_reducibility_pinned_on_equal_area_bins():
    # The four atoms fall in distinct equal-area bins for these settings,
    # and conditioned on an atom the outcomes are independent Malus draws.
    b = planar_setting(100.0)
    stream = RandomStream(31)
    n = 500_000
    u, _, _ = pinned_spin_sample(X, b, n, stream)
    sigma, tau = pinned_spin_outcomes(u, X, b, stream)
    cells = _equal_area_bin(u)
    assert len(np.unique(cells)) == 4
    assert _max_factorization_gap(cells, sigma, tau, min_count=10_000) < 0.01


def test_reducibility_deterministic_models_on_outcome_cells():
    # Deterministic rules factorize exactly once the conditioning cell
    # pins both outcome signs.
    b = planar_setting(63.0)
    stream = RandomStream(32)
    n = 200_000
    u = hall_sample(X, b, n, stream)
    sigma, tau = hall_outcomes(u, X, b)
    cells = (sgn(u @ X) > 0).astype(int) * 2 + (sgn(u @ b) > 0).astype(int)
    assert _max_factorization_gap(cells, sigma, tau) == 0.0

    u = stream.sphere(n)
    v = stream.sphere(n)
    sigma, tau = tb_outcomes(u, v, X, b)
    cells = ((sgn(u @ X) > 0).astype(int) * 2 + (tau > 0).astype(int))
    assert _max_factorization_gap(cells, sigma, tau) == 0.0


def test_reducibility_extension_families():
    # Family 1 keeps conditioned factorization; family 2 breaks it.
    b = planar_setting(63.0)
    stream = RandomStream(33)
    n = 400_000
    u = stream.sphere(n)
    v = stream.sphere(n)
    S = sgn(u @ X)
    c = S * sgn(v @ X)
    t_keep = -sgn(np.sum((u + c[:, None] * v) * b, axis=-1))
    t_flip = -sgn(np.sum((u - c[:, None] * v) * b, axis=-1))
    split = t_keep != t_flip  # cells where the two branches disagree

    sigma1, tau1 = tb_extension_sample(0.5, 1, u, v, X, b, RandomStream(34))
    cells = (S[split] > 0).astype(int) * 2 + (t_keep[split] > 0).astype(int)
    assert _max_factorization_gap(cells, sigma1[split], tau1[split]) < 0.01

    sigma2, tau2 = tb_extension_sample(0.5, 2, u, v, X, b, RandomStream(35))
    gap = _max_factorization_gap(cells, sigma2[split], tau2[split])
    assert gap > 0.2  # the outcome-tied bit correlates the pair given lambda


# ---------------------------------------------------------------------------
# Registry helpers


def test_estimate_law_and_analytic_registry():
    b = planar_setting(45.0)
    for model in ("pinned", "hall", "tb", "tb-freewill", "mixed"):
        est = estimate_law(model, X, b, 50_000, RandomStream(36))
        ref = analytic_law(model, X, b)
        assert est.max_abs_diff(ref) < 0.02, model
    est = estimate_law("tb-ext2", X, b, 50_000, RandomStream(37), p=0.5)
    assert est.max_abs_diff(analytic_law("tb-ext2", X, b, p=0.5)) < 0.02
    with pytest.raises(ValueError):
        estimate_law("tb-ext1", X, b, 100, RandomStream(38))
    with pytest.raises(KeyError):
        analytic_law("no-such-model", X, b)
    for model in ("singlet", "uniform", "no-such-model"):
        with pytest.raises(KeyError):
            sample_outcomes(model, X, b, 100, RandomStream(39))
    with pytest.raises(KeyError):
        model_flags("singlet")


def test_model_table_ids():
    assert MODEL_IDS == ("tb", "tb-ext1", "tb-ext2", "tb-freewill", "pinned", "hall", "mixed")
    assert set(MODELS) == {"singlet", "uniform", *MODEL_IDS}
    for model, spec in MODELS.items():
        assert (spec.draw is None) == (spec.outcomes is None) == (spec.flags is None), model


NAN_VECTOR = [math.nan, 0.0, 0.0]


def test_singlet_law_rejects_a_nan_setting():
    for a, b in ((NAN_VECTOR, X), (X, NAN_VECTOR)):
        with pytest.raises(ValueError, match="nan") as info:
            singlet_law(a, b)
        assert "negative probability" not in str(info.value)


def test_joint_law_rejects_a_nan_table():
    for p in ([[math.nan, 0.5], [0.25, 0.25]], [[math.nan] * 2] * 2):
        with pytest.raises(ValueError, match="nan") as info:
            JointLaw2x2(p)
        assert "negative probability" not in str(info.value)


def test_hall_sample_rejects_a_nan_settings_row():
    n = 5
    rows = np.array([planar_setting(10.0 * k) for k in range(n)])
    rows[3] = NAN_VECTOR
    for a, b in ((rows, X), (X, rows)):
        with pytest.raises(ValueError, match="nan") as info:
            hall_sample(a, b, n, RandomStream(40))
        assert "negative probability" not in str(info.value)
