"""The branch-free +-1 kernels and the column-major vector producers.

Each kernel is checked bit for bit against the np.where formula it
replaces, written out here as it was; each producer of per-trial (m, 3)
vectors is checked to return a column-major array equal to the C-ordered
array of that formula.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lhvlab import models, protocols
from lhvlab.geometry import (X_HAT, Y_HAT, RandomStream, dot, planar_setting, select, sgn,
                             sphere_point, sphere_rows, substream, turn_cos_sin, uniform_signs)
from lhvlab.models import (AtomSpins, _draw_atoms, _tb_extension_rule, hall_spins, malus_marginal,
                           malus_outcome, one_bit_station_a, one_bit_tau, pinned_spin_sample)
from lhvlab.protocols import (EMISSION_STEP, STREAM_A, STREAM_B, WATCH_A, WATCH_B, _bin_index,
                              _phase, _shared_coin, run_watch_realization, watch_vector)
from recorded_runs import recorded

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
TINY = 5e-324  # the smallest subnormal
SPECIAL = [0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, 0.5, np.nextafter(0.5, 0.0),
           np.nextafter(0.5, 1.0), 1.0, -1.0, 1e300, -1e300]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL))
UNIT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, TINY, 0.5, np.nextafter(0.5, 0.0),
                                                        np.nextafter(1.0, 0.0)]))


def _array(values):
    return np.array(values, dtype=float)


def _same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    return (got.dtype == expected.dtype and got.shape == expected.shape
            and got.tobytes() == expected.tobytes())


def _dot(u, x):
    return u[..., 0] * x[..., 0] + u[..., 1] * x[..., 1] + u[..., 2] * x[..., 2]


def _units(seed: int, n: int):
    """n unit vectors, C-ordered, with exact zeros and axis directions mixed in."""
    u = np.ascontiguousarray(RandomStream(seed, 9).sphere(n))
    u[::7] = planar_setting(90.0)  # (6e-17, 1, 0): a zero and a tiny component
    u[3::11] = -X_HAT
    return u


# ---------------------------------------------------------------------------
# +-1 outcomes and sign flips


@PROPERTY
@given(st.lists(FINITE, min_size=1, max_size=64))
def test_sgn_is_the_where_formula(values):
    x = _array(values)
    assert _same_bits(sgn(x), np.where(x >= 0.0, 1.0, -1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sgn_still_rejects_nonfinite_input(bad):
    with pytest.raises(ValueError, match="finite"):
        sgn(bad)
    with pytest.raises(ValueError, match="finite"):
        sgn(np.array([0.5, bad, -0.5]))


@pytest.mark.parametrize("x, expected", [(0.0, 1.0), (-0.0, 1.0), (-TINY, -1.0), (3, 1.0),
                                         (np.float64(-2.0), -1.0), (np.array(-0.0), 1.0)])
def test_sgn_of_zero_d_input_is_a_python_float(x, expected):
    out = sgn(x)
    assert type(out) is float and out == expected


@PROPERTY
@given(st.lists(st.one_of(UNIT, st.just(math.nan)), min_size=1, max_size=64))
def test_uniform_signs_is_the_where_formula(values):
    w = _array(values)
    assert _same_bits(uniform_signs(w), np.where(w < 0.5, -1.0, 1.0))
    # The runners' one-byte coins hold the same values.
    assert _same_bits(uniform_signs(w, np.int8), np.where(w < 0.5, -1, 1).astype(np.int8))


@PROPERTY
@given(st.integers(0, 2**32), st.lists(st.tuples(st.integers(0, 3), UNIT), min_size=1,
                                       max_size=64))
def test_malus_outcome_is_the_where_formula(seed, picks):
    # Noise draws equal to the marginal, a step either side of it, or any uniform.
    u = _units(seed, len(picks))
    n = planar_setting(30.0)
    marginal = malus_marginal(u, n, 1)
    noise = _array([(m, np.nextafter(m, 0.0), np.nextafter(m, 1.0), w)[kind]
                    for (kind, w), m in zip(picks, marginal)])
    assert _same_bits(malus_outcome(u, n, noise),
                      np.where(noise < malus_marginal(u, n, 1), 1.0, -1.0))


def _where_extension_rule(family, hidden, a, b):
    u, v, keep = hidden
    S, c = one_bit_station_a(u, v, a)
    if family == 2:
        c = np.where(keep, c, -c)
    return np.where(keep, S, -S), one_bit_tau(u, v, c, b)


@PROPERTY
@given(st.integers(0, 2**32), st.lists(st.booleans(), min_size=1, max_size=64),
       st.sampled_from([1, 2]))
def test_extension_flips_are_the_where_formula(seed, keep, family):
    n = len(keep)
    hidden = (_units(seed, n), _units(seed + 1, n)[::-1], np.array(keep))
    a, b = planar_setting(0.0), planar_setting(120.0)
    got = _tb_extension_rule(family, hidden, a, b)
    for g, e in zip(got, _where_extension_rule(family, hidden, a, b)):
        assert _same_bits(g, e)


@PROPERTY
@given(st.lists(st.tuples(st.booleans(), FINITE, st.one_of(FINITE, st.just(math.nan))),
                min_size=1, max_size=64))
def test_select_is_np_where_bit_for_bit(rows):
    mask, x, y = (np.array(col) for col in zip(*rows))
    assert _same_bits(select(mask, x, y), np.where(mask, x, y))
    assert _same_bits(select(mask, x[None, :], -y), np.where(mask, x[None, :], -y))


def test_select_broadcasts_one_column_against_rows():
    rng = np.random.default_rng(3)
    mask, rows = rng.random(50) < 0.5, rng.normal(size=(3, 50))
    column = np.array([[1.0], [-0.0], [2.0]])
    assert _same_bits(select(mask, rows, column), np.where(mask, rows, column))


def _where_hall_spins(a, b, w):
    """hall_spins as it was written with np.where and row-major products,
    with the azimuth in turns and its cos and sin from turn_cos_sin."""
    e1 = a / np.sqrt(_dot(a, a))[..., None]
    t = _dot(a, b)
    axis = np.cross(e1, b)
    axis -= _dot(axis, e1)[..., None] * e1
    s = np.sqrt(_dot(axis, axis))
    theta = np.arctan2(s, t)
    flat = s < 1e-12
    if np.any(flat):
        spare = np.cross(e1, np.where(np.abs(e1[..., :1]) < 0.5, X_HAT, Y_HAT))
        axis = np.where(flat[..., None], spare, axis)
    e3 = axis / np.sqrt(_dot(axis, axis))[..., None]
    e2 = np.cross(e3, e1)
    same = w[0] < (1.0 + t) / 2.0
    theta = theta / (2.0 * math.pi)
    turns = np.where(same, theta + (0.5 - theta) * w[3], theta * w[3]) - 0.25
    z = 2.0 * w[2] - 1.0
    r = np.sqrt(1.0 - z * z)
    r = np.where(w[1] < 0.5, r, -r)
    c, s = turn_cos_sin(turns)
    return (r * c)[:, None] * e1 + (r * s)[:, None] * e2 + z[:, None] * e3


@PROPERTY
@given(st.lists(st.tuples(UNIT, UNIT, UNIT, UNIT), min_size=1, max_size=64),
       st.sampled_from([0.0, 75.0, 90.0, 180.0, 1e-13]))
def test_hall_spins_are_the_where_formula(rows, angle):
    w = _array(rows).T.copy()
    a, b = planar_setting(0.0), planar_setting(angle)
    w[0, ::3] = (1.0 + float(np.dot(a, b))) / 2.0  # on the lune-pair threshold
    expected = _where_hall_spins(a, b, w)
    got = hall_spins(a, b, w)
    assert _same_bits(got, expected) and got.flags.f_contiguous


def test_hall_spins_at_per_trial_settings_are_the_where_formula():
    t = (np.arange(-50, 4_000) + 0.5) * EMISSION_STEP
    a, b = watch_vector(t, WATCH_A), watch_vector(t, WATCH_B)
    w = RandomStream(8, 4).uniform((4, len(t)))
    w[1, ::5] = 0.5
    got = hall_spins(a, b, w)
    expected = _where_hall_spins(np.ascontiguousarray(a), np.ascontiguousarray(b), w)
    assert _same_bits(got, expected) and got.flags.f_contiguous


@pytest.mark.parametrize("vector_first", [True, False])
def test_hall_spins_of_a_vector_and_rows_that_hold_it_are_the_where_formula(vector_first):
    # Rows equal to +-the vector have an empty frame and take a spare axis.
    x = planar_setting(30.0)
    rows = _units(12, 300)
    rows[::5], rows[2::9] = x, -x
    w = RandomStream(12, 4).uniform((4, len(rows)))
    a, b = (x, rows) if vector_first else (rows, x)
    got = hall_spins(a, b, w)
    assert _same_bits(got, _where_hall_spins(a, b, w)) and got.flags.f_contiguous


# ---------------------------------------------------------------------------
# Overlap bins and watch phases


def _digitized(t, n_bins):
    return np.clip(np.digitize(t, np.linspace(-1.0, 1.0, n_bins + 1)) - 1, 0, n_bins - 1)


@pytest.mark.parametrize("n_bins", [1, 2, 12, 13, 200])
def test_bin_index_is_clipped_digitize_at_edges_nan_and_beyond(n_bins):
    edges = np.linspace(-1.0, 1.0, n_bins + 1)
    t = np.concatenate([edges, np.nextafter(edges, -2.0), np.nextafter(edges, 2.0),
                        [math.nan, -0.0, 0.0, -1.5, 1.5, math.inf, -math.inf],
                        np.random.default_rng(n_bins).uniform(-1.0, 1.0, 1_000)])
    got = _bin_index(t, n_bins)
    assert _same_bits(got, _digitized(t, n_bins))
    assert got[len(edges) * 3] == n_bins - 1  # NaN falls in the last bin


@PROPERTY
@given(st.lists(st.one_of(st.floats(-1.25, 1.25), st.sampled_from(
    list(np.linspace(-1.0, 1.0, 13)) + [math.nan, -0.0])), min_size=1, max_size=64))
def test_bin_index_is_clipped_digitize(values):
    t = _array(values)
    assert _same_bits(_bin_index(t, protocols.N_BINS), _digitized(t, protocols.N_BINS))


@PROPERTY
@given(st.lists(FINITE, min_size=1, max_size=64))
def test_phase_is_np_mod_bit_for_bit(values):
    x = _array(values)
    assert _same_bits(_phase(x), np.mod(x, 1.0))


@pytest.mark.parametrize("ticks", [
    np.arange(-1_000_000, -990_000),                     # negative start_tick
    np.arange(10**15, 10**15 + 10_000),                   # large t
    np.arange(-(10**15) - 10_000, -(10**15)),
])
@pytest.mark.parametrize("watch", [WATCH_A, WATCH_B])
def test_watch_phases_are_np_mod_far_from_zero(ticks, watch):
    t = ticks * EMISSION_STEP
    for x in (t / watch.period_small, t / watch.period_large):
        assert _same_bits(_phase(x), np.mod(x, 1.0))


def test_watch_vectors_at_integer_phases_are_the_mod_map():
    t = np.arange(-40.0, 41.0)  # WATCH_A's small hand has period 1: integer phases
    ps, pl = np.mod(t / WATCH_A.period_small, 1.0), np.mod(t / WATCH_A.period_large, 1.0)
    assert np.all(ps == 0.0) and not np.signbit(_phase(t)).any()
    expected = _stack_point(2.0 * ps - 1.0, pl)
    assert _same_bits(np.ascontiguousarray(watch_vector(t, WATCH_A)), expected)


def test_watch_run_from_a_negative_tick_uses_the_mod_map_of_its_ticks():
    _, _, tr = recorded(run_watch_realization, 300, "pinned", 4, start_tick=-1_000)
    t = np.arange(-1_000, -700) * EMISSION_STEP
    for watch, used in ((WATCH_A, tr["a_used"]), (WATCH_B, tr["b_used"])):
        ps, pl = np.mod(t / watch.period_small, 1.0), np.mod(t / watch.period_large, 1.0)
        assert _same_bits(used, _stack_point(2.0 * ps - 1.0, pl))


# ---------------------------------------------------------------------------
# Column-major producers


def _stack_point(z, turns):
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    c, s = turn_cos_sin(turns)
    return np.stack([r * c, r * s, z], axis=-1)


def _column_major_equal(got, expected):
    """got is an F-ordered (m, 3) array with the values of the C-ordered expected."""
    assert got.shape == expected.shape and got.shape[-1] == 3
    assert got.flags.f_contiguous and (got.shape[0] == 1 or not got.flags.c_contiguous)
    assert _same_bits(np.ascontiguousarray(got), expected)


def test_sphere_points_and_rows_are_column_major():
    stream, twin = RandomStream(5, 1), RandomStream(5, 1)
    wz, wphi = twin.uniform((2, 1_000))
    z = 2.0 * wz - 1.0
    _column_major_equal(sphere_point(z, wphi), _stack_point(z, wphi))
    _column_major_equal(sphere_rows(stream, 1_000)(slice(0, 1_000)), _stack_point(z, wphi))
    one = sphere_point(0.25, 1.0)
    assert one.shape == (3,) and _same_bits(one, _stack_point(0.25, 1.0))


def test_dot_of_column_major_rows_is_the_sum_formula():
    u = sphere_point(*RandomStream(6, 1).uniform((2, 500)))
    c = np.ascontiguousarray(u)
    x = planar_setting(40.0)
    for v in (x, c, c[::-1]):
        assert _same_bits(dot(u, v), _dot(c, v))
    assert _same_bits(dot(x, x), _dot(x, x)) and np.ndim(dot(x, x)) == 0


def test_watch_vectors_are_column_major():
    t = np.arange(-5, 2_000) * EMISSION_STEP
    for watch in (WATCH_A, WATCH_B):
        ps, pl = np.mod(t / watch.period_small, 1.0), np.mod(t / watch.period_large, 1.0)
        _column_major_equal(watch_vector(t, watch),
                            _stack_point(2.0 * ps - 1.0, pl))


@pytest.mark.parametrize("a, b", [(planar_setting(0.0), planar_setting(90.0)),
                                  (planar_setting(10.0), planar_setting(250.0))])
def test_atoms_materialized_spins_are_column_major(a, b):
    # The atom codes' rows are the d*a / -d*b formula on the coins that
    # bits() and signs() draw, and so are pinned_spin_sample's (u, c, d),
    # whose arrays geometry.gathered fills in C order.
    n = 2_000
    twin = RandomStream(7, 1)
    c, d = twin.bits(n), twin.signs(n)
    expected = np.where((c == 0)[:, None], d[:, None] * a, -d[:, None] * b)
    (spins,) = _draw_atoms(a, b, n, RandomStream(7, 1), None)(slice(0, n))
    _column_major_equal(spins.rows(), expected)
    u, c_sampled, d_sampled = pinned_spin_sample(a, b, n, RandomStream(7, 1))
    assert _same_bits(u, expected)
    assert _same_bits(c_sampled, c) and c_sampled.dtype == c.dtype
    assert _same_bits(d_sampled, d) and d_sampled.dtype == d.dtype


@pytest.mark.parametrize("policies", [("random", "random"), ("a", "random"), ("a", "b")])
def test_shared_coin_setting_rows_are_column_major(policies):
    fixed = {"a": planar_setting(0.0), "b": planar_setting(90.0), "random": "random"}
    a_policy, b_policy = (fixed[p] for p in policies)
    chunks = []
    _shared_coin(3_000, 9, a_policy, b_policy, False, lambda rows, trial: chunks.append(trial))
    (trial,) = chunks
    d, u = trial["d"], np.ascontiguousarray(trial["u"])
    forced_a = trial["c"] == 0
    # A random request is a sphere point from the station's own stream.
    req_a, req_b = (sphere_rows(substream(9, stream), 3_000)(slice(0, 3_000))
                    if isinstance(policy, str) else policy
                    for policy, stream in ((a_policy, STREAM_A), (b_policy, STREAM_B)))
    _column_major_equal(trial["a_used"],
                        np.where(forced_a[:, None], d[:, None] * u, np.ascontiguousarray(req_a)))
    _column_major_equal(trial["b_used"],
                        np.where(~forced_a[:, None], -d[:, None] * u, np.ascontiguousarray(req_b)))


def test_watch_pinned_spin_rows_are_column_major(monkeypatch):
    spins = []
    pair = protocols.malus_pair
    monkeypatch.setattr(protocols, "malus_pair",
                        lambda hidden, x, y: spins.append(hidden[0]) or pair(hidden, x, y))
    _, _, tr = recorded(run_watch_realization, 3_000, "pinned", 12)
    (u,) = spins
    j, d = tr["c"], tr["d"]
    _column_major_equal(u, d[:, None] * np.where((j == 0)[:, None], tr["a_used"], tr["b_used"]))


def test_hall_spins_are_column_major_at_fixed_settings():
    w = RandomStream(10, 4).uniform((4, 1_000))
    a, b = planar_setting(0.0), planar_setting(75.0)
    _column_major_equal(hall_spins(a, b, w), _where_hall_spins(a, b, w))


def test_kernels_call_no_np_where(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.where called")
    rng = np.random.default_rng(11)
    u, w = _units(11, 100), rng.random((4, 100))
    a, b = planar_setting(0.0), planar_setting(75.0)
    hidden_atoms = _draw_atoms(a, b, 100, RandomStream(11, 1), None)
    monkeypatch.setattr(np, "where", refuse)
    sgn(u[:, 0])
    uniform_signs(w[0])
    malus_outcome(u, a, w[1])
    for family in (1, 2):
        _tb_extension_rule(family, (u, u[::-1], w[2] < 0.5), a, b)
    hall_spins(a, b, w)
    hidden_atoms(slice(0, 100))
    sphere_point(w[0], w[1])
    dot(u, a)
    _bin_index(w[0], protocols.N_BINS)
    models.sample_outcomes("pinned", a, b, 100, RandomStream(11, 2))


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric", "sphere"])
def test_detection_rows_are_column_major(mode, monkeypatch):
    drawn, used = [], []
    index_rows, pair = RandomStream.index_rows, protocols.malus_pair
    # Each index draw, read whole: its values are those every window reads.
    monkeypatch.setattr(RandomStream, "index_rows", lambda self, k, n: drawn.append(
        (draw := index_rows(self, k, n))(slice(0, n))) or draw)
    monkeypatch.setattr(protocols, "malus_pair",
                        lambda hidden, x, y: used.append((hidden[0], x, y)) or pair(hidden, x, y))
    sa = np.array([planar_setting(0.0), planar_setting(90.0)])
    sb = np.array([planar_setting(45.0), planar_setting(135.0)])
    if mode == "sphere":
        protocols.run_detection_loophole(3_000, mode, 13, n_directions=8)
        sa = sb = u_values = protocols._fibonacci_antipodal_grid(8)
    else:
        protocols.run_detection_loophole(3_000, mode, 13, sa, sb)
        u_values = np.vstack([sa, -sa, sb, -sb] if mode == "symmetric" else [sb, -sb])
    ia, ib, iu = drawn
    ((u, a_used, b_used),) = used
    # The stations read atom codes, the drawn indices into the direction
    # sets, whose rows (the transcript's) come out column-major.
    for got, table, idx in ((u, u_values, iu), (a_used, sa, ia), (b_used, sb, ib)):
        assert isinstance(got, AtomSpins) and got.code.tolist() == idx.tolist()
        _column_major_equal(got.rows(), table[idx])
