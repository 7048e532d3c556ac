"""geometry.turn_cos_sin, the sphere map's cos and sin of an azimuth in
turns, against mpmath: its table, its stated error bound and its exact
quarter turns, and the unit norm of the points sphere_point makes."""

import numpy as np
import pytest

from lhvlab import geometry
from lhvlab.geometry import RandomStream, sphere_point, sphere_rows, turn_cos_sin

N = 256
BOUND = 2.0 ** -52
PREC = 96  # bits of the reference: its own error is far below the bound


def _turns():
    """1e5 random turns in [-1, 1], then 0, +-1/4, +-1/2, 3/4, 1 - 2**-53
    and every multiple of 1/N in [-1, 1]."""
    rng = np.random.default_rng(20251019)
    special = [0.0, 0.25, -0.25, 0.5, -0.5, 0.75, 1.0 - 2.0 ** -53]
    return np.concatenate([rng.uniform(-1.0, 1.0, 100_000), special,
                           np.arange(-N, N + 1) / N])


def _largest_errors(t, c, s):
    """The largest |c - cos 2 pi t| and |s - sin 2 pi t| over t, each
    difference taken at PREC bits (mpmath's raw mpf routines, for speed)."""
    libmp = pytest.importorskip("mpmath").libmp
    ff, to_float, sub = libmp.from_float, libmp.to_float, libmp.mpf_sub
    err_c = err_s = 0.0
    for ti, ci, si in zip(t.tolist(), c.tolist(), s.tolist()):
        exact_c, exact_s = libmp.mpf_cos_sin_pi(libmp.mpf_shift(ff(ti), 1), PREC)
        err_c = max(err_c, abs(to_float(sub(exact_c, ff(ci), PREC))))
        err_s = max(err_s, abs(to_float(sub(exact_s, ff(si), PREC))))
    return err_c, err_s


def test_turn_cos_sin_is_within_2_to_the_minus_52_of_mpmath():
    t = _turns()
    c, s = turn_cos_sin(t)
    err_c, err_s = _largest_errors(t, c, s)
    assert err_c <= BOUND and err_s <= BOUND
    assert np.all(np.abs(c) <= 1.0) and np.all(np.abs(s) <= 1.0)


def test_quarter_turns_are_exact():
    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0, -0.25, -0.5, -0.75, -1.0, 2.0, -2.25])
    c, s = turn_cos_sin(t)
    assert c.tolist() == [1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 1.0, 0.0]
    assert s.tolist() == [0.0, 1.0, 0.0, -1.0, 0.0, -1.0, 0.0, 1.0, 0.0, 0.0, -1.0]


def test_table_entries_are_the_correctly_rounded_values():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        for k in range(N):
            angle = mpmath.mpf(2 * k) / N  # turns k/N, in units of pi
            assert geometry._COS_TURNS[k] == float(mpmath.cospi(angle)), k
            assert geometry._SIN_TURNS[k] == float(mpmath.sinpi(angle)), k
    assert not np.signbit(geometry._COS_TURNS[geometry._COS_TURNS == 0.0]).any()
    assert not np.signbit(geometry._SIN_TURNS[geometry._SIN_TURNS == 0.0]).any()


def test_sphere_points_have_unit_norm_within_4_ulp():
    u = sphere_rows(RandomStream(31, 2), 100_000)(slice(0, 100_000))
    t = _turns()
    z = np.linspace(-1.0, 1.0, t.size)
    for points in (u, sphere_point(z, t)):
        norm2 = geometry.dot(points, points)
        assert np.all(np.abs(norm2 - 1.0) <= 4 * np.spacing(1.0))


def test_scalars_blocks_and_out_give_the_same_bits():
    t = RandomStream(32, 1).uniform(3 * geometry._TRIG_ROWS + 5) * 2.0 - 1.0
    c, s = turn_cos_sin(t)
    assert turn_cos_sin(t[7])[0].tobytes() == c[7].tobytes()
    assert np.ndim(turn_cos_sin(t[7])[1]) == 0
    out = (np.empty(t.size), np.empty(t.size))
    assert turn_cos_sin(t, out=out)[0] is out[0]
    assert out[0].tobytes() == c.tobytes() and out[1].tobytes() == s.tobytes()
    z = np.zeros_like(t)
    points = sphere_point(z, t)  # r = 1: the blocked map is the kernel itself
    assert points[:, 0].tobytes() == c.tobytes() and points[:, 1].tobytes() == s.tobytes()


def test_sphere_map_calls_no_libm_trig(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.cos or np.sin called")
    monkeypatch.setattr(np, "cos", refuse)
    monkeypatch.setattr(np, "sin", refuse)
    stream = RandomStream(33, 0)
    u = sphere_rows(stream, 1_000)(slice(0, 1_000))
    assert u.shape == (1_000, 3) and stream.counter == 2_000  # two draws per point
