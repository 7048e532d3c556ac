"""Exact coincidence laws of the detection-loophole constructions.

Every mode has finitely many hidden variables, each equally likely within a
settings pair: the spin, a row of the mode's instruction set, and (in
symmetric and sphere mode) the side that carries the firing bit. Firing is
decided by the shipped rule, protocols._fires, which run_detection_loophole
calls, and each station's outcome probabilities are its Malus marginals,
sigma from u and tau from -u. So each settings pair's coincidence law, and
the coincidence rate, follow without sampling.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhvlab import protocols
from lhvlab.geometry import dot, planar_setting
from lhvlab.models import AtomSpins, law_table, malus_marginal

DEFAULT_A, DEFAULT_B = (0.0, 90.0), (45.0, 135.0)
SPHERE_DIRECTIONS = 16
EXPECTED_EFFICIENCY = {"symmetric": 1 / 4, "asymmetric": 1 / 2,
                       "sphere": 2 / SPHERE_DIRECTIONS}
# A few ulps of the cell value 1/4. The largest deviation seen is 1 ulp
# (5.6e-17), in sphere mode; symmetric and asymmetric mode read 0.
BOUND = 4 * np.spacing(0.25)


def _instruction_sets(mode, a_deg, b_deg):
    """(settings A, settings B, spins) of a mode, as run_detection_loophole
    builds them from planar settings or, in sphere mode, its grid."""
    if mode == "sphere":
        grid = protocols._fibonacci_antipodal_grid(SPHERE_DIRECTIONS)
        return grid, grid, grid
    a = np.array([planar_setting(x) for x in a_deg])
    b = np.array([planar_setting(x) for x in b_deg])
    return a, b, np.vstack([a, -a, b, -b] if mode == "symmetric" else [b, -b])


def _ignores_the_flag(u, a_used, b_used, flagged):
    """A wrong rule: both particles fire only along +-u, whichever is flagged."""
    return protocols._along_axis(u, a_used), protocols._along_axis(u, b_used)


def _exact_coincidences(mode, fires=protocols._fires, a_deg=DEFAULT_A, b_deg=DEFAULT_B):
    """(the settings pairs' overlaps a.b, their (pairs, 2, 2) coincidence
    laws, the coincidence rate), over every hidden variable of the mode."""
    sa, sb, su = _instruction_sets(mode, a_deg, b_deg)
    sides = 1 if mode == "asymmetric" else 2
    i, j, s, flag = (x.ravel().astype(np.uint8) for x in np.meshgrid(
        np.arange(len(sa)), np.arange(len(sb)), np.arange(len(su)), np.arange(sides),
        indexing="ij"))
    a_used, b_used, u = AtomSpins(sa, i), AtomSpins(sb, j), AtomSpins(su, s)
    fires_a, fires_b = fires(u, a_used, b_used, None if sides == 1 else flag.astype(bool))
    coincide = fires_a & fires_b
    outcomes = (1, -1)
    p_sigma = np.stack([malus_marginal(u.rows(), a_used.rows(), x) for x in outcomes])
    p_tau = np.stack([malus_marginal((-u).rows(), b_used.rows(), y) for y in outcomes])
    joint = p_sigma[:, None] * p_tau[None] * coincide  # (sigma, tau, hidden variable)
    per_pair = joint.reshape(2, 2, len(sa) * len(sb), -1).sum(axis=3)
    counts = coincide.reshape(len(sa) * len(sb), -1).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        laws = per_pair.transpose(2, 0, 1) / counts[:, None, None]
    overlaps = dot(sa[:, None], sb[None]).ravel()
    return overlaps, laws, coincide.mean()


def _deviation(overlaps, laws):
    """The largest |law - law_table(a.b)| over pairs and cells; NaN if a pair
    has no coincidence."""
    return np.max(np.abs(laws - np.array([law_table(t) for t in overlaps])))


def _is_singlet(mode, rate, overlaps, laws):
    return rate == EXPECTED_EFFICIENCY[mode] and _deviation(overlaps, laws) <= BOUND


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric", "sphere"])
def test_exact_coincidence_laws_are_the_singlet(mode):
    overlaps, laws, rate = _exact_coincidences(mode)
    assert _deviation(overlaps, laws) <= BOUND
    assert rate == EXPECTED_EFFICIENCY[mode]
    cells = {"n_directions": SPHERE_DIRECTIONS} if mode == "sphere" else {}
    report = protocols.run_detection_loophole(4_096, mode, 1, **cells)
    assert report.expected_efficiency == rate


def test_exact_check_fails_a_widened_firing_tolerance(monkeypatch):
    # Two instruction-set directions 1 degree apart: cos(1 deg) = 0.99985
    # clears a tolerance of 1 - 1e-3, so the flagged particle also fires
    # along the neighbour of its setting.
    near = dict(a_deg=(0.0, 90.0), b_deg=(1.0, 135.0))
    overlaps, laws, rate = _exact_coincidences("symmetric", **near)
    assert _is_singlet("symmetric", rate, overlaps, laws)
    monkeypatch.setattr(protocols, "_along", lambda t: np.abs(t) >= 1.0 - 1e-3)
    overlaps, laws, rate = _exact_coincidences("symmetric", **near)
    assert not _is_singlet("symmetric", rate, overlaps, laws)


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric", "sphere"])
def test_exact_check_fails_a_firing_rule_that_ignores_the_flag(mode):
    overlaps, laws, rate = _exact_coincidences(mode, _ignores_the_flag)
    assert not _is_singlet(mode, rate, overlaps, laws)


# ---------------------------------------------------------------------------
# One "setting along +-u" rule on vectors, rows and atom codes

def _table(rng, size):
    """Unit rows with exact antipodes and near misses of each other."""
    rows = rng.normal(size=(size, 3))
    rows /= np.sqrt(dot(rows, rows))[:, None]
    rows[1::3] = -rows[:-1:3][: len(rows[1::3])]
    rows[2::3] = rows[:-2:3][: len(rows[2::3])] + 1e-10
    return rows


def _forms(spins):
    """(form, its rows): spins as AtomSpins, as rows, and each table row as
    one vector."""
    yield spins, spins.rows()
    yield spins.rows(), spins.rows()
    for row in spins.table:
        yield row, row


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6), st.integers(1, 120))
def test_along_axis_is_along_of_dot_on_every_form(seed, n_u, n_x, n):
    # x's table holds u's rows and their antipodes, so some pairs lie along
    # +-u; with few table pairs per trial spin_map reads them pair by pair.
    rng = np.random.default_rng(seed)
    tu = _table(rng, n_u)
    tx = np.vstack([_table(rng, n_x), tu, -tu])
    u = AtomSpins(tu, rng.integers(0, len(tu), n).astype(np.uint8))
    x = AtomSpins(tx, rng.integers(0, len(tx), n).astype(np.uint8))
    for fu, ru in _forms(u):
        for fx, rx in _forms(x):
            expected = protocols._along(dot(ru, rx))
            assert protocols._along_axis(fu, fx).tobytes() == expected.tobytes()
