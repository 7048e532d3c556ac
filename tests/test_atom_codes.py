"""The finite models' atom codes and the one-byte cells of outcome_counts.

The pinned and mixed models draw each trial's hidden spin as one byte, a
row of the table [a, -a, -b, b], and their rules read u.x once per row.
Their outcomes on drawn atoms are checked bit for bit against the same
rules on the materialized per-trial rows. outcome_counts codes each
trial's (group, sigma, tau) cell in one byte while 4 n_groups <= 256; it is
checked against the bincount of 4 group + 2 ~s + ~t it replaces.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lhvlab.geometry import RandomStream, X_HAT, Y_HAT, dot, planar_setting, sphere_point
from lhvlab.models import MODELS, AtomSpins, outcome_counts

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Pairs whose a.b is an exact +0 and an exact -0.
PLUS_ZERO = (X_HAT, Y_HAT)
MINUS_ZERO = (np.array([1.0, -0.0, -0.0]), np.array([-0.0, 1.0, 0.0]))
UNIT = st.builds(lambda z, turns: sphere_point(z, turns),
                 st.floats(-1.0, 1.0), st.floats(0.0, 1.0, exclude_max=True))
PAIRS = st.one_of(
    st.sampled_from([PLUS_ZERO, MINUS_ZERO, (planar_setting(12.0), planar_setting(102.0))]),
    st.tuples(UNIT, UNIT),
    UNIT.map(lambda a: (a, a)),
    UNIT.map(lambda a: (a, -a)),
)
# The rule's settings, as signed picks of the draw's a and b or a new unit.
PICK = st.one_of(st.sampled_from(["a", "-a", "b", "-b"]), UNIT)


def _same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    return (got.dtype == expected.dtype and got.shape == expected.shape
            and got.tobytes() == expected.tobytes())


def _setting(pick, a, b):
    if isinstance(pick, str):
        x = a if pick[-1] == "a" else b
        return -x if pick[0] == "-" else x
    return pick


def _materialized(hidden):
    return tuple(x.rows() if isinstance(x, AtomSpins) else x for x in hidden)


def test_the_signed_zero_pairs_are_signed_zeros():
    assert dot(*PLUS_ZERO) == 0.0 and math.copysign(1.0, dot(*PLUS_ZERO)) == 1.0
    assert dot(*MINUS_ZERO) == 0.0 and math.copysign(1.0, dot(*MINUS_ZERO)) == -1.0


@PROPERTY
@given(st.sampled_from(["pinned", "mixed"]), PAIRS, PICK, PICK,
       st.sampled_from([1, 65_535, 65_537]), st.integers(0, 2**32))
def test_rules_on_atom_codes_are_the_rules_on_their_rows(model, pair, px, py, n, seed):
    a, b = pair
    spec = MODELS[model]
    hidden = spec.draw(a, b, n, RandomStream(seed, 1), None)(slice(0, n))
    assert isinstance(hidden[0], AtomSpins) and hidden[0].code.dtype == np.uint8
    rows = _materialized(hidden)
    for x, y in ((a, b), (_setting(px, a, b), _setting(py, a, b))):
        got, expected = spec.outcomes(hidden, x, y), spec.outcomes(rows, x, y)
        assert all(_same_bits(g, e) for g, e in zip(got, expected))
        # Per-trial setting rows take the materialized path and agree too.
        x_rows, y_rows = (np.broadcast_to(v, (n, 3)) for v in (x, y))
        got = spec.outcomes(hidden, x_rows, y_rows)
        assert all(_same_bits(g, e) for g, e in zip(got, expected))


def _old_outcome_counts(sigma, tau, group=0, n_groups=1):
    s, t = np.asarray(sigma) > 0, np.asarray(tau) > 0
    return np.bincount(np.ravel(4 * np.asarray(group, dtype=np.int64) + 2 * ~s + ~t),
                       minlength=4 * n_groups).reshape(n_groups, 2, 2)


def _outcomes(n, seed):
    w = RandomStream(seed, 1).uniform((3, n))
    sigma, tau = np.sign(w[0] - 0.3), np.sign(w[1] - 0.6)
    sigma[::17], tau[::19], sigma[5::23], tau[3::29] = math.nan, -0.0, 0.0, math.nan
    return sigma, tau, w[2]


@pytest.mark.parametrize("n_groups", [1, 5, 12, 64, 65])
def test_grouped_outcome_counts_are_the_bincount_formula(n_groups):
    sigma, tau, w = _outcomes(70_001, n_groups)
    group = (w * n_groups).astype(np.int64)
    group[:n_groups] = np.arange(n_groups)  # every group, the last included
    for g in (group, group.astype(np.min_scalar_type(n_groups - 1))):
        assert _same_bits(outcome_counts(sigma, tau, g, n_groups),
                          _old_outcome_counts(sigma, tau, g, n_groups))
    for g in (0, n_groups - 1):  # one scalar group for every trial
        assert _same_bits(outcome_counts(sigma, tau, g, n_groups),
                          _old_outcome_counts(sigma, tau, g, n_groups))


@pytest.mark.parametrize("n_groups", [5, 12, 64, 65])
def test_grouped_outcome_counts_broadcast_like_the_bincount_formula(n_groups):
    sigma = np.array([[1.0], [-1.0], [math.nan], [-0.0]])
    tau = np.array([1.0, -0.0, 0.0, -1.0, math.nan])
    group = np.array([0, n_groups - 1, 1, 2, n_groups // 2])
    for s, t, g in ((sigma, tau, group), (sigma, tau, group[:, None][:4]), (1.0, tau, group),
                    (sigma, -1.0, n_groups - 1), (np.array([]), np.array([]), np.array([], int))):
        assert _same_bits(outcome_counts(s, t, g, n_groups),
                          _old_outcome_counts(s, t, g, n_groups))


@pytest.mark.parametrize("n_groups", [1, 5, 12, 64, 65])
def test_grouped_outcome_counts_refuse_a_group_out_of_range(n_groups):
    # In one byte, 4 * 70 would wrap to the cell of group 6: it must not.
    for value in (-1, n_groups, n_groups + 1, 64, 70, 256, 2**40):
        if 0 <= value < n_groups:
            continue  # 64 is in range at 65 groups
        group = np.zeros(100, np.int64)
        group[37] = value
        with pytest.raises(ValueError):
            outcome_counts(np.ones(100), np.ones(100), group, n_groups)
        with pytest.raises(ValueError):
            outcome_counts(np.ones(100), np.ones(100), value, n_groups)
