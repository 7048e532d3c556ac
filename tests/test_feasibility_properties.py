"""Property tests: the exact LP against Fine's facets on random rational
correlators with nonzero marginals, including points exactly on a facet."""

from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from lhvlab import exactlp
from lhvlab.inequalities import CHSH_FACETS, _facet_check, fine_feasibility
from test_exactlp import packed_lanes

SIXTEENTHS = st.integers(-16, 16).map(lambda k: Fraction(k, 16))
QUARTET = st.lists(SIXTEENTHS, min_size=4, max_size=4)
# Small marginals leave room for feasible points; large ones test the
# pairwise facets.
MARGINALS = st.sampled_from((2, 4, 16)).flatmap(
    lambda r: st.lists(st.integers(-r, r).map(lambda k: Fraction(k, 16)),
                       min_size=4, max_size=4)).filter(any)
# Marginal pair (index into M) behind each correlator's pairwise law.
PAIR_MARGINALS = ((0, 2), (1, 2), (0, 3), (1, 3))


@st.composite
def on_chsh_facet(draw):
    """C with sum(signs * C) == 2 for one CHSH sign pattern."""
    signs = draw(st.sampled_from(CHSH_FACETS))
    # x[j] = 16 * signs[j] * C[j]; x[3] takes what the facet needs.
    x = [draw(st.integers(-16, 16))]
    target = 32 - x[0]  # x[1] + x[2] + x[3]
    x.append(draw(st.integers(max(-16, target - 32), min(16, target + 32))))
    x.append(draw(st.integers(max(-16, target - x[1] - 16), min(16, target - x[1] + 16))))
    x.append(target - x[1] - x[2])
    order = draw(st.permutations(range(4)))
    C = [signs[j] * Fraction(x[order[j]], 16) for j in range(4)]
    return C, draw(MARGINALS)


@st.composite
def on_pair_facet(draw):
    """C, M with 1 + s*ma + t*mb + s*t*C[i] == 0 for one pairwise law."""
    C = draw(QUARTET)
    M = draw(MARGINALS)
    i = draw(st.integers(0, 3))
    s, t = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
    u, v = draw(SIXTEENTHS.map(abs)), draw(SIXTEENTHS.map(abs))
    ja, jb = PAIR_MARGINALS[i]
    M[ja], M[jb] = -s * u, -t * v
    C[i] = -s * t * (1 - u - v)
    return C, M


_pivot = exactlp._pivot


def _checked_pivot(tableau, column, leave, d):
    """exactlp._pivot, asserting a positive pivot and exact divisions."""
    rows, rhs, bits = tableau
    p = column[leave]
    assert p > 0 and d > 0
    count = max(v.bit_length() for v in rows) // bits + 1  # every lane
    piv_row = packed_lanes(rows[leave], bits, count) + [rhs[leave]]
    for i, f in enumerate(column):  # the objective row is the last
        if i != leave:
            row = packed_lanes(rows[i], bits, count) + [rhs[i]]
            assert all((x * p - f * y) % d == 0 for x, y in zip(row, piv_row))
    return _pivot(tableau, column, leave, d)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.tuples(QUARTET, MARGINALS), on_chsh_facet(), on_pair_facet()))
def test_lp_matches_facets_with_marginals(case):
    C, M = case
    with mock.patch.object(exactlp, "_pivot", _checked_pivot):
        res = fine_feasibility(C, M)
    assert res.lp_feasible == _facet_check(C, M)[0]
    if res.lp_feasible:
        q = res.witness.q
        assert all(x >= 0 for x in q) and sum(q) == 1
        assert list(res.witness.correlators()) == C
        assert list(res.witness.marginals()) == M
    else:
        assert res.witness is None and res.facet_violated is not None
