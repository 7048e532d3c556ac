import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lhvlab.exactlp import feasible_point
from lhvlab.geometry import RandomStream, planar_setting
from lhvlab.inequalities import (CHSH_FACETS, CardDeckModel, FeasibilityResult,
                                 MasterProb16, _CORR_ROWS, _MARG_ROWS, _facet_name,
                                 bayes_chain_check, card_deck_stats,
                                 chsh_analytic, chsh_from_correlators,
                                 chsh_mc, correlator,
                                 counterfactual_correlators, fine_feasibility,
                                 two_deck_example)
from lhvlab.models import MODELS, mixed_law, sample_outcomes, singlet_law, uniform_law

X = planar_setting(0.0)

OPTIMAL = (planar_setting(0.0), planar_setting(90.0),
           planar_setting(45.0), planar_setting(315.0))
# Directions from the maximal-violation figure: b opposite the bisector
# of (a, a2), b2 orthogonal to it.
MAX_E4 = (planar_setting(0.0), planar_setting(90.0),
          planar_setting(225.0), planar_setting(135.0))


# ---------------------------------------------------------------------------
# Correlators and the CHSH statistic


def test_correlator_reference_values():
    assert correlator(singlet_law(X, X)).value == pytest.approx(-1.0)
    assert correlator(uniform_law()).value == 0.0
    b = planar_setting(30.0)
    assert correlator(mixed_law(X, b)).value == -1.0
    assert correlator(mixed_law(X, planar_setting(120.0))).value == 1.0


def test_correlator_from_outcomes():
    sigma = np.array([1.0, 1.0, -1.0, -1.0])
    tau = np.array([1.0, -1.0, 1.0, -1.0])
    est = correlator((sigma, tau))
    assert est.value == 0.0
    assert est.n_trials == 4
    assert abs(est.value) <= 1.0 + 3 * est.std_error
    with pytest.raises(ValueError):
        correlator((np.array([]), np.array([])))


def test_chsh_singlet_reaches_quantum_bound():
    rep = chsh_analytic("singlet", *OPTIMAL)
    assert rep.E == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert rep.exceeds_bell and not rep.exceeds_cirelson


def test_chsh_mixed_reaches_algebraic_bound():
    rep = chsh_analytic("mixed", *MAX_E4)
    assert rep.E == 4.0
    assert rep.exceeds_bell and rep.exceeds_cirelson
    mc = chsh_mc("mixed", *MAX_E4, 10_000, RandomStream(1))
    assert mc.E == 4.0  # the product outcome is deterministic per trial


def test_chsh_extension_scales_linearly():
    rep = chsh_analytic("tb-ext2", *OPTIMAL, p=0.7)
    assert rep.E == pytest.approx(0.7 * 2 * math.sqrt(2), abs=1e-9)
    rep = chsh_analytic("tb-ext1", *OPTIMAL, p=0.75)
    assert rep.E == pytest.approx(0.5 * 2 * math.sqrt(2), abs=1e-9)


def test_chsh_invariant_under_global_relabeling():
    cs = [correlator(singlet_law(x, y))
          for x, y in ((OPTIMAL[0], OPTIMAL[2]), (OPTIMAL[1], OPTIMAL[2]),
                       (OPTIMAL[0], OPTIMAL[3]), (OPTIMAL[1], OPTIMAL[3]))]
    rep = chsh_from_correlators(*cs)
    flipped = [type(c)(-c.value, c.std_error, c.n_trials) for c in cs]
    rep_flipped = chsh_from_correlators(*flipped)
    assert rep.E == pytest.approx(rep_flipped.E)


def test_chsh_report_recomputable():
    rep = chsh_analytic("singlet", *OPTIMAL)
    c = [ce.value for ce in rep.correlators]
    assert rep.E == pytest.approx(abs(c[0] + c[1] + c[2] - c[3]))
    assert rep.E <= 4.0 + 1e-12


# ---------------------------------------------------------------------------
# Master probability and the bound of 2


def test_master_prob_validation():
    with pytest.raises(ValueError):
        MasterProb16([Fraction(1, 16)] * 15)
    with pytest.raises(ValueError):
        MasterProb16([Fraction(1, 8)] * 16)
    bad = [Fraction(1, 8)] * 8 + [Fraction(-1, 8)] + [Fraction(1, 8)] * 7
    with pytest.raises(ValueError):
        MasterProb16(bad)


def test_boole_bound_holds_exactly():
    stream = RandomStream(99)
    worst = Fraction(0)
    for _ in range(10_000):
        m = MasterProb16.random(stream)
        e = m.chsh_value()
        assert e <= 2
        worst = max(worst, e)
    assert worst > 1  # the draw actually explores the polytope


def test_master_prob_uniform_moments():
    m = MasterProb16.uniform()
    assert m.correlators() == (0, 0, 0, 0)
    assert m.marginals() == (0, 0, 0, 0)
    assert m.chsh_value() == 0


# ---------------------------------------------------------------------------
# Exact LP feasibility and the facet criterion


def test_exact_lp_basics():
    # x1 + x2 = 1, x1 - x2 = 1/2 has the solution (3/4, 1/4)
    x = feasible_point([[1, 1], [1, -1]], [1, Fraction(1, 2)])
    assert x == [Fraction(3, 4), Fraction(1, 4)]
    # infeasible: x1 + x2 = 1 with x1 + x2 <= 1/2
    assert feasible_point([[1, 1]], [1], [[1, 1]], [Fraction(1, 2)]) is None
    # inequality-only system
    assert feasible_point([], [], [[1, 0], [0, 1]], [1, 1]) is not None


def test_feasibility_uniform_is_trivial():
    res = fine_feasibility([0, 0, 0, 0])
    assert res.feasible and res.lp_feasible and res.facet_feasible
    assert res.witness.q == MasterProb16.uniform().q


def test_feasibility_singlet_optimal_angles_infeasible():
    s = 1.0 / math.sqrt(2.0)
    res = fine_feasibility([-s, -s, -s, s])
    assert not res.feasible
    assert res.facet_violated.startswith("CHSH[")
    assert res.witness is None


def test_feasibility_rejects_inconsistent_inputs():
    with pytest.raises(ValueError):
        fine_feasibility([1.5, 0, 0, 0])
    with pytest.raises(ValueError):
        fine_feasibility([0, 0, 0, 0], [0, 0, 0, 1.2])


def test_feasibility_witness_reproduces_inputs():
    C = [Fraction(1, 2), Fraction(-1, 4), Fraction(3, 8), Fraction(1, 8)]
    res = fine_feasibility(C)
    assert res.feasible
    assert list(res.witness.correlators()) == C
    assert list(res.witness.marginals()) == [0, 0, 0, 0]


def test_feasibility_with_marginals():
    # Perfect correlations with biased singles are still classical
    # (everything aligned is a valid master), but flipping the sign of the
    # fourth correlator saturates a CHSH facet at 4.
    res = fine_feasibility([1, 1, 1, 1], [Fraction(1, 2)] * 4)
    assert res.feasible
    res = fine_feasibility([1, 1, 1, -1], [Fraction(1, 2)] * 4)
    assert not res.feasible and res.facet_violated.startswith("CHSH[")
    # A marginal/correlator clash trips a pairwise-nonnegativity facet.
    res = fine_feasibility([1, 0, 0, 0], [1, 0, -1, 0])
    assert not res.feasible and res.facet_violated.startswith("pair[")


def test_lp_and_facets_agree_on_random_vectors():
    # Cross-validation of the two criteria; fine_feasibility raises on any
    # disagreement, so this is a pure exercise loop.
    rng = np.random.default_rng(7)
    n_infeasible = 0
    for _ in range(10_000):
        C = [Fraction(int(k), 16) for k in rng.integers(-16, 17, 4)]
        res = fine_feasibility(C)
        n_infeasible += not res.feasible
    assert 0 < n_infeasible < 10_000


# The Fraction-based verdict that the integer one replaced, kept as its
# oracle: every input, range check, right-hand side, facet value and atom
# of the witness is a Fraction.


def fraction_witness(q):
    """MasterProb16(q) as it was built from Fractions: the least common
    total, checked."""
    q = [Fraction(x) for x in q]
    total = math.lcm(*(x.denominator for x in q))
    weights = [x.numerator * (total // x.denominator) for x in q]
    if len(weights) != 16:
        raise ValueError("master probability needs 16 entries")
    if any(w < 0 for w in weights):
        raise ValueError("master probability entries must be nonnegative")
    if sum(weights) != total:
        raise ValueError("master probability must sum to exactly 1")
    return MasterProb16._from_weights(weights, total)


def fraction_facet_check(C, M):
    """The facet test with the inputs as Fractions and the bounds 1 and 2."""
    worst = None
    worst_gap = 0
    pair_m = [(M[0], M[2]), (M[1], M[2]), (M[0], M[3]), (M[1], M[3])]
    pair_names = ["ab", "a2b", "ab2", "a2b2"]
    for i in range(4):
        ma, mb = pair_m[i]
        for s in (1, -1):
            for t in (1, -1):
                val = 1 + s * ma + t * mb + s * t * C[i]
                if val < 0 and -val > worst_gap:
                    worst_gap = -val
                    worst = f"pair[{pair_names[i]}]({s:+d},{t:+d})"
    for signs in CHSH_FACETS:
        val = sum(si * ci for si, ci in zip(signs, C))
        if val > 2 and val - 2 > worst_gap:
            worst_gap = val - 2
            worst = _facet_name(signs)
    return worst is None, worst


def fraction_fine_feasibility(correlators4, marginals4=None, correlator_tol=None):
    C = [Fraction(x) for x in correlators4]
    M = [Fraction(x) for x in (marginals4 if marginals4 is not None else [0, 0, 0, 0])]
    ct = [Fraction(x) for x in (correlator_tol if correlator_tol is not None else [0] * 4)]
    if len(C) != 4 or len(M) != 4 or len(ct) != 4:
        raise ValueError("need 4 correlators, 4 marginals, and 4 tolerances")
    for i, c in enumerate(C):
        if abs(c) > 1 + ct[i]:
            raise ValueError(f"inconsistent input: |C[{i}]| = {float(abs(c))} > "
                             f"{float(1 + ct[i]):.15g}")
    for i, m in enumerate(M):
        if abs(m) > 1:
            raise ValueError(f"inconsistent input: |marginal[{i}]| = {float(abs(m))} > 1")
    A_eq, b_eq, A_ub, b_ub = [[1] * 16], [1], [], []
    for rows, vals, tols in ((_CORR_ROWS, C, ct), (_MARG_ROWS, M, [0] * 4)):
        for row, val, tol in zip(rows, vals, tols):
            if tol == 0:
                A_eq.append(row)
                b_eq.append(val)
            else:
                A_ub += [row, [-x for x in row]]
                b_ub += [val + tol, tol - val]
    x = feasible_point(A_eq, b_eq, A_ub, b_ub)
    lp_feasible = x is not None
    witness = fraction_witness(x) if lp_feasible else None
    if lp_feasible and all(c == 0 for c in C) and all(m == 0 for m in M):
        witness = MasterProb16.uniform()
    relaxed = any(t != 0 for t in ct)
    facet_feasible, violated = fraction_facet_check(C, M)
    if not relaxed and facet_feasible != lp_feasible:
        raise AssertionError(
            f"feasibility cross-validation failed: LP says {lp_feasible}, "
            f"facets say {facet_feasible} for C={[float(c) for c in C]}")
    return FeasibilityResult(lp_feasible, witness, None if lp_feasible else violated,
                             lp_feasible, None if relaxed else facet_feasible)


def _outcome(verdict, *args):
    """The compared fields of a verdict, or the type and text of what it
    raised."""
    try:
        res = verdict(*args)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)
    witness = res.witness and (res.witness.weights, res.witness.total)
    return (res.feasible, res.facet_violated, res.lp_feasible, res.facet_feasible, witness)


# Values of every kind the verdict reads exactly, and now and then one just
# out of range.
IN_RANGE = st.one_of(
    st.integers(-16, 16).map(lambda n: Fraction(n, 16)),
    st.integers(-64, 64).map(lambda n: Fraction(n, 64)),
    st.floats(-1.0, 1.0).map(lambda x: Fraction(x).limit_denominator(10**9)),
    st.integers(0, 30).flatmap(lambda k: st.integers(-2**k, 2**k).map(lambda n: n / 2**k)),
    st.integers(-1, 1),
    st.sampled_from([Decimal("0.25"), np.float64(-0.5), "3/8", True]))
OUT_OF_RANGE = st.sampled_from([Fraction(17, 16), Fraction(-65, 64), -2, 1.5, 1 + 2**-30,
                                Fraction(10**9 + 1, 10**9)])
VALUES = st.integers(0, 39).flatmap(lambda k: OUT_OF_RANGE if k == 0 else IN_RANGE)


def _quartet(values):
    """Mostly four values; now and then three or five."""
    return st.sampled_from((4,) * 10 + (3, 5)).flatmap(
        lambda n: st.lists(values, min_size=n, max_size=n))


# A tolerance is zero in any subset of the four positions, and now and then
# negative.
TOLERANCES = st.one_of(st.none(), _quartet(st.one_of(
    st.just(0), st.just(0.0), st.integers(-2, 12).map(lambda n: Fraction(n, 64)),
    st.floats(0.0, 0.1).map(lambda x: Fraction(x).limit_denominator(10**9)),
    st.integers(0, 8).map(lambda k: 2.0**-k))))
FEASIBILITY_ARGS = st.tuples(_quartet(VALUES), st.one_of(st.none(), _quartet(VALUES)),
                             TOLERANCES)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(FEASIBILITY_ARGS)
@example(([0, 0, 0, 0], None, None))
@example(([0.0, 0, Fraction(0), 0], [0, 0, 0, 0], [0, 0, 0, 0]))
@example(([0, 0, 0, 0], [0, 0, 0, 0], [Fraction(1, 64), 0, 0, 0.5]))
@example(([1.5, 0, 0, 0], None, None))
@example(([0, 0, 0, 0], [0, 0, 0, 1.2], None))
@example(([Fraction(17, 16), 0, 0, 0], None, [Fraction(1, 32), 0, 0, 0]))
@example(([0, 0, 0], None, None))
@example(([0, 0, 0, 0], [0] * 5, None))
@example(([0, 0, 0, float("nan")], None, None))
@example(([0, 0, 0, 0], [None] * 4, None))
@example(([float("inf")] * 4, [0] * 3, None))
def test_integer_verdict_matches_the_fraction_verdict(args):
    assert _outcome(fine_feasibility, *args) == _outcome(fraction_fine_feasibility, *args)


def test_numpy_integers_read_as_python_ints():
    # Fraction(np.int64(k)) keeps the np.int64 as its numerator, which
    # overflowed once scaled by the 1e9-sized common denominator.
    M = [0, 0, Fraction(1, 64), Fraction(775351666, 926193001)]
    for C in ([1, Fraction(296292513, 323432167), 0, 0], [1, 1, 1, 1], [2, 0, 0, 0]):
        as_numpy = [np.int64(x) if type(x) is int else x for x in C]
        assert _outcome(fine_feasibility, as_numpy, M) == _outcome(fine_feasibility, C, M)


def test_counterfactual_correlators_stay_classical():
    a, a2, b, b2 = OPTIMAL
    for model in ("pinned", "hall", "tb-freewill"):
        ests = counterfactual_correlators(model, a, a2, b, b2, 200_000,
                                          RandomStream(55))
        e = abs(ests[0].value + ests[1].value + ests[2].value - ests[3].value)
        assert e <= 2.0 + 3 * sum(x.std_error for x in ests), model
        res = fine_feasibility(
            [Fraction(x.value).limit_denominator(10**6) for x in ests],
            correlator_tol=[Fraction(3 * x.std_error).limit_denominator(10**6)
                            for x in ests])
        assert res.feasible, model


@pytest.mark.parametrize("seed", [61, 62, 63])
@pytest.mark.parametrize("model", [m for m, spec in MODELS.items() if spec.local])
def test_counterfactual_reference_pair_is_the_sampled_law(model, seed):
    # One outcome rule: the frozen batch at the reference pair (a, b) is
    # exactly what the sampler draws there from the same stream.
    a, a2, b, b2 = OPTIMAL
    first = counterfactual_correlators(model, a, a2, b, b2, 20_000, RandomStream(seed))[0]
    assert first == correlator(sample_outcomes(model, a, b, 20_000, RandomStream(seed)))


def test_counterfactual_correlators_need_a_local_model():
    for model in ("tb", "mixed", "singlet", "no-such-model"):
        with pytest.raises(KeyError):
            counterfactual_correlators(model, *OPTIMAL, 100, RandomStream(64))


# ---------------------------------------------------------------------------
# Probability-chain identity


def test_bayes_chain_on_random_laws():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4)).reshape(2, 2)
        res = bayes_chain_check(p)
        assert res.holds and res.n_indeterminate == 0


def test_bayes_chain_with_zero_prefix():
    law = np.array([[0.5, 0.5], [0.0, 0.0]])
    res = bayes_chain_check(law)
    assert res.holds
    assert res.n_indeterminate == 2  # tau-conditionals under the dead branch


def test_bayes_chain_on_card_deck_joint():
    # Joint over (deck, rank at left, color at right).
    joint = np.zeros((2, 2, 2))
    model = two_deck_example()
    for di, mix in enumerate(model.deck_mix):
        pk_b = float(mix) / 2          # King left, Black right
        pq_r = float(mix) / 2          # Queen left (pair mate), Red right
        pk_r = (1 - float(mix)) / 2
        pq_b = (1 - float(mix)) / 2
        joint[di] = 0.5 * np.array([[pk_b, pk_r], [pq_b, pq_r]])
    assert joint.sum() == pytest.approx(1.0)
    res = bayes_chain_check(joint)
    assert res.holds


# ---------------------------------------------------------------------------
# Card-deck counterexample


def test_card_deck_paper_values():
    stats = card_deck_stats(two_deck_example())
    d1, d2 = stats["decks"]
    assert d1["joint"] == Fraction(3, 20)
    assert d1["product"] == Fraction(1, 4)
    assert not d1["factorizes"]
    assert d2["joint"] == Fraction(7, 20)
    assert not stats["all_factorize"]


def test_card_deck_even_mix_factorizes():
    model = CardDeckModel(deck_mix=(Fraction(1, 2),), deck_prior=(Fraction(1),))
    stats = card_deck_stats(model)
    assert stats["decks"][0]["joint"] == Fraction(1, 4)
    assert stats["decks"][0]["factorizes"]
    assert stats["all_factorize"]


def test_card_deck_validation():
    with pytest.raises(ValueError):
        CardDeckModel(deck_mix=(Fraction(3, 2),), deck_prior=(Fraction(1),))
    with pytest.raises(ValueError):
        CardDeckModel(deck_mix=(Fraction(1, 2), Fraction(1, 2)),
                      deck_prior=(Fraction(1, 2), Fraction(1, 3)))
