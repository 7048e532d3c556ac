import math
from fractions import Fraction

import numpy as np
import pytest

from lhvlab.exactlp import feasible_point
from lhvlab.geometry import RandomStream, planar_setting
from lhvlab.inequalities import (CardDeckModel, MasterProb16,
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
