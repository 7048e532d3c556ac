"""Correlators, CHSH statistics, master-probability feasibility, and the
card-deck factorability counterexample.

The CHSH parameter is checked against three thresholds: 2 (the bound for
any master probability), 2*sqrt(2) (the quantum maximum), and the
algebraic ceiling 4. Feasibility of a correlator/marginal vector against
the master-probability polytope is decided twice, by an exact rational
LP over the 16 outcome atoms and by the facet inequalities, and the two
verdicts are cross-validated.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactlp import _integer_ratios, _integer_scaled, _over_lcm, integer_feasible_point
from .geometry import RandomStream, streamed
from .models import JointLaw2x2, analytic_law, estimate_law, model_spec, outcome_counts

BELL_BOUND = 2.0
CIRELSON_BOUND = 2.0 * math.sqrt(2.0)
ALGEBRAIC_BOUND = 4.0

# Outcome quadruples (sigma, tau, sigma2, tau2) in a fixed order.
_QUAD = list(itertools.product((1, -1), repeat=4))

# Coefficient of each atom in the correlators C(a,b), C(a2,b), C(a,b2),
# C(a2,b2), in the marginals m_a, m_a2, m_b, m_b2, and in
# C(a,b) + C(a2,b) + C(a,b2) - C(a2,b2).
_S, _T, _S2, _T2 = zip(*_QUAD)
_CORR_ROWS = tuple(tuple(x * y for x, y in zip(xs, ys)) for xs, ys in
                   ((_S, _T), (_S2, _T), (_S, _T2), (_S2, _T2)))
_MARG_ROWS = (_S, _S2, _T, _T2)
_CHSH_ROW = tuple(c1 + c2 + c3 - c4 for c1, c2, c3, c4 in zip(*_CORR_ROWS))
_NEGATED_CORR_ROWS = tuple(tuple(-x for x in row) for row in _CORR_ROWS)
_ONES = (1,) * 16
_ZEROS = (0, 0, 0, 0)
# MasterProb16.as_dict's keys, in _QUAD order.
_Q_KEYS = tuple(f"q({s:+d},{t:+d},{s2:+d},{t2:+d})" for s, t, s2, t2 in _QUAD)


@dataclass(frozen=True)
class CorrelatorEstimate:
    """Correlator value with its Monte Carlo uncertainty (0 if analytic)."""

    value: float
    std_error: float = 0.0
    n_trials: int = 0

    def as_dict(self) -> dict:
        return {"value": self.value, "std_error": self.std_error, "n_trials": self.n_trials}


def correlator(source) -> CorrelatorEstimate:
    """Correlator of sigma*tau from a JointLaw2x2 or a pair of outcome arrays.

    For a law counted over n trials, d of which have sigma*tau = -1, the
    value is (n - 2d)/n and the standard error is the ddof=1 one of the +-1
    products, 2 sqrt(d (n - d)/(n - 1))/n (0 at n = 1): the bits of the mean
    of their float64 column, and its std(ddof=1)/sqrt(n) to rounding."""
    law = source if isinstance(source, JointLaw2x2) else JointLaw2x2.from_outcomes(*source)
    n = law.n_trials or 0
    if law.counts is None:
        value = law.correlator()
        se = math.sqrt(max(0.0, 1.0 - value * value) / n) if n else 0.0
        return CorrelatorEstimate(value, se, n)
    d = int(law.counts[0, 1]) + int(law.counts[1, 0])
    se = 2.0 * math.sqrt(d * (n - d) / (n - 1)) / n if n > 1 else 0.0
    return CorrelatorEstimate((n - 2 * d) / n, se, n)


@dataclass
class ChshReport:
    """CHSH statistic E = |C1 + C2 + C3 - C4| and its bound comparisons."""

    E: float
    correlators: tuple
    settings: dict
    exceeds_bell: bool
    exceeds_cirelson: bool

    def as_dict(self) -> dict:
        return {
            "E": self.E,
            "correlators": [c.as_dict() for c in self.correlators],
            "settings": self.settings,
            "exceeds_bell": self.exceeds_bell,
            "exceeds_cirelson": self.exceeds_cirelson,
        }


def chsh_from_correlators(c1: CorrelatorEstimate, c2: CorrelatorEstimate,
                          c3: CorrelatorEstimate, c4: CorrelatorEstimate,
                          settings: dict | None = None) -> ChshReport:
    """Combine C(a,b), C(a2,b), C(a,b2), C(a2,b2); the last enters with a
    minus sign."""
    E = abs(c1.value + c2.value + c3.value - c4.value)
    return ChshReport(
        E=E,
        correlators=(c1, c2, c3, c4),
        settings=settings or {},
        exceeds_bell=E > BELL_BOUND,
        exceeds_cirelson=E > CIRELSON_BOUND,
    )


def _settings_dict(a, a2, b, b2) -> dict:
    return {k: [float(x) for x in v] for k, v in
            (("a", a), ("a2", a2), ("b", b), ("b2", b2))}


def _chsh(law, a, a2, b, b2) -> ChshReport:
    """CHSH from law(x, y) at the four setting pairs, taken in turn."""
    cs = [correlator(law(x, y)) for x, y in ((a, b), (a2, b), (a, b2), (a2, b2))]
    return chsh_from_correlators(*cs, settings=_settings_dict(a, a2, b, b2))


def chsh_analytic(model_id: str, a, a2, b, b2, p: float | None = None) -> ChshReport:
    """CHSH from a model's closed-form law at the four setting pairs."""
    return _chsh(lambda x, y: analytic_law(model_id, x, y, p=p), a, a2, b, b2)


def chsh_mc(model_id: str, a, a2, b, b2, n: int, stream: RandomStream,
            p: float | None = None) -> ChshReport:
    """CHSH from n Monte Carlo trials per setting pair, each pair drawn in
    turn and kept only as its outcome-count table."""
    return _chsh(lambda x, y: estimate_law(model_id, x, y, n, stream, p=p), a, a2, b, b2)


# ---------------------------------------------------------------------------
# Master probability over the four counterfactual outcomes


class MasterProb16:
    """Candidate joint distribution over (sigma, tau, sigma2, tau2) in
    {+-1}^4, held exactly as 16 nonnegative integer weights over one
    positive total."""

    def __init__(self, q):
        self.weights, self.total = _reduced_weights(*_integer_scaled(q))

    @classmethod
    def _from_weights(cls, weights, total) -> "MasterProb16":
        """Trusted constructor: nonnegative ints summing to total > 0."""
        master = cls.__new__(cls)
        master.weights = weights
        master.total = total
        return master

    @classmethod
    def uniform(cls) -> "MasterProb16":
        return cls._from_weights([1] * 16, 16)

    @classmethod
    def random(cls, stream: RandomStream) -> "MasterProb16":
        """Random rational distribution: integer weights below 1000,
        normalized exactly."""
        w = stream.integers(0, 1000, 16).tolist()
        if sum(w) == 0:
            w[0] = 1
        return cls._from_weights(w, sum(w))

    @property
    def q(self) -> list:
        """The 16 atom probabilities as Fractions, in _QUAD order."""
        return [Fraction(w, self.total) for w in self.weights]

    def _moment(self, row) -> Fraction:
        return Fraction(sum(map(operator.mul, row, self.weights)), self.total)

    def correlators(self):
        """Exact (C(a,b), C(a2,b), C(a,b2), C(a2,b2)) induced by the master."""
        return tuple(self._moment(row) for row in _CORR_ROWS)

    def marginals(self):
        """Exact single-outcome means (m_a, m_a2, m_b, m_b2)."""
        return tuple(self._moment(row) for row in _MARG_ROWS)

    def chsh_value(self) -> Fraction:
        return Fraction(abs(sum(map(operator.mul, _CHSH_ROW, self.weights))), self.total)

    def as_dict(self) -> dict:
        total = self.total
        return dict(zip(_Q_KEYS, [w / total for w in self.weights]))


def _reduced_weights(weights, total):
    """(weights, total) divided by their gcd once weights are checked to be
    16 nonnegative ints summing to total > 0; raises ValueError if not."""
    if len(weights) != 16:
        raise ValueError("master probability needs 16 entries")
    if any(w < 0 for w in weights):
        raise ValueError("master probability entries must be nonnegative")
    if sum(weights) != total:
        raise ValueError("master probability must sum to exactly 1")
    g = math.gcd(total, *weights)
    return [w // g for w in weights], total // g


# The 8 facet sign patterns: odd number of -1 coefficients.
CHSH_FACETS = tuple(s for s in itertools.product((1, -1), repeat=4)
                    if s[0] * s[1] * s[2] * s[3] == -1)


def _facet_name(signs) -> str:
    return "CHSH[" + "".join("+" if s > 0 else "-" for s in signs) + "]"


@dataclass
class FeasibilityResult:
    feasible: bool
    witness: MasterProb16 | None
    facet_violated: str | None
    lp_feasible: bool
    facet_feasible: bool | None

    def as_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "witness": self.witness.as_dict() if self.witness else None,
            "facet_violated": self.facet_violated,
            "lp_feasible": self.lp_feasible,
            "facet_feasible": self.facet_feasible,
        }


def _facet_check(C, M, D=1):
    """Exact facet test: pairwise-law nonnegativity plus the 8 CHSH facets,
    on correlators C and marginals M given as integers over D (or as any
    exact numbers, with D = 1). Returns (feasible, worst violated facet
    name or None)."""
    worst = None
    worst_gap = 0
    pair_m = [(M[0], M[2]), (M[1], M[2]), (M[0], M[3]), (M[1], M[3])]
    pair_names = ["ab", "a2b", "ab2", "a2b2"]
    for i in range(4):
        ma, mb = pair_m[i]
        for s in (1, -1):
            for t in (1, -1):
                val = D + s * ma + t * mb + s * t * C[i]
                if val < 0 and -val > worst_gap:
                    worst_gap = -val
                    worst = f"pair[{pair_names[i]}]({s:+d},{t:+d})"
    for signs in CHSH_FACETS:
        val = sum(si * ci for si, ci in zip(signs, C))
        if val > 2 * D and val - 2 * D > worst_gap:
            worst_gap = val - 2 * D
            worst = _facet_name(signs)
    return worst is None, worst


def fine_feasibility(correlators4, marginals4=None, correlator_tol=None) -> FeasibilityResult:
    """Decide whether a master probability reproduces the given pairwise
    correlators (order: C(a,b), C(a2,b), C(a,b2), C(a2,b2)) and single
    marginals (m_a, m_a2, m_b, m_b2; default 0).

    Two independent criteria run: (i) exact phase-1 LP over the 16
    nonnegative atoms, (ii) the facet inequalities (pairwise-law
    nonnegativity plus the 8 CHSH facets). With zero tolerances they are
    cross-validated and any disagreement raises. With nonzero tolerances
    each correlator is relaxed to a band (for Monte Carlo estimates) up to
    |C[i]| <= 1 + tol[i], and the LP alone decides.
    """
    ratios = [_integer_ratios(values) for values in (
        correlators4,
        marginals4 if marginals4 is not None else _ZEROS,
        correlator_tol if correlator_tol is not None else _ZEROS)]
    if any(len(r) != 4 for r in ratios):
        raise ValueError("need 4 correlators, 4 marginals, and 4 tolerances")
    # Everything below is in integers over one common denominator D.
    scaled, D = _over_lcm([*ratios[0], *ratios[1], *ratios[2]])
    C, M, ct = scaled[:4], scaled[4:8], scaled[8:]
    for i, c in enumerate(C):
        if abs(c) > D + ct[i]:
            raise ValueError(f"inconsistent input: |C[{i}]| = {abs(c) / D} > "
                             f"{(D + ct[i]) / D:.15g}")
    for i, m in enumerate(M):
        if abs(m) > D:
            raise ValueError(f"inconsistent input: |marginal[{i}]| = {abs(m) / D} > 1")

    A_eq = [_ONES]
    b_eq = [D]
    A_ub = []
    b_ub = []
    for row, negated, val, tol in zip(_CORR_ROWS, _NEGATED_CORR_ROWS, C, ct):
        if tol == 0:
            A_eq.append(row)
            b_eq.append(val)
        else:
            A_ub += (row, negated)
            b_ub += (val + tol, tol - val)
    A_eq += _MARG_ROWS
    b_eq += M

    # The point sums to D, so the witness is its numerators over D times
    # its denominator.
    point = integer_feasible_point(A_eq, b_eq, A_ub, b_ub)
    lp_feasible = point is not None
    witness = None
    if lp_feasible:
        x, denom = point
        witness = MasterProb16._from_weights(*_reduced_weights(x, D * denom))
        if not any(C) and not any(M):
            witness = MasterProb16.uniform()  # canonical witness for the trivial input

    relaxed = any(ct)
    facet_feasible, violated = _facet_check(C, M, D)
    if not relaxed and facet_feasible != lp_feasible:
        raise AssertionError(
            f"feasibility cross-validation failed: LP says {lp_feasible}, "
            f"facets say {facet_feasible} for C={[c / D for c in C]}")
    feasible = lp_feasible
    return FeasibilityResult(
        feasible=feasible,
        witness=witness,
        facet_violated=None if feasible else violated,
        lp_feasible=lp_feasible,
        facet_feasible=None if relaxed else facet_feasible,
    )


def counterfactual_correlators(model_id: str, a, a2, b, b2, n: int,
                               stream: RandomStream):
    """Correlators at the four setting pairs evaluated on a single frozen
    batch of hidden variables.

    The hidden variables are drawn once from the model's distribution at
    the reference pair (a, b); outcomes at every setting pair are then
    computed from the same draw by the model's local outcome rule (with
    common per-side noise for the stochastic model), which is the
    counterfactual reading under which a master probability exists.
    As sigma reads only its own setting and tau only its own (see
    ModelSpec), each side is evaluated once per setting: the rule runs at
    (a, b) and at (a2, b2), and the four pairs are counted from the two.
    """
    spec = model_spec(model_id)
    if not spec.local:
        raise KeyError(f"no counterfactual sampler for model {model_id!r}")
    hidden = spec.draw(a, b, n, stream, None)

    def counts(rows):
        h = hidden(rows)
        (s, t), (s2, t2) = spec.outcomes(h, a, b), spec.outcomes(h, a2, b2)
        pairs = ((s, t), (s2, t), (s, t2), (s2, t2))
        return np.array([outcome_counts(x, y)[0] for x, y in pairs])
    return tuple(correlator(JointLaw2x2.from_counts(c)) for c in sum(streamed(n, counts)))


# ---------------------------------------------------------------------------
# Probability-chain identity and the card-deck counterexample


@dataclass
class BayesChainResult:
    holds: bool
    n_indeterminate: int
    max_error: float


def bayes_chain_check(joint, tol: float = 1e-12) -> BayesChainResult:
    """Verify P(e_1..e_k) = prod_j P(e_j | e_1..e_{j-1}) on a finite joint.

    Conditionals with a zero-probability prefix are 0/0; they are marked
    indeterminate and skipped, and the product over the defined factors
    must still match the probability of the longest defined prefix.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.size == 0 or abs(float(joint.sum()) - 1.0) > 1e-9:
        raise ValueError("joint must be a normalized probability table")
    k = joint.ndim
    n_indeterminate = 0
    max_error = 0.0
    for idx in itertools.product(*(range(s) for s in joint.shape)):
        prev = 1.0
        product = 1.0
        defined_prefix_prob = 1.0
        for j in range(k):
            prefix_prob = float(joint[idx[: j + 1]].sum()) if j + 1 < k else float(joint[idx])
            if prev == 0.0:
                n_indeterminate += k - j
                break
            product *= prefix_prob / prev
            defined_prefix_prob = prefix_prob
            prev = prefix_prob
        max_error = max(max_error, abs(product - defined_prefix_prob))
        if prev == 0.0 and float(joint[idx]) != 0.0:
            # impossible by monotonicity of prefixes; guards table errors
            return BayesChainResult(False, n_indeterminate, math.inf)
    return BayesChainResult(max_error <= tol, n_indeterminate, max_error)


@dataclass(frozen=True)
class CardDeckModel:
    """Two-card dealer: each pair holds one King and one Queen, one Black
    and one Red card; deck_mix[i] is deck i's fraction of (King-Red,
    Queen-Black) pairs, the rest being (King-Black, Queen-Red)."""

    deck_mix: tuple
    deck_prior: tuple

    def __post_init__(self):
        mix = tuple(Fraction(x) for x in self.deck_mix)
        prior = tuple(Fraction(x) for x in self.deck_prior)
        object.__setattr__(self, "deck_mix", mix)
        object.__setattr__(self, "deck_prior", prior)
        if len(mix) != len(prior):
            raise ValueError("need one prior per deck")
        if any(not 0 <= x <= 1 for x in mix):
            raise ValueError("deck mixes must lie in [0, 1]")
        if sum(prior) != 1:
            raise ValueError("deck priors must sum to exactly 1")


def two_deck_example() -> CardDeckModel:
    """The two-deck example: 30/70 and 70/30 mixes, decks equally likely."""
    return CardDeckModel(deck_mix=(Fraction(3, 10), Fraction(7, 10)),
                         deck_prior=(Fraction(1, 2), Fraction(1, 2)))


def card_deck_stats(model: CardDeckModel) -> dict:
    """Exact per-deck joint P(King at left, Black at right | deck), the
    product of the corresponding marginals, and the factorability flag.

    The left observer gets each card of the extracted pair with
    probability 1/2; a (King-Red, Queen-Black) pair yields the joint
    event only when the King goes left.
    """
    decks = []
    for mix in model.deck_mix:
        joint = mix / 2
        p_king = Fraction(1, 2)
        p_black = Fraction(1, 2)
        product = p_king * p_black
        decks.append({
            "joint": joint,
            "p_king": p_king,
            "p_black": p_black,
            "product": product,
            "factorizes": joint == product,
        })
    return {"decks": decks,
            "all_factorize": all(d["factorizes"] for d in decks)}
