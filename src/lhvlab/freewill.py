"""Measurement-dependence quantifiers on discretized models.

Two measures of how strongly the hidden variables constrain the setting
choices: the total-variation measure M (supremum over setting pairs of
the L1 distance between the conditional hidden-variable distributions)
and the mutual information between the settings pair and the hidden
variables under uniform independent setting priors.

Conditional weights are exact rationals; entropies are evaluated in
floating point, which is exact whenever the grid size is a power of two.
The continuous-setting limit of the mutual information diverges, so only
discretized models are quantified here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class DiscretizedModel:
    """Finite-setting model: n_a choices for the first station, n_b for
    the second (uniform independent priors), and for every settings pair
    a finite conditional distribution over hidden-variable atoms.

    conditional[(i, j)] maps atom keys to exact Fraction weights that sum
    to 1 for each pair.
    """

    n_a: int
    n_b: int
    conditional: dict

    def __post_init__(self):
        for (i, j), dist in self.conditional.items():
            if not (0 <= i < self.n_a and 0 <= j < self.n_b):
                raise ValueError(f"settings index {(i, j)} out of range")
            if sum(dist.values()) != 1:
                raise ValueError(f"conditional weights at {(i, j)} must sum to exactly 1")
            if any(w < 0 for w in dist.values()):
                raise ValueError("conditional weights must be nonnegative")
        if len(self.conditional) != self.n_a * self.n_b:
            raise ValueError("need one conditional distribution per settings pair")


def discretized_setting_tied_model(n: int) -> DiscretizedModel:
    """Discretization of the setting-tied atomic model on n directions
    per side.

    Atoms are (c, d, side, index): c = 0 pins the hidden spin to d * a_i,
    c = 1 pins it to -d * b_j. They are keyed by side and index, not by
    direction, so the four atoms of every settings pair are distinct.
    """
    if n < 2:
        raise ValueError("need at least two settings per side")
    conditional = {}
    quarter = Fraction(1, 4)
    for i in range(n):
        for j in range(n):
            dist = {}
            for d in (1, -1):
                dist[(0, d, "a", i)] = quarter
                dist[(1, d, "b", j)] = quarter
            conditional[(i, j)] = dist
    return DiscretizedModel(n_a=n, n_b=n, conditional=conditional)


def setting_independent_model(n: int) -> DiscretizedModel:
    """Hidden variable ignores the settings entirely: M = 0, I = 0."""
    dist = {("atom", k): Fraction(1, 4) for k in range(4)}
    conditional = {(i, j): dict(dist) for i in range(n) for j in range(n)}
    return DiscretizedModel(n_a=n, n_b=n, conditional=conditional)


def dictated_settings_model(n: int) -> DiscretizedModel:
    """The hidden variable determines both settings: I reaches its
    maximum 2*log2(n), the total absence of free choice."""
    conditional = {(i, j): {("pair", i, j): Fraction(1)}
                   for i in range(n) for j in range(n)}
    return DiscretizedModel(n_a=n, n_b=n, conditional=conditional)


def measure_M(model: DiscretizedModel) -> float:
    """sup over setting pairs of sum_lambda |mu(lambda|a,b) - mu(lambda|a',b')|.

    Computed in exact rational arithmetic, then converted; the value lies
    in [0, 2] and 2 means no setting freedom at all by this measure.
    """
    pairs = list(model.conditional)
    best = Fraction(0)
    for x in range(len(pairs)):
        dx = model.conditional[pairs[x]]
        for y in range(x + 1, len(pairs)):
            dy = model.conditional[pairs[y]]
            keys = set(dx) | set(dy)
            dist = sum(abs(dx.get(k, Fraction(0)) - dy.get(k, Fraction(0))) for k in keys)
            if dist > best:
                best = dist
                if best == 2:
                    return 2.0
    return float(best)


@dataclass(frozen=True)
class FreeWillReport:
    M: float
    I_bits: float
    I_max_bits: float
    n_a: int
    n_b: int

    def as_dict(self) -> dict:
        return {"M": self.M, "I_bits": self.I_bits, "I_max_bits": self.I_max_bits,
                "n_a": self.n_a, "n_b": self.n_b}


def mutual_information(model: DiscretizedModel) -> FreeWillReport:
    """I(settings : lambda) by exact enumeration of the joint distribution.

    Decomposed as H(a,b) - sum_lambda p(lambda) H(a,b | lambda) with the
    settings prior uniform and independent; I_max = log2(n_a * n_b).
    """
    prior = Fraction(1, model.n_a * model.n_b)
    # p(lambda) and the conditional p(a,b | lambda)
    p_lambda: dict = {}
    joint: dict = {}
    for pair, dist in model.conditional.items():
        for atom, w in dist.items():
            if w == 0:
                continue
            p_lambda[atom] = p_lambda.get(atom, Fraction(0)) + prior * w
            joint[(pair, atom)] = prior * w

    h_settings = math.log2(model.n_a * model.n_b)
    h_cond = 0.0
    for atom, pl in p_lambda.items():
        h_atom = 0.0
        for pair in model.conditional:
            pj = joint.get((pair, atom))
            if pj:
                q = pj / pl
                h_atom -= float(q) * math.log2(float(q))
        h_cond += float(pl) * h_atom
    i_bits = h_settings - h_cond
    return FreeWillReport(
        M=measure_M(model),
        I_bits=i_bits,
        I_max_bits=h_settings,
        n_a=model.n_a,
        n_b=model.n_b,
    )
