"""Measurement-dependence quantifiers on discretized models.

Two measures of how strongly the hidden variables constrain the setting
choices: the total-variation measure M (supremum over setting pairs of
the L1 distance between the conditional hidden-variable distributions)
and the mutual information between the settings pair and the hidden
variables under uniform independent setting priors.

Each conditional distribution is held as a row of integers over one
common denominator D, the lcm of the weights' denominators, built and
checked once when the model is made, so M is exact: int64 numpy blocks
while 2D fits in int64, Python ints beyond.
Entropies are evaluated in floating point from the same integers, each
probability a correctly rounded integer quotient; they are exact
whenever the grid size is a power of two. The continuous-setting limit
of the mutual information diverges, so only discretized models are
quantified here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_BLOCK = 1 << 16  # int64 elements per block of the pairwise L1 scan


@dataclass(frozen=True)
class DiscretizedModel:
    """Finite-setting model: n_a choices for the first station, n_b for
    the second (uniform independent priors), and for every settings pair
    a finite conditional distribution over hidden-variable atoms.

    conditional[(i, j)] maps atom keys to exact weights (int or Fraction)
    that sum to 1 for each pair, checked on the rows of _integer_rows.
    """

    n_a: int
    n_b: int
    conditional: dict

    def __post_init__(self):
        for (i, j), dist in self.conditional.items():
            if not (0 <= i < self.n_a and 0 <= j < self.n_b):
                raise ValueError(f"settings index {(i, j)} out of range")
            if not all(isinstance(w, (int, Fraction)) for w in dist.values()):
                raise ValueError(f"conditional weights at {(i, j)} must be int or Fraction")
        denom, rows, n_atoms = _integer_rows(self.conditional.values())
        for (i, j), row in zip(self.conditional, rows):
            if sum(row.values()) != denom:
                raise ValueError(f"conditional weights at {(i, j)} must sum to exactly 1")
            if any(w < 0 for w in row.values()):
                raise ValueError("conditional weights must be nonnegative")
        if len(self.conditional) != self.n_a * self.n_b:
            raise ValueError("need one conditional distribution per settings pair")
        object.__setattr__(self, "_rows", (denom, rows, n_atoms))


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


def _integer_rows(dists) -> tuple[int, list, int]:
    """(D, rows, number of atoms): rows[k] is the k-th distribution of
    dists as {atom index: weight * D}, nonzero weights only.

    Atoms are indexed in order of their first nonzero weight, scanning
    the distributions and each one in order.
    """
    denom = math.lcm(*(w.denominator for dist in dists for w in dist.values()))
    index: dict = {}
    rows = [{index.setdefault(atom, len(index)): w.numerator * (denom // w.denominator)
             for atom, w in dist.items() if w} for dist in dists]
    return denom, rows, len(index)


def _sup_l1(denom: int, rows: list, n_atoms: int) -> float:
    """Largest L1 distance between two rows, over D."""
    unique = list({tuple(sorted(row.items())): row for row in rows}.values())
    if len(unique) < 2:
        return 0.0
    if 2 * denom >= 2**63:  # a sum of |differences| could overflow int64
        dense = [[row.get(k, 0) for k in range(n_atoms)] for row in unique]
        best = max(sum(abs(x - y) for x, y in zip(u, v))
                   for i, u in enumerate(dense) for v in dense[i + 1:])
        return best / denom
    dense = np.zeros((len(unique), n_atoms), dtype=np.int64)
    at, atom, weight = zip(*((i, k, w) for i, row in enumerate(unique) for k, w in row.items()))
    dense[at, atom] = weight
    step = max(1, math.isqrt(_BLOCK // n_atoms))
    best = 0
    for i in range(0, len(unique), step):
        block = dense[i:i + step, None, :]
        for j in range(i, len(unique), step):
            best = max(best, int(np.abs(block - dense[None, j:j + step]).sum(axis=2).max()))
            if best == 2 * denom:
                return 2.0
    return best / denom


def measure_M(model: DiscretizedModel) -> float:
    """sup over setting pairs of sum_lambda |mu(lambda|a,b) - mu(lambda|a',b')|.

    Computed exactly on integer rows, then converted; the value lies in
    [0, 2] and 2 means no setting freedom at all by this measure.
    """
    return _sup_l1(*model._rows)


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
    With integer weights w over D, p(lambda) = sum_pairs w / (D n_a n_b)
    and p(a,b | lambda) = w / sum_pairs w. I is a KL divergence, so it is
    never negative: a difference that rounds below 0 is reported as 0.
    """
    denom, rows, n_atoms = model._rows
    columns: list = [[] for _ in range(n_atoms)]
    for row in rows:
        for k, w in row.items():
            columns[k].append(w)
    h_settings = math.log2(model.n_a * model.n_b)
    scale = denom * model.n_a * model.n_b
    h_cond = 0.0
    for weights in columns:
        total = sum(weights)
        h_atom = 0.0
        for w in weights:
            q = w / total
            h_atom -= q * math.log2(q)
        h_cond += total / scale * h_atom
    i_bits = max(0.0, h_settings - h_cond)
    return FreeWillReport(
        M=_sup_l1(denom, rows, n_atoms),
        I_bits=i_bits,
        I_max_bits=h_settings,
        n_a=model.n_a,
        n_b=model.n_b,
    )
