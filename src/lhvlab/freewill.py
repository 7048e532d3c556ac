"""Measurement-dependence quantifiers on discretized models.

Two measures of how strongly the hidden variables constrain the setting
choices: the total-variation measure M (supremum over setting pairs of
the L1 distance between the conditional hidden-variable distributions)
and the mutual information between the settings pair and the hidden
variables under uniform independent setting priors.

Each conditional distribution is held as a sparse row of integers over
one common denominator D, the lcm of the weights' denominators, built
and checked in one pass when the model is made, so M is exact. Every
row is nonnegative and sums to D, so M comes from the overlaps
sum_k min(u_k, v_k) on the atoms that two or more distinct rows hold
(int64 while 2D fits in int64, Python ints beyond), and a pair of rows
that overlap nowhere settles M = 2 at once.
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
from itertools import chain

import numpy as np

_BLOCK = 1 << 14  # elements per block of the pairwise overlap scan


@dataclass(frozen=True)
class DiscretizedModel:
    """Finite-setting model: n_a choices for the first station, n_b for
    the second (uniform independent priors), and for every settings pair
    a finite conditional distribution over hidden-variable atoms.

    conditional[(i, j)] maps atom keys to exact weights (int or Fraction)
    that sum to 1 for each pair, checked by _integer_rows.
    """

    n_a: int
    n_b: int
    conditional: dict

    def __post_init__(self):
        for field in ("n_a", "n_b"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be at least 1")
        rows = _integer_rows(self)
        if len(self.conditional) != self.n_a * self.n_b:
            raise ValueError("need one conditional distribution per settings pair")
        object.__setattr__(self, "_rows", rows)


def discretized_setting_tied_model(n: int) -> DiscretizedModel:
    """Discretization of the setting-tied atomic model on n directions
    per side.

    Atoms are (c, d, side, index): c = 0 pins the hidden spin to d * a_i,
    c = 1 pins it to -d * b_j. They are keyed by side and index, not by
    direction, so the four atoms of every settings pair are distinct.
    """
    if n < 2:
        raise ValueError("need at least two settings per side")
    quarter = Fraction(1, 4)
    a = [((0, 1, "a", i), (0, -1, "a", i)) for i in range(n)]
    b = [((1, 1, "b", j), (1, -1, "b", j)) for j in range(n)]
    conditional = {(i, j): {a[i][0]: quarter, b[j][0]: quarter, a[i][1]: quarter, b[j][1]: quarter}
                   for i in range(n) for j in range(n)}
    return DiscretizedModel(n_a=n, n_b=n, conditional=conditional)


def setting_independent_model(n: int) -> DiscretizedModel:
    """Hidden variable ignores the settings entirely: M = 0, I = 0."""
    dist = {("atom", k): Fraction(1, 4) for k in range(4)}
    conditional = {(i, j): dict(dist) for i in range(n) for j in range(n)}
    return DiscretizedModel(n_a=n, n_b=n, conditional=conditional)


def dictated_settings_model(n: int) -> DiscretizedModel:
    """The hidden variable determines both settings: I reaches its
    maximum 2*log2(n), the total absence of free choice."""
    one = Fraction(1)
    conditional = {(i, j): {("pair", i, j): one} for i in range(n) for j in range(n)}
    return DiscretizedModel(n_a=n, n_b=n, conditional=conditional)


def _integer_rows(model) -> tuple[int, list, int]:
    """(D, rows, number of atoms) for model.conditional, checked in one pass.

    rows[k] is the k-th distribution as (atom indices, weights * D), two
    tuples over its nonzero weights, and D is the lcm of the weights'
    denominators. Atoms are indexed in order of their first nonzero
    weight, scanning the distributions and each one in order. The first
    faulty pair raises, for its index, its weight types, its sum or its
    signs, in that order.
    """
    n_a, n_b = model.n_a, model.n_b
    denom, index, rows, denoms = 1, {}, [], []
    for (i, j), dist in model.conditional.items():
        if not (0 <= i < n_a and 0 <= j < n_b):
            raise ValueError(f"settings index {(i, j)} out of range")
        atoms, weights = [], []
        for atom, w in dist.items():
            if not isinstance(w, (int, Fraction)):
                raise ValueError(f"conditional weights at {(i, j)} must be int or Fraction")
            num, den = w.as_integer_ratio()
            if num:
                if den != denom:
                    if denom % den:  # D grows; this row's weights so far grow with it
                        grow = den // math.gcd(denom, den)
                        denom *= grow
                        weights = [x * grow for x in weights]
                    num *= denom // den
                atoms.append(index.setdefault(atom, len(index)))
                weights.append(num)
        if sum(weights) != denom:
            raise ValueError(f"conditional weights at {(i, j)} must sum to exactly 1")
        if min(weights) < 0:
            raise ValueError("conditional weights must be nonnegative")
        rows.append((tuple(atoms), tuple(weights)))
        denoms.append(denom)
    if denoms and denoms[0] != denom:  # rows built before D last grew
        rows = [row if d == denom else (row[0], tuple(x * (denom // d) for x in row[1]))
                for row, d in zip(rows, denoms)]
    return denom, rows, len(index)


def _sup_l1(denom: int, rows: list, n_atoms: int) -> float:
    """Largest L1 distance between two rows, over D.

    Every row is nonnegative and sums to D, so L1(u, v) = 2D - 2 sum_k
    min(u_k, v_k): only atoms held by two or more distinct rows enter an
    overlap, and two rows that overlap nowhere are at the largest
    distance, 2D. The rows are scanned in blocks over those shared atoms,
    each block against itself and the blocks before it, until such a pair
    turns up. Rows equal as written, atom for atom in one order, are
    scanned once; a copy written in another atom order is scanned as a row
    of its own, at distance 0 from the first.
    """
    unique = list(dict.fromkeys(rows))
    m = len(unique)
    if m < 2:
        return 0.0
    atom_rows, weight_rows = zip(*unique)
    sizes = np.fromiter(map(len, atom_rows), np.intp, m)
    atoms = np.fromiter(chain.from_iterable(atom_rows), np.intp, sizes.sum())
    shared = np.bincount(atoms, minlength=n_atoms) > 1
    keep = shared[atoms]
    held = np.repeat(np.arange(m), sizes)[keep]  # the row of each kept weight
    per_row = np.bincount(held, minlength=m)
    if not per_row.all():  # a row that shares no atom overlaps no other row
        return 2.0
    # int64 while 2D < 2**63, so 2D and every overlap (at most D) fit; Python ints beyond.
    dtype = np.int64 if 2 * denom < 2**63 else object
    weights = np.fromiter(chain.from_iterable(weight_rows), dtype, atoms.size)[keep]
    column = (np.cumsum(shared) - 1)[atoms[keep]]
    ends = np.concatenate(([0], np.cumsum(per_row)))
    width = int(np.count_nonzero(shared))
    step = max(1, math.isqrt(_BLOCK // width))
    seen, least = [], denom
    for start in range(0, m, step):
        stop = min(start + step, m)
        block = np.zeros((stop - start, width), dtype)
        at = slice(ends[start], ends[stop])
        block[held[at] - start, column[at]] = weights[at]
        seen.append(block)
        for other in seen:
            least = min(least, int(np.minimum(block[:, None], other).sum(axis=2).min()))
            if not least:
                return 2.0
    return 2 * (denom - least) / denom


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
    for atoms, weights in rows:
        for k, w in zip(atoms, weights):
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
