"""Exact rational LP feasibility for small systems.

Phase-1 simplex with Bland's rule on a fraction-free integer tableau
(Bareiss, Math. Comp. 22, 1968), sized for problems with a handful of
constraints and a few dozen variables. No floating point and no
``Fraction`` enters the pivoting, so feasible/infeasible verdicts are
exact and free of tolerance disputes.

The constraint coefficients (original and slack columns) are scaled to
integers by their least common denominator ``D_A``, and the right-hand
side, separately, by its own ``D_B``; keeping the two apart keeps the
coefficient columns small when only the right-hand side carries large
denominators. The artificial columns are implicit: an artificial never
re-enters once it leaves, so its column is never read.

The tableau carries one positive running denominator ``d``, the previous
pivot, starting at 1. A pivot on ``p`` replaces every non-pivot entry
``x`` (objective row included) by ``(x*p - f*y) // d``, where ``f`` is
the row's entry in the entering column and ``y`` the pivot row's entry
in ``x``'s column; the pivot row is kept, and ``d`` becomes ``p``. The
division is always exact: after each pivot the tableau equals ``d``
times the rational tableau of the scaled system, and ``d`` is the
determinant of the basis, so every entry is an integer (adjugate times an
integer matrix). Bland's entering rule and the ratio test (compared by
cross-multiplication, ties broken by the lower basis index) make the same
choices as on the rational tableau, so the pivot sequence, the final
basis and the returned point are exactly those of rational pivoting.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _integer_scaled(values):
    """Integers z and the least D > 0 with z[i] == D * values[i]."""
    exact = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    denom = math.lcm(*(x.denominator for x in exact))
    return [x.numerator * (denom // x.denominator) for x in exact], denom


def _pivot(tableau, obj, leave, enter, d):
    """One fraction-free pivot on tableau[leave][enter], in place; returns
    the pivot, which is the next running denominator."""
    piv_row = tableau[leave]
    p = piv_row[enter]
    for i, row in enumerate(tableau):
        if i != leave:
            f = row[enter]
            tableau[i] = [(x * p - f * y) // d for x, y in zip(row, piv_row)]
    f = obj[enter]
    obj[:] = [(x * p - f * y) // d for x, y in zip(obj, piv_row)]
    return p


def feasible_point(A_eq, b_eq, A_ub=(), b_ub=()):
    """Find x >= 0 with A_eq x = b_eq and A_ub x <= b_ub, exactly.

    Returns a list of Fractions, or None when the system is infeasible.
    Inequalities are handled through nonnegative slack variables; the
    returned point contains only the original variables.
    """
    A_eq = [list(row) for row in A_eq]
    A_ub = [list(row) for row in A_ub]
    if not A_eq and not A_ub:
        return []
    n = len(A_eq[0]) if A_eq else len(A_ub[0])
    k = len(A_ub)
    m = len(A_eq) + k
    width = n + k  # original + slack; the artificials n+k.. are implicit

    coefs, d_a = _integer_scaled([x for row in A_eq + A_ub for x in row])
    rhs, d_b = _integer_scaled(list(b_eq) + list(b_ub))
    tableau = []
    for i in range(m):
        row = coefs[i * n:(i + 1) * n] + [0] * k
        if i >= len(A_eq):
            row[n + i - len(A_eq)] = d_a  # slack column, scaled with A
        row.append(rhs[i])
        if rhs[i] < 0:  # phase 1 needs b >= 0
            row = [-x for x in row]
        tableau.append(row)
    basis = [width + i for i in range(m)]

    # Reduced costs z_j - c_j for minimizing the sum of artificials: with
    # an all-artificial basis, z_j is the column sum.
    obj = [sum(col) for col in zip(*tableau)]

    d = 1
    while True:
        enter = next((j for j in range(width) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(tableau):
            coef = row[enter]
            if coef > 0:
                if leave is None:
                    leave, num, den = i, row[-1], coef
                    continue
                lhs, best = row[-1] * den, num * coef
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave, num, den = i, row[-1], coef
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; malformed input")
        d = _pivot(tableau, obj, leave, enter, d)
        basis[leave] = enter

    if any(row[-1] for row, j in zip(tableau, basis) if j >= width):
        return None
    x = [Fraction(0)] * n
    for row, j in zip(tableau, basis):
        if j < n:
            x[j] = Fraction(row[-1] * d_a, d * d_b)
    return x
