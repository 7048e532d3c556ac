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

Packed rows. The coefficient entries of a row (original and slack
columns, objective row included) are held as one integer
``sum(x_j << (b*j))``, so a pivot updates a whole row with one big-integer
``(v*p - f*P) // d``. This is exact because the update is linear and
``d`` divides every ``x*p - f*y``: the packed value is divisible by ``d``
and the lanes of its quotient are the new entries. An entry is read by
adding the bias ``sum(2**(b-1) << (b*j))``, which makes every lane
nonnegative, then shifting, masking and subtracting ``2**(b-1)``.

Lane width. After any pivot sequence every coefficient entry is, up to
sign, a minor of the matrix whose rows are the initial coefficient rows
(with their implicit artificial column) and the phase-1 cost row (a one
on each artificial): ``d`` times a reduced cost is ``-det [[B, a_j],
[c_B, c_j]]`` and ``d`` times a tableau entry is ``det B`` with one
column replaced. Hadamard's bound ``H``, the product of those rows'
norms each rounded up, bounds every entry, so lanes of
``b = H.bit_length() + 2`` bits hold each one with a spare bit; the
products inside an update are exact Python integers of any size.

The right-hand sides stay a plain list of integers, the objective's
included. That column carries ``D_B``, which can be huge (the lcm of
several 1e9 denominators for Monte Carlo bands, 2**1074 for a
subnormal tolerance); packed, it would widen every lane to its size.

Built once per coefficient rows. ``D_A``, the lane width, the packed rows
with their slack lanes and the bias and ones masks depend on ``(A_eq,
A_ub)`` alone, so an ``lru_cache`` keyed by the rows as tuples of tuples
builds them once; equal numbers are one key whatever their type, as they
scale to the same integers. Each call still checks its shapes and then
only scales its right-hand side, flips the sign of every row whose
right-hand side is negative, sums the rows into the objective and
pivots. ``integer_feasible_point`` returns the basic point as integer
numerators over one denominator, which is what the master-probability
verdict reads; ``feasible_point`` turns them into Fractions.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

# Types whose as_integer_ratio() gives two Python ints exactly; any other
# value goes through Fraction(x) first.
_RATIO_TYPES = frozenset((int, float, Fraction))


def _fraction_ratio(x):
    # int(): Fraction(np.int64(k)) keeps the np.int64 as its numerator.
    n, d = Fraction(x).as_integer_ratio()
    return int(n), int(d)


def _integer_ratios(values) -> list:
    """(numerator, denominator > 0) of each value, read exactly."""
    return [x.as_integer_ratio() if type(x) in _RATIO_TYPES else _fraction_ratio(x)
            for x in values]


def _over_lcm(ratios):
    """Integers z and the least D > 0 with z[i] / D == n / d for each
    (n, d) of ratios."""
    denom = math.lcm(*(d for _, d in ratios))
    return [n * (denom // d) for n, d in ratios], denom


def _integer_scaled(values):
    """Integers z and the least D > 0 with z[i] == D * values[i]; all-int
    input comes back as a list of the same ints with D = 1."""
    if set(map(type, values)) <= {int}:
        return list(values), 1
    return _over_lcm(_integer_ratios(values))


def _ceil_sqrt(s):
    return math.isqrt(s - 1) + 1


def _pivot(tableau, column, leave, d):
    """One fraction-free pivot on row leave, in place; returns the pivot,
    which is the next running denominator.

    tableau is (rows, rhs, b): the packed rows with the objective last,
    their right-hand sides, and the lane width b. column holds every row's
    entry in the entering column."""
    rows, rhs, _ = tableau
    p = column[leave]
    piv_row, piv_rhs = rows[leave], rhs[leave]
    for i, f in enumerate(column):
        if i == leave:
            continue
        if f:
            rows[i] = (rows[i] * p - f * piv_row) // d
            rhs[i] = (rhs[i] * p - f * piv_rhs) // d
        elif p != d:  # only scaled; unchanged when p == d
            rows[i] = rows[i] * p // d
            rhs[i] = rhs[i] * p // d
    return p


def _checked_shapes(A_eq, b_eq, A_ub, b_ub):
    """The number of columns (0 without rows); raises ValueError on a
    ragged row or a right-hand side whose length does not match its rows."""
    for name, A, b in (("eq", A_eq, b_eq), ("ub", A_ub, b_ub)):
        if len(b) != len(A):
            raise ValueError(f"A_{name} has {len(A)} rows but b_{name} has {len(b)} entries")
    first = "A_eq row 0" if A_eq else "A_ub row 0"
    n = len((A_eq or A_ub or [()])[0])
    for name, A in (("A_eq", A_eq), ("A_ub", A_ub)):
        for i, row in enumerate(A):
            if len(row) != n:
                raise ValueError(f"{name} row {i} has {len(row)} entries, "
                                 f"but {first} has {n}")
    return n


@functools.lru_cache(maxsize=64)
def _packed_system(eq_rows, ub_rows):
    """What depends on the coefficient rows alone, for rows given as tuples
    of tuples that _checked_shapes has passed: (packed rows, d_a, lane
    width b, bias, ones). The packed rows hold each scaled row and its
    slack lane, before any row takes the sign of its right-hand side."""
    n_eq, k = len(eq_rows), len(ub_rows)
    m = n_eq + k
    n = len((eq_rows or ub_rows)[0])
    coefs, d_a = _integer_scaled([x for row in eq_rows + ub_rows for x in row])
    rows = [coefs[i * n:(i + 1) * n] for i in range(m)]
    # Hadamard's bound on every entry: the rows' norms rounded up, each row
    # with its slack entry d_a (inequalities) and its artificial's one,
    # times that of the cost row, which has m ones.
    bound = _ceil_sqrt(m)
    for i, row in enumerate(rows):
        bound *= _ceil_sqrt(sum([x * x for x in row]) + (d_a * d_a + 1 if i >= n_eq else 1))
    bits = bound.bit_length() + 2
    shifts = range(0, bits * n, bits)
    packed = []
    for i, row in enumerate(rows):
        v = sum([x << s for x, s in zip(row, shifts)])
        if i >= n_eq:
            v += d_a << (bits * (n + i - n_eq))  # slack column, scaled with A
        packed.append(v)
    ones = ((1 << (bits * (n + k))) - 1) // ((1 << bits) - 1)  # a one in every lane
    return tuple(packed), d_a, bits, (1 << (bits - 1)) * ones, ones


def integer_feasible_point(A_eq, b_eq, A_ub=(), b_ub=()):
    """feasible_point's basic point as (numerators, denominator): x[j] is
    numerators[j] / denominator, with one positive denominator for every
    entry and the fraction not reduced; None when the system is
    infeasible. Takes and checks the same arguments as feasible_point."""
    A_eq = tuple(map(tuple, A_eq))
    A_ub = tuple(map(tuple, A_ub))
    b_eq, b_ub = list(b_eq), list(b_ub)
    n = _checked_shapes(A_eq, b_eq, A_ub, b_ub)
    if not A_eq and not A_ub:
        return [], 1
    k = len(A_ub)
    m = len(A_eq) + k
    width = n + k  # original + slack; the artificials n+k.. are implicit

    rows, d_a, bits, bias, ones = _packed_system(A_eq, A_ub)
    rhs, d_b = _integer_scaled(b_eq + b_ub)
    packed = list(rows)
    for i, r in enumerate(rhs):
        if r < 0:  # phase 1 needs b >= 0
            packed[i], rhs[i] = -packed[i], -r
    # Reduced costs z_j - c_j for minimizing the sum of artificials: with
    # an all-artificial basis, z_j is the column sum, and packed rows add
    # lane by lane.
    packed.append(sum(packed))
    rhs.append(sum(rhs))
    basis = [width + i for i in range(m)]

    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    tableau = (packed, rhs, bits)
    d = 1
    while True:
        # Lane j of obj + bias - ones is obj_j + 2**(b-1) - 1, in [0, 2**b)
        # since |obj_j| < 2**(b-2); its top bit is set iff obj_j > 0, and
        # Bland's rule enters the lowest such j.
        positive = (packed[-1] + bias - ones) & bias
        if not positive:
            break
        enter = ((positive & -positive).bit_length() - 1) // bits
        shift = bits * enter
        column = [(((v + bias) >> shift) & mask) - half for v in packed]
        leave = None
        for i in range(m):
            coef = column[i]
            if coef > 0:
                if leave is None:
                    leave, num, den = i, rhs[i], coef
                    continue
                lhs, best = rhs[i] * den, num * coef
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave, num, den = i, rhs[i], coef
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; malformed input")
        d = _pivot(tableau, column, leave, d)
        basis[leave] = enter

    if any(r for r, j in zip(rhs, basis) if j >= width):
        return None
    x = [0] * n
    for r, j in zip(rhs, basis):
        if j < n:
            x[j] = r * d_a
    return x, d * d_b


def feasible_point(A_eq, b_eq, A_ub=(), b_ub=()):
    """Find x >= 0 with A_eq x = b_eq and A_ub x <= b_ub, exactly.

    Returns a list of Fractions, or None when the system is infeasible.
    Inequalities are handled through nonnegative slack variables; the
    returned point contains only the original variables. Raises
    ValueError when a row's length or a right-hand side's length does not
    match.
    """
    point = integer_feasible_point(A_eq, b_eq, A_ub, b_ub)
    if point is None:
        return None
    x, denom = point
    return [Fraction(v, denom) for v in x]
