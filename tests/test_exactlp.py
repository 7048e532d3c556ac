"""The integer phase-1 simplex against rational pivoting on Fractions.

Both run Bland's rule with the same ratio test and tie-breaking, so they
must take the same pivots and return the same point, not merely an
equally valid one."""

import random
from fractions import Fraction
from unittest import mock

import pytest

from lhvlab import exactlp, inequalities
from lhvlab.exactlp import feasible_point


def fraction_feasible_point(A_eq, b_eq, A_ub=(), b_ub=()):
    """Reference: the same phase 1 on a Fraction tableau with explicit
    artificial columns."""
    A_eq = [[Fraction(x) for x in row] for row in A_eq]
    A_ub = [[Fraction(x) for x in row] for row in A_ub]
    if not A_eq and not A_ub:
        return []
    n = len(A_eq[0]) if A_eq else len(A_ub[0])
    k = len(A_ub)
    m = len(A_eq) + k
    rows = [row + [Fraction(0)] * k for row in A_eq]
    rows += [row + [Fraction(int(j == i)) for j in range(k)] for i, row in enumerate(A_ub)]
    rhs = [Fraction(x) for x in list(b_eq) + list(b_ub)]
    tableau = []
    for i in range(m):
        sign = -1 if rhs[i] < 0 else 1
        art = [Fraction(int(j == i)) for j in range(m)]
        tableau.append([sign * x for x in rows[i]] + art + [sign * rhs[i]])
    total = n + k + m
    basis = list(range(n + k, total))
    obj = [sum(col) for col in zip(*tableau)]
    for j in range(n + k, total):
        obj[j] -= 1
    dead = [False] * total
    while True:
        enter = next((j for j in range(total) if not dead[j] and obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            if tableau[i][enter] > 0:
                r = tableau[i][-1] / tableau[i][enter]
                if leave is None or r < ratio or (r == ratio and basis[i] < basis[leave]):
                    ratio, leave = r, i
        piv_row = [x / tableau[leave][enter] for x in tableau[leave]]
        tableau[leave] = piv_row
        for i in range(m):
            if i != leave:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], piv_row)]
        f = obj[enter]
        obj = [x - f * y for x, y in zip(obj, piv_row)]
        if basis[leave] >= n + k:
            dead[basis[leave]] = True
        basis[leave] = enter
    if any(tableau[i][-1] for i in range(m) if basis[i] >= n + k):
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i][-1]
    return x


def _feasibility_systems(seed, count):
    """The LP systems fine_feasibility builds for random /16 inputs in the
    exact, marginal and band modes, and for 1e9-denominator bands."""
    rng = random.Random(seed)
    systems = []

    def record(*args):
        systems.append(args)
        return feasible_point(*args)

    def s16():
        return Fraction(rng.randint(-16, 16), 16)

    with mock.patch.object(inequalities, "feasible_point", record):
        for _ in range(count):
            C = [s16() for _ in range(4)]
            inequalities.fine_feasibility(C)
            inequalities.fine_feasibility(C, [s16() for _ in range(4)])
            inequalities.fine_feasibility(
                C, [s16() for _ in range(4)],
                correlator_tol=[Fraction(rng.randint(1, 4), 16) for _ in range(4)])
            noisy = [Fraction(rng.uniform(-1, 1)).limit_denominator(10**9)
                     for _ in range(4)]
            inequalities.fine_feasibility(
                noisy, correlator_tol=[Fraction(rng.uniform(0.003, 0.012))
                                       .limit_denominator(10**9) for _ in range(4)])
    return systems


def test_same_point_as_rational_pivoting():
    systems = _feasibility_systems(11, 20)
    n_infeasible = 0
    for args in systems:
        got = feasible_point(*args)
        assert got == fraction_feasible_point(*args)
        n_infeasible += got is None
    assert 0 < n_infeasible < len(systems)


def test_degenerate_ties_follow_basis_order():
    # Every ratio ties at 0, so the leaving row is set by the basis index.
    for args in (([[1, 1, 0], [1, 0, 1], [0, 1, 1]], [0, 0, 0]),
                 ([[1, -1], [2, -2]], [0, 0], [[1, 1]], [1])):
        assert feasible_point(*args) == fraction_feasible_point(*args)


@pytest.mark.parametrize("A_eq, b_eq, A_ub, b_ub", [
    ([[0.5, 0.25]], [0.125], [], []),
    ([[Fraction(1, 3), Fraction(2, 7)]], [Fraction(5, 11)], [[1, 1]], [Fraction(10**9 + 7, 10**9)]),
    ([[1, 1]], [1], [[-1, 0]], [Fraction(-1, 3)]),
    ([], [], [[1, 2], [-3, 1]], [4, -1]),
])
def test_rational_and_float_coefficients(A_eq, b_eq, A_ub, b_ub):
    assert feasible_point(A_eq, b_eq, A_ub, b_ub) == fraction_feasible_point(
        A_eq, b_eq, A_ub, b_ub)
