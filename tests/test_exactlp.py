"""The integer phase-1 simplex against rational pivoting on Fractions.

Both run Bland's rule with the same ratio test and tie-breaking, so they
must take the same pivots and return the same point, not merely an
equally valid one."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lhvlab import exactlp, inequalities
from lhvlab.exactlp import integer_feasible_point

_pivot = exactlp._pivot


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


def _is_point(point, expected) -> bool:
    """Whether integer_feasible_point's (numerators, denominator), or None,
    is the Fraction point expected, or None: the numerators are the
    denominator times expected."""
    if point is None or expected is None:
        return point is expected
    numerators, denominator = point
    return denominator > 0 and numerators == [denominator * x for x in expected]


def _feasibility_systems(seed, count):
    """The LP systems fine_feasibility builds for random /16 inputs in the
    exact, marginal and band modes, and for 1e9-denominator bands."""
    rng = random.Random(seed)
    systems = []

    def record(*args):
        systems.append(args)
        return integer_feasible_point(*args)

    def s16():
        return Fraction(rng.randint(-16, 16), 16)

    with mock.patch.object(inequalities, "integer_feasible_point", record):
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
    assert len(systems) == 4 * count, "each verdict solves one LP"
    return systems


def test_same_point_as_rational_pivoting():
    systems = _feasibility_systems(11, 20)
    n_infeasible = 0
    for args in systems:
        got = integer_feasible_point(*args)
        assert _is_point(got, fraction_feasible_point(*args))
        n_infeasible += got is None
    assert 0 < n_infeasible < len(systems)


def test_degenerate_ties_follow_basis_order():
    # Every ratio ties at 0, so the leaving row is set by the basis index.
    for args in (([[1, 1, 0], [1, 0, 1], [0, 1, 1]], [0, 0, 0]),
                 ([[1, -1], [2, -2]], [0, 0], [[1, 1]], [1])):
        assert _is_point(integer_feasible_point(*args), fraction_feasible_point(*args))


@pytest.mark.parametrize("A_eq, b_eq, A_ub, b_ub", [
    ([[0.5, 0.25]], [0.125], [], []),
    ([[Fraction(1, 3), Fraction(2, 7)]], [Fraction(5, 11)], [[1, 1]], [Fraction(10**9 + 7, 10**9)]),
    ([[1, 1]], [1], [[-1, 0]], [Fraction(-1, 3)]),
    ([], [], [[1, 2], [-3, 1]], [4, -1]),
])
def test_rational_and_float_coefficients(A_eq, b_eq, A_ub, b_ub):
    assert _is_point(integer_feasible_point(A_eq, b_eq, A_ub, b_ub),
                     fraction_feasible_point(A_eq, b_eq, A_ub, b_ub))


@pytest.mark.parametrize("args, message", [
    (([[1, 1], [1]], [1, 1]), "A_eq row 1 has 1 entries, but A_eq row 0 has 2"),
    (([[1, 1]], [1, 2]), "A_eq has 1 rows but b_eq has 2 entries"),
    (([[1, 1]], [1], [[1, 0, 5]], [1]), "A_ub row 0 has 3 entries, but A_eq row 0 has 2"),
    (([[1, 1], [1, 0]], [1]), "A_eq has 2 rows but b_eq has 1 entries"),
    (([], [], [[1, 1], [1]], [1, 1]), "A_ub row 1 has 1 entries, but A_ub row 0 has 2"),
    (([[1]], [1], [[1]], []), "A_ub has 1 rows but b_ub has 0 entries"),
    (([], [1]), "A_eq has 0 rows but b_eq has 1 entries"),
])
def test_malformed_shapes_raise_value_error(args, message):
    with pytest.raises(ValueError) as info:
        integer_feasible_point(*args)
    assert str(info.value) == message


def packed_lanes(v, bits, count):
    """The signed bits-wide lanes of a packed tableau row, lowest first,
    padded with zeros to count."""
    half, mask, lanes = 1 << (bits - 1), (1 << bits) - 1, []
    while v:
        lanes.append(((v + half) & mask) - half)
        v = (v - lanes[-1]) >> bits
    assert len(lanes) <= count, "a nonzero lane past the last column"
    return lanes + [0] * (count - len(lanes))


def list_pivot(tableau, leave, enter, d):
    """The fraction-free pivot on list rows (the entries, then the
    right-hand side; the objective row last) that packed rows replaced."""
    piv_row = tableau[leave]
    p = piv_row[enter]
    for i, row in enumerate(tableau):
        if i != leave:
            f = row[enter]
            tableau[i] = [(x * p - f * y) // d for x, y in zip(row, piv_row)]
    return p


def list_checked_pivot(width):
    """A stand-in for exactlp._pivot that, around each pivot, decodes every
    row and requires the packed pivot to give list_pivot's rows."""
    def pivot(tableau, column, leave, d):
        rows, rhs, bits = tableau
        expected = [packed_lanes(v, bits, width) + [r] for v, r in zip(rows, rhs)]
        enter = next(j for j in range(width) if expected[-1][j] > 0)  # Bland's rule
        assert column == [row[enter] for row in expected]
        assert list_pivot(expected, leave, enter, d) == _pivot(tableau, column, leave, d)
        assert [packed_lanes(v, bits, width) + [r] for v, r in zip(rows, rhs)] == expected
        return column[leave]
    return pivot


# Entries of one kind per system (or all kinds mixed), so that all-int
# systems stay small and tie often, and scaled ones reach 2**70
# denominators. The entries come from a drawn random.Random: drawing
# hundreds of them one by one through hypothesis takes seconds.
ENTRIES = {
    "int": lambda rng: rng.randint(-3, 3),
    "fraction": lambda rng: Fraction(rng.randint(-36, 36), rng.randint(1, 12)),
    "float": lambda rng: rng.randint(-2**53, 2**53) / 2**rng.choice((0, 3, 53, 70)),
    "2**70": lambda rng: Fraction(rng.randint(-2**72, 2**72), 2**70 + 1),
}
ENTRIES["mixed"] = lambda rng: rng.choice(list(ENTRIES.values()))(rng)


@st.composite
def lp_systems(draw):
    """(A_eq, b_eq, A_ub, b_ub) with 1 to 13 rows and up to 24 columns,
    slack columns included."""
    n_eq = draw(st.integers(0, 13))
    k = draw(st.integers(int(n_eq == 0), 13 - n_eq))
    n = draw(st.integers(1, 24 - k))
    coef = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    rhs = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    rng = draw(st.randoms(use_true_random=False))
    A_eq, A_ub = ([[coef(rng) for _ in range(n)] for _ in range(count)] for count in (n_eq, k))
    b_eq, b_ub = ([rhs(rng) for _ in range(count)] for count in (n_eq, k))
    return A_eq, b_eq, A_ub, b_ub


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lp_systems())
def test_packed_pivot_gives_the_list_rows_and_the_rational_point(args):
    A_eq, _, A_ub, _ = args
    width = len((A_eq or A_ub)[0]) + len(A_ub)
    with mock.patch.object(exactlp, "_pivot", list_checked_pivot(width)):
        got = integer_feasible_point(*args)
    assert _is_point(got, fraction_feasible_point(*args))


# ---------------------------------------------------------------------------
# The packed coefficient rows, built once per system and shared by the calls


def test_one_system_in_every_form_gives_the_same_point():
    A_eq = [[1, 1, 1, 1], [1, -1, 1, -1]]
    A_ub = [[1, 0, -1, 0], [0, 1, 0, 0]]
    b_eq, b_ub = [1, Fraction(1, 4)], [Fraction(1, 8), Fraction(3, 8)]
    forms = {
        "lists": (A_eq, b_eq, A_ub, b_ub),
        "tuples": (tuple(map(tuple, A_eq)), tuple(b_eq), tuple(map(tuple, A_ub)), tuple(b_ub)),
        "floats": ([[float(x) for x in row] for row in A_eq], [float(x) for x in b_eq],
                   [[float(x) for x in row] for row in A_ub], [float(x) for x in b_ub]),
        "fractions": ([[Fraction(x) for x in row] for row in A_eq], b_eq,
                      [[Fraction(x) for x in row] for row in A_ub], b_ub),
    }
    expected = fraction_feasible_point(*forms["lists"])
    assert expected is not None
    exactlp._packed_system.cache_clear()
    for name, args in forms.items():
        assert _is_point(integer_feasible_point(*args), expected), name
    # Equal rows are one key, whatever their container and number type.
    assert exactlp._packed_system.cache_info().currsize == 1


def test_mutating_the_callers_rows_changes_no_later_call():
    A_eq, b_eq = [[1, 1, 0], [0, 1, 1]], [1, Fraction(1, 2)]
    first = integer_feasible_point(A_eq, b_eq)
    assert _is_point(first, fraction_feasible_point(A_eq, b_eq))
    A_eq[0][2] = 5
    A_eq[1].append(7)
    b_eq[1] = 3
    assert integer_feasible_point([[1, 1, 0], [0, 1, 1]], [1, Fraction(1, 2)]) == first
    changed = [[1, 1, 5], [0, 1, 1]]
    assert _is_point(integer_feasible_point(changed, [1, 3]),
                     fraction_feasible_point(changed, [1, 3]))


@pytest.mark.parametrize("args, message", [
    (([[1, 1], [1]], [1, 1]), "A_eq row 1 has 1 entries, but A_eq row 0 has 2"),
    (([[1, 1]], [1, 2]), "A_eq has 1 rows but b_eq has 2 entries"),
    (([[1, 1]], [1], [[1, 0, 5]], [1]), "A_ub row 0 has 3 entries, but A_eq row 0 has 2"),
    (([[1, 1], [1, 0]], [1]), "A_eq has 2 rows but b_eq has 1 entries"),
    (([], [], [[1, 1], [1]], [1, 1]), "A_ub row 1 has 1 entries, but A_ub row 0 has 2"),
    (([[1]], [1], [[1]], []), "A_ub has 1 rows but b_ub has 0 entries"),
    (([], [1]), "A_eq has 0 rows but b_eq has 1 entries"),
])
def test_malformed_shapes_raise_after_a_cached_system_of_their_width(args, message):
    A_eq, _, A_ub, _ = (list(args) + [(), ()])[:4]
    width = len((A_eq or A_ub)[0]) if (A_eq or A_ub) else 1
    for system in (([[1] * width], [1]), ([[1] * width], [1], [[1] * width], [1]),
                   ([], [], [[1] * width, [1] * width], [1, 1])):
        integer_feasible_point(*system)  # cached, well formed, of the same width
    with pytest.raises(ValueError) as info:
        integer_feasible_point(*args)
    assert str(info.value) == message


def test_every_zero_tolerance_subset_is_one_cached_system():
    # fine_feasibility's band rows depend only on which of the four
    # correlator tolerances are zero: 16 systems, each built once.
    exactlp._packed_system.cache_clear()
    for tol in ([Fraction(k >> i & 1, 16) for i in range(4)] for k in range(16)):
        for C in ([0, 0, 0, 0], [Fraction(1, 2), Fraction(-1, 4), 0, Fraction(3, 8)]):
            inequalities.fine_feasibility(C, None, tol)
    info = exactlp._packed_system.cache_info()
    assert (info.currsize, info.misses, info.hits) == (16, 16, 16)


def test_integer_entry_gives_the_point_over_one_denominator():
    args = ([[1, 1], [1, -1]], [1, Fraction(1, 2)])
    numerators, denominator = integer_feasible_point(*args)
    assert denominator > 0
    assert [Fraction(v, denominator) for v in numerators] == fraction_feasible_point(*args)
    assert integer_feasible_point([[1, 1]], [1], [[1, 1]], [Fraction(1, 2)]) is None
    assert integer_feasible_point([], []) == ([], 1)
