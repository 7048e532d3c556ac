import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhvlab import freewill
from lhvlab.freewill import (DiscretizedModel, dictated_settings_model,
                             discretized_setting_tied_model, measure_M,
                             mutual_information, setting_independent_model)


def test_setting_tied_model_reaches_maximal_M():
    for n in (2, 3, 8):
        assert measure_M(discretized_setting_tied_model(n)) == 2.0


def test_setting_tied_model_information_is_half_maximum():
    for n in (2, 4, 8, 16):
        rep = mutual_information(discretized_setting_tied_model(n))
        assert rep.I_bits == math.log2(n)          # exact for powers of two
        assert rep.I_max_bits == 2 * math.log2(n)
        assert rep.M == 2.0


def test_independent_model_has_no_dependence():
    rep = mutual_information(setting_independent_model(5))
    assert rep.M == 0.0
    assert rep.I_bits == pytest.approx(0.0, abs=1e-12)


def test_dictated_model_saturates_information():
    for n in (2, 8):
        rep = mutual_information(dictated_settings_model(n))
        assert rep.I_bits == rep.I_max_bits == 2 * math.log2(n)
        assert rep.M == 2.0


def test_M_bounds_and_symmetry_on_random_models():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = 3
        conditional = {}
        for i in range(n):
            for j in range(n):
                w = [int(x) for x in rng.integers(1, 10, 4)]
                total = sum(w)
                conditional[(i, j)] = {("atom", k): Fraction(x, total)
                                       for k, x in enumerate(w)}
        model = DiscretizedModel(n, n, conditional)
        m = measure_M(model)
        assert 0.0 <= m <= 2.0


def test_information_data_processing_bounds():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = 2
        conditional = {}
        for i in range(n):
            for j in range(n):
                w = [int(x) for x in rng.integers(1, 6, 3)]
                total = sum(w)
                conditional[(i, j)] = {("atom", k): Fraction(x, total)
                                       for k, x in enumerate(w)}
        model = DiscretizedModel(n, n, conditional)
        rep = mutual_information(model)
        # H(lambda) upper bound
        p_lambda = {}
        prior = Fraction(1, n * n)
        for dist in conditional.values():
            for atom, w in dist.items():
                p_lambda[atom] = p_lambda.get(atom, Fraction(0)) + prior * w
        h_lambda = -sum(float(p) * math.log2(float(p)) for p in p_lambda.values())
        assert -1e-12 <= rep.I_bits <= min(rep.I_max_bits, h_lambda) + 1e-12


def test_discretized_model_validation():
    with pytest.raises(ValueError):
        DiscretizedModel(1, 1, {(0, 0): {("a",): Fraction(1, 2)}})
    with pytest.raises(ValueError):
        DiscretizedModel(2, 1, {(0, 0): {("a",): Fraction(1)}})
    with pytest.raises(ValueError):
        discretized_setting_tied_model(1)
    with pytest.raises(ValueError, match="int or Fraction"):
        DiscretizedModel(1, 1, {(0, 0): {"x": 0.5, "y": 0.5}})


@pytest.mark.parametrize("conditional, message", [
    ({(1, 0): {"x": 1}}, r"settings index \(1, 0\) out of range"),
    ({(0, 0): {"x": Fraction(1, 2)}}, r"conditional weights at \(0, 0\) must sum to exactly 1"),
    ({(0, 0): {"x": Fraction(3, 2), "y": Fraction(-1, 2)}},
     r"^conditional weights must be nonnegative$"),
    ({(0, 0): {"x": 0.5, "y": 0.5}}, r"conditional weights at \(0, 0\) must be int or Fraction"),
])
def test_discretized_model_rejects_each_fault_with_its_message(conditional, message):
    with pytest.raises(ValueError, match=message):
        DiscretizedModel(1, 1, conditional)


@pytest.mark.parametrize("n_a, n_b, field", [(0, 0, "n_a"), (0, 3, "n_a"), (3, 0, "n_b"),
                                             (-1, 2, "n_a")])
def test_discretized_model_rejects_models_without_settings(n_a, n_b, field):
    with pytest.raises(ValueError, match=f"^{field} must be at least 1$"):
        DiscretizedModel(n_a, n_b, {})


_FAULTS = {  # a faulty distribution at (0, k) -> its message
    "index": ({"x": 1}, r"settings index \(5, {k}\) out of range"),
    "type": ({"x": 0.5, "y": 0.5}, r"conditional weights at \(0, {k}\) must be int or Fraction"),
    "sum": ({"x": Fraction(1, 2)}, r"conditional weights at \(0, {k}\) must sum to exactly 1"),
    "sign": ({"x": Fraction(3, 2), "y": Fraction(-1, 2)},
             r"^conditional weights must be nonnegative$"),
    "sum-and-sign": ({"x": Fraction(3, 2), "y": Fraction(-1, 4)},
                     r"conditional weights at \(0, {k}\) must sum to exactly 1"),
}


@pytest.mark.parametrize("first, second", list(itertools.product(_FAULTS, repeat=2)))
def test_the_first_faulty_pair_decides_the_message(first, second):
    # The first and third pairs are faulty, the second and fourth are not;
    # within one pair the sum check comes before the sign check.
    conditional = {}
    for k, fault in ((0, first), (1, None), (2, second), (3, None)):
        dist, _ = _FAULTS.get(fault, ({"x": Fraction(1, 3), "y": Fraction(2, 3)}, None))
        conditional[(5, k) if fault == "index" else (0, k)] = dist
    message = _FAULTS[first][1].format(k=0)
    with pytest.raises(ValueError, match=message):
        DiscretizedModel(1, 4, conditional)


def test_discretized_model_accepts_huge_denominators_and_int_weights():
    d = 2**70 + 1
    model = DiscretizedModel(1, 2, {(0, 0): {"x": Fraction(1, d), "y": Fraction(d - 1, d)},
                                    (0, 1): {"x": 1, "y": 0}})
    assert measure_M(model) == _reference_M(model)
    assert mutual_information(model).I_bits == _reference_I(model)


def test_models_are_checked_without_fraction_sums_and_turned_into_rows_once(monkeypatch):
    calls = []
    rows = freewill._integer_rows
    monkeypatch.setattr(freewill, "_integer_rows", lambda dists: calls.append(1) or rows(dists))

    def no_arithmetic(*args):
        raise AssertionError("Fraction arithmetic")
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, no_arithmetic)
    for build in (discretized_setting_tied_model, setting_independent_model,
                  dictated_settings_model):
        calls.clear()
        model = build(4)
        measure_M(model)
        mutual_information(model)
        assert calls == [1]


# The rational algorithm the integer measures replace, kept as the oracle.

def _reference_M(model):
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


def _reference_I(model):
    prior = Fraction(1, model.n_a * model.n_b)
    p_lambda = {}
    joint = {}
    for pair, dist in model.conditional.items():
        for atom, w in dist.items():
            if w == 0:
                continue
            p_lambda[atom] = p_lambda.get(atom, Fraction(0)) + prior * w
            joint[(pair, atom)] = prior * w
    h_cond = 0.0
    for atom, pl in p_lambda.items():
        h_atom = 0.0
        for pair in model.conditional:
            pj = joint.get((pair, atom))
            if pj:
                q = pj / pl
                h_atom -= float(q) * math.log2(float(q))
        h_cond += float(pl) * h_atom
    return max(0.0, math.log2(model.n_a * model.n_b) - h_cond)


# Numerators up to 2**70 make the common denominator pass 2**62, which
# sends measure_M to its Python-int path; small ones keep it in int64.
_NUMERATORS = st.one_of(st.integers(0, 6), st.integers(0, 2**70))


@st.composite
def _models(draw, kind="mixed"):
    """Random models: in "mixed" every row may weigh each shared atom and
    holds one atom of its own, and repeated draws copy the first row; in
    "apart" every row holds atoms of its own only; in "together" every row
    holds every shared atom with a positive weight, so every pair of rows
    overlaps and the scan runs to its end."""
    n_a, n_b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    shared = draw(st.integers(1, 4))  # atoms any pair may use
    numerators = _NUMERATORS.filter(bool) if kind == "together" else _NUMERATORS
    conditional = {}
    for i in range(n_a):
        for j in range(n_b):
            atoms = {"mixed": [("shared", k) for k in range(shared)] + [("own", i, j)],
                     "apart": [("own", i, j, k) for k in range(shared)],
                     "together": [("shared", k) for k in range(shared)]}[kind]
            nums = draw(st.lists(numerators, min_size=len(atoms), max_size=len(atoms))
                        .filter(any))
            # Repeated draws make identical rows, which the scan drops.
            if kind == "mixed" and conditional and draw(st.booleans()):
                conditional[(i, j)] = dict(next(iter(conditional.values())))
                continue
            conditional[(i, j)] = {atom: Fraction(x, sum(nums))
                                   for atom, x in zip(atoms, nums)}
    return DiscretizedModel(n_a, n_b, conditional)


def _assert_matches_reference(model):
    rep = mutual_information(model)
    assert measure_M(model) == rep.M == _reference_M(model)
    assert rep.I_bits == _reference_I(model)
    assert rep.I_max_bits == math.log2(model.n_a * model.n_b)


@settings(max_examples=300, deadline=None)
@given(_models())
def test_measures_equal_the_rational_reference(model):
    _assert_matches_reference(model)


def test_measures_equal_the_rational_reference_on_both_paths():
    big = 2**61 - 1  # the lcm of big, big - 2 and big - 4 is far above 2**62
    for denoms in ((3, 5, 7, 9), (big, big - 2, big - 4, 11)):
        conditional = {(0, j): {"x": Fraction(1, d), "y": Fraction(d - 1, d)}
                       for j, d in enumerate(denoms)}
        conditional[(0, 1)]["z"] = Fraction(0)
        _assert_matches_reference(DiscretizedModel(1, 4, conditional))
    for build in (discretized_setting_tied_model, setting_independent_model,
                  dictated_settings_model):
        for n in (2, 3, 5, 6):
            _assert_matches_reference(build(n))


@pytest.mark.parametrize("kind", ["apart", "together"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_measures_equal_the_rational_reference_on_every_layout(kind, data):
    model = data.draw(_models(kind))
    _assert_matches_reference(model)
    assert kind != "apart" or len(model.conditional) == 1 or measure_M(model) == 2.0


def test_equal_distributions_in_another_key_order_are_measured_as_equal():
    # Each distribution is written twice, in two key orders: one row and its
    # copy (M = 0), two such pairs that share no atom (M = 2), or a pair and
    # a copy that moves a quarter of the weight to an atom of its own (M = 1/2).
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    one = {(0, 0): {"y": half, "z": half}, (0, 1): {"z": half, "y": half}}
    two = {**one, (0, 2): {"u": half, "v": half}, (0, 3): {"v": half, "u": half}}
    part = {**one, (0, 2): {"y": half, "z": quarter, "w": quarter},
            (0, 3): {"w": quarter, "y": half, "z": quarter}}
    models = [DiscretizedModel(1, 2, one), DiscretizedModel(1, 4, two),
              DiscretizedModel(1, 4, part)]
    assert [measure_M(model) for model in models] == [0.0, 2.0, 0.5]
    for model in models:
        _assert_matches_reference(model)


def test_dictated_model_is_measured_without_a_dense_block():
    # The rows share no atom, so M = 2 needs no rows x atoms matrix (4,096
    # x 4,096 int64 would be 128 MiB).
    model = dictated_settings_model(64)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        rep = mutual_information(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert rep.M == 2.0 and rep.I_bits == rep.I_max_bits == 12.0
    assert peak < 16 * 2**20


def _overlapping_rows(n_rows, n_atoms, seed, common=True):
    """(weights, D): n_rows random distributions over the same n_atoms
    atoms as integer weights over one denominator D, each weight positive,
    so every pair of rows overlaps and the scan runs to its end. Without a
    common denominator each row is drawn over its own, and D, their lcm,
    is far above 2**62: the scan runs in Python ints."""
    rng = np.random.default_rng(seed)
    if common:
        denom = 100 * n_atoms
        weights = rng.integers(1, 100, (n_rows, n_atoms))
        weights[:, -1] = denom - weights[:, :-1].sum(axis=1)
        return weights, denom
    raw = rng.integers(1, 100, (n_rows, n_atoms)).astype(object)
    totals = raw.sum(axis=1)
    denom = math.lcm(*totals)
    return raw * (denom // totals)[:, None], denom


@pytest.mark.parametrize("n_rows, n_atoms, common", [
    (4_096, 4, True), (1_024, 16, True), (64, 512, True),
    (512, 4, False), (128, 16, False), (32, 512, False)])
def test_M_equals_the_pairwise_maximum(n_rows, n_atoms, common):
    # Many rows over few shared atoms, a few rows over many; the rows
    # without a common denominator are scanned in Python ints.
    weights, denom = _overlapping_rows(n_rows, n_atoms, n_atoms, common)
    assert (2 * denom < 2**63) == common
    model = DiscretizedModel(1, n_rows, {(0, j): {k: Fraction(int(w), denom)
                                                  for k, w in enumerate(row)}
                                         for j, row in enumerate(weights)})
    widest = max(int(np.abs(weights[i] - weights[i + 1:]).sum(axis=1).max())
                 for i in range(n_rows - 1))
    assert measure_M(model) == widest / denom
