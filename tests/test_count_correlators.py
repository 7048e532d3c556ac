"""Every sampled correlator is read from an outcome-count table: its value
is the float64 mean of the matching +-1 products, bit for bit, and its
standard error their ddof=1 one."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lhvlab.geometry import RandomStream, planar_setting
from lhvlab.inequalities import chsh_mc, correlator, counterfactual_correlators
from lhvlab.models import MODEL_IDS, MODELS, JointLaw2x2, estimate_law

SETTINGS = (planar_setting(0.0), planar_setting(90.0),
            planar_setting(45.0), planar_setting(315.0))
P = {"tb-ext1": 0.3, "tb-ext2": 0.7}
# Above this many trials the +-1 column is not built.
COLUMN_ROWS = 1 << 20


@st.composite
def _tables(draw):
    """(2, 2) counts over n trials, d of them with sigma*tau = -1."""
    n = draw(st.one_of(st.integers(1, 64), st.integers(1, COLUMN_ROWS),
                       st.integers(1, 2**40)))
    d = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
    up, down = draw(st.integers(0, d)), draw(st.integers(0, n - d))
    return np.array([[n - d - down, up], [d - up, down]], dtype=np.int64), n, d


def _reference_se(n: int, d: int) -> float:
    """2 sqrt(d (n - d)/(n - 1))/n to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        return float(2 * (Decimal(d * (n - d)) / (n - 1)).sqrt() / n)


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_counted_correlator_is_the_mean_and_ddof1_error_of_the_products(table):
    counts, n, d = table
    est = correlator(JointLaw2x2.from_counts(counts))
    assert est.n_trials == n
    if n > COLUMN_ROWS:
        # np.mean sums the +-1 column exactly and divides once.
        assert est.value == np.float64(n - 2 * d) / np.float64(n)
        assert est.std_error == pytest.approx(_reference_se(n, d), rel=1e-14, abs=0.0)
        return
    column = np.ones(n)
    column[:d] = -1.0
    assert est.value == column.mean()
    se = column.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
    assert est.std_error == pytest.approx(se, rel=1e-14, abs=0.0)
    sigma = np.repeat([1.0, 1.0, -1.0, -1.0], counts.ravel())
    tau = np.repeat([1.0, -1.0, 1.0, -1.0], counts.ravel())
    assert correlator((sigma, tau)) == est


def test_single_trial_has_no_error():
    for cell in np.eye(4, dtype=np.int64):
        est = correlator(JointLaw2x2.from_counts(cell.reshape(2, 2)))
        assert est.std_error == 0.0 and abs(est.value) == 1.0 and est.n_trials == 1


def test_closed_form_law_keeps_no_table():
    law = MODELS["singlet"].law(SETTINGS[0], SETTINGS[2], None)
    assert law.counts is None
    assert correlator(law).std_error == 0.0 and correlator(law).n_trials == 0


@pytest.mark.parametrize("model", MODEL_IDS)
def test_chsh_mc_is_four_estimated_laws_in_turn(model):
    # On twin streams, chsh_mc's correlators are those of estimate_law at
    # (a, b), (a2, b), (a, b2), (a2, b2), drawn in that order, se included.
    a, a2, b, b2 = SETTINGS
    n = 30_001
    stream = RandomStream(8, 1)
    report = chsh_mc(model, a, a2, b, b2, n, stream, p=P.get(model))
    twin = RandomStream(8, 1)
    laws = [estimate_law(model, x, y, n, twin, p=P.get(model))
            for x, y in ((a, b), (a2, b), (a, b2), (a2, b2))]
    assert report.correlators == tuple(map(correlator, laws))
    assert stream.counter == twin.counter


@pytest.mark.parametrize("model", [m for m, spec in MODELS.items() if spec.local])
def test_counterfactual_correlators_count_the_frozen_draw(model):
    # The reference pair's table is the sampled law's, and each estimate is
    # read from a table over all n trials.
    a, a2, b, b2 = SETTINGS
    ests = counterfactual_correlators(model, a, a2, b, b2, 20_001, RandomStream(9))
    assert ests[0] == correlator(estimate_law(model, a, b, 20_001, RandomStream(9)))
    assert all(e.n_trials == 20_001 and 0.0 < e.std_error < 0.01 for e in ests)
