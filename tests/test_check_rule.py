"""The one bound rule of every sampled invariant check (lhvlab.cli.cell_z
and z_bound), its false failures and its power, and tools/check_rates.py."""

import importlib.util
import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import lhvlab.cli
from lhvlab import protocols
from lhvlab.cli import ALPHA, _z_check, binomial_tail, cell_z, main, z_bound

_SPEC = importlib.util.spec_from_file_location(
    "check_rates", Path(__file__).parents[1] / "tools" / "check_rates.py")
check_rates = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_rates)


def _report(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(list(argv))
    return rc, json.loads(out.getvalue())


def _failed(report):
    return [c["name"] for c in report["invariant_checks"] if not c["passed"]]


def test_z_bound_is_the_bonferroni_normal_quantile():
    # Within 1e-4 of the Sidak z at the same family-wise rate of 1e-5.
    assert [round(z_bound(k), 4) for k in (1, 4, 16, 48)] == [4.4172, 4.7081, 4.9833, 5.1917]


def test_cell_z_is_the_binomial_z_of_each_cell():
    z, se = cell_z([30, 0, 0, 5, 25], [100, 100, 0, 10, 100], [0.25, 0.0, 0.5, 0.0, 0.25])
    assert se[0] == math.sqrt(0.25 * 0.75) / 10 and z[0] == pytest.approx(0.05 / se[0])
    assert z[4] == 0.0  # the frequency equals p
    assert se[1] == 0.0 and z[1] == 0.0  # se 0, and no deviation
    assert se[2] == math.inf and z[2] == 0.0  # no trials: contributes nothing
    assert se[3] == 0.0 and z[3] == math.inf  # se 0 with a deviation fails
    # A reference a rounding step outside [0, 1] is read as the bound.
    assert cell_z(0, 10, -1e-17)[0] == 0.0


def test_one_cell_check_keeps_its_detail_bytes():
    # The signal detail gives the rate, se and z as the former se = 1/(2 sqrt(n)) did.
    for n, matches in ((20_000, 10_123), (1, 0), (7, 7)):
        z, se = map(float, cell_z(matches, n, 0.5))
        assert se == 0.5 / math.sqrt(n)
        assert z == (matches / n - 0.5) / (0.5 / math.sqrt(n))


def test_binomial_tail_bounds_the_exact_tail_from_above():
    def exact(count, n, p, upper):
        js = range(count, n + 1) if upper else range(count + 1)
        return sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in js)

    for count, n, p in ((1, 1000, 3.8e-5), (3, 1000, 3.8e-5), (40, 100, 0.2), (5, 100, 0.2),
                        (0, 50, 0.1), (50, 50, 0.9), (140, 400, 0.25)):
        want = exact(count, n, p, count > n * p)
        assert want * (1 - 1e-12) <= binomial_tail(count, n, p) <= 1.1 * want
    assert binomial_tail(1, 10, 0.0) == 0.0 and binomial_tail(9, 10, 1.0) == 0.0


def test_a_single_count_in_a_rare_cell_is_no_failure():
    # Near-parallel settings: p(+,+) = (1 - cos 1 deg)/4 = 3.8e-5 at 1,000
    # trials. One count there is z = 4.93 > z_bound(4), but it happens on
    # about 4 % of correct runs; its binomial tail is far above ALPHA/8.
    p = (1 - math.cos(math.radians(1))) / 4
    count, n, ref = np.array([1, 500, 499, 0]), 1000, np.array([p, 0.5 - p, 0.5 - p, p])
    assert cell_z(count, n, ref)[0][0] > z_bound(4)
    assert _z_check("c", count, n, ref, "")["passed"]
    count[0] = 4  # about 1e-7 on a correct run
    assert binomial_tail(4, n, p) <= ALPHA / 8 and not _z_check("c", count, n, ref, "")["passed"]


@pytest.mark.parametrize("model", check_rates.SAMPLED_MODELS)
def test_near_parallel_settings_pass_on_every_seed(model):
    # Under the normal z alone, 1 deg at 1,000 trials failed about one run
    # in ten: a single count in a cell of p = 3.8e-5 reads z = 4.9.
    argv = [*check_rates.COMMANDS[f"simulate-{model}"], "--a", "0", "--b", "1", "--trials", "1000"]
    failed = [seed for seed in range(1, 41) if _report([*argv, "--seed", str(seed)])[0]]
    assert failed == []


@pytest.mark.parametrize("argv", [
    # Each of these exited 1 under the fixed bounds: detection held to 0.01,
    # the binned singlet to 0.02 and the usable fraction to 0.02.
    *(["protocol", "--name", "detection-loophole", "--seed", seed] for seed in ("2", "4", "5")),
    ["protocol", "--name", "shared-coin", "--trials", "10000", "--seed", "1"],
    ["signal", "--mode", "slave-will", "--trials", "1000", "--seed", "8"],
], ids=["detection-s2", "detection-s4", "detection-s5", "shared-coin-1e4", "signal-1e3"])
def test_correct_runs_that_failed_falsely_pass(argv):
    rc, report = _report(argv)
    assert _failed(report) == [] and rc == 0


MALUS_CHECKS = [
    ("detection-symmetric", "conditional_law_near_singlet"),
    ("detection-asymmetric", "conditional_law_near_singlet"),
    # Sphere mode judges each overlap bin, so the mutants show there too.
    ("detection-sphere16", "conditional_law_near_singlet"),
    ("shared-coin", "singlet_within_binned_tolerance"),
    ("watch-pinned", "singlet_within_binned_tolerance"),
]


@pytest.mark.parametrize("command, check, mutant", [
    *((command, check, mutant) for command, check in MALUS_CHECKS
      for mutant in ("b-spin-plus-u", "sign-rule")),
    ("simulate-hall", "dev_within_5se", "hall-one-lune"),
    ("watch-hall", "singlet_within_binned_tolerance", "hall-one-lune"),
])
def test_mutants_fail_at_the_default_trials(command, check, mutant):
    with check_rates.mutated(lhvlab, mutant):
        rc, report = _report([*check_rates.COMMANDS[command], "--seed", "3"])
    assert rc == 1 and check in _failed(report)


@pytest.mark.parametrize("mutant, command, check", [
    ("tb-two-bits", "protocol-tb", "one_bit_per_trial"),
    ("shared-third-draw", "shared-coin", "two_shared_draws_per_trial"),
])
def test_price_mutants_fail_their_price_check_on_every_seed(mutant, command, check):
    # A counted price is exact: the mutant fails its price check on every
    # seed and leaves every other check as it was.
    table = check_rates.failure_counts(lhvlab, [command], range(1, 21), 2000, mutant)[command]
    assert table == {**dict.fromkeys(table, 0), check: 20}


def test_a_third_shared_draw_moves_only_the_counter():
    # The mutant's first two rows of shared uniforms are the coins of the
    # correct run, so only the counted shared draws tell the runs apart.
    runs = {}
    for mutant in (None, "shared-third-draw"):
        fh = io.StringIO()
        with check_rates.mutated(lhvlab, mutant):
            runs[mutant] = protocols.run_shared_coin(70_001, 3, record=fh).summary(), fh.getvalue()
    (right, right_csv), (wrong, wrong_csv) = runs.values()
    assert (right["shared_draws_total"], wrong["shared_draws_total"]) == (2 * 70_001, 3 * 70_001)
    assert {**wrong, "shared_draws_total": 0} == {**right, "shared_draws_total": 0}
    assert wrong_csv == right_csv


@pytest.mark.parametrize("b", ["0", "180"], ids=["parallel", "antiparallel"])
@pytest.mark.parametrize("model", check_rates.SAMPLED_MODELS)
def test_every_sampled_model_passes_along_and_against_the_setting(model, b):
    # At a.b = +-1 the singlet's reference has cells with p = 0, hence se = 0:
    # a single count there fails the check.
    rc, report = _report([*check_rates.COMMANDS[f"simulate-{model}"], "--a", "0", "--b", b])
    assert rc == 0, report["results"]


def test_detection_bound_at_a_million_trials_is_within_a_hundredth():
    # Each cell alone moved 0.01 from its expected count fails the check, and
    # the widest cell moved 0.0098 passes it.
    rep = protocols.run_detection_loophole(1_000_000, "symmetric", 1)
    n = np.broadcast_to(rep.counts.sum(axis=(1, 2), keepdims=True), rep.counts.shape)
    assert rep.counts.size == 16

    def passes(cell, dev):
        count = np.round(n * rep.reference)
        count[cell] = np.round(n[cell] * (rep.reference[cell] + dev))
        return _z_check("c", count, n, rep.reference, "")["passed"]

    cells = list(np.ndindex(rep.counts.shape))
    assert not any(passes(cell, dev) for cell in cells for dev in (0.01, -0.01))
    assert any(passes(cell, 0.0098) and passes(cell, -0.0098) for cell in cells)


def test_check_rates_counts_failures_and_restores_the_mutant():
    table = check_rates.failure_counts(lhvlab, check_rates.COMMANDS, range(1, 3), trials=400)
    assert set(table) == set(check_rates.COMMANDS)
    assert all(counts and "(error)" not in counts for counts in table.values())
    assert table["signal-slave-will"] == {"usable_fraction_near_half": 0,
                                          "received_bits_random": 0,
                                          "received_bits_independent_of_message": 0}
    original = protocols.malus_pair
    leaked = check_rates.failure_counts(lhvlab, ["signal-slave-will"], [4], mutant="leak-10")
    assert leaked["signal-slave-will"]["received_bits_independent_of_message"] == 1
    with check_rates.mutated(lhvlab, "sign-rule"):
        assert protocols.malus_pair is not original
    assert protocols.malus_pair is original


def test_check_rates_prints_one_line_per_check(capsys):
    check_rates.main(["--seeds", "1", "--trials", "300", "--only", "watch-hall"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# seeds 1-1, trials 300, mutant none"
    assert [line.split()[1:] for line in lines[1:]] == [
        ["zero_station_bits", "0/1"], ["singlet_within_binned_tolerance", "0/1"]]
