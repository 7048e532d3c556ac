"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Tolerances are fixed here, not tuned at runtime; Monte
Carlo checks run at one million trials per estimate (per sweep point),
which puts the 0.005 bands at roughly ten standard errors.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.
"""

import json
import math
from fractions import Fraction

import numpy as np

from lhvlab.cli import main
from lhvlab.geometry import RandomStream, planar_setting
from lhvlab.inequalities import (MasterProb16, card_deck_stats, chsh_analytic,
                                 chsh_mc, counterfactual_correlators,
                                 fine_feasibility, two_deck_example)
from lhvlab.freewill import discretized_setting_tied_model, mutual_information
from lhvlab.models import (JointLaw2x2, estimate_law, sample_outcomes,
                           singlet_law, tb_extension_law)
from lhvlab.protocols import (deviation_from_binned_counts,
                              run_detection_loophole,
                              run_shared_coin,
                              run_signaling_experiment, run_tb_freewill,
                              run_tb_protocol, run_watch_realization)

N_TRIALS = 1_000_000
SWEEP = [15.0 + 30.0 * k for k in range(12)]  # 12 planar angles, degrees
X = planar_setting(0.0)

OPTIMAL = (planar_setting(0.0), planar_setting(90.0),
           planar_setting(45.0), planar_setting(315.0))
MAX_E4 = (planar_setting(0.0), planar_setting(90.0),
          planar_setting(225.0), planar_setting(135.0))


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_singlet_reproduction():
    worst = 0.0
    for k, angle in enumerate(SWEEP):
        b = planar_setting(angle)
        ref = singlet_law(X, b)
        for model, seed in (("pinned", 1000 + k), ("hall", 2000 + k)):
            law = estimate_law(model, X, b, N_TRIALS, RandomStream(seed))
            worst = max(worst, law.max_abs_diff(ref))
        law = run_tb_protocol(N_TRIALS, X, b, seed=3000 + k, record=False).law
        worst = max(worst, law.max_abs_diff(ref))
    # The watch settings are dictated by the synchronized watches, so the
    # sweep is over twelve bins of the realized overlap, one million
    # trials per bin.
    # Each run's own comparison holds its 12-bin counts, and each filled
    # bin's mean overlap times its count gives back the bin's overlap sum.
    counts = np.zeros((12, 2, 2), dtype=np.int64)
    t_sums = np.zeros(12)
    for k in range(12):
        run = run_watch_realization(N_TRIALS, "pinned", seed=4000 + k, record=None,
                                    start_tick=k * N_TRIALS).singlet_comparison
        filled = np.flatnonzero(run["counts"].sum(axis=(1, 2)))
        counts += run["counts"]
        t_sums[filled] += [b["t_mean"] * b["count"] for b in run["bins"]]
    watch = deviation_from_binned_counts(counts, t_sums)
    assert watch["min_bin_count"] >= 500_000
    worst = max(worst, watch["max_abs_dev"])
    _verdict(1, "singlet reproduced by all four realizations within 0.005",
             worst < 0.005, f"max_abs_dev={worst:.5f}")


def test_criterion_02_extension_laws():
    b = planar_setting(63.0)
    worst = 0.0
    for family in (1, 2):
        for i, p in enumerate((0.25, 0.5, 0.75, 1.0)):
            model = f"tb-ext{family}"
            sigma, tau = sample_outcomes(model, X, b, N_TRIALS,
                                         RandomStream(5000 + 10 * family + i), p=p)
            est = JointLaw2x2.from_outcomes(sigma, tau)
            worst = max(worst, est.max_abs_diff(tb_extension_law(p, family, X, b)))
    _verdict(2, "both extension families match their averaged laws within 0.005",
             worst < 0.005, f"max_abs_dev={worst:.5f}")


def test_criterion_03_chsh_values():
    singlet = chsh_analytic("singlet", *OPTIMAL)
    ok = abs(singlet.E - 2 * math.sqrt(2)) <= 1e-9
    mixed = chsh_analytic("mixed", *MAX_E4)
    ok = ok and mixed.E == 4.0
    mixed_mc = chsh_mc("mixed", *MAX_E4, N_TRIALS, RandomStream(6001))
    ok = ok and mixed_mc.E >= 3.95
    _verdict(3, "CHSH reaches 2*sqrt(2) (analytic) and 4 (mixture, exact + MC)",
             ok, f"E_singlet={singlet.E:.9f}, E_mixed={mixed.E}, MC={mixed_mc.E}")


def test_criterion_04_resource_accounting():
    n = 100_000
    tb = run_tb_protocol(n, X, planar_setting(40.0), seed=7001, record=False)
    ok = tb.bits_a_to_b == n
    ok = ok and tb.bits_b_to_a == 0
    for res in (run_shared_coin(n, seed=7002, record=False),
                run_tb_freewill(n, X, planar_setting(40.0), seed=7003, record=False),
                run_watch_realization(n, "pinned", seed=7004, record=False)):
        ok = ok and res.bits_a_to_b + res.bits_b_to_a == 0
    _verdict(4, "channel meters: n bits one-way for the communication model, "
                "0 station-to-station elsewhere", ok)


def test_criterion_05_detection_efficiencies():
    ok = True
    details = []
    rep = run_detection_loophole(N_TRIALS, "symmetric", seed=8001)
    ok &= abs(rep.efficiency - 0.25) <= 0.01 and rep.singlet_deviation <= 0.01
    details.append(f"sym={rep.efficiency:.4f}")
    rep = run_detection_loophole(N_TRIALS, "asymmetric", seed=8002)
    ok &= abs(rep.efficiency - 0.50) <= 0.01 and rep.singlet_deviation <= 0.01
    details.append(f"asym={rep.efficiency:.4f}")
    for frac in (0.05, 0.1):
        rep = run_detection_loophole(N_TRIALS, "sphere", seed=8003,
                                     delta_omega=frac * 2 * math.pi)
        se = math.sqrt(frac * (1 - frac) / N_TRIALS)
        ok &= abs(rep.efficiency - frac) <= 3 * se
        ok &= rep.singlet_deviation <= 0.01
        details.append(f"sphere({frac})={rep.efficiency:.4f}")
    _verdict(5, "detection efficiencies 1/4, 1/2, cell/2pi with singlet "
                "conditional laws", bool(ok), ", ".join(details))


def test_criterion_06_free_will_measures():
    ok = True
    details = []
    for n in (2, 4, 8, 16):
        rep = mutual_information(discretized_setting_tied_model(n))
        ok &= rep.M == 2.0
        ok &= rep.I_bits == math.log2(n)
        ok &= rep.I_max_bits == 2 * math.log2(n)
        details.append(f"N={n}: I={rep.I_bits}")
    _verdict(6, "M = 2 exactly and I = log2(N) exactly for N in {2,4,8,16}",
             bool(ok), ", ".join(details))


def test_criterion_07_feasibility():
    res = fine_feasibility([0, 0, 0, 0])
    ok = res.feasible and res.witness.q == MasterProb16.uniform().q

    s = 1.0 / math.sqrt(2.0)
    res = fine_feasibility([-s, -s, -s, s])
    ok = ok and (not res.feasible) and res.facet_violated.startswith("CHSH[")

    for model in ("pinned", "hall", "tb-freewill"):
        ests = counterfactual_correlators(model, *OPTIMAL, N_TRIALS,
                                          RandomStream(9001))
        res = fine_feasibility(
            [Fraction(e.value).limit_denominator(10**6) for e in ests],
            correlator_tol=[Fraction(3 * e.std_error).limit_denominator(10**6)
                            for e in ests])
        ok = ok and res.feasible

    stream = RandomStream(9002)
    boole = all(MasterProb16.random(stream).chsh_value() <= 2
                for _ in range(10_000))
    ok = ok and boole
    _verdict(7, "LP verdicts (uniform witness, quantum point infeasible, "
                "frozen-sample models feasible) and exact bound of 2", bool(ok))


def test_criterion_08_card_deck():
    stats = card_deck_stats(two_deck_example())
    d1 = stats["decks"][0]
    ok = (d1["joint"] == Fraction(3, 20) and d1["product"] == Fraction(1, 4)
          and not d1["factorizes"])
    _verdict(8, "card-deck joint 3/20 vs marginal product 1/4, non-factorizing",
             ok, f"joint={d1['joint']}, product={d1['product']}")


def test_criterion_09_signaling_discrimination():
    message = list(RandomStream(10001).bits(1000))
    action = run_signaling_experiment(message, "action", 40_000, seed=10002)
    ok = action.success_rate == 1.0
    ok = ok and abs(action.usable_fraction - 0.5) <= 0.01
    slave = run_signaling_experiment(message, "slave-will", 40_000, seed=10003)
    ok = ok and slave.empirical_entropy >= 0.99
    ok = ok and abs(slave.success_rate - 0.5) <= 0.02
    ok = ok and abs(slave.usable_fraction - 0.5) <= 0.01
    _verdict(9, "action mode transmits perfectly; slave-will mode reads noise",
             bool(ok), f"action={action.success_rate}, "
                       f"slave_entropy={slave.empirical_entropy:.4f}")


def test_criterion_10_byte_identical_reports(tmp_path):
    commands = [
        ["simulate", "--model", "hall", "--trials", "20000", "--seed", "42",
         "--a", "0", "--b", "63"],
        ["chsh", "--model", "mixed", "--trials", "20000", "--seed", "42",
         "--a", "0", "--a2", "90", "--b", "225", "--b2", "135"],
        ["protocol", "--name", "shared-coin", "--trials", "20000",
         "--seed", "42"],
        ["protocol", "--name", "detection-loophole", "--mode", "sphere",
         "--delta-omega", "0.6283185307179586", "--trials", "20000", "--seed", "42"],
        ["freewill", "--model", "pinned", "--n", "8"],
        ["audit", "--mode", "slave", "--trials", "20000", "--seed", "42",
         "--a", "0", "--b", "63"],
    ]
    ok = True
    for i, argv in enumerate(commands):
        p1 = tmp_path / f"r{i}a.json"
        p2 = tmp_path / f"r{i}b.json"
        rc1 = main(argv + ["--out", str(p1)])
        rc2 = main(argv + ["--out", str(p2)])
        ok = ok and rc1 == rc2 and p1.read_bytes() == p2.read_bytes()
        json.loads(p1.read_bytes())  # well-formed
    _verdict(10, "repeated runs with one seed emit byte-identical JSON", bool(ok))
