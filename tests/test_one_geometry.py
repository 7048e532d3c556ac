"""One geometry rule for closed forms, samplers and the command line.

Every closed-form a.b is overlap(a, b), the geometry.dot that the
per-trial rules sum, and every unit vector is scaled by sqrt(dot(v, v)). So
the mixed model's closed form agrees with its sampler even at exactly
orthogonal settings, where a.b is a signed zero that sgn reads as +1, and
the pinned model's rule on its own four atoms gives the singlet law. The
slave-will signalling check tests the received bits against the message.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from lhvlab import cli, protocols
from lhvlab.cli import build_parser, main
from lhvlab.geometry import RandomStream, assert_unit, dot, normalize, planar_setting, sgn
from lhvlab.models import (MODELS, AtomSpins, hall_outcomes, law_table, malus_outcome,
                           mixed_law, outcome_counts, overlap, singlet_law, tb_extension_law)

# The planar setting pairs of a 1-degree grid whose dot is exactly zero.
ORTHOGONAL = [(a, (a + turn) % 360) for a in range(360) for turn in (90, 270)
              if dot(planar_setting(a), planar_setting((a + turn) % 360)) == 0.0]
ZERO_LAW = np.array([[0.5, 0.25], [0.25, 0.0]])


def _same_bits(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


def _random_settings(n: int):
    stream = RandomStream(20)
    pairs = [tuple(stream.sphere(2)) for _ in range(n)]
    angles = np.random.default_rng(20).uniform(0.0, 360.0, (n, 2))
    return pairs + [(planar_setting(x), planar_setting(y)) for x, y in angles]


def _atom_law(a, b):
    """The mixed model's law from its own rule on its four equally likely
    atoms: u = d*a (c = 0) or -d*b (c = 1)."""
    u = np.array([a, -a, -b, b])
    c, d = np.array([0, 0, 1, 1]), np.array([1.0, -1.0, 1.0, -1.0])
    return outcome_counts(*MODELS["mixed"].outcomes((u, c, d), a, b))[0] / 4.0


def test_the_grid_has_the_66_exactly_orthogonal_pairs():
    assert len(ORTHOGONAL) == 66
    assert (12, 102) in ORTHOGONAL and (26, 296) in ORTHOGONAL


def test_closed_forms_are_law_table_of_dot_bit_for_bit():
    for a, b in _random_settings(200):
        t = dot(a, b)
        assert overlap(a, b) == t
        assert _same_bits(singlet_law(a, b).p, law_table(t))
        for p, family, k in ((0.3, 1, 2 * 0.3 - 1), (0.7, 2, 0.7)):
            assert _same_bits(tb_extension_law(p, family, a, b).p, law_table(k * t))
        assert t != 0.0 and _same_bits(mixed_law(a, b).p, law_table(sgn(t)))


@pytest.mark.parametrize("a_deg, b_deg", ORTHOGONAL)
def test_closed_forms_at_exactly_orthogonal_settings(a_deg, b_deg):
    a, b = planar_setting(a_deg), planar_setting(b_deg)
    t = dot(a, b)
    assert _same_bits(singlet_law(a, b).p, law_table(t))
    assert _same_bits(tb_extension_law(0.3, 1, a, b).p, law_table((2 * 0.3 - 1) * t))
    assert _same_bits(mixed_law(a, b).p, ZERO_LAW)
    assert _same_bits(_atom_law(a, b), ZERO_LAW)


def test_mixed_law_is_the_law_of_its_atoms():
    for a, b in _random_settings(100):
        assert _same_bits(mixed_law(a, b).p, _atom_law(a, b))


# ---------------------------------------------------------------------------
# The pinned model's exact law from its own atom table and rule

ONE = np.float64(1.0).view(np.int64)


def _plus_probability(station, spins, x, y):
    """P(+1) of each atom at one station (0: sigma, 1: tau) of the pinned
    model's rule, read off the rule itself: the noise below which that
    station gives +1, found by bisection on the bits of [0, 1], with the
    other station's noise held at 1/2. For a Malus station, +1 where
    2 noise < threshold, that noise is threshold/2."""
    rule = MODELS["pinned"].outcomes
    lo = np.full(len(spins), -1, np.int64)  # below 0: never evaluated
    hi = np.full(len(spins), ONE)  # +1 up to 1 counts as +1 on all of [0, 1)
    while np.any(hi - lo > 1):
        mid = hi - (hi - lo) // 2  # in (lo, hi), or hi once an atom has converged
        noise = [np.full(len(spins), 0.5)] * 2
        noise[station] = mid.view(np.float64)
        plus = rule((spins, *noise), x, y)[station] > 0
        lo, hi = np.where(plus, mid, lo), np.where(plus, hi, mid)
    return hi.view(np.float64)


def _pinned_exact_law(a, b):
    """The law of the pinned model at (a, b): its four table rows, each of
    weight 1/4, and each station's per-atom P(+1) from its rule."""
    (drawn,) = MODELS["pinned"].draw(a, b, 0, RandomStream(0), None)(slice(0, 0))[:1]
    spins = AtomSpins(drawn.table, np.arange(4, dtype=np.uint8))
    p_sigma, p_tau = (_plus_probability(k, spins, a, b) for k in (0, 1))
    sigma = np.stack([p_sigma, 1.0 - p_sigma])  # rows: +1, -1
    tau = np.stack([p_tau, 1.0 - p_tau])
    return sigma @ tau.T / 4.0


def _pinned_law_is_singlet(a, b):
    return np.abs(_pinned_exact_law(a, b) - law_table(dot(a, b))).max() <= 4 * np.spacing(0.25)


def test_pinned_exact_law_from_its_atoms_is_the_singlet():
    for a, b in _random_settings(100):
        assert _pinned_law_is_singlet(a, b), (a, b)


@pytest.mark.parametrize("a_deg, b_deg", ORTHOGONAL)
def test_pinned_exact_law_at_exactly_orthogonal_settings(a_deg, b_deg):
    assert _pinned_law_is_singlet(planar_setting(a_deg), planar_setting(b_deg))


@pytest.mark.parametrize("variant", [
    lambda h, x, y: hall_outcomes(h[0], x, y),  # the sign rule
    lambda h, x, y: (malus_outcome(h[0], x, h[1]), malus_outcome(h[0], y, h[2])),  # B reads +u
])
def test_pinned_exact_law_check_fails_a_wrong_rule(monkeypatch, variant):
    spec = MODELS["pinned"]
    monkeypatch.setitem(MODELS, "pinned", dataclasses.replace(spec, outcomes=variant))
    assert not all(_pinned_law_is_singlet(a, b) for a, b in _random_settings(20))


def test_normalize_divides_by_the_root_of_dot():
    rng = np.random.default_rng(21)
    for v in rng.normal(size=(500, 3)) * rng.uniform(0.1, 50.0, (500, 1)):
        assert _same_bits(normalize(v), v / math.sqrt(dot(v, v)))


@pytest.mark.parametrize("vec", ["1,2,3", "0,1,-1", "0,0,2", "0.3,-4e-3,7.1"])
def test_vector_setting_is_normalize_of_the_input(tmp_path, vec):
    argv = ["law", "--model", "singlet", "--vec-a", vec]
    expected = normalize([float(x) for x in vec.split(",")])
    assert _same_bits(cli._setting(build_parser().parse_args(argv), "a", 0.0), expected)
    rc, report = _run(tmp_path, *argv)
    assert rc == 0 and report["config"]["a"] == [float(f"{x:.9g}") for x in expected]


def test_the_geometry_rules_call_no_blas_dot_or_norm(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("np.dot or np.linalg.norm called")
    a, b = planar_setting(12.0), planar_setting(102.0)
    monkeypatch.setattr(np, "dot", refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    singlet_law(a, b)
    tb_extension_law(0.3, 1, a, b)
    mixed_law(a, b)
    normalize([1.0, 2.0, 3.0])
    assert_unit(np.array([a, b]))
    assert main(["law", "--model", "singlet", "--vec-a", "1,2,3", "--vec-b", "0,0,2",
                 "--out", str(tmp_path / "report.json")]) == 0
    protocols.run_signaling_experiment([0, 1], "slave-will", 100, 3)


def test_vectors_of_other_lengths_are_refused():
    # dot reads three coordinates, so a fourth must not pass unread.
    with pytest.raises(ValueError, match="3-vector"):
        assert_unit([0.0, 0.0, 0.0, 1.0], "a")
    with pytest.raises(ValueError, match="3-vector"):
        normalize([1.0, 0.0, 0.0, 5.0])
    with pytest.raises(ValueError, match="3-vector"):
        singlet_law([1.0, 0.0], [0.0, 1.0])


# ---------------------------------------------------------------------------
# The command line


def _run(tmp_path, *argv):
    out = tmp_path / "report.json"
    rc = main([*argv, "--out", str(out)])
    return rc, json.loads(out.read_text())


@pytest.mark.parametrize("a_deg, b_deg", [(12, 102), (20, 110), (26, 296)])
def test_simulate_mixed_passes_at_exactly_orthogonal_settings(tmp_path, a_deg, b_deg):
    rc, report = _run(tmp_path, "simulate", "--model", "mixed", "--a", str(a_deg),
                      "--b", str(b_deg), "--trials", "20000", "--seed", "1")
    assert rc == 0, report["invariant_checks"]
    assert report["results"]["analytic_law"] == {"p(+1,+1)": 0.5, "p(+1,-1)": 0.25,
                                                 "p(-1,+1)": 0.25, "p(-1,-1)": 0.0}


def test_law_mixed_reports_the_zero_overlap_law(tmp_path):
    rc, report = _run(tmp_path, "law", "--model", "mixed", "--a", "12", "--b", "102")
    assert rc == 0
    assert report["results"]["law"] == {"p(+1,+1)": 0.5, "p(+1,-1)": 0.25,
                                        "p(-1,+1)": 0.25, "p(-1,-1)": 0.0}
    assert report["results"]["correlator"] == 0.0


def test_law_mixed_is_unchanged_at_a_generic_pair(tmp_path):
    rc, report = _run(tmp_path, "law", "--model", "mixed", "--a", "30", "--b", "150")
    assert rc == 0
    assert report["results"]["law"] == {"p(+1,+1)": 0.5, "p(+1,-1)": 0.0,
                                        "p(-1,+1)": 0.0, "p(-1,-1)": 0.5}
    assert report["results"]["correlator"] == 1.0


def _checks(report):
    return {c["name"]: c for c in report["invariant_checks"]}


def test_slave_will_checks_the_bits_against_the_message(tmp_path):
    rc, report = _run(tmp_path, "signal", "--mode", "slave-will", "--seed", "4")
    checks = _checks(report)
    assert rc == 0
    assert list(checks) == ["usable_fraction_near_half", "received_bits_random",
                            "received_bits_independent_of_message"]
    detail = checks["received_bits_independent_of_message"]["detail"]
    rate, n = report["results"]["success_rate"], report["results"]["n_usable"]
    se = 0.5 / math.sqrt(n)
    assert detail == f"success_rate={rate:.6g}, se={se:.6g}, z={(rate - 0.5) / se:.6g}"


def test_slave_will_check_with_no_usable_trial_does_not_raise(tmp_path):
    seed = next(s for s in range(100)
                if protocols.run_signaling_experiment([0], "slave-will", 1, s).n_usable == 0)
    _, report = _run(tmp_path, "signal", "--mode", "slave-will", "--trials", "1",
                     "--seed", str(seed))
    check = _checks(report)["received_bits_independent_of_message"]
    assert check["passed"] and check["detail"] == "success_rate=0, se=inf, z=0"


@pytest.mark.parametrize("every", [10, 20])
@pytest.mark.parametrize("message", [[], ["--message", "0110100110010110"]])
def test_slave_will_fails_a_leak_of_the_message(tmp_path, monkeypatch, every, message):
    signal_bits = protocols._signal_bits

    def leaky(rows, *args):
        bits = signal_bits(rows, *args)
        # Every tenth (twentieth) usable bit arrives: those of index 0 mod every.
        first = -rows.start % every
        bits["tau"][first::every] = bits["sigma"][first::every]
        return bits
    monkeypatch.setattr(protocols, "_signal_bits", leaky)
    rc, report = _run(tmp_path, "signal", "--mode", "slave-will", *message)
    checks = _checks(report)
    assert rc == 1
    # A leak of the all-zero default message biases the received bits, and
    # their count of ones shows it; a balanced message's leak keeps them fair.
    assert checks["received_bits_random"]["passed"] == bool(message)
    assert not checks["received_bits_independent_of_message"]["passed"]
