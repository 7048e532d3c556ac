import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import lhvlab
from lhvlab import cli
from lhvlab.cli import _protocols, build_parser, main
from lhvlab.models import MODEL_IDS, MODELS
from lhvlab.protocols import CSV_HEADER, WatchDesyncError, run_watch_realization

GOLDEN = Path(__file__).parent / "golden"
_SPEC = importlib.util.spec_from_file_location(
    "check_rates", Path(__file__).parents[1] / "tools" / "check_rates.py")
check_rates = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_rates)


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    rc = main(list(argv) + ["--out", str(out)])
    return rc, out.read_bytes()


def run_json(tmp_path, *argv):
    rc, raw = run_cli(tmp_path, *argv)
    return rc, json.loads(raw)


def test_schema_fields_are_stable(tmp_path):
    rc, report = run_json(tmp_path, "law", "--model", "singlet", "--a", "0", "--b", "60")
    assert rc == 0
    assert sorted(report) == ["command", "config", "invariant_checks",
                              "results", "seed", "version"]
    assert report["version"] == "0.1.0"
    for check in report["invariant_checks"]:
        assert sorted(check) == ["detail", "name", "passed"]


def test_law_singlet_reference_value(tmp_path):
    rc, report = run_json(tmp_path, "law", "--model", "singlet", "--a", "0", "--b", "60")
    assert rc == 0
    assert report["results"]["law"]["p(+1,+1)"] == 0.125
    assert report["results"]["correlator"] == -0.5


def test_law_mixed_and_extension(tmp_path):
    _, report = run_json(tmp_path, "law", "--model", "mixed", "--a", "0", "--b", "60")
    assert report["results"]["law"]["p(+1,+1)"] == 0.0
    _, report = run_json(tmp_path, "law", "--model", "tb-ext1", "--p", "0.5",
                         "--a", "0", "--b", "60")
    assert all(v == 0.25 for v in report["results"]["law"].values())


def test_law_requires_p_for_extensions(tmp_path):
    with pytest.raises(SystemExit):
        run_json(tmp_path, "law", "--model", "tb-ext1", "--a", "0", "--b", "60")


def test_law_scan_two_column_output(tmp_path):
    out = tmp_path / "scan.dat"
    rc = main(["law", "--model", "singlet", "--scan", "0:180:7", "--a", "0",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 8
    angle, corr = lines[1].split()
    assert float(angle) == 0.0 and float(corr) == -1.0
    angle, corr = lines[-1].split()
    assert float(angle) == 180.0 and float(corr) == 1.0


def test_golden_law_report(tmp_path):
    rc, raw = run_cli(tmp_path, "law", "--model", "singlet", "--a", "0", "--b", "60")
    assert rc == 0
    assert raw == (GOLDEN / "law_singlet_0_60.json").read_bytes()


def test_golden_chsh_report(tmp_path):
    rc, raw = run_cli(tmp_path, "chsh", "--model", "singlet")
    assert rc == 0
    assert raw == (GOLDEN / "chsh_singlet_optimal.json").read_bytes()


# Feasibility reports whose witness comes from the LP, not the uniform
# shortcut: exact, exact with marginals, and the tolerance band.
GOLDEN_FEASIBILITY = [
    ("feasibility_exact.json", ["--correlators", "0.5,-0.25,0.375,0.125"]),
    ("feasibility_marginals.json", ["--correlators", "0.25,0.5,-0.125,0.375",
                                    "--marginals", "0.125,-0.25,0.25,0.0625"]),
    ("feasibility_band.json", ["--correlators", "0.6875,0.5625,0.625,-0.3125",
                               "--tol", "0.0625,0.0625,0.0625,0.0625",
                               "--marginals", "0.125,0,0.0625,-0.125"]),
]


@pytest.mark.parametrize("golden, argv", GOLDEN_FEASIBILITY,
                         ids=[g for g, _ in GOLDEN_FEASIBILITY])
def test_golden_feasibility_reports(tmp_path, golden, argv):
    rc, raw = run_cli(tmp_path, "feasibility", *argv)
    assert rc == 0
    assert raw == (GOLDEN / golden).read_bytes()


def test_feasibility_config_records_marginals(tmp_path):
    marginals = ["--marginals", "0,0.25,0,-0.5"]
    for argv in (["--correlators", "0.5,0.5,0.5,-0.5"],
                 ["--from-model", "pinned", "--trials", "2000"]):
        _, report = run_json(tmp_path, "feasibility", *argv, *marginals)
        assert report["config"]["marginals"] == [0.0, 0.25, 0.0, -0.5]
        _, report = run_json(tmp_path, "feasibility", *argv)
        assert "marginals" not in report["config"]


def test_chsh_values(tmp_path):
    _, report = run_json(tmp_path, "chsh", "--model", "singlet")
    assert abs(report["results"]["E"] - 2 * math.sqrt(2)) < 1e-8
    _, report = run_json(tmp_path, "chsh", "--model", "mixed",
                         "--a", "0", "--a2", "90", "--b", "225", "--b2", "135")
    assert report["results"]["E"] == 4.0
    _, report = run_json(tmp_path, "chsh", "--model", "tb-ext2", "--p", "0.7")
    assert abs(report["results"]["E"] - 0.7 * 2 * math.sqrt(2)) < 1e-8


def test_simulate_passes_and_is_deterministic(tmp_path):
    args = ("simulate", "--model", "pinned", "--trials", "50000",
            "--seed", "7", "--a", "0", "--b", "63")
    rc1, raw1 = run_cli(tmp_path, *args)
    rc2, raw2 = run_cli(tmp_path, *args)
    assert rc1 == rc2 == 0
    assert raw1 == raw2
    report = json.loads(raw1)
    assert report["results"]["max_abs_dev"] <= 5 * report["results"]["std_err"]
    rc3, raw3 = run_cli(tmp_path, "simulate", "--model", "pinned", "--trials",
                        "50000", "--seed", "8", "--a", "0", "--b", "63")
    assert raw3 != raw1


def test_protocol_reports_and_transcript(tmp_path):
    csv_path = tmp_path / "transcript.csv"
    rc, report = run_json(tmp_path, "protocol", "--name", "tb", "--trials",
                          "2000", "--seed", "5", "--a", "0", "--b", "60",
                          "--transcript", str(csv_path))
    assert rc == 0
    assert report["results"]["channels"]["bits_a_to_b"] == 2000
    assert report["results"]["channels"]["bits_b_to_a"] == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("trial_index,model,c,d,u_dot_a,u_dot_b,sigma,tau,"
                        "detA,detB,bitsAB,bitsBA")
    assert len(lines) == 2001


def test_protocol_detection_asymmetric(tmp_path):
    rc, report = run_json(tmp_path, "protocol", "--name", "detection-loophole",
                          "--mode", "asymmetric", "--trials", "200000", "--seed", "3")
    assert rc == 0
    assert abs(report["results"]["efficiency"] - 0.5) < 0.01


def test_protocol_failing_check_sets_exit_code(tmp_path):
    # A real defect: station B measures the spin +u, not its partner's -u,
    # so the binned comparison fails and the run exits 1.
    with check_rates.mutated(lhvlab, "b-spin-plus-u"):
        rc, report = run_json(tmp_path, "protocol", "--name", "shared-coin", "--seed", "3")
    assert rc == 1
    assert not all(c["passed"] for c in report["invariant_checks"])


ZERO_COINCIDENCES = ["protocol", "--name", "detection-loophole", "--trials", "2"]


@pytest.mark.parametrize("seed", range(1, 9))
def test_protocol_zero_coincidences_fail_in_one_line(tmp_path, seed):
    # Two pairs often give no coincidence; other seeds report (and fail checks).
    try:
        _, report = run_json(tmp_path, *ZERO_COINCIDENCES, "--seed", str(seed))
    except SystemExit as exc:
        message = str(exc.code)
        assert "no coincidences recorded" in message and "\n" not in message
    else:
        assert report["results"]["n_coincidences"] > 0


def test_protocol_zero_coincidences_exit_status():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "lhvlab.cli", *ZERO_COINCIDENCES,
                           "--seed", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


# Grids numpy refuses to size at all; a grid it would try to allocate (2e9
# directions take tens of GB) is left untested.
@pytest.mark.parametrize("cells", [["--n-directions", "100000000000000000000"],
                                   ["--delta-omega", "1e-300"]])
def test_protocol_unsizable_grid_fails_in_one_line(cells):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "lhvlab.cli", "protocol", "--name",
                           "detection-loophole", "--mode", "sphere", *cells],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert "Maximum allowed size exceeded" in proc.stderr


def test_signal_commands(tmp_path):
    rc, report = run_json(tmp_path, "signal", "--mode", "slave-will",
                          "--trials", "30000", "--seed", "4")
    assert rc == 0
    assert report["results"]["empirical_entropy"] >= 0.99
    rc, report = run_json(tmp_path, "signal", "--mode", "action",
                          "--message", "0110", "--trials", "5000", "--seed", "4")
    assert rc == 0
    assert report["results"]["success_rate"] == 1.0


def test_feasibility_command(tmp_path):
    s = 1.0 / math.sqrt(2.0)
    rc, report = run_json(tmp_path, "feasibility",
                          f"--correlators={-s},{-s},{-s},{s}")
    assert rc == 0
    assert report["results"]["feasible"] is False
    assert report["results"]["facet_violated"].startswith("CHSH[")
    rc, report = run_json(tmp_path, "feasibility", "--from-model", "pinned",
                          "--trials", "50000", "--seed", "6")
    assert rc == 0
    assert report["results"]["feasible"] is True


@pytest.mark.parametrize("flag, value", [
    ("--correlators", "1,x,0,0"),
    ("--correlators", "0,0,0"),
    ("--marginals", "0,0,nan,0"),
    ("--tol", "0.1,0.1,0.1,tiny"),
    ("--tol", "0.1,-0.1,0.1,0.1"),
    ("--correlators", "2,0,0,0"),
    ("--marginals", "0,0,3,0"),
    # An empty value is malformed, not absent.
    ("--correlators", ""),
    ("--marginals", ""),
    ("--tol", ""),
])
def test_feasibility_bad_numbers_fail_in_one_line(tmp_path, flag, value):
    argv = ["--correlators=0,0,0,0", f"{flag}={value}"]
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "feasibility", *argv)
    message = str(exc.value.code)
    assert message.startswith(flag + " needs ") and "\n" not in message


def test_feasibility_range_is_widened_by_tol(tmp_path):
    tol = "--tol=0.1,0.1,0.1,0.1"
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "feasibility", "--correlators=1.5,0,0,0", tol)
    assert str(exc.value.code) == (
        "--correlators needs values in [-1 - tol, 1 + tol], got '1.5,0,0,0' "
        "(inconsistent input: |C[0]| = 1.5 > 1.1)")
    rc, report = run_json(tmp_path, "feasibility", "--correlators=1.05,0,0,0", tol)
    assert rc == 0 and report["results"]["feasible"]


def test_feasibility_bad_number_exit_status():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "lhvlab.cli", "feasibility",
                           "--correlators", "1,x,0,0"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_freewill_command(tmp_path):
    rc, report = run_json(tmp_path, "freewill", "--model", "pinned", "--n", "8")
    assert rc == 0
    assert report["results"]["I_bits"] == 3.0
    assert report["results"]["I_max_bits"] == 6.0
    assert report["results"]["M"] == 2.0


def test_audit_command(tmp_path):
    rc, report = run_json(tmp_path, "audit", "--mode", "honest", "--trials",
                          "20000", "--seed", "9", "--a", "0", "--b", "0")
    assert rc == 0
    assert report["results"]["deviations"] == 0
    rc, report = run_json(tmp_path, "audit", "--mode", "slave", "--trials",
                          "20000", "--seed", "9", "--a", "0", "--b", "63")
    assert rc == 0
    assert report["results"]["deviations"] == 20000


def test_seed_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("LHV_LAB_SEED", "777")
    _, report = run_json(tmp_path, "simulate", "--model", "hall", "--trials",
                         "5000", "--a", "0", "--b", "45")
    assert report["seed"] == 777
    monkeypatch.delenv("LHV_LAB_SEED")
    _, report = run_json(tmp_path, "simulate", "--model", "hall", "--trials",
                         "5000", "--a", "0", "--b", "45")
    assert report["seed"] == 12345


def test_vector_settings_override_angles(tmp_path):
    _, report = run_json(tmp_path, "law", "--model", "singlet",
                         "--vec-a", "0,0,1", "--vec-b", "0,0,-1")
    assert report["results"]["correlator"] == 1.0


def test_stdout_default(capsys):
    assert "LHV_LAB_SEED" not in os.environ  # the suite must not leak seeds
    rc = main(["law", "--model", "singlet", "--a", "0", "--b", "90"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "law"


# Every bad input exits before any work with one line on stderr, status 2.
BAD_INPUT = {
    "chsh-singlet-mc": ["chsh", "--model", "singlet", "--trials", "1000"],
    "chsh-uniform-mc": ["chsh", "--model", "uniform", "--trials", "1000"],
    "chsh-ext-without-p": ["chsh", "--model", "tb-ext1"],
    "law-scan-ext-without-p": ["law", "--model", "tb-ext1", "--scan", "0:90:3"],
    "simulate-ext-p-out-of-range": ["simulate", "--model", "tb-ext2", "--p", "1.5"],
    "simulate-trials-0": ["simulate", "--model", "pinned", "--trials", "0"],
    "simulate-trials-negative": ["simulate", "--model", "pinned", "--trials", "-5"],
    "chsh-trials-0": ["chsh", "--model", "pinned", "--trials", "0"],
    "feasibility-trials-0": ["feasibility", "--from-model", "pinned", "--trials", "0"],
    "protocol-trials-x": ["protocol", "--name", "tb", "--trials", "x"],
    "audit-trials-negative": ["audit", "--mode", "honest", "--trials", "-1"],
    "signal-trials-0": ["signal", "--mode", "action", "--trials", "0"],
    "signal-message-bits-0": ["signal", "--mode", "action", "--message-bits", "0"],
    "signal-message-not-bits": ["signal", "--mode", "action", "--message", "01x"],
    "freewill-n-1": ["freewill", "--n", "1"],
    "vec-not-a-number": ["law", "--model", "singlet", "--vec-a", "1,x,0"],
    "vec-zero": ["law", "--model", "singlet", "--vec-a", "0,0,0"],
    "vec-two-components": ["law", "--model", "singlet", "--vec-b", "1,0"],
    "vec-infinite": ["simulate", "--model", "hall", "--vec-b", "inf,0,0"],
    "vec-norm-overflows": ["law", "--model", "singlet", "--vec-a", "1e300,1e300,0"],
    "angle-nan": ["audit", "--mode", "honest", "--a", "nan"],
    "seed-negative": ["law", "--model", "singlet", "--seed", "-1"],
    "shared-coin-a": ["protocol", "--name", "shared-coin", "--a", "30"],
    "detection-vec-b": ["protocol", "--name", "detection-loophole", "--vec-b", "0,0,1"],
    "watch-pinned-b": ["protocol", "--name", "watch-pinned", "--b", "45"],
    "watch-hall-vec-a": ["protocol", "--name", "watch-hall", "--vec-a", "1,0,0"],
    "sphere-without-cell": ["protocol", "--name", "detection-loophole", "--mode", "sphere"],
    "sphere-odd-directions": ["protocol", "--name", "detection-loophole", "--mode",
                              "sphere", "--n-directions", "7"],
    "sphere-cell-too-large": ["protocol", "--name", "detection-loophole", "--mode",
                              "sphere", "--delta-omega", "13"],
    "shared-coin-delta-omega": ["protocol", "--name", "shared-coin", "--delta-omega", "1.0",
                                "--trials", "1000"],
    "tb-n-directions": ["protocol", "--name", "tb", "--n-directions", "8",
                        "--trials", "1000"],
    "watch-hall-delta-omega": ["protocol", "--name", "watch-hall", "--delta-omega", "1.0",
                               "--trials", "1000"],
    "symmetric-n-directions": ["protocol", "--name", "detection-loophole",
                               "--n-directions", "8", "--trials", "1000"],
    "asymmetric-delta-omega": ["protocol", "--name", "detection-loophole", "--mode",
                               "asymmetric", "--delta-omega", "1.0", "--trials", "1000"],
    "from-model-correlators": ["feasibility", "--from-model", "hall",
                               "--correlators", "1,1,1,1", "--trials", "1000"],
    "from-model-tol": ["feasibility", "--from-model", "pinned",
                       "--tol", "0.1,0.1,0.1,0.1", "--trials", "1000"],
    "correlators-a": ["feasibility", "--correlators", "0,0,0,0", "--a", "30"],
    "correlators-vec-b2": ["feasibility", "--correlators", "0,0,0,0", "--vec-b2", "0,0,1"],
    "correlators-trials": ["feasibility", "--correlators", "0,0,0,0", "--trials", "7"],
    "scan-b": ["law", "--model", "singlet", "--scan", "0:90:3", "--b", "45"],
    "scan-vec-b": ["law", "--model", "singlet", "--scan", "0:90:3", "--vec-b", "0,1,0"],
    "message-message-bits": ["signal", "--mode", "action", "--message", "0110",
                             "--message-bits", "9"],
    "message-empty": ["signal", "--mode", "action", "--message", ""],
    "message-empty-message-bits": ["signal", "--mode", "action", "--message", "",
                                   "--message-bits", "9"],
    # Sizes above the bound cli.MAX_COUNT of every --trials and --message-bits.
    **{f"{name}-above-the-bound": [*argv, str(size)] for name, argv, size in [
        ("simulate-trials", ["simulate", "--model", "tb", "--trials"], cli.MAX_COUNT + 1),
        ("chsh-trials", ["chsh", "--model", "tb", "--trials"], cli.MAX_COUNT + 1),
        ("feasibility-trials", ["feasibility", "--from-model", "pinned", "--trials"],
         cli.MAX_COUNT + 1),
        ("protocol-trials", ["protocol", "--name", "watch-hall", "--trials"], 10 ** 23),
        ("signal-trials", ["signal", "--mode", "action", "--trials"], 10 ** 23),
        ("signal-message-bits", ["signal", "--mode", "action", "--message-bits"], 10 ** 23),
        ("audit-trials", ["audit", "--mode", "honest", "--trials"], cli.MAX_COUNT + 1)]},
}


@pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_fails_in_one_line(capsys, argv):
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
        warnings.simplefilter("error")
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lhvlab") and captured.err.count("\n") == 1


def _run_module(*argv):
    """(status, stdout, stderr) of python -m lhvlab.cli argv."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "lhvlab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


# Values that start like a negative number but are not argparse's -1 or -.5.
NUMBER_LIKE_VALUES = {
    "correlators": ["feasibility", "--correlators", "-0.7,-0.7,-0.7,0.7"],
    "marginals": ["feasibility", "--correlators", "0,0,0,0", "--marginals", "-0.5,0,0,0"],
    "vec-b": ["law", "--model", "singlet", "--vec-b", "-1,0,0"],
    "scan": ["law", "--model", "singlet", "--scan", "-90:90:3"],
    "a": ["law", "--model", "singlet", "--a", "-1e1"],
}


@pytest.mark.parametrize("argv", NUMBER_LIKE_VALUES.values(), ids=NUMBER_LIKE_VALUES.keys())
def test_option_values_that_start_like_negative_numbers_are_values(argv):
    *head, option, value = argv
    spaced = _run_module(*argv)
    assert spaced == _run_module(*head, f"{option}={value}")
    assert spaced[0] == 0 and spaced[1] and spaced[2] == ""


@pytest.mark.parametrize("argv, error", [
    (["law", "--model", "singlet", "--a", "-x"], "argument --a: expected one argument"),
    (["law", "--model", "singlet", "--seed", "-1"],
     "argument --seed: expected a nonnegative integer (--seed or $LHV_LAB_SEED), got '-1'"),
])
def test_option_values_that_are_no_numbers_keep_their_errors(argv, error):
    status, out, err = _run_module(*argv)
    assert (status, out, err) == (2, "", f"lhvlab law: error: {error}\n")


@pytest.mark.parametrize("scan", ["0:inf:3", "nan:90:3", "0:90:x", ""])
def test_law_scan_bad_range_fails_in_one_line(tmp_path, scan):
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
        warnings.simplefilter("error")
        run_cli(tmp_path, "law", "--model", "singlet", "--scan", scan)
    assert str(exc.value.code).startswith("--scan expects ")


def test_bad_seed_environment_fails_in_one_line(capsys, monkeypatch):
    monkeypatch.setenv("LHV_LAB_SEED", "seven")
    with pytest.raises(SystemExit) as exc:
        main(["law", "--model", "singlet"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_cached_parser_reads_the_seed_environment_on_every_call(tmp_path, capsys,
                                                                monkeypatch):
    monkeypatch.setenv("LHV_LAB_SEED", "777")
    _, report = run_json(tmp_path, "law", "--model", "singlet")
    assert report["seed"] == 777
    monkeypatch.setenv("LHV_LAB_SEED", "seven")
    with pytest.raises(SystemExit) as exc:
        main(["law", "--model", "singlet"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "lhvlab law: error: argument --seed: expected a nonnegative integer "
        "(--seed or $LHV_LAB_SEED), got 'seven'\n")
    monkeypatch.delenv("LHV_LAB_SEED")
    _, report = run_json(tmp_path, "law", "--model", "singlet")
    assert report["seed"] == 12345


def _cli_choices(command, option):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return set(next(a for a in subparsers.choices[command]._actions
                    if option in a.option_strings).choices)


def test_model_choices_come_from_the_table():
    everything = {"singlet", "uniform", "mixed", "tb-ext1", "tb-ext2", "pinned",
                  "hall", "tb", "tb-freewill"}
    sampled = everything - {"singlet", "uniform"}
    local = {"pinned", "hall", "tb-freewill"}
    assert set(MODELS) == everything
    assert {m for m, spec in MODELS.items() if spec.draw is not None} == set(MODEL_IDS) == sampled
    assert {m for m, spec in MODELS.items() if spec.local} == local
    assert _cli_choices("law", "--model") == _cli_choices("chsh", "--model") == everything
    assert _cli_choices("simulate", "--model") == sampled
    assert _cli_choices("feasibility", "--from-model") == local


PROTOCOL_NAMES = {"tb", "tb-freewill", "shared-coin", "detection-loophole",
                  "watch-pinned", "watch-hall"}
BASE_CONFIG = {"name", "trials", "mode", "delta_omega"}
BINNED = "singlet_within_binned_tolerance"
DETECTION = ["efficiency_within_3se", "conditional_law_near_singlet"]

# case -> (protocol argv, check names in report order, config keys beyond BASE_CONFIG)
PROTOCOL_CASES = {
    "tb": (["--name", "tb", "--a", "30", "--b", "120"],
           ["one_bit_per_trial", "no_return_bits"], {"a", "b"}),
    "tb-freewill": (["--name", "tb-freewill", "--vec-a", "0,0,2", "--b", "90"],
                    ["zero_station_bits"], {"a", "b"}),
    "shared-coin": (["--name", "shared-coin"],
                    ["zero_station_bits", "two_shared_draws_per_trial", BINNED], set()),
    "detection-symmetric": (["--name", "detection-loophole"], DETECTION, {"n_directions"}),
    "detection-asymmetric": (["--name", "detection-loophole", "--mode", "asymmetric"],
                             DETECTION, {"n_directions"}),
    "detection-sphere": (["--name", "detection-loophole", "--mode", "sphere",
                          "--n-directions", "16"], DETECTION, {"n_directions"}),
    "watch-pinned": (["--name", "watch-pinned"], ["zero_station_bits", BINNED], set()),
    "watch-hall": (["--name", "watch-hall"], ["zero_station_bits", BINNED], set()),
}


def test_protocol_choices_come_from_the_table():
    assert _cli_choices("protocol", "--name") == set(_protocols()) == PROTOCOL_NAMES
    assert {argv[1] for argv, _, _ in PROTOCOL_CASES.values()} == PROTOCOL_NAMES


@pytest.mark.parametrize("argv, names, extra", PROTOCOL_CASES.values(),
                         ids=PROTOCOL_CASES.keys())
def test_protocol_reports_checks_and_config(tmp_path, argv, names, extra):
    csv_path = tmp_path / "transcript.csv"
    rc, report = run_json(tmp_path, "protocol", *argv, "--trials", "3000", "--seed", "7",
                          "--transcript", str(csv_path))
    assert rc in (0, 1)
    assert [c["name"] for c in report["invariant_checks"]] == names
    config = report["config"]
    assert set(config) == BASE_CONFIG | extra
    assert config["trials"] == 3000 and config["delta_omega"] is None
    if "a" in extra:
        angles = {"30": [math.sqrt(3) / 2, 0.5, 0.0], "0,0,2": [0.0, 0.0, 1.0]}
        assert config["a"] == pytest.approx(angles[argv[3]], abs=1e-9)
    if "n_directions" in extra:
        assert config["n_directions"] == (16 if "sphere" in argv else None)
    assert len(csv_path.read_text().splitlines()) == 3001


def test_protocol_runner_error_fails_in_one_line(monkeypatch):
    # The table reads the runner's module name at call time, so the patch
    # takes effect.
    def desync(*args, **kwargs):
        raise WatchDesyncError("station watch reconstruction differs from entangler")

    monkeypatch.setattr("lhvlab.cli.run_watch_realization", desync)
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "--name", "watch-pinned", "--trials", "10"])
    assert exc.value.code == ("watch-pinned with 10 trials: "
                              "station watch reconstruction differs from entangler")


def test_protocol_config_records_the_settings_read(tmp_path):
    # The same protocol at other settings or another grid carries another config.
    for first, second in ((["--name", "tb"], ["--name", "tb", "--a", "30", "--b", "120"]),
                          (["--name", "detection-loophole", "--mode", "sphere",
                            "--n-directions", "8"],
                           ["--name", "detection-loophole", "--mode", "sphere",
                            "--n-directions", "16"])):
        _, one = run_json(tmp_path, "protocol", *first, "--trials", "2000")
        _, two = run_json(tmp_path, "protocol", *second, "--trials", "2000")
        assert one["config"] != two["config"]


@pytest.mark.parametrize("option, argv", [
    ("--transcript", ["protocol", "--name", "tb", "--trials", "1000"]),
    ("--out", ["law", "--model", "pinned"]),
    ("--out", ["protocol", "--name", "shared-coin", "--trials", "1000"]),
])
def test_unwritable_output_path_fails_in_one_line(tmp_path, option, argv):
    path = str(tmp_path / "missing" / "x.out")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "lhvlab.cli", *argv, option, path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"{option}: ") and path in proc.stderr


def test_output_paths_are_opened_before_the_run(tmp_path, monkeypatch):
    # An unwritable path fails before any draw: the runners must not run.
    def never(*args, **kwargs):
        raise AssertionError("the run started before its output paths were opened")

    for name in ("run_tb_protocol", "run_shared_coin"):
        monkeypatch.setattr(cli, name, never)
    bad = str(tmp_path / "missing" / "x.out")
    good = tmp_path / "transcript.csv"
    for option, argv in (("--transcript", ["--name", "tb"]),
                         ("--out", ["--name", "shared-coin", "--transcript", str(good)])):
        with pytest.raises(SystemExit) as exc:
            main(["protocol", *argv, "--trials", "1000", option, bad])
        assert exc.value.code.startswith(f"{option}: cannot write {bad}: ")
        assert not good.exists()


def test_failed_run_leaves_no_transcript_and_no_report(tmp_path):
    # The transcript is written while the run goes; a run that then fails
    # removes it, and the report is never written.
    transcript, report = tmp_path / "transcript.csv", tmp_path / "report.json"
    with pytest.raises(SystemExit, match="no coincidences recorded"):
        main(["protocol", "--name", "detection-loophole", "--mode", "sphere",
              "--delta-omega", "0.001", "--trials", "1000", "--seed", "11",
              "--transcript", str(transcript), "--out", str(report)])
    assert not transcript.exists() and not report.exists()


# A recorded run over two 32,768-row transcript chunks, on the chunk pool.
RECORDED_RUN = ["protocol", "--name", "tb", "--trials", "40000"]


def _lhvlab_cli(argv, prelude="pass", **kwargs):
    """python -c '<prelude>; sys.exit(cli.main(argv))', on this checkout's src."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = f"import sys; {prelude}; from lhvlab import cli; sys.exit(cli.main(sys.argv[1:]))"
    return subprocess.Popen([sys.executable, "-c", code, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, **kwargs)


def _failed_write(proc, option, path, error, out=""):
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == cli.WRITE_FAILED == 3
    assert stdout == out
    assert stderr == f"{option}: cannot write {path}: {error}\n"


@pytest.mark.parametrize("option, other", [("--out", "--transcript"),
                                           ("--transcript", "--out")])
def test_a_full_disk_fails_in_one_line_and_leaves_no_file(tmp_path, option, other):
    # The other file is written whole, then removed: the run failed.
    kept = tmp_path / "kept"
    proc = _lhvlab_cli([*RECORDED_RUN, option, "/dev/full", other, str(kept)])
    _failed_write(proc, option, "/dev/full", "No space left on device")
    assert not kept.exists()


@pytest.mark.parametrize("option, argv", [
    # The 2,259-byte report is buffered until the close, which fails.
    ("--out", ["law", "--model", "singlet", "--scan", "0:180:100"]),
    # The transcript's first chunk fails in the run, on the pool.
    ("--transcript", [*RECORDED_RUN, "--out"]),
])
def test_a_file_size_limit_fails_in_one_line_and_leaves_no_file(tmp_path, option, argv):
    # The limit is set in the child itself, before it opens anything.
    path, report = tmp_path / "big", tmp_path / "report.json"
    argv = [*argv, str(report)] if argv[-1] == "--out" else argv
    proc = _lhvlab_cli([*argv, option, str(path)],
                       "import resource; resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024))")
    _failed_write(proc, option, path, "File too large")
    assert not path.exists() and not report.exists()


def test_a_closed_pipe_fails_in_one_line_and_leaves_no_report(tmp_path):
    report = tmp_path / "report.json"
    proc = _lhvlab_cli([*RECORDED_RUN, "--transcript", "/dev/stdout", "--out", str(report)])
    assert proc.stdout.read(10) == CSV_HEADER[:10]
    proc.stdout.close()  # the reader goes away mid-transcript
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == cli.WRITE_FAILED
    assert stderr == "--transcript: cannot write /dev/stdout: Broken pipe\n"
    assert not report.exists()


STREAMED_PROTOCOLS = {
    **{name: ["--name", name]
       for name in ("tb", "tb-freewill", "shared-coin", "watch-pinned", "watch-hall")},
    **{f"detection-{mode}": ["--name", "detection-loophole", "--mode", mode]
       for mode in ("symmetric", "asymmetric")},
    "detection-sphere": ["--name", "detection-loophole", "--mode", "sphere",
                         "--n-directions", "16"],
}


@pytest.mark.parametrize("trials", [1, 32_767, 32_769, 65_537, 200_003])
@pytest.mark.parametrize("argv", STREAMED_PROTOCOLS.values(), ids=STREAMED_PROTOCOLS.keys())
def test_streamed_transcript_is_the_recorded_one(tmp_path, monkeypatch, argv, trials):
    # The CLI writes its transcript to the file it opened; the same library
    # run, recorded to a StringIO, writes the same text.
    recorded = []
    for name in ("run_tb_protocol", "run_tb_freewill", "run_shared_coin",
                 "run_detection_loophole", "run_watch_realization"):
        def run(*args, record, real=getattr(cli, name), **kwargs):
            fh = io.StringIO()
            real(*args, record=fh, **kwargs)
            recorded.append(fh.getvalue())
            return real(*args, record=record, **kwargs)
        monkeypatch.setattr(cli, name, run)
    path = tmp_path / "transcript.csv"
    try:
        main(["protocol", *argv, "--trials", str(trials), "--seed", "3",
              "--transcript", str(path), "--out", str(tmp_path / "report.json")])
    except SystemExit as exc:  # a detection run too short for a coincidence
        assert "no coincidences recorded" in exc.code
        assert not recorded and not path.exists()
        return
    assert path.read_bytes() == recorded[0].encode()


def test_freewill_independent_reports_no_information(tmp_path):
    # At n = 12 the two entropies round apart; I is a KL divergence, never < 0.
    rc, report = run_json(tmp_path, "freewill", "--model", "independent", "--n", "12")
    assert rc == 0
    assert report["results"]["I_bits"] == 0.0


def test_law_scan_negative_count_names_the_count(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "law", "--model", "singlet", "--scan", "0:90:-3")
    assert exc.value.code == ("--scan expects START:STOP:COUNT with finite angles and a "
                              "nonnegative integer COUNT, got '0:90:-3'")


def _out_of_memory(*args, **kwargs):
    raise MemoryError


# Each command's allocation fails through a monkeypatch, never for real.
OVERSIZED = {
    "law": (["law", "--model", "singlet", "--scan", "0:1:5"], (cli.np, "linspace")),
    "signal": (["signal", "--mode", "action", "--message-bits", "5", "--trials", "100"],
               (cli, "run_signaling_experiment")),
}


@pytest.mark.parametrize("command", OVERSIZED)
def test_out_of_memory_fails_in_one_line_and_removes_the_report(tmp_path, monkeypatch,
                                                                command):
    argv, (owner, name) = OVERSIZED[command]
    monkeypatch.setattr(owner, name, _out_of_memory)
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(f"lhvlab {command}: error: out of memory")
    assert not out.exists()


@pytest.mark.parametrize("grid", [["--delta-omega", "1e-9"], ["--n-directions", "8"]])
def test_out_of_memory_in_a_sphere_grid_names_the_sphere_directions(monkeypatch, grid):
    # --delta-omega 1e-9 asks for about 1.26e10 directions; the grid's
    # allocation fails through a monkeypatch, never for real.
    monkeypatch.setattr("lhvlab.protocols._fibonacci_antipodal_grid", _out_of_memory)
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "--name", "detection-loophole", "--mode", "sphere", *grid])
    assert exc.value.code == ("lhvlab protocol: error: out of memory; ask for fewer trials or "
                              "sphere directions (a larger --delta-omega or a smaller "
                              "--n-directions)")


def test_out_of_memory_in_other_protocols_keeps_the_general_hint(monkeypatch):
    monkeypatch.setattr("lhvlab.cli.run_tb_protocol", _out_of_memory)
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "--name", "tb", "--mode", "sphere"])
    assert exc.value.code == ("lhvlab protocol: error: out of memory; ask for fewer trials, "
                              "angles or message bits")


# ---------------------------------------------------------------------------
# One-pass report writer against the two steps it replaced


def round_floats(obj):
    """The original rounding step, before json.dumps: 9 significant digits
    for every float, applied recursively; keeps ints and bools."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating, Fraction)):
        return float(f"{float(obj):.9g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [round_floats(v) for v in obj]
    return obj


def reference_report(obj) -> str:
    return json.dumps(round_floats(obj), sort_keys=True, indent=2)


EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16,
                               1e-5, 0.1, 123456789.5, 1 / 3])
FLOATS = st.one_of(EDGE_FLOATS, st.floats())
TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\r\b\f\x00\x1f\x7f é€😀'),
                         st.characters()), max_size=8)
ARRAYS = hnp.arrays(st.sampled_from([np.int64, np.float64]),
                    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3))
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, TEXT, TEXT.map(np.str_),
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**12),
    ARRAYS, st.sampled_from([[], (), {}, np.zeros(0), np.zeros((2, 0))]))
# One key type per dict, as mixed key types do not sort.
KEYS = st.sampled_from([TEXT, st.integers(), FLOATS, st.booleans(), st.none()])
REPORTS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            KEYS.flatmap(lambda keys: st.dictionaries(keys, inner, max_size=4))),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(REPORTS)
def test_report_writer_matches_round_floats_and_json_dumps(obj):
    assert cli._report_text(obj) == reference_report(obj)


@pytest.mark.parametrize("bad", [{1, 2}, np.bool_(True), np.array([True, False]),
                                 {"x": [0.5, {"y": frozenset()}]}, object()],
                         ids=["set", "np.bool_", "bool-array", "nested-frozenset", "object"])
def test_report_writer_refuses_what_json_dumps_refuses(bad):
    with pytest.raises(TypeError):
        reference_report(bad)
    with pytest.raises(TypeError):
        cli._report_text(bad)


# ---------------------------------------------------------------------------
# One-pass parse against the full parser


VALID_ARGV = [
    ["law", "--model", "tb-ext2", "--p", "0.25", "--a", "-30", "--vec-b", "0,1,-1",
     "--seed", "7", "--out", "r.json"],
    ["law", "--model", "singlet", "--scan", "0:90:3", "--vec-a", "1,2,3", "--b", "9"],
    ["law", "--mod", "hall", "--b=45", "--se", "3"],
    ["law", "--model", "singlet", "--a", "10", "--a", "20"],
    ["simulate", "--model", "tb-ext1", "--p", "1", "--trials", "500", "--a", "15",
     "--b", "75", "--vec-a", "0,0,1", "--vec-b", "1,0,0", "--seed", "0", "--out", "-"],
    ["chsh", "--model", "tb-ext1", "--p", "0.5", "--trials", "9", "--a", "1", "--a2", "2",
     "--b", "3", "--b2", "4", "--vec-a", "1,0,0", "--vec-a2", "0,1,0", "--vec-b", "0,0,1",
     "--vec-b2", "1,1,0", "--seed", "8", "--out", "c.json"],
    ["feasibility", "--correlators=0.5,0.5,0.5,-0.5", "--marginals", "0,0,0,0",
     "--tol", "0.1,0.1,0.1,0.1", "--seed", "4", "--out", "f.json"],
    ["feasibility", "--from-model", "hall", "--trials", "100", "--a", "0", "--a2", "90",
     "--b", "45", "--b2", "-45", "--vec-a", "1,0,0", "--vec-a2", "0,1,0", "--vec-b", "0,0,1",
     "--vec-b2", "0,1,0"],
    ["protocol", "--name", "detection-loophole", "--mode", "sphere", "--delta-omega", "0.5",
     "--n-directions", "8", "--transcript", "t.csv", "--trials", "10", "--out", "r.json"],
    ["protocol", "--name", "tb", "--a", "0", "--b", "60", "--vec-a", "1,0,0",
     "--vec-b", "0,1,0", "--seed", "3"],
    ["signal", "--mode", "slave-will", "--message", "0110", "--message-bits", "4",
     "--trials", "8", "--seed", "1", "--out", "s.json"],
    ["freewill", "--model", "dictated", "--n", "5", "--seed", "2", "--out", "f.json"],
    ["freewill"],
    ["audit", "--mode", "third-party", "--a", "5", "--b", "7", "--vec-a", "0,1,0",
     "--vec-b", "0,0,1", "--trials", "3", "--seed", "6", "--out", "a.json"],
]


def test_parse_table_covers_every_option():
    for command, parser in cli._subparsers().items():
        written = {arg.split("=")[0] for argv in VALID_ARGV if argv[0] == command for arg in argv}
        options = {opt for action in parser._actions for opt in action.option_strings}
        assert options - written == {"-h", "--help"}, command


def _main_namespace(monkeypatch, argv):
    """The namespace that main(argv) hands to _validate."""
    seen = []

    def stop(parser, args):
        seen.append(args)
        raise StopIteration
    monkeypatch.setattr(cli, "_validate", stop)
    with pytest.raises(StopIteration):
        main(argv)
    return seen[0]


@pytest.mark.parametrize("argv", VALID_ARGV, ids=[" ".join(a[:2]) for a in VALID_ARGV])
def test_one_pass_parse_gives_the_full_parsers_namespace(monkeypatch, argv):
    got = vars(_main_namespace(monkeypatch, argv))
    want = vars(cli._parser().parse_args(argv))
    assert list(got) == list(want)
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[key].dtype == value.dtype and np.array_equal(got[key], value)
        else:
            assert type(got[key]) is type(value) and got[key] == value, key


# argv whose output goes through argparse's help, errors or _validate.
PARSE_OUTPUTS = [
    [], ["-h"], ["bogus"], ["--seed", "3", "law"],
    ["law"], ["law", "-h"], ["law", "--model", "singlet", "--extra"],
    ["simulate", "--model", "tb", "--trials", "0"],
    ["law", "--model", "tb-ext1"],
    ["law", "--mod", "singlet"],
]
FULL_PARSER = ("import sys; from lhvlab import cli; "
               "cli._parse = lambda argv: cli._parser().parse_args(argv); sys.exit(cli.main())")


@pytest.mark.parametrize("argv", PARSE_OUTPUTS, ids=[" ".join(a) or "none" for a in PARSE_OUTPUTS])
def test_one_pass_parse_keeps_the_full_parsers_bytes(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    env.pop("LHV_LAB_SEED", None)
    runs = [subprocess.Popen([sys.executable, *how, *argv], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, env=env)
            for how in (["-m", "lhvlab.cli"], ["-c", FULL_PARSER])]
    (out, err), (want_out, want_err) = (run.communicate(timeout=60) for run in runs)
    assert (runs[0].returncode, out, err) == (runs[1].returncode, want_out, want_err)


# ---------------------------------------------------------------------------
# The size bound of --trials and --message-bits, and a fuzz of the whole parser

def _status(argv) -> tuple:
    """(exit status, stderr) of main(argv) in this process, a SystemExit
    message printed as the interpreter prints it."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
            if isinstance(status, str):
                print(status, file=sys.stderr)
                status = 1
    return (0 if status is None else status), err.getvalue()


# Every option whose type is cli._POSITIVE.
SIZED = [["simulate", "--model", "tb", "--trials"], ["chsh", "--model", "tb", "--trials"],
         ["feasibility", "--from-model", "pinned", "--trials"],
         ["protocol", "--name", "watch-hall", "--trials"],
         ["signal", "--mode", "action", "--trials"],
         ["signal", "--mode", "action", "--message-bits"],
         ["audit", "--mode", "honest", "--trials"]]


@pytest.mark.parametrize("argv", SIZED, ids=[" ".join(argv[::3]) for argv in SIZED])
def test_the_size_bound_itself_parses(monkeypatch, argv):
    # The run each argv names is never started.
    seen = []
    monkeypatch.setattr(cli, "_COMMANDS",
                        dict.fromkeys(cli._COMMANDS, lambda args: seen.append(args) or 0))
    assert _status([*argv, str(cli.MAX_COUNT)]) == (0, "")
    assert getattr(seen[0], argv[-1][2:].replace("-", "_")) == cli.MAX_COUNT == 2 ** 51


def test_the_watch_stations_keep_time_up_to_the_bound_and_not_to_2_53():
    # The last trial indices below the bound reconstruct bit for bit; this
    # one, below 2**53, does not.
    run_watch_realization(4096, "pinned", 1, start_tick=cli.MAX_COUNT - 4096)
    with pytest.raises(WatchDesyncError):
        run_watch_realization(1, "pinned", 1, start_tick=3_584_094_711_137_305)


# Values for any option: edge numbers, NaN, +-inf, empty and non-ASCII text,
# lists and ranges, and whatever else text hypothesis draws.
EDGE_VALUES = ["0", "1", "-1", "2", "7", "-0", "0.5", "1e-300", "1e308", "1e309", "-1e309",
               str(cli.MAX_COUNT), str(cli.MAX_COUNT + 1), str(10 ** 23), "9" * 5000,
               "nan", "NaN", "-nan", "inf", "-inf", "+inf", "Infinity", "", " ", "-", "--",
               "é", "λ", "１２", "٣", "0,0,0", "1,0,0", "nan,0,0", "inf,0,0", "1e300,1e300,0",
               "0.5,0.5,0.5,-0.5", "1,1,1,1", "2,0,0,0", "0:90:3", "0:90:-3", "nan:0:3",
               "0110", "01x", "12.566370614359172", "12.566370614359173", "2,", ",", "x"]
VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.integers(-2 ** 64, 2 ** 64).map(str),
    st.floats().map(repr),
    st.lists(st.floats().map(repr), max_size=5).map(",".join),
    st.text(st.characters(exclude_characters="\0"), max_size=6),  # no argv holds a NUL
)


def _accepted(action, value) -> bool:
    try:
        action.type(value)
    except (argparse.ArgumentTypeError, TypeError, ValueError):  # as argparse catches
        return False
    return True


def _fuzzed_argv(command, paths):
    """argv of command: its required options with one of their choices,
    then up to 6 options drawn from all of them, repeats included, each as
    --opt value or --opt=value. --out and --transcript take one of paths;
    any other option takes an edge value that it accepts (or one of its
    choices), two times in three, or any value at all."""
    actions = cli._subparsers()[command]._actions
    options = {}
    for action in actions:
        if action.dest in ("out", "transcript"):
            values = st.sampled_from(paths)
        else:
            good = (list(action.choices) if action.choices else
                    [v for v in EDGE_VALUES if action.type is None or _accepted(action, v)])
            values = st.one_of(st.sampled_from(good), st.sampled_from(good), VALUES)
        options.update((opt, values) for opt in action.option_strings
                       if opt not in ("-h", "--help"))
    required = st.tuples(*(st.sampled_from([[action.option_strings[0], choice]
                                             for choice in action.choices])
                           for action in actions if action.required))
    pairs = st.lists(st.one_of([st.tuples(st.just(opt), values, st.booleans())
                                for opt, values in options.items()]), max_size=6)
    return st.tuples(required, pairs).map(lambda drawn: [
        command, *(x for pair in drawn[0] for x in pair),
        *(x for opt, value, joined in drawn[1]
          for x in ([f"{opt}={value}"] if joined else [opt, value]))])


FUZZ_EXAMPLES = 60  # per subcommand


@pytest.mark.parametrize("command", cli._subparsers())
def test_parser_fuzz_exits_0_1_or_2_in_at_most_one_line(tmp_path, monkeypatch, command):
    # Under tmp_path only: files, a directory and a path in none.
    paths = [str(tmp_path / "r.json"), str(tmp_path / "t.csv"), str(tmp_path),
             str(tmp_path / "none" / "r.json")]

    @settings(max_examples=FUZZ_EXAMPLES, deadline=None, derandomize=True, database=None)
    @given(_fuzzed_argv(command, paths))
    def fuzz(argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, err = _status(argv)
        assert status in (0, 1, 2), (argv, status, err)
        assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)

    # Every command returns 0 at once, so main stops after _validate and _opened.
    monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, lambda args: 0))
    fuzz()
