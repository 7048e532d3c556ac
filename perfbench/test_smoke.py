"""Smoke test of the benchmark at tiny sizes.

Run from the root of the checkout:

    python3 -m pytest perfbench/test_smoke.py -q

It shows that every workload runs with and without tracing, that each run
prints every metric BENCHMARK.json names with its unit, that the checker
counts a wrong verdict as a failure, that inputs are reproducible from the
seed, and that the benchmark refuses to run without the program's source.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Sizes.at_scale(0.01)


def _bench(cwd, workload, trace, seed=5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "0.01"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_prints_every_metric(workload, trace):
    out = _bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    details = json.loads(out.stdout.splitlines()[-2])
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert details["provenance"]["seed"] == 5
    # Statistical invariants are not meant to hold at 1% of the trial
    # counts, but exact verdicts are, and tracing must never change a report.
    if workload == "exact_verdicts":
        assert result["failed"] == 0, details["first_failures"]
    for _, fails in details["first_failures"]:
        assert not any("traced report differs" in f for f in fails)


def _exact_ops():
    cycle = next(workloads.cycles("exact_verdicts", 3, TINY))
    return [op for op in cycle if op.kind.startswith("feasibility/")]


def _report(op, tmp_path):
    from lhvlab.cli import main

    out = tmp_path / "report.json"
    assert main([*op.argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_wrong_verdict_counts_as_failure(tmp_path):
    seen = set()
    for op in _exact_ops():
        report = _report(op, tmp_path)
        key = (op.params["mode"], report["results"]["feasible"])
        if key in seen:
            continue
        seen.add(key)
        assert checks.check_op(op, 0, report, checks.Stats()) == []
        wrong = copy.deepcopy(report)
        wrong["results"]["feasible"] = not wrong["results"]["feasible"]
        if not report["results"]["feasible"]:
            wrong["results"]["witness"] = {k: 1 / 16 for k in checks.QUAD_KEYS}
        assert checks.check_op(op, 0, wrong, checks.Stats()), key
        if report["results"]["feasible"]:
            bent = copy.deepcopy(report)
            bent["results"]["witness"][checks.QUAD_KEYS[0]] += 1e-3
            assert checks.check_op(op, 0, bent, checks.Stats()), key
    assert {("exact", True), ("exact", False), ("band", False)} <= seen

    record = {"kind": "feasibility/exact", "latency": 0.01, "work": 1, "failures": ["x"]}
    metrics, _ = run.end_to_end([dict(record, failures=[]), record], [0.1])
    assert metrics["ok_ratio"][0] == 0.5


def test_latency_is_the_fastest_pass_and_later_passes_must_match(tmp_path):
    op = _exact_ops()[0]
    runner = run.Runner(tmp_path)
    (record,) = run.run_passes(runner, [op], 3)
    assert record["failures"] == []
    assert len(record["pass_latencies"]) == 3
    assert record["latency"] == max(record["pass_latencies"])
    assert runner.run(op, reference=record["digest"])["failures"] == []
    assert runner.run(op, reference="0" * 64)["failures"] == ["report differs from the first pass"]


def test_transcript_check_catches_filled_undetected_cell(tmp_path):
    good = tmp_path / "good.csv"
    bad = tmp_path / "bad.csv"
    rows = ["0,m,1,,0.1,0.2,1,,1,0,0,0", "1,m,1,,0.1,0.2,,-1,0,1,0,0"]
    good.write_text("\n".join([checks.CSV_HEADER, *rows]) + "\n")
    bad.write_text("\n".join([checks.CSV_HEADER, rows[0], "1,m,1,,0.1,0.2,1,-1,0,1,0,0"]) + "\n")
    assert checks.check_transcript(good, 2)[0] == []
    assert checks.check_transcript(bad, 2)[0]
    assert checks.check_transcript(good, 3)[0]


def test_inputs_are_reproducible_from_the_seed():
    for workload in workloads.WORKLOADS:
        first = next(workloads.cycles(workload, 7, TINY))
        assert first == next(workloads.cycles(workload, 7, TINY))
        assert first != next(workloads.cycles(workload, 8, TINY))


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "mc_sweep", 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
