"""lhvlab benchmark: closed-loop workloads against the checkout's src/ tree.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 50 --trace 0

One client, one process, one thread: the next operation starts when the
previous one has returned. The run takes a fixed number of whole cycles of
the workload and executes that operation list a fixed number of passes,
about --seconds worth at nominal speed (see workloads.py).

An operation's latency is its slowest pass. The reference host runs at a
steady base speed with bursts of up to 1.6 times that speed, seconds to tens
of seconds long, whose share of a run varies from none to more than half.
The slowest of passes spread over the run is the base-speed time and stays
steady from run to run; a single pass, the fastest or the median pass
follows the share of bursts instead.

Every operation's output is checked on the first pass (see checks.py); each
later pass must reproduce the first pass's report bytes. A failure is
counted, never fatal. The last line of standard output is the result object;
the line before it holds provenance and details.

--trace 0 reports the end-to-end metrics. --trace 1 runs every operation
both untraced and traced (see tracing.py), requires byte-identical reports
from the two, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 12
# The console entry point imports lhvlab.cli, so every invocation pays this.
IMPORT = "import lhvlab.cli"
IMPORT_CODE = f"import time; t = time.perf_counter(); {IMPORT}; print(time.perf_counter() - t)"
CHILD_TIMEOUT = 60
# An operation that has not returned by then is abandoned and counted as
# failed, so one hang cannot stall the whole run.
OP_TIMEOUT = 60
WORK_DIR = ".perfbench"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size relative to the full workload (smoke test only)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment and provenance


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (checkout has no git metadata)"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "lhvlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, args, thread_cap: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_thread_cap": thread_cap,
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "commit": commit(root),
        "src_sha256": src_digest(root),
    }


# ---------------------------------------------------------------------------
# Set-up time, measured in fresh child interpreters


def _child(root: Path, argv: list) -> subprocess.CompletedProcess:
    out = subprocess.run([sys.executable, *argv], cwd=root,
                         env={**os.environ, "PYTHONPATH": str(root / "src")},
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if out.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {out.stderr.strip()[-500:]}")
    return out


def setup_seconds(root: Path, count: int) -> list:
    """Wall time of the entry point's import in `count` fresh interpreters."""
    return [float(_child(root, ["-c", IMPORT_CODE]).stdout) for _ in range(count)]


def import_seconds(root: Path) -> dict:
    """Median self import time of each lhvlab module, from -X importtime."""
    samples = {}
    for _ in range(SETUP_SAMPLES):
        err = _child(root, ["-X", "importtime", "-c", IMPORT]).stderr
        for line in err.splitlines():
            parts = [x.strip() for x in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("lhvlab."):
                self_us = int(parts[0].rsplit(":", 1)[1])
                samples.setdefault(parts[2][len("lhvlab."):], []).append(self_us * 1e-6)
    return {name: statistics.median(v) for name, v in samples.items()}


# ---------------------------------------------------------------------------
# The closed loop


def _timed_out(signum, frame):
    raise TimeoutError(f"operation did not return within {OP_TIMEOUT} s")


class Runner:
    """Runs operations one at a time and checks each one's output."""

    def __init__(self, tmp: Path):
        import checks
        import lhvlab.cli  # the package imports every other module itself

        signal.signal(signal.SIGALRM, _timed_out)
        self.checks = checks
        self.stats = checks.Stats()
        self.lhvlab = sys.modules["lhvlab"]
        self.report_path = tmp / "report.json"
        self.transcript_path = tmp / "transcript.csv"

    def _call_cli(self, op):
        argv = [*op.argv, "--out", str(self.report_path)]
        if op.transcript:
            argv += ["--transcript", str(self.transcript_path)]
        # Looked up at call time, so a traced call goes through the wrapper.
        return self.lhvlab.cli.main(argv)

    def _call_library(self, op):
        # The Boole-bound loop of acceptance criterion 7, one batch.
        ineq = self.lhvlab.inequalities
        stream = self.lhvlab.geometry.RandomStream(op.params["seed"])
        draws = [ineq.MasterProb16.random(stream) for _ in range(op.params["count"])]
        return draws, [d.chsh_value() for d in draws]

    def run(self, op, reference=None) -> dict:
        """Time one operation, then check it. Returns its record. With a
        `reference` digest, the check is that the operation exits with
        status 0 and reproduces those report bytes."""
        for path in (self.report_path, self.transcript_path):
            path.unlink(missing_ok=True)
        rc, error, value = None, None, None
        signal.alarm(OP_TIMEOUT)
        t0 = time.perf_counter()
        try:
            if op.library:
                value = self._call_library(op)
                rc = 0
            else:
                rc = self._call_cli(op)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
            error = f"SystemExit: {exc.code}"
        except Exception:  # noqa: BLE001 - one failed operation must not end the run
            error = traceback.format_exc(limit=3)
        finally:
            latency = time.perf_counter() - t0
            signal.alarm(0)
        if reference is None:
            checked = self._check(op, rc, error, value)
        else:
            checked = self._recheck(op, rc, error, value, reference)
        return {"kind": op.kind, "latency": latency, "work": op.work, **checked}

    def _report_bytes(self, op, value) -> tuple:
        if op.library and value is not None:
            draws, chsh = value
            report = {"chsh": [str(v) for v in chsh], "atoms": [d.as_dict() for d in draws]}
            return report, json.dumps(report, sort_keys=True).encode()
        if not self.report_path.exists():
            return None, b""
        raw = self.report_path.read_bytes()
        try:
            return json.loads(raw), raw
        except ValueError:
            return None, raw

    def _recheck(self, op, rc, error, value, reference) -> dict:
        digest = hashlib.sha256(self._report_bytes(op, value)[1])
        if op.transcript and self.transcript_path.exists():
            digest.update(_file_sha256(self.transcript_path).encode())
        fails = [error] if error else []
        if rc != 0:
            fails.append(f"exit status {rc}")
        if digest.hexdigest() != reference:
            fails.append("report differs from the first pass")
        return {"failures": fails, "digest": digest.hexdigest()}

    def _check(self, op, rc, error, value) -> dict:
        report, raw = self._report_bytes(op, value)
        fails = [error] if error else []
        fails += self.checks.check_op(op, rc, report, self.stats)
        digest = hashlib.sha256(raw)
        if op.transcript:
            if self.transcript_path.exists():
                t_fails, t_digest = self.checks.check_transcript(
                    self.transcript_path, op.params["rows"])
                fails += t_fails
                digest.update(t_digest.encode())
            else:
                fails.append("no transcript written")
        return {"failures": fails, "digest": digest.hexdigest()}


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_passes(runner: Runner, ops: list, n_passes: int, between=lambda: None) -> list:
    """Execute `ops` in order `n_passes` times over and return one record
    per operation, whose latency is the slowest of its passes. The first
    pass checks every output; later passes must reproduce its reports.
    `between()` runs before, between and after the passes, outside any
    timed operation."""
    between()
    records = [runner.run(op) for op in ops]
    for rec in records:
        rec["pass_latencies"] = [rec["latency"]]
    between()
    for _ in range(n_passes - 1):
        for rec, op in zip(records, ops):
            again = runner.run(op, reference=rec["digest"])
            rec["pass_latencies"].append(again["latency"])
            rec["failures"] += again["failures"]
        between()
    for rec in records:
        rec["latency"] = max(rec["pass_latencies"])
    return records


def traced_step(runner: Runner, tracer):
    """Run each operation untraced and traced, alternating which goes first
    so that drift and cache warmth do not favour either side; the traced
    report must be byte-identical to the untraced one."""
    def step(i, op):
        pair = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                pair[traced] = runner.run(op)
            finally:
                if traced:
                    tracer.uninstall()
            pair[traced]["traced"] = traced
        if pair[True]["digest"] != pair[False]["digest"]:
            pair[True]["failures"].append("traced report differs from the untraced one")
        return [pair[False], pair[True]]
    return step


# ---------------------------------------------------------------------------
# Metrics


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 60.0, 50.0)


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by a beta distribution centred on q. A workload with
    few operations (mc_sweep has 26) would otherwise report the latency of
    one or two operations, and with it their own noise."""
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    weights = np.diff(betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n))
    return float(weights @ xs)


def tail(latencies) -> tuple:
    """The highest percentile of the ladder with at least ten samples beyond
    it, as (value, percentile); the maximum when even p50 has fewer."""
    n = len(latencies)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            return quantile(latencies, pct / 100.0), pct
    return max(latencies), 100.0


def end_to_end(records, setup) -> tuple:
    lat = [r["latency"] for r in records]
    failed = sum(1 for r in records if r["failures"])
    tail_value, tail_pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (sum(r["work"] for r in records) / sum(lat), "1/s"),
        "op_p50_s": (quantile(lat, 0.5), "s"),
        "op_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((len(records) - failed) / len(records), "ratio"),
    }
    details = {"tail_percentile": tail_pct, "latency_samples": len(lat),
               "setup_samples": setup,
               "latencies": [(r["kind"], r.get("pass_latencies", [r["latency"]]))
                             for r in records]}
    return metrics, details


def per_layer(summary, traced_wall, untraced_wall, import_s) -> tuple:
    import tracing

    metrics = {}
    for name in tracing.REPORTED:
        metrics[f"{name}.calls"] = (summary["calls"].get(name, 0), "count")
        metrics[f"{name}.self_share"] = (summary["self_s"].get(name, 0.0) / traced_wall, "share")
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, value in summary["self_s"].items():
        layer_self[name.split(".", 1)[0]] += value
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_share"] = (layer_self[layer] / traced_wall, "share")
    for key, unit in (("geometry.draws", "count"),
                      ("models.hall_sample.accept_ratio", "ratio"),
                      ("models.hall_sample.passes", "count"),
                      ("protocols.watch_hall.accept_ratio", "ratio"),
                      ("protocols.TranscriptBatch.to_csv.rows", "count"),
                      ("protocols.TranscriptBatch.to_csv.bytes", "bytes"),
                      ("inequalities.fine_feasibility.infeasible", "count")):
        metrics[key] = (summary[key], unit)
    for layer in tracing.LAYERS:
        metrics[f"{layer}.import_s"] = (import_s[layer], "s")
    covered = sum(layer_self.values())
    metrics["trace.self_coverage"] = (covered / traced_wall, "ratio")
    metrics["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    details = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
               "self_s": summary["self_s"], "layer_self_s": layer_self}
    return metrics, details


# ---------------------------------------------------------------------------


def run(args, root: Path, tmp: Path) -> tuple:
    sizes = workloads.Sizes.at_scale(args.scale)
    runner = Runner(tmp)
    _child(root, ["-c", IMPORT])  # writes the bytecode cache, untimed
    for op in workloads.warm_up_ops(args.workload, args.seed):
        runner.run(op)
    ops = workloads.operations(args.workload, args.seed, sizes, workloads.cycle_count(
        args.workload, args.seconds, traced=bool(args.trace)))

    if not args.trace:
        # Set-up samples are spread over the run, so their median reflects
        # the host's speed across the whole run rather than at its start.
        n_passes = workloads.passes(args.workload)
        per_point = -(-SETUP_SAMPLES // (n_passes + 1))
        setup = []
        records = run_passes(runner, ops, n_passes,
                             between=lambda: setup.extend(setup_seconds(root, per_point)))
        metrics, details = end_to_end(records, setup)
    else:
        import tracing

        import_s = import_seconds(root)
        tracer = tracing.Tracer()
        step = traced_step(runner, tracer)
        records = [rec for i, op in enumerate(ops) for rec in step(i, op)]
        metrics, details = per_layer(
            tracing.summarize(tracer.spans),
            sum(r["latency"] for r in records if r["traced"]),
            sum(r["latency"] for r in records if not r["traced"]), import_s)
        spans_path = root / WORK_DIR / f"spans-{args.workload}-{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": tracer.spans}, fh)
        details["spans_file"] = str(spans_path.relative_to(root))

    failures = [(r["kind"], r["failures"][:3]) for r in records if r["failures"]]
    details.update({
        "operations": len(records),
        "work": sum(r["work"] for r in records),
        "per_kind": _per_kind(records),
        "band_lp_checked": runner.stats.band_lp_checked,
        "band_edge_skipped": runner.stats.band_edge_skipped,
        "first_failures": failures[:10],
    })
    return metrics, details, len(records), len(failures)


def _per_kind(records) -> dict:
    """Operation count and median latency of each kind."""
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["latency"])
    return {k: {"count": len(v), "median_latency": statistics.median(v)}
            for k, v in by_kind.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lhvlab" / "__init__.py").is_file():
        print("error: run from the root of an lhvlab checkout (src/lhvlab not found)",
              file=sys.stderr)
        return 2

    thread_cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(thread_cap)
    sys.path.insert(0, str(root / "src"))
    import lhvlab

    if Path(lhvlab.__file__).resolve().parent != (root / "src" / "lhvlab").resolve():
        print(f"error: lhvlab imported from {lhvlab.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    (root / WORK_DIR).mkdir(exist_ok=True)
    tmp = root / WORK_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        metrics, details, attempted, failed = run(args, root, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(json.dumps({"provenance": provenance(root, args, thread_cap), **details},
                     sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
