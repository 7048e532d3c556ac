"""Command-line surface for the simulation laboratory.

Subcommands: law, simulate, chsh, feasibility, protocol, signal,
freewill, audit. Every run is reproducible from its seed (flag --seed or
the LHV_LAB_SEED environment variable) and reports a stable JSON schema:

    {command, config, seed, results, invariant_checks[], version}

Each report is json.dumps(report, sort_keys=True, indent=2) with every
float rounded to 9 significant digits, written in one pass (_report_text),
so repeated runs with one seed are byte-identical. Exit status is 0 iff
every invariant check of the run passed. Bad input exits with one line
on stderr: status 2 for a bad option value or an ignored option, status 1
for a malformed or out-of-range number list (--correlators, --marginals,
--tol, --scan), for a protocol run that cannot finish and for an --out or
--transcript file that cannot be opened, and status 3 (WRITE_FAILED) for
one that cannot be written or closed (a full disk, a file-size limit, a
reader that closed the pipe). Both files are opened before the run, so an
unwritable path fails before any draw, and a run that fails removes them:
it leaves no partial transcript and no report. On glibc,
main keeps freed memory mapped for the rest of the process, in one heap
for all its threads, so the temporaries of a Monte Carlo run are not
faulted in again chunk by chunk (see _keep_chunk_memory).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import re
import stat
import sys
from contextlib import contextmanager, suppress
from fractions import Fraction
from functools import cache, partial
from statistics import NormalDist

import numpy as np

from . import __version__
from .freewill import (dictated_settings_model, discretized_setting_tied_model,
                       mutual_information, setting_independent_model)
from .geometry import RandomStream, normalize, planar_setting
from .inequalities import (chsh_analytic, chsh_mc, counterfactual_correlators,
                           fine_feasibility, ALGEBRAIC_BOUND)
from .models import MODEL_IDS, MODELS, analytic_law, estimate_law
from .protocols import (run_conspiracy_audit, run_detection_loophole,
                        run_shared_coin, run_signaling_experiment,
                        run_tb_freewill, run_tb_protocol, run_watch_realization)

DEFAULT_SEED = 12345
SEED_ENV = "LHV_LAB_SEED"
# Probability that a sampled check fails a correct run (see _z_check).
ALPHA = 1e-5
# Exit status of a run whose --out or --transcript file could not be
# written or closed.
WRITE_FAILED = 3


_STRING = json.encoder.encode_basestring_ascii  # json.dumps's string writer


def _json_key(key) -> str:
    """A dict key that is not a str, as json.dumps turns it into one."""
    if not isinstance(key, (int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return json.dumps(key)


def _plain(obj):
    """obj as the plain value that json.dumps writes for it: a float for a
    numpy float or a Fraction, an int for a numpy int, a dict for a dict
    subclass and a list for a tuple or a numpy array. Any other value
    raises TypeError, as in json.dumps (a set, an np.bool_)."""
    for kinds, plain in (((float, np.floating, Fraction), float), ((int, np.integer), int),
                         (dict, dict), ((list, tuple, np.ndarray), list)):
        if isinstance(obj, kinds):
            return plain(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _put_json(obj, indent: str, put) -> None:
    """Hand put the text of obj, as _report_text writes it, piece by piece;
    indent is a newline and the spaces of obj's depth."""
    kind = type(obj)
    if kind is float:
        obj = float(f"{obj:.9g}")
        put(repr(obj) if math.isfinite(obj) else json.dumps(obj))  # NaN, Infinity
    elif kind is str:
        put(_STRING(obj))
    elif kind is dict or kind is list:
        if not obj:
            put("{}" if kind is dict else "[]")
            return
        inner = indent + "  "
        put("{" if kind is dict else "[")
        for i, value in enumerate(sorted(obj.items()) if kind is dict else obj):
            put("," + inner if i else inner)
            if kind is dict:
                key, value = value
                put(_STRING(key if isinstance(key, str) else _json_key(key)) + ": ")
            _put_json(value, inner, put)
        put(indent + ("}" if kind is dict else "]"))
    elif kind is bool:
        put("true" if obj else "false")
    elif kind is int:
        put(repr(obj))
    elif obj is None:
        put("null")
    elif isinstance(obj, str):
        put(_STRING(obj))
    else:
        _put_json(_plain(obj), indent, put)


def _report_text(report) -> str:
    """json.dumps(report, sort_keys=True, indent=2), byte for byte, of
    report with every float rounded to 9 significant digits, in one walk
    (_put_json) that appends the pieces to one list, joined once. Values
    that are not plain floats, ints, strs, bools, None, lists or dicts are
    written as their _plain value."""
    parts = []
    _put_json(report, "\n", parts.append)
    return "".join(parts)


class _WriteFailed(Exception):
    """A write, flush or close of an --out or --transcript file failed;
    the message is one line naming the option, the path and the error."""


class _Output:
    """The text file of an --out or --transcript option, opened for
    writing; one line naming the option and the path if it cannot be. An
    OSError from writing or closing it (the close flushes) is raised as
    _WriteFailed."""

    def __init__(self, path: str, option: str):
        self.name, self.option = path, option
        try:
            self._fh = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise SystemExit(f"{option}: cannot write {path}: {exc.strerror or exc}") from None
        self._stat = os.fstat(self._fh.fileno())

    def write(self, text: str) -> int:
        return self._guarded(self._fh.write, text)

    def close(self) -> None:
        self._guarded(self._fh.close)

    def _guarded(self, call, *args):
        try:
            return call(*args)
        except OSError as exc:
            raise _WriteFailed(f"{self.option}: cannot write {self.name}: "
                               f"{exc.strerror or exc}") from None

    def discard(self) -> None:
        """Close the file, whatever the close raises, and remove it if its
        path still names the regular file opened (not a device, a pipe or a
        link such as /dev/stdout)."""
        with suppress(OSError):
            self._fh.close()
        with suppress(OSError):
            st = os.lstat(self.name)
            if stat.S_ISREG(st.st_mode) and os.path.samestat(st, self._stat):
                os.remove(self.name)


@contextmanager
def _opened(args):
    """Open the run's --transcript and --out files, in that order, in place
    of their paths on args, and close them once the run is done. If the
    run raises, or a write or close fails, every file is discarded
    (_Output.discard): no partial transcript or report is left. A failed
    write then ends the run with its one line on stderr and status
    WRITE_FAILED; any other exception goes on."""
    files = []
    try:
        for option in ("transcript", "out"):
            if getattr(args, option, None):
                files.append(_Output(getattr(args, option), f"--{option}"))
                setattr(args, option, files[-1])
        yield
        for fh in files:
            fh.close()
    except BaseException as exc:
        for fh in files:
            fh.discard()
        if isinstance(exc, _WriteFailed):
            print(exc, file=sys.stderr)
            raise SystemExit(WRITE_FAILED) from None
        raise


def _write(text: str, out) -> None:
    (out or sys.stdout).write(text)


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def cell_z(count, n, p):
    """Binomial z and se of each cell, count of n trials against the
    reference probability p (arrays that broadcast): se = sqrt(p(1 - p)/n),
    z = (count/n - p)/se. A cell that matches p, or has no trials, has z 0;
    any other cell with se 0 has an infinite z."""
    count, n, p = np.broadcast_arrays(*(np.asarray(x, float) for x in (count, n, p)))
    p = np.clip(p, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        se = np.sqrt(p * (1.0 - p)) / np.sqrt(n)
        diff = np.where(n > 0, count / n - p, 0.0)
        return np.where(diff == 0.0, 0.0, diff / se), se


def z_bound(k: int) -> float:
    """The |z| that k cells may reach: the two-sided normal quantile at
    ALPHA / k (Bonferroni)."""
    return NormalDist().inv_cdf(1.0 - ALPHA / (2 * k))


def binomial_tail(count: float, n: float, p: float) -> float:
    """An upper bound on the binomial(n, p) probability of a count at least
    as far from n p as count, on count's side: pmf(count) / (1 - r), where
    r < 1 is the ratio of the next term outward to pmf(count), and the
    ratios only shrink further out."""
    p = min(max(p, 0.0), 1.0)
    if p in (0.0, 1.0):
        return float(count == n * p)
    if count > n * p:
        r = (n - count) / (count + 1) * p / (1 - p)
    else:
        r = count / (n - count + 1) * (1 - p) / p
    log_pmf = (math.lgamma(n + 1) - math.lgamma(count + 1) - math.lgamma(n - count + 1)
               + count * math.log(p) + (n - count) * math.log1p(-p))
    return math.exp(log_pmf) / (1.0 - r)


def _z_check(name: str, count, n, p, detail) -> dict:
    """The one rule of every sampled check, over k cells (cell_z): a cell
    fails iff its |z| exceeds z_bound(k) and its binomial_tail is at most
    ALPHA / (2k). So a correct run fails with probability at most ALPHA,
    at any count and whatever the dependence between the cells; the tail
    is needed where a cell expects few counts, as the normal tail is then
    far too light. detail is the check's text, or a function of the
    cells' z and se that gives it."""
    count, n, p = np.broadcast_arrays(*(np.asarray(x, float) for x in (count, n, p)))
    z, se = cell_z(count, n, p)
    far = np.abs(z) > z_bound(z.size)
    passed = all(binomial_tail(*cell) > ALPHA / (2 * z.size)
                 for cell in zip(count[far].tolist(), n[far].tolist(), p[far].tolist()))
    return _check(name, passed, detail(z, se) if callable(detail) else detail)


def _law_check(name: str, counts, reference, detail: str) -> dict:
    """_z_check of (..., 2, 2) outcome counts against the reference law of
    each table: every entry is a cell, out of its own table's trials."""
    counts = np.asarray(counts)
    return _z_check(name, counts, counts.sum(axis=(-2, -1), keepdims=True), reference, detail)


def _finish(args, config: dict, results: dict, checks: list) -> int:
    """Write the run's report, _report_text and a newline, to --out or
    stdout; the exit status is 0 iff every check passed."""
    report = {"command": args.command, "config": config, "seed": args.seed,
              "results": results, "invariant_checks": checks, "version": __version__}
    _write(_report_text(report) + "\n", args.out)
    return 0 if all(c["passed"] for c in checks) else 1


def _setting(args, name: str, default_deg: float) -> np.ndarray:
    vec = getattr(args, f"vec_{name}")
    if vec is not None:
        return normalize(vec)
    angle = getattr(args, name)
    return planar_setting(default_deg if angle is None else angle)


def _chsh_settings(args):
    return [_setting(args, name, deg) for name, deg in
            (("a", 0.0), ("a2", 90.0), ("b", 45.0), ("b2", 315.0))]


# ---------------------------------------------------------------------------
# Input validation: argparse types for single values, _validate for checks
# that span options. Every failure is one line on stderr with status 2.


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # No option looks like a number: -0.7,-0.7,..., -90:90:3 and -1e1 are values.
        self._negative_number_matcher = re.compile(r"-\.?\d.*")

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _typed(convert, ok, expect):
    """argparse type: convert the text and require ok(value)."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expect}, got {text!r}")
    return parse


_POSITIVE = _typed(int, lambda n: n > 0, "a positive integer")
_SEED = _typed(int, lambda n: n >= 0, f"a nonnegative integer (--seed or ${SEED_ENV})")
_ANGLE = _typed(float, math.isfinite, "a finite angle in degrees")
_BITS = _typed(lambda t: [int(ch) for ch in t], lambda bits: bits and set(bits) <= {0, 1},
               "a nonempty string of 0s and 1s")
# normalize refuses a zero or non-finite norm, or a length other than 3, with
# the ValueError that _typed reports.
_VECTOR = _typed(lambda t: np.array([float(x) for x in t.split(",")]),
                 lambda v: normalize(v).shape == (3,),
                 "x,y,z with a finite nonzero norm")


class _FromEnvironment(str):
    """The --seed default, which stands for $LHV_LAB_SEED (or DEFAULT_SEED)."""


def _seed(text):
    """--seed type. The environment is read on each parse, not when the
    parser is built, so one parser serves every main call."""
    if isinstance(text, _FromEnvironment):
        text = os.environ.get(SEED_ENV, str(DEFAULT_SEED))
    return _SEED(text)


def _unread(parser, args, dests, who: str) -> None:
    """Reject the options among dests that the run would ignore."""
    given = " ".join("--" + d.replace("_", "-") for d in dests if getattr(args, d) is not None)
    if given:
        parser.error(f"{who} does not read {given}")


def _validate(parser, args) -> None:
    spec = MODELS[args.model] if args.command in ("law", "simulate", "chsh") else None
    if spec is not None and spec.needs_p and not (args.p is not None and 0 <= args.p <= 1):
        parser.error(f"--model {args.model} needs --p in [0, 1]")
    if args.command == "chsh" and args.trials and spec.draw is None:
        parser.error(f"--model {args.model} has a law but no sampler; drop --trials")
    if args.command == "feasibility" and args.from_model:
        _unread(parser, args, ("correlators", "tol"), "--from-model")
    elif args.command == "feasibility" and args.correlators is not None:
        _unread(parser, args, ("a", "vec_a", "a2", "vec_a2", "b", "vec_b", "b2", "vec_b2",
                               "trials"), "--correlators")
    if args.command == "law" and args.scan is not None:
        _unread(parser, args, ("b", "vec_b"), "--scan")
    if args.command == "signal" and args.message is not None:
        _unread(parser, args, ("message_bits",), "--message")
    if args.command == "protocol":
        # --mode is written into every protocol report's config, so it is
        # always accepted; the cell options are read in sphere mode only.
        reads = set(_protocols()[args.name][1])
        if args.mode != "sphere":
            reads -= {"delta_omega", "n_directions"}
        who = f"--name {args.name}" + (f" --mode {args.mode}" if "mode" in reads else "")
        dests = ("a", "vec_a", "b", "vec_b", "delta_omega", "n_directions")
        _unread(parser, args, [d for d in dests if d.removeprefix("vec_") not in reads], who)
        if "n_directions" in reads and args.delta_omega is None and args.n_directions is None:
            parser.error("sphere mode needs --delta-omega or --n-directions")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lhvlab",
        description="Classical realizations of two-particle spin correlations, "
                    "with exact resource accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, trials_default=None):
        # A string default goes through the type check too, on every parse.
        p.add_argument("--seed", type=_seed, default=_FromEnvironment(),
                       help=f"master seed (default: ${SEED_ENV} or {DEFAULT_SEED})")
        p.add_argument("--out", default=None, help="write the JSON report here")
        if trials_default is not None:
            p.add_argument("--trials", type=_POSITIVE, default=trials_default)

    def add_settings(p, names=("a", "b")):
        for name in names:
            p.add_argument(f"--{name}", type=_ANGLE, default=None,
                           help=f"analyzer {name} angle in degrees (x-y plane)")
            p.add_argument(f"--vec-{name}", type=_VECTOR, default=None,
                           help=f"analyzer {name} as x,y,z (overrides --{name})")

    p = sub.add_parser("law", help="print a closed-form joint law")
    p.add_argument("--model", required=True, choices=tuple(MODELS))
    p.add_argument("--p", type=float, default=None, help="mixing probability for tb-ext models")
    p.add_argument("--scan", default=None, metavar="START:STOP:COUNT",
                   help="emit a two-column correlator-vs-angle scan instead of one law")
    add_settings(p)
    add_common(p)

    p = sub.add_parser("simulate", help="Monte Carlo law estimate vs the closed form")
    p.add_argument("--model", required=True, choices=MODEL_IDS)
    p.add_argument("--p", type=float, default=None)
    add_settings(p)
    add_common(p, trials_default=100_000)

    p = sub.add_parser("chsh", help="CHSH statistic against the three bounds")
    p.add_argument("--model", required=True, choices=tuple(MODELS))
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--trials", type=_POSITIVE, default=None,
                   help="if set, estimate by Monte Carlo instead of the closed form")
    add_settings(p, names=("a", "a2", "b", "b2"))
    add_common(p)

    p = sub.add_parser("feasibility", help="master-probability feasibility of correlators")
    p.add_argument("--correlators", default=None,
                   help="C(a,b),C(a2,b),C(a,b2),C(a2,b2) comma-separated")
    p.add_argument("--marginals", default=None, help="four single-outcome means")
    p.add_argument("--tol", default=None, help="per-correlator tolerance band")
    p.add_argument("--from-model", default=None,
                   choices=[m for m, spec in MODELS.items() if spec.local],
                   help="estimate counterfactual correlators from a model instead")
    p.add_argument("--trials", type=_POSITIVE, default=None,
                   help="trials per correlator with --from-model (default 100000)")
    add_settings(p, names=("a", "a2", "b", "b2"))
    add_common(p)

    p = sub.add_parser("protocol", help="run a two-station protocol with metered channels")
    p.add_argument("--name", required=True, choices=tuple(_protocols()))
    p.add_argument("--mode", default="symmetric",
                   choices=["symmetric", "asymmetric", "sphere"],
                   help="variant of the detection protocol")
    p.add_argument("--delta-omega", default=None,
                   type=_typed(float, lambda w: 0 < w < 4 * math.pi, "a number in (0, 4*pi)"),
                   help="solid-angle cell for the detection protocol's sphere mode")
    p.add_argument("--n-directions", default=None,
                   type=_typed(int, lambda n: n >= 2 and n % 2 == 0, "an even integer >= 2"),
                   help="grid size for the detection protocol's sphere mode")
    p.add_argument("--transcript", default=None, help="write the per-trial CSV here")
    add_settings(p)
    add_common(p, trials_default=100_000)

    p = sub.add_parser("signal", help="attempted signaling: action vs slave-will")
    p.add_argument("--mode", required=True, choices=["action", "slave-will"])
    p.add_argument("--message", type=_BITS, default=None, help="bit string, e.g. 0110")
    p.add_argument("--message-bits", type=_POSITIVE, default=None,
                   help="length of the all-zeros default message (default 1000)")
    add_common(p, trials_default=40_000)

    p = sub.add_parser("freewill", help="measurement-dependence measures on a discretized model")
    p.add_argument("--model", default="pinned",
                   choices=["pinned", "independent", "dictated"])
    p.add_argument("--n", type=_typed(int, lambda n: n >= 2, "an integer >= 2"), default=8,
                   help="settings per side")
    add_common(p)

    p = sub.add_parser("audit", help="pre-declared settings conspiracy audit")
    p.add_argument("--mode", required=True, choices=["honest", "slave", "third-party"])
    add_settings(p)
    add_common(p, trials_default=100_000)

    return parser


def _cmd_law(args) -> int:
    a = _setting(args, "a", 0.0)
    b = _setting(args, "b", 0.0)
    if args.scan is not None:
        try:
            start, stop, count = args.scan.split(":")
            ends = [float(start), float(stop)]
            count = int(count)
            if not all(map(math.isfinite, ends)) or count < 0:
                raise ValueError(args.scan)
        except ValueError:
            raise SystemExit("--scan expects START:STOP:COUNT with finite angles and a "
                             f"nonnegative integer COUNT, got {args.scan!r}") from None
        lines = ["# angle_deg correlator"]
        for ang in np.linspace(*ends, count):
            law = analytic_law(args.model, a, planar_setting(float(ang)), p=args.p)
            lines.append(f"{float(ang):.9g} {law.correlator():.9g}")
        _write("\n".join(lines) + "\n", args.out)
        return 0
    law = analytic_law(args.model, a, b, p=args.p)
    checks = [_check("law_normalized", abs(sum(law.as_dict().values()) - 1.0) < 1e-9)]
    config = {"model": args.model, "a": [float(x) for x in a],
              "b": [float(x) for x in b], "p": args.p}
    return _finish(args, config, {"law": law.as_dict(), "correlator": law.correlator()},
                   checks)


def _cmd_simulate(args) -> int:
    a = _setting(args, "a", 0.0)
    b = _setting(args, "b", 60.0)
    est = estimate_law(args.model, a, b, args.trials, RandomStream(args.seed), p=args.p)
    ref = analytic_law(args.model, a, b, p=args.p)
    dev = est.max_abs_diff(ref)
    se = est.std_error()
    checks = [_check("law_normalized", True),
              _law_check("dev_within_5se", est.counts, ref.p,
                         f"max_abs_dev={dev:.6g}, se={se:.6g}")]
    results = {"estimated_law": est.as_dict(), "analytic_law": ref.as_dict(),
               "max_abs_dev": dev, "std_err": se, "correlator": est.correlator()}
    config = {"model": args.model, "trials": args.trials, "p": args.p,
              "a": [float(x) for x in a], "b": [float(x) for x in b]}
    return _finish(args, config, results, checks)


def _cmd_chsh(args) -> int:
    if args.trials:
        report = chsh_mc(args.model, *_chsh_settings(args), args.trials,
                         RandomStream(args.seed), p=args.p)
    else:
        report = chsh_analytic(args.model, *_chsh_settings(args), p=args.p)
    checks = [_check("E_below_algebraic_bound", report.E <= ALGEBRAIC_BOUND + 1e-9,
                     f"E={report.E:.9g}")]
    config = {"model": args.model, "trials": args.trials, "p": args.p}
    return _finish(args, config, report.as_dict(), checks)


def _parse_floats(text, count, what):
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) != count or not all(map(math.isfinite, vals)):
        raise SystemExit(f"{what} needs {count} comma-separated finite numbers, "
                         f"got {text!r}")
    return vals


def _cmd_feasibility(args) -> int:
    if args.from_model:
        trials = args.trials or 100_000
        ests = counterfactual_correlators(args.from_model, *_chsh_settings(args),
                                          trials, RandomStream(args.seed))
        correlators = [Fraction(e.value).limit_denominator(10**9) for e in ests]
        tol = [Fraction(3.0 * e.std_error).limit_denominator(10**9) for e in ests]
        config = {"from_model": args.from_model, "trials": trials}
    else:
        if args.correlators is None:
            raise SystemExit("provide --correlators or --from-model")
        correlators = _parse_floats(args.correlators, 4, "--correlators")
        tol = _parse_floats(args.tol, 4, "--tol") if args.tol is not None else None
        if tol is not None and min(tol) < 0:
            raise SystemExit(f"--tol needs nonnegative values, got {args.tol!r}")
        config = {"correlators": correlators, "tol": tol}
    marginals = None
    if args.marginals is not None:
        marginals = config["marginals"] = _parse_floats(args.marginals, 4, "--marginals")
    try:
        result = fine_feasibility(correlators, marginals, correlator_tol=tol)
    except ValueError as exc:  # a correlator or marginal out of range
        flag = "--marginals" if "marginal" in str(exc) else "--correlators"
        bound = "[-1 - tol, 1 + tol]" if flag == "--correlators" and tol else "[-1, 1]"
        raise SystemExit(f"{flag} needs values in {bound}, "
                         f"got {getattr(args, flag[2:])!r} ({exc})")
    checks = [_check("lp_facet_agreement",
                     result.facet_feasible is None
                     or result.facet_feasible == result.lp_feasible)]
    results = result.as_dict()
    if args.from_model:
        results["correlator_estimates"] = [e.as_dict() for e in ests]
    return _finish(args, config, results, checks)


def _price_checks(bits_a_to_b: int, shared_draws: int):
    """checks(res) of a protocol whose declared price is bits_a_to_b bits
    from station A to station B and shared_draws draws of the stations'
    shared stream per trial, and no bits from B to A: each declared figure
    against the run's counted total, then the binned singlet check of a
    run whose settings vary."""
    def checks(res) -> list:
        n = res.n_trials
        out = ([_check("one_bit_per_trial", res.bits_a_to_b == bits_a_to_b * n),
                _check("no_return_bits", res.bits_b_to_a == 0)] if bits_a_to_b else
               [_check("zero_station_bits", res.bits_a_to_b + res.bits_b_to_a == 0)])
        if shared_draws:
            out.append(_check("two_shared_draws_per_trial",
                              res.shared_draws_total == shared_draws * n))
        if (comparison := res.singlet_comparison) is not None:
            out.append(_law_check("singlet_within_binned_tolerance", comparison["counts"],
                                  comparison["reference"],
                                  f"max_abs_dev={comparison['max_abs_dev']:.6g}"))
        return out
    return checks


def _detection_checks(rep) -> list:
    eff, want = rep.efficiency, rep.expected_efficiency
    return [_z_check("efficiency_within_3se", rep.n_coincidences, rep.n_pairs, want,
                     f"efficiency={eff:.6g}, expected={want:.6g}"),
            _law_check("conditional_law_near_singlet", rep.counts, rep.reference,
                       f"deviation={rep.singlet_deviation:.6g}")]


def _protocols() -> dict:
    """The `protocol --name` table: name -> (run, options, checks).

    run(trials, seed=, record=, **options) runs the protocol, options names
    the keyword options it reads, and checks(result) gives its invariant
    checks in report order; each protocol's price (_price_checks) is
    declared here and nowhere else. Like the model dict in _cmd_freewill,
    the table is built on each call, so the runners are read from this
    module's names at call time and a wrapper installed on them sees the
    calls."""
    return {
        "tb": (run_tb_protocol, ("a", "b"), _price_checks(1, 0)),
        "tb-freewill": (run_tb_freewill, ("a", "b"), _price_checks(0, 0)),
        "shared-coin": (run_shared_coin, (), _price_checks(0, 2)),
        "detection-loophole": (run_detection_loophole, ("mode", "delta_omega", "n_directions"),
                               _detection_checks),
        "watch-pinned": (partial(run_watch_realization, model="pinned"), (), _price_checks(0, 0)),
        "watch-hall": (partial(run_watch_realization, model="hall"), (), _price_checks(0, 0)),
    }


def _cmd_protocol(args) -> int:
    run, reads, checks = _protocols()[args.name]
    values = dict(vars(args), a=_setting(args, "a", 0.0), b=_setting(args, "b", 60.0))
    options = {opt: values[opt] for opt in reads}
    try:
        # The runner writes the transcript to the open file as it runs.
        res = run(args.trials, seed=args.seed, record=args.transcript or None, **options)
    except (RuntimeError, ValueError) as exc:  # e.g. zero coincidences, a grid too large
        raise SystemExit(f"{args.name} with {args.trials} trials: {exc}")
    config = {"name": args.name, "trials": args.trials, "mode": args.mode,
              "delta_omega": args.delta_omega, **options}
    return _finish(args, config, res.summary(), checks(res))


def _cmd_signal(args) -> int:
    message = [0] * (args.message_bits or 1000) if args.message is None else args.message
    res = run_signaling_experiment(message, args.mode, args.trials, args.seed)
    checks = [_z_check("usable_fraction_near_half", res.n_usable, res.n_trials, 0.5,
                       f"usable_fraction={res.usable_fraction:.6g}")]
    if args.mode == "action":
        checks.append(_check("message_delivered", res.success_rate == 1.0))
    else:
        # Fair received bits are ones on half the usable trials. A leak of
        # a balanced message keeps them so, and the next check sees it.
        checks.append(_z_check("received_bits_random", res.counts[:, 0].sum(),
                               res.n_usable, 0.5, f"entropy={res.empirical_entropy:.6g}"))
        # Bits that carry no message match it on half the usable trials, so
        # the matches are binomial about 1/2; no usable trial leaks none.
        checks.append(_z_check(
            "received_bits_independent_of_message", res.n_matches, res.n_usable, 0.5,
            lambda z, se: f"success_rate={res.success_rate:.6g}, se={float(se):.6g}, "
                          f"z={float(z):.6g}"))
    config = {"mode": args.mode, "trials": args.trials,
              "message_bits": len(message)}
    return _finish(args, config, res.summary(), checks)


def _cmd_freewill(args) -> int:
    builders = {"pinned": discretized_setting_tied_model,
                "independent": setting_independent_model, "dictated": dictated_settings_model}
    rep = mutual_information(builders[args.model](args.n))
    checks = [_check("M_at_most_2", rep.M <= 2.0),
              _check("I_at_most_max", rep.I_bits <= rep.I_max_bits + 1e-12)]
    if args.model == "pinned":
        checks.append(_check("I_half_of_max",
                             abs(rep.I_bits - 0.5 * rep.I_max_bits) < 1e-12,
                             f"I={rep.I_bits}, I_max={rep.I_max_bits}"))
    config = {"model": args.model, "n": args.n}
    return _finish(args, config, rep.as_dict(), checks)


def _cmd_audit(args) -> int:
    a = _setting(args, "a", 0.0)
    b = _setting(args, "b", 0.0)
    res = run_conspiracy_audit(args.trials, a, b, args.mode, args.seed)
    if args.mode == "slave":
        checks = [_check("deviations_present", res.deviations > 0),
                  _check("deviations_match_hidden_spin", res.deviations_match_u)]
    else:
        checks = [_check("no_deviations", res.deviations == 0)]
    config = {"mode": args.mode, "trials": args.trials,
              "a": [float(x) for x in a], "b": [float(x) for x in b]}
    return _finish(args, config, res.summary(), checks)


_COMMANDS = {
    "law": _cmd_law,
    "simulate": _cmd_simulate,
    "chsh": _cmd_chsh,
    "feasibility": _cmd_feasibility,
    "protocol": _cmd_protocol,
    "signal": _cmd_signal,
    "freewill": _cmd_freewill,
    "audit": _cmd_audit,
}


_parser = cache(build_parser)  # one parser per process; see _seed

# The mallopt calls main makes: (M_MMAP_THRESHOLD, 32 MiB),
# (M_TRIM_THRESHOLD, 256 MiB) and (M_ARENA_MAX, 1), with glibc's parameter
# numbers (malloc.h).
_MALLOPT = ((-3, 32 << 20), (-1, 256 << 20), (-8, 1))


@cache
def _keep_chunk_memory() -> bool:
    """Keep freed chunk temporaries mapped for the rest of the process, in
    one heap, on glibc only; returns whether the allocator was set.

    Every 65,536-row chunk of a Monte Carlo run allocates and frees the same
    temporaries of up to 2 MiB. At glibc's defaults, blocks from 128 KiB up
    are mmapped and freed memory at the heap top is trimmed, so each chunk
    faults its temporaries in again. Here blocks below 32 MiB come from the
    heap (some glibc releases refuse an mmap threshold above half their
    64 MiB thread heap), and up to 256 MiB of free heap stays mapped.
    Setting either threshold also stops glibc from moving them as large
    blocks are freed, so whether a command's temporaries are recycled no
    longer depends on what earlier commands freed. Threads that have no
    heap yet, the chunk pool's among them, share the main thread's (one
    arena): with a heap per thread, each heap kept its own high-water mark,
    so the process held the sum of the threads' peaks, often reached in
    different commands. The threads allocate only while they hold the GIL,
    so separate heaps bought no concurrency. main calls this once per
    process; library callers keep the default allocator."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(param, value) for param, value in _MALLOPT])


def _memory_hint(args) -> str:
    """What to ask less of when a command runs out of memory."""
    if args.command == "protocol" and args.name == "detection-loophole" \
            and args.mode == "sphere":
        return ("fewer trials or sphere directions (a larger --delta-omega or a smaller "
                "--n-directions)")
    return "fewer trials, angles or message bits"


@cache
def _subparsers() -> dict:
    """Subcommand name -> its parser, in the cached _parser."""
    return next(action.choices for action in _parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def _parse(argv) -> argparse.Namespace:
    """parser.parse_args(argv) of the cached _parser, in one pass when
    argv[0] names a subcommand: that subcommand's parser reads the rest,
    which is what the full parser does too, and arguments it leaves over
    get the full parser's own error. Any other argv (none, -h, an unknown
    command, an option before the command) goes through the full parser."""
    argv = sys.argv[1:] if argv is None else argv
    sub = _subparsers().get(argv[0]) if argv else None
    if sub is None:
        return _parser().parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        _parser().error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    """Run the command that argv (default sys.argv[1:]) names and return
    its exit status: _parse argv, _validate the options against each
    other, open the output files (_opened) and run the command, whose
    report _finish writes."""
    parser = _parser()
    args = _parse(argv)
    _validate(parser, args)
    _keep_chunk_memory()
    with _opened(args):
        try:
            return _COMMANDS[args.command](args)
        except MemoryError:
            raise SystemExit(f"lhvlab {args.command}: error: out of memory; ask for "
                             f"{_memory_hint(args)}") from None


if __name__ == "__main__":
    sys.exit(main())
