"""Seeded operation lists for the two benchmark workloads.

An operation is one in-process ``lhvlab.cli.main(argv + ["--out", path])``
call. The Boole-bound ``MasterProb16`` batch has no CLI route, so it calls
the library the way ``tests/test_acceptance.py`` does. Every input (angles,
rational vectors, per-operation ``--seed`` values) comes from
``random.Random(workload seed)``; the program receives only those values.

Each workload is a fixed cycle of operation kinds. A run measures a fixed
number of whole cycles, so for a given seed it always runs the same
operations, and throughput and percentiles do not depend on how fast the
host happened to be. An untraced run executes its operation list PASSES
times over and keeps each operation's slowest time (see run.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("mc_sweep", "exact_verdicts")

# Acceptance criterion 1 holds station A at 0 degrees and sweeps the other
# settings over these 12 planar angles.
SWEEP = tuple(15.0 + 30.0 * k for k in range(12))
ANALYTIC_MODELS = ("singlet", "uniform", "mixed", "tb-ext1", "tb-ext2",
                   "pinned", "hall", "tb", "tb-freewill")
EXT_P = (0.25, 0.5, 0.75, 1.0)
SEED_RANGE = 2**31

# Full-size inputs. Smaller scales exist only for the smoke test.
FULL_TRIALS = 1_000_000
FULL_ROWS = 200_000
FULL_FREEWILL_N = 16
MP16_BATCH = 32

# Wall time of one pass over one cycle, measured on the 2-vCPU Xeon host
# when the benchmark was defined. --seconds / (NOMINAL_CYCLE_S * passes),
# rounded, is the number of cycles a run measures.
NOMINAL_CYCLE_S = {"mc_sweep": 19.0, "exact_verdicts": 8.0}
# Times an untraced run executes its operation list. The passes are spread
# over the whole run, so each operation is timed at several moments of the
# host's drifting speed and its slowest time is the base-speed one.
PASSES = {"mc_sweep": 3, "exact_verdicts": 5}


@dataclass(frozen=True)
class Sizes:
    trials: int
    rows: int
    freewill_n: int

    @classmethod
    def at_scale(cls, scale: float) -> "Sizes":
        return cls(trials=max(1000, int(FULL_TRIALS * scale)),
                   rows=max(100, int(FULL_ROWS * scale)),
                   freewill_n=FULL_FREEWILL_N if scale >= 1.0 else 4)


@dataclass(frozen=True)
class Op:
    """One operation: its kind, CLI arguments (without --out), the units of
    work it completes (Monte Carlo trials, or one decision) and the generated
    inputs the checker needs."""

    kind: str
    argv: tuple
    work: int
    params: dict = field(default_factory=dict)
    transcript: bool = False
    library: bool = False


def _seed(rng) -> str:
    return str(rng.randrange(SEED_RANGE))


def _sweep_angles(rng, names):
    # As in criterion 1, a stays at 0 degrees, so a != +-b. hall_sample never
    # returns when a.b rounds above 1 (a = b = 225 degrees does): arccos
    # gives NaN and no candidate is accepted.
    return {name: 0.0 if name == "a" else rng.choice(SWEEP) for name in names}


def _angle_args(angles: dict) -> list:
    out = []
    for name, value in angles.items():
        out += [f"--{name}", repr(float(value))]
    return out


# ---------------------------------------------------------------------------
# mc_sweep: every sampler and runner at full trial count, plus protocol runs
# that record and write their transcript


MC_SIMULATE_MODELS = ("pinned", "hall", "tb", "tb-freewill", "mixed", "tb-ext1", "tb-ext2")
MC_PROTOCOLS = ("tb", "tb-freewill", "shared-coin", "watch-pinned", "watch-hall")
MC_DETECTION_MODES = ("symmetric", "asymmetric", "sphere")
SPHERE_DELTA_OMEGA = repr(0.1 * 2.0 * 3.141592653589793)
FROM_MODELS = ("pinned", "hall", "tb-freewill")


def _mc_cycle(rng, sizes: Sizes) -> list:
    n = sizes.trials
    trials = ["--trials", str(n)]
    ops = []
    for model in MC_SIMULATE_MODELS:
        angles = _sweep_angles(rng, ("a", "b"))
        argv = ["simulate", "--model", model, *trials, *_angle_args(angles), "--seed", _seed(rng)]
        params = {"model": model, **angles}
        if model.startswith("tb-ext"):
            params["p"] = rng.choice(EXT_P)
            argv += ["--p", repr(params["p"])]
        ops.append(Op(f"simulate/{model}", tuple(argv), n, params))
    angles = _sweep_angles(rng, ("a", "a2", "b", "b2"))
    ops.append(Op("chsh/mixed", ("chsh", "--model", "mixed", *trials, *_angle_args(angles),
                                 "--seed", _seed(rng)), 4 * n, {"model": "mixed", **angles}))
    for name in MC_PROTOCOLS:
        argv = ["protocol", "--name", name, *trials, "--seed", _seed(rng)]
        if name in ("tb", "tb-freewill"):
            argv += _angle_args(_sweep_angles(rng, ("a", "b")))
        ops.append(Op(f"protocol/{name}", tuple(argv), n))
    for mode in MC_DETECTION_MODES:
        argv = ["protocol", "--name", "detection-loophole", "--mode", mode, *trials,
                "--seed", _seed(rng)]
        if mode == "sphere":
            argv += ["--delta-omega", SPHERE_DELTA_OMEGA]
        ops.append(Op(f"protocol/detection-{mode}", tuple(argv), n))
    ops.append(Op("audit/slave", ("audit", "--mode", "slave", *trials,
                                  *_angle_args(_sweep_angles(rng, ("a", "b"))),
                                  "--seed", _seed(rng)), n))
    for model in FROM_MODELS:
        ops.append(Op(f"feasibility/from-{model}",
                      ("feasibility", "--from-model", model, *trials,
                       *_angle_args(_sweep_angles(rng, ("a", "a2", "b", "b2"))),
                       "--seed", _seed(rng)), n))
    for mode in ("action", "slave-will"):
        ops.append(Op(f"signal/{mode}", ("signal", "--mode", mode, *trials, "--seed", _seed(rng)),
                      n))
    return ops + _transcript_ops(rng, sizes)


# ---------------------------------------------------------------------------
# exact_verdicts: short exact decisions, no sampling


def _sixteenths(rng, lo: int, hi: int, count: int = 4) -> list:
    return [f"{rng.randint(lo, hi)}/16" for _ in range(count)]


def _as_float_list(fracs) -> str:
    out = []
    for f in fracs:
        num, den = f.split("/")
        out.append(repr(int(num) / int(den)))
    return ",".join(out)


def _feasibility_op(rng, mode: str) -> Op:
    corr = _sixteenths(rng, -16, 16)
    argv = ["feasibility", f"--correlators={_as_float_list(corr)}"]
    params = {"mode": mode, "correlators": corr, "marginals": ["0/16"] * 4, "tol": None}
    if mode == "marginals":
        params["marginals"] = _sixteenths(rng, -8, 8)
        argv.append(f"--marginals={_as_float_list(params['marginals'])}")
    elif mode == "band":
        params["tol"] = [f"{rng.randint(1, 8)}/64" for _ in range(4)]
        argv.append(f"--tol={_as_float_list(params['tol'])}")
    argv += ["--seed", _seed(rng)]
    return Op(f"feasibility/{mode}", tuple(argv), 1, params)


def _angle(rng) -> float:
    return round(rng.uniform(0.0, 360.0), 3)


def _analytic_op(rng, command: str) -> Op:
    model = rng.choice(ANALYTIC_MODELS)
    names = ("a", "b") if command == "law" else ("a", "a2", "b", "b2")
    angles = {name: _angle(rng) for name in names}
    argv = [command, "--model", model, *_angle_args(angles), "--seed", _seed(rng)]
    params = {"model": model, **angles}
    if model.startswith("tb-ext"):
        params["p"] = rng.choice(EXT_P)
        argv += ["--p", repr(params["p"])]
    return Op(f"{command}/analytic", tuple(argv), 1, params)


def _freewill_op(rng, model: str, n: int) -> Op:
    return Op(f"freewill/{model}", ("freewill", "--model", model, "--n", str(n),
                                     "--seed", _seed(rng)), 1, {"model": model, "n": n})


def _mp16_op(rng) -> Op:
    return Op("mp16/boole", (), 1, {"seed": int(_seed(rng)), "count": MP16_BATCH}, library=True)


def _exact_cycle(rng, sizes: Sizes) -> list:
    # The independent model is the worst case of measure_M (no early exit,
    # 1 to 1.5 s at n = 16), so it runs once per 12 sub-cycles: often enough
    # to be timed in every run, rarely enough that LP and CLI costs still
    # carry most of the throughput. The pinned model runs twice per
    # sub-cycle, so that op_tail_s (p95 of the ~400 operations of a run)
    # falls inside its tight cluster of latencies rather than at an edge
    # between kinds.
    ops = []
    for _ in range(12):
        for _ in range(8):
            for mode in ("exact", "marginals", "band"):
                ops.append(_feasibility_op(rng, mode))
        for command in ("law", "chsh", "law", "chsh"):
            ops.append(_analytic_op(rng, command))
        ops += [_mp16_op(rng), _mp16_op(rng)]
        ops += [_freewill_op(rng, "pinned", sizes.freewill_n),
                _freewill_op(rng, "pinned", sizes.freewill_n),
                _freewill_op(rng, "dictated", sizes.freewill_n)]
    ops.append(_freewill_op(rng, "independent", sizes.freewill_n))
    return ops


def _transcript_ops(rng, sizes: Sizes) -> list:
    """`protocol --transcript` runs: the runners with record=True, where
    writing the CSV takes most of the time."""
    n = sizes.rows
    trials = ["--trials", str(n)]
    ops = [Op("transcript/tb", ("protocol", "--name", "tb", *trials,
                                *_angle_args(_sweep_angles(rng, ("a", "b"))),
                                "--seed", _seed(rng)), n, {"rows": n}, transcript=True)]
    for name in ("shared-coin", "watch-pinned"):
        ops.append(Op(f"transcript/{name}", ("protocol", "--name", name, *trials,
                                             "--seed", _seed(rng)), n, {"rows": n},
                      transcript=True))
    # Sphere mode at efficiency 1/4 leaves undetected sigma/tau cells empty.
    # The symmetric mode's fixed 0.01 per-setting check is only reliable
    # from about 1e6 trials; at 2e5 it failed on 4 of 40 seeds.
    ops.append(Op("transcript/detection-sphere",
                  ("protocol", "--name", "detection-loophole", "--mode", "sphere",
                   "--n-directions", "8", *trials, "--seed", _seed(rng)), n, {"rows": n},
                  transcript=True))
    return ops


_CYCLES = {"mc_sweep": _mc_cycle, "exact_verdicts": _exact_cycle}


def passes(workload: str, traced: bool = False) -> int:
    """How often a run executes each operation; a traced run executes every
    operation twice, once traced and once not."""
    return 2 if traced else PASSES[workload]


def cycle_count(workload: str, seconds: float, traced: bool = False) -> int:
    """Whole cycles whose passes take about `seconds` at the nominal speed."""
    per_cycle = NOMINAL_CYCLE_S[workload] * passes(workload, traced)
    return max(1, int(seconds / per_cycle + 0.5))


def cycles(workload: str, seed, sizes: Sizes):
    """Endless iterator over the workload's cycles; the same seed gives the
    same operations in the same order."""
    make = _CYCLES[workload]
    rng = random.Random(seed)
    while True:
        yield make(rng, sizes)


def operations(workload: str, seed, sizes: Sizes, n_cycles: int) -> list:
    """The operations of the first `n_cycles` cycles, in order."""
    cycle_iter = cycles(workload, seed, sizes)
    return [op for _ in range(n_cycles) for op in next(cycle_iter)]


def warm_up_ops(workload: str, seed: int) -> list:
    """One small operation of each kind, from inputs the timed run never
    sees."""
    first = {}
    cycle = next(cycles(workload, f"warm-up {seed}", Sizes.at_scale(0.01)))
    for op in cycle:
        first.setdefault(op.kind, op)
    return list(first.values())
