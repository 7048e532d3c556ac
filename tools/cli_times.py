"""Time the command line's stages on the exact verdicts.

    python3 tools/cli_times.py [CHECKOUT]

The script imports lhvlab from CHECKOUT/src (default: the checkout that
holds this file), builds COUNT seeded argument lists for each kind of
exact verdict below and prints one
``name parse_µs command_µs report_µs total_µs gen0 gen1`` line per kind:

- parse: reading the argument list into options and checking them against
  each other (cli._validate);
- command: the subcommand's work up to its report, with the report's
  writer (cli._finish) replaced by one that keeps its arguments;
- report: cli._finish on those arguments, to os.devnull;
- total: one whole cli.main call with ``--out os.devnull``;
- gen0 and gen1: the garbage collections of generations 0 and 1 per pass
  of cli.main over the kind's COUNT lists.

Each time is per call, averaged over the COUNT lists, best of REPEATS
passes. The kinds are those of the benchmark's exact_verdicts workload:
feasibility of /16 correlators (exact, with marginals, with a tolerance
band of k/64), an analytic law and CHSH value on a random model and
random angles, and the free-will measures of the pinned and dictated
models at n = 16. Running it on two checkouts compares them on the same
lists:

    python3 tools/cli_times.py A; python3 tools/cli_times.py B

The script uses the standard library and the checkout's lhvlab only.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import random
import sys
import time
from pathlib import Path
from unittest import mock

COUNT = 16
REPEATS = 9
SEED = 2024
FREEWILL_N = 16
ANALYTIC_MODELS = ("singlet", "uniform", "mixed", "tb-ext1", "tb-ext2",
                   "pinned", "hall", "tb", "tb-freewill")


def _sixteenths(rng, lo: int, hi: int) -> str:
    return ",".join(repr(rng.randint(lo, hi) / 16) for _ in range(4))


def _feasibility(rng, mode: str) -> list:
    argv = ["feasibility", f"--correlators={_sixteenths(rng, -16, 16)}"]
    if mode == "marginals":
        argv.append(f"--marginals={_sixteenths(rng, -8, 8)}")
    elif mode == "band":
        argv.append("--tol=" + ",".join(repr(rng.randint(1, 8) / 64) for _ in range(4)))
    return argv


def _analytic(rng, command: str) -> list:
    model = rng.choice(ANALYTIC_MODELS)
    argv = [command, "--model", model]
    for name in ("a", "b") if command == "law" else ("a", "a2", "b", "b2"):
        argv += [f"--{name}", repr(round(rng.uniform(0.0, 360.0), 3))]
    if model.startswith("tb-ext"):
        argv += ["--p", repr(rng.choice((0.25, 0.5, 0.75, 1.0)))]
    return argv


KINDS = {
    "feasibility-exact": lambda rng: _feasibility(rng, "exact"),
    "feasibility-marginals": lambda rng: _feasibility(rng, "marginals"),
    "feasibility-band": lambda rng: _feasibility(rng, "band"),
    "law": lambda rng: _analytic(rng, "law"),
    "chsh": lambda rng: _analytic(rng, "chsh"),
    "freewill-pinned": lambda rng: ["freewill", "--model", "pinned", "--n", str(FREEWILL_N)],
    "freewill-dictated": lambda rng: ["freewill", "--model", "dictated",
                                      "--n", str(FREEWILL_N)],
}


def argv_lists(seed: int, count: int) -> dict:
    """kind -> count seeded argument lists, each with its own --seed."""
    rng = random.Random(seed)
    return {name: [make(rng) + ["--seed", str(rng.randrange(2**31))] for _ in range(count)]
            for name, make in KINDS.items()}


def _best(run, batch: list, repeats: int) -> float:
    """Microseconds per call of run on each item of batch, best of repeats."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for item in batch:
            run(item)
        best = min(best, time.perf_counter() - start)
    return best / len(batch) * 1e6


def measure(cli, batch: list, repeats: int) -> tuple:
    """(parse, command, report, total µs, gen0, gen1 collections per pass)
    of one kind's argument lists."""
    # A checkout without cli._parse reads argv with the full parser.
    parse = getattr(cli, "_parse", None) or (lambda argv: cli._parser().parse_args(argv))

    def parsed(argv):
        args = parse(argv)
        cli._validate(cli._parser(), args)
        return args

    parse_us = _best(parsed, batch, repeats)
    kept = []
    with mock.patch.object(cli, "_finish", lambda *report: kept.append(report)):
        command_us = _best(lambda args: cli._COMMANDS[args.command](args),
                           [parsed(argv) for argv in batch], repeats)
    reports = kept[:len(batch)]
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for args, *_ in reports:
            args.out = sink
        report_us = _best(lambda report: cli._finish(*report), reports, repeats)
    runs = [argv + ["--out", os.devnull] for argv in batch]
    before = [stat["collections"] for stat in gc.get_stats()]
    total_us = _best(cli.main, runs, repeats)
    gen0, gen1 = (stat["collections"] - was for stat, was in zip(gc.get_stats()[:2], before))
    return parse_us, command_us, report_us, total_us, gen0 / repeats, gen1 / repeats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).parents[1])
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "lhvlab" / "cli.py").exists():
        parser.error(f"{args.checkout} holds no src/lhvlab/cli.py")
    sys.path.insert(0, str(src))
    from lhvlab import cli
    for name, batch in argv_lists(SEED, COUNT).items():
        parse_us, command_us, report_us, total_us, gen0, gen1 = measure(cli, batch, REPEATS)
        print(f"{name} {parse_us:.1f} {command_us:.1f} {report_us:.1f} {total_us:.1f} "
              f"{gen0:.1f} {gen1:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
