"""Time the exact LP on the systems that feasibility verdicts build.

    python3 tools/lp_times.py [CHECKOUT]

The script imports lhvlab from CHECKOUT/src (default: the checkout that
holds this file), builds 32 seeded systems of each shape below and prints
one ``name µs pivots`` line per shape: the time of one call of the LP
entry that the checkout's fine_feasibility calls, averaged over the 32
systems, best of 9 passes, and the pivots (exactlp._pivot calls) per call.
The entry is exactlp.integer_feasible_point, or exactlp.feasible_point in
a checkout that has no integer entry. Running it on two checkouts compares
their LPs on the same systems:

    python3 tools/lp_times.py A; python3 tools/lp_times.py B

The shapes (rows x columns, slack columns included):

- exact: random /16 correlators, zero marginals, 9 x 16;
- marginals: random /16 correlators and marginals, 9 x 16;
- band: /16 correlators in bands of half-width k/64, 13 x 24;
- band-1e9: correlators and half-widths with denominators up to 1e9, as
  `feasibility --from-model` builds from Monte Carlo estimates, 13 x 24;
- rows-1 and rows-2: one and two rows over 16 columns, which
  fine_feasibility never builds, to show the fixed cost of a call.

The first four are the systems that the checkout's
inequalities.fine_feasibility passes to its LP entry for seeded inputs;
a checkout with the integer entry passes each right-hand side as an
integer over the inputs' common denominator, which takes the same pivots.
The script uses the standard library and the checkout's lhvlab only.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

COUNT = 32
REPEATS = 9
SEED = 2024
# The shapes whose systems fine_feasibility builds; each one's first
# equality is the atoms' sum.
VERDICT_SHAPES = ("exact", "marginals", "band", "band-1e9")


def _fine(rng, den: int, lo: int, hi: int) -> list:
    return [Fraction(rng.randint(lo, hi), den) for _ in range(4)]


def _noisy(rng, lo: float, hi: float) -> list:
    return [Fraction(rng.uniform(lo, hi)).limit_denominator(10**9) for _ in range(4)]


def lp_entry(inequalities) -> str:
    """The name of the exactlp function that fine_feasibility calls."""
    return "integer_feasible_point" if hasattr(inequalities, "integer_feasible_point") \
        else "feasible_point"


def systems(seed: int, count: int, den: int = 16) -> dict:
    """shape name -> count seeded systems (A_eq, b_eq, A_ub, b_ub) of that
    shape, with correlators and marginals in steps of 1/den; raises
    ValueError naming a shape for which fine_feasibility solved no LP."""
    from lhvlab import inequalities
    rng = random.Random(seed)
    verdicts = {  # fine_feasibility's arguments
        "exact": lambda: (_fine(rng, den, -den, den),),
        "marginals": lambda: (_fine(rng, den, -den, den), _fine(rng, den, -den // 2, den // 2)),
        "band": lambda: (_fine(rng, den, -den, den), None,
                         [Fraction(rng.randint(1, 8), 64) for _ in range(4)]),
        "band-1e9": lambda: (_noisy(rng, -1.0, 1.0), None, _noisy(rng, 0.003, 0.012)),
    }
    entry = lp_entry(inequalities)
    solve, passed, built = getattr(inequalities, entry), [], {}

    def record(*system):
        passed.append(system)
        return solve(*system)
    with mock.patch.object(inequalities, entry, record):
        for name, draw in verdicts.items():
            for _ in range(count):
                inequalities.fine_feasibility(*draw())
            if not passed:
                raise ValueError(f"fine_feasibility solved no LP for shape {name!r} "
                                 f"through inequalities.{entry}")
            built[name] = passed[:]
            passed.clear()
    built["rows-1"] = [([[rng.randint(0, 3) for _ in range(16)]], [rng.randint(-2, 2)])
                       for _ in range(count)]
    built["rows-2"] = [([[rng.randint(-3, 3) for _ in range(16)] for _ in range(2)],
                        [rng.randint(-2, 2) for _ in range(2)]) for _ in range(count)]
    return built


def measure(solve, batch: list, repeats: int) -> float:
    """Microseconds per call, averaged over the batch, best of repeats."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for args in batch:
            solve(*args)
        best = min(best, time.perf_counter() - start)
    return best / len(batch) * 1e6


def pivots(exactlp, solve, batch: list) -> float:
    """exactlp._pivot calls per call of solve, averaged over the batch."""
    count, pivot = 0, exactlp._pivot

    def counted(*args):
        nonlocal count
        count += 1
        return pivot(*args)
    with mock.patch.object(exactlp, "_pivot", counted):
        for args in batch:
            solve(*args)
    return count / len(batch)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).parents[1])
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "lhvlab" / "exactlp.py").exists():
        parser.error(f"{args.checkout} holds no src/lhvlab/exactlp.py")
    sys.path.insert(0, str(src))
    from lhvlab import exactlp, inequalities
    solve = getattr(exactlp, lp_entry(inequalities))
    for name, batch in systems(SEED, COUNT).items():
        print(f"{name} {measure(solve, batch, REPEATS):.1f} "
              f"{pivots(exactlp, solve, batch):.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
