"""Time the exact LP on the systems that feasibility verdicts build.

    python3 tools/lp_times.py [CHECKOUT]

The script imports lhvlab from CHECKOUT/src (default: the checkout that
holds this file), builds 32 seeded systems of each shape below and prints
one ``name µs`` line per shape: the time of one exactlp.feasible_point
call, averaged over the 32 systems, best of 9 passes. Running it on two
checkouts compares their LPs on the same systems:

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
inequalities.fine_feasibility passes to feasible_point for seeded
inputs. The script uses the standard library and the checkout's lhvlab
only.
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


def _fine(rng, den: int, lo: int, hi: int) -> list:
    return [Fraction(rng.randint(lo, hi), den) for _ in range(4)]


def _noisy(rng, lo: float, hi: float) -> list:
    return [Fraction(rng.uniform(lo, hi)).limit_denominator(10**9) for _ in range(4)]


def systems(seed: int, count: int, den: int = 16) -> dict:
    """shape name -> count seeded systems (A_eq, b_eq, A_ub, b_ub) of that
    shape, with correlators and marginals in steps of 1/den."""
    from lhvlab import inequalities
    rng = random.Random(seed)
    verdicts = {  # fine_feasibility's arguments
        "exact": lambda: (_fine(rng, den, -den, den),),
        "marginals": lambda: (_fine(rng, den, -den, den), _fine(rng, den, -den // 2, den // 2)),
        "band": lambda: (_fine(rng, den, -den, den), None,
                         [Fraction(rng.randint(1, 8), 64) for _ in range(4)]),
        "band-1e9": lambda: (_noisy(rng, -1.0, 1.0), None, _noisy(rng, 0.003, 0.012)),
    }
    solve, passed, built = inequalities.feasible_point, [], {}

    def record(*system):
        passed.append(system)
        return solve(*system)
    with mock.patch.object(inequalities, "feasible_point", record):
        for name, draw in verdicts.items():
            for _ in range(count):
                inequalities.fine_feasibility(*draw())
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).parents[1])
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "lhvlab" / "exactlp.py").exists():
        parser.error(f"{args.checkout} holds no src/lhvlab/exactlp.py")
    sys.path.insert(0, str(src))
    from lhvlab.exactlp import feasible_point
    for name, batch in systems(SEED, COUNT).items():
        print(f"{name} {measure(feasible_point, batch, REPEATS):.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
