"""Time the per-trial kernels of one Monte Carlo chunk.

    python3 tools/kernel_times.py [CHECKOUT] [--rows N]

The script imports lhvlab from CHECKOUT/src (default: the checkout that
holds this file), calls each kernel in-process, on one thread, on fixed
inputs of N rows (default 65,536, the rows of one chunk of
geometry.streamed), and prints one ``name ms faults`` line per kernel: the
best of 7 calls, in milliseconds, and the minor page faults per call
(``ru_minflt`` over the 7 calls). Running it on two checkouts compares
their kernels on the same inputs:

    python3 tools/kernel_times.py A; python3 tools/kernel_times.py B

The kernels are the outcome rules sgn, malus_outcome and uniform_signs,
the dot product against one vector, the sphere map sphere_point (fed its
azimuths in turns), sphere_rows (a stream's reserved draws of N points
and their map, the same draws in every checkout), the Hall spins, the
overlap bins and the watch vectors of the protocol runners, one chunk's
window of a reserved uniform draw (RandomStream.uniform_rows), the cross
product of N spin rows with N setting rows (geometry.cross), the station
kernels malus_pair (both Malus stations against one setting each),
malus_pair_atoms (the same rule on the pinned model's drawn spins, in the
form the checkout draws them: atom codes, or per-trial rows),
hall_outcomes and one_bit_tau (the one-bit model's second station, from
N spins, N partner spins and N bits), outcome_counts over one table of N
outcome pairs and outcome_counts_binned over the 12 overlap bins of the
binned singlet comparison, and csv_rows, the transcript rows of one 32,768-row chunk
(protocols._CSV_CHUNK_ROWS, whatever N is) in a shared-coin layout: both
coins, both overlaps against per-trial settings, and outcomes, with about
10 % and 20 % of the sigma and tau cells undetected. perfbench's tracer
sees only whole calls of the traced functions, so it cannot time these
per chunk.

The kernels run under the allocator the command line sets
(lhvlab.cli._keep_chunk_memory, called first), so a freed temporary
stays mapped between calls, as in a command-line run, and two checkouts
are timed alike: at glibc's defaults whether a temporary of 128 KiB or
more is faulted in again depends on what the process freed before.

A checkout needs a sphere_point that takes turns, geometry.cross and
cli._keep_chunk_memory. The script uses the standard library, numpy and
the checkout's lhvlab only.
"""

from __future__ import annotations

import argparse
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROWS = 1 << 16
REPEATS = 7
SEED = 2024
CSV_ROWS = 1 << 15
CSV_START = 3 * CSV_ROWS  # a chunk whose trial indices have 5 digits


def kernels(lhv, n: int) -> dict:
    """name -> a call of that kernel on fixed inputs of n rows."""
    g, m, p = lhv.geometry, lhv.models, lhv.protocols
    w = g.RandomStream(SEED, 0).uniform((4, n))
    z = 2.0 * w[0] - 1.0
    phi = w[1]  # the azimuth, in turns
    u = g.sphere_point(z, phi)  # in the layout the checkout's sampler makes
    a, b = g.planar_setting(0.0), g.planar_setting(75.0)
    t = (123 + g.RandomStream(SEED, 1).uniform(n) * n) * p.EMISSION_STEP
    stream = g.RandomStream(SEED, 2)
    v = g.sphere_point(-z, w[2])
    x = g.sphere_point(2.0 * w[3] - 1.0, phi)  # per-trial setting rows
    c = g.uniform_signs(w[3])
    sigma, tau = m.malus_pair((u, w[2], w[3]), a, b)
    bins = p._bin_index(z, p.N_BINS)
    atoms = m._draw_atoms(a, b, n, g.RandomStream(SEED, 5), None)(slice(0, n))[0]
    rows = csv_columns(lhv)
    return {
        "sgn": lambda: g.sgn(z),
        "malus_outcome": lambda: m.malus_outcome(u, a, w[2]),
        "uniform_signs": lambda: g.uniform_signs(w[3]),
        "dot": lambda: g.dot(u, a),
        "sphere_point": lambda: g.sphere_point(z, phi),
        "sphere_rows": lambda: g.sphere_rows(g.RandomStream(SEED, 3), n)(slice(0, n)),
        "hall_spins": lambda: m.hall_spins(a, b, w),
        "_bin_index": lambda: p._bin_index(z, p.N_BINS),
        "watch_vector": lambda: p.watch_vector(t, p.WATCH_A),
        "uniform_rows": lambda: stream.uniform_rows((2, n))(slice(0, n)),
        "cross": lambda: g.cross(u, x),
        "malus_pair": lambda: m.malus_pair((u, w[2], w[3]), a, b),
        "malus_pair_atoms": lambda: m.malus_pair((atoms, w[2], w[3]), a, b),
        "hall_outcomes": lambda: m.hall_outcomes(u, a, b),
        "one_bit_tau": lambda: m.one_bit_tau(u, v, c, b),
        "outcome_counts": lambda: m.outcome_counts(sigma, tau),
        "outcome_counts_binned": lambda: m.outcome_counts(sigma, tau, bins, p.N_BINS),
        # _csv_rows empties the dict it is given.
        "csv_rows": lambda: p._csv_rows("shared-coin", CSV_START, dict(rows)),
    }


def csv_columns(lhv) -> dict:
    """The columns of one shared-coin transcript chunk of CSV_ROWS trials,
    built from one stream's uniforms by the same arithmetic in every
    checkout: unit spins and settings from z and turns, coins and outcomes
    as signs, and detection flags as thresholds."""
    w = lhv.geometry.RandomStream(SEED, 4).uniform((8, CSV_ROWS))

    def unit(z, turns):
        r = np.sqrt(1.0 - z * z)
        return np.stack([r * np.cos(2 * math.pi * turns), r * np.sin(2 * math.pi * turns), z], 1)

    def signs(x):
        return np.where(x < 0.5, 1.0, -1.0)
    return {"u": unit(2 * w[0] - 1, w[1]), "a_used": unit(2 * w[2] - 1, w[3]),
            "b_used": unit(2 * w[4] - 1, w[5]), "c": signs(w[6]).astype(np.int64),
            "d": signs(w[7]), "sigma": signs(w[3]), "tau": signs(w[5]),
            "detected_a": w[2] < 0.9, "detected_b": w[4] < 0.8}


def measure(call) -> tuple[float, float]:
    """The fastest of REPEATS calls, in milliseconds, and the minor page
    faults per call over all REPEATS."""
    best = math.inf
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return best * 1e3, faults / REPEATS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).parents[1])
    parser.add_argument("--rows", type=int, default=ROWS, help="rows per call (default 65,536)")
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "lhvlab" / "geometry.py").exists():
        parser.error(f"{args.checkout} holds no src/lhvlab/geometry.py")
    if args.rows < 1:
        parser.error(f"--rows must be at least 1, got {args.rows}")
    sys.path.insert(0, str(src))
    import lhvlab  # loads every module
    import lhvlab.cli
    lhvlab.cli._keep_chunk_memory()
    for name, call in kernels(lhvlab, args.rows).items():
        ms, faults = measure(call)
        print(f"{name} {ms:.3f} {faults:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
