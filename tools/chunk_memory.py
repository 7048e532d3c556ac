"""Memory of one Monte Carlo chunk and of one command, per runner and sampler.

    python3 tools/chunk_memory.py [CHECKOUT] [--rows N] [--trials T] [--only NAME ...]

The script imports lhvlab from CHECKOUT/src (default: the checkout that
holds this file) and prints one ``name bytes_per_trial MB`` line for each
protocol runner (the six ``protocol --name`` runs, detection in its three
modes, both audits, both signaling modes), each sampler of
``estimate_law``, each ``feasibility --from-model`` model (through
``counterfactual_correlators``) and each runner that ``mc_sweep`` records
(``transcript-*``: tb, shared-coin, watch-pinned, detection-sphere):

- bytes_per_trial is the tracemalloc peak of one library run of N trials
  (default 65,536, one chunk of geometry.streamed), on one thread and with
  the chunk size set to N, divided by N. A ``transcript-*`` run records to
  a writer that discards the text, at one chunk of the writer's size
  (protocols._CSV_CHUNK_ROWS, 32,768 rows, or N if smaller), and its
  figure is per row. The run is made once first, so first-call tables do
  not count. It is a property of the code, the same on every host.
- MB is ``ru_maxrss`` of a fresh interpreter that runs the matching
  command through lhvlab.cli.main at T trials (default 1,000,000), the
  report going to os.devnull. It includes the interpreter, numpy and
  scipy, and the allocator the command line sets. Linux carries the peak
  RSS of the process that starts a command over into the command's
  ru_maxrss, so every command is started before this script imports
  numpy, while it is far smaller than any command.

Running it on two checkouts compares their memory on the same runs:

    python3 tools/chunk_memory.py A; python3 tools/chunk_memory.py B

The script uses the standard library, numpy and the checkout's lhvlab only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

ROWS = 1 << 16
TRIALS = 1_000_000
SEED = 5
A, B = 0.0, 75.0
MESSAGE = "01101"
SPHERE_DIRECTIONS = 16

ANGLES = ["--a", repr(A), "--b", repr(B)]
# name -> (the library run of n trials, the command's arguments before --trials)
RUNS = {
    "tb": (lambda lhv, a, b, n: lhv.protocols.run_tb_protocol(n, a, b, SEED),
           ["protocol", "--name", "tb", *ANGLES]),
    "tb-freewill": (lambda lhv, a, b, n: lhv.protocols.run_tb_freewill(n, a, b, SEED),
                    ["protocol", "--name", "tb-freewill", *ANGLES]),
    "shared-coin": (lambda lhv, a, b, n: lhv.protocols.run_shared_coin(n, SEED),
                    ["protocol", "--name", "shared-coin"]),
    **{f"detection-{mode}": (
        lambda lhv, a, b, n, mode=mode: lhv.protocols.run_detection_loophole(
            n, mode, SEED, n_directions=SPHERE_DIRECTIONS if mode == "sphere" else None),
        ["protocol", "--name", "detection-loophole", "--mode", mode]
        + (["--n-directions", str(SPHERE_DIRECTIONS)] if mode == "sphere" else []))
       for mode in ("symmetric", "asymmetric", "sphere")},
    **{f"watch-{model}": (
        lambda lhv, a, b, n, model=model: lhv.protocols.run_watch_realization(n, model, SEED),
        ["protocol", "--name", f"watch-{model}"]) for model in ("pinned", "hall")},
    **{f"audit-{mode}": (
        lambda lhv, a, b, n, mode=mode: lhv.protocols.run_conspiracy_audit(n, a, b, mode, SEED),
        ["audit", "--mode", mode, *ANGLES]) for mode in ("honest", "slave")},
    **{f"signal-{mode}": (
        lambda lhv, a, b, n, mode=mode: lhv.protocols.run_signaling_experiment(
            [int(bit) for bit in MESSAGE], mode, n, SEED),
        ["signal", "--mode", mode, "--message", MESSAGE]) for mode in ("action", "slave-will")},
}
# The samplers, as simulate runs them; the tb-ext mixtures at p = 1/2.
MODELS = ("tb", "tb-ext1", "tb-ext2", "tb-freewill", "pinned", "hall", "mixed")
RUNS.update({
    f"simulate-{model}": (
        lambda lhv, a, b, n, model=model: lhv.models.estimate_law(
            model, a, b, n, lhv.geometry.RandomStream(SEED), p=0.5 if "ext" in model else None),
        ["simulate", "--model", model, *ANGLES, *(["--p", "0.5"] if "ext" in model else [])])
    for model in MODELS})

# counterfactual_correlators at feasibility's default settings.
CHSH = (0.0, 90.0, 45.0, 315.0)
RUNS.update({
    f"feasibility-{model}": (
        lambda lhv, a, b, n, model=model: lhv.inequalities.counterfactual_correlators(
            model, *map(lhv.geometry.planar_setting, CHSH), n, lhv.geometry.RandomStream(SEED)),
        ["feasibility", "--from-model", model])
    for model in ("pinned", "hall", "tb-freewill")})


class Discard:
    """A text file that keeps nothing."""

    def write(self, text):
        return len(text)


# The runs mc_sweep records, each to a Discard (the command to os.devnull).
RECORDED = {
    "tb": lambda lhv, a, b, n, fh: lhv.protocols.run_tb_protocol(n, a, b, SEED, record=fh),
    "shared-coin": lambda lhv, a, b, n, fh: lhv.protocols.run_shared_coin(n, SEED, record=fh),
    "watch-pinned": lambda lhv, a, b, n, fh: lhv.protocols.run_watch_realization(
        n, "pinned", SEED, record=fh),
    "detection-sphere": lambda lhv, a, b, n, fh: lhv.protocols.run_detection_loophole(
        n, "sphere", SEED, n_directions=SPHERE_DIRECTIONS, record=fh),
}
RUNS.update({f"transcript-{name}": (lambda lhv, a, b, n, run=run: run(lhv, a, b, n, Discard()),
                                    [*RUNS[name][1], "--transcript", os.devnull])
             for name, run in RECORDED.items()})

# Run in a fresh interpreter: argv is [src, command arguments...].
FRESH = """
import os, resource, sys
sys.path.insert(0, sys.argv[1])
from lhvlab.cli import main
main(sys.argv[2:] + ["--out", os.devnull])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def chunk_peak(lhv, run, rows: int) -> float:
    """The tracemalloc peak of run at rows trials, on one thread in one
    chunk of rows, in bytes per trial; after one untraced run."""
    g = lhv.geometry
    kept = g._CHUNK_ROWS, g._workers
    g._CHUNK_ROWS, g._workers = rows, lambda: 1
    try:
        a, b = g.planar_setting(A), g.planar_setting(B)
        run(lhv, a, b, rows)
        tracemalloc.start()
        try:
            run(lhv, a, b, rows)
            return tracemalloc.get_traced_memory()[1] / rows
        finally:
            tracemalloc.stop()
    finally:
        g._CHUNK_ROWS, g._workers = kept


def command_rss(src: Path, argv: list, trials: int) -> float:
    """ru_maxrss, in MB, of a fresh interpreter running the command."""
    proc = subprocess.run([sys.executable, "-c", FRESH, str(src), *argv, "--trials", str(trials)],
                          capture_output=True, text=True, timeout=600,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)}: {proc.stderr.strip().splitlines()[-1]}")
    return int(proc.stdout.split()[-1]) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).parents[1])
    parser.add_argument("--rows", type=int, default=ROWS,
                        help="trials of the traced chunk (default 65,536)")
    parser.add_argument("--trials", type=int, default=TRIALS,
                        help="trials of each command (default 1,000,000)")
    parser.add_argument("--only", nargs="+", choices=tuple(RUNS), default=tuple(RUNS),
                        metavar="NAME", help="these runs only, in this order")
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "lhvlab" / "geometry.py").exists():
        parser.error(f"{args.checkout} holds no src/lhvlab/geometry.py")
    if args.rows < 1 or args.trials < 1:
        parser.error("--rows and --trials must be at least 1")
    rss = {name: command_rss(src, RUNS[name][1], args.trials) for name in args.only}
    sys.path.insert(0, str(src))
    import lhvlab  # loads every module
    for name in args.only:
        rows = args.rows
        if name.startswith("transcript-"):
            rows = min(rows, lhvlab.protocols._CSV_CHUNK_ROWS)
        print(f"{name} {chunk_peak(lhvlab, RUNS[name][0], rows):.1f} {rss[name]:.1f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
