"""Count how often each invariant check of the sampled commands fails.

    python3 tools/check_rates.py [CHECKOUT] [--seeds N] [--first-seed S]
                                 [--trials N] [--mutant NAME] [--only NAME ...]

The script imports lhvlab from CHECKOUT/src (default: the checkout that
holds this file) and runs each command of COMMANDS in-process through
lhvlab.cli.main, at seeds S to S + N - 1 (default 1 to 200). --trials
sets every command's trial count; without it each command runs at its
own default. It prints one line per command and check, with the number
of runs the check failed in, and one ``(error)`` line for a command whose
runs ended in an error instead of a report.

Without --mutant, every failure is a false failure: the table gives each
check's false-failure count. With --mutant, the named defect of MUTANTS is
monkeypatched into lhvlab for the runs, so the table shows which checks
catch it. The mutants are:

- ``b-spin-plus-u``: station B of every zero-communication Malus pair
  (shared-coin, detection, watch-pinned, and every audit mode, which runs
  the shared-coin realization) measures the spin +u instead of its
  partner's -u;
- ``sign-rule``: the same stations answer by the sign rule sgn(u.x)
  instead of a Malus draw;
- ``leak-10``: in ``signal --mode slave-will``, every tenth usable bit
  arrives as sent;
- ``tb-two-bits``: in the one-bit protocol, station A's bit goes to
  station B through the A->B meter twice per trial;
- ``shared-third-draw``: the stations' shared stream reserves one more
  row of uniforms than asked for and hands over the rows asked for, so
  shared-coin gets the same coins and only the stream's counter moves;
- ``hall-one-lune``: the Hall sampler (``simulate --model hall``,
  watch-hall) reads every trial's lune-side uniform as 0, so each pair of
  lunes keeps only one of its two lunes.

The script uses the standard library and the checkout's lhvlab only.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

SAMPLED_MODELS = ("mixed", "tb", "tb-ext1", "tb-ext2", "tb-freewill", "pinned", "hall")
P = {"tb-ext1": ("--p", "0.3"), "tb-ext2": ("--p", "0.7")}

# name -> argv without --seed or --trials.
COMMANDS = {
    **{f"simulate-{m}": ("simulate", "--model", m, *P.get(m, ())) for m in SAMPLED_MODELS},
    "protocol-tb": ("protocol", "--name", "tb"),
    "protocol-tb-freewill": ("protocol", "--name", "tb-freewill"),
    "shared-coin": ("protocol", "--name", "shared-coin"),
    "detection-symmetric": ("protocol", "--name", "detection-loophole"),
    "detection-asymmetric": ("protocol", "--name", "detection-loophole", "--mode", "asymmetric"),
    "detection-sphere16": ("protocol", "--name", "detection-loophole", "--mode", "sphere",
                           "--n-directions", "16"),
    "watch-pinned": ("protocol", "--name", "watch-pinned"),
    "watch-hall": ("protocol", "--name", "watch-hall"),
    "signal-slave-will": ("signal", "--mode", "slave-will"),
    "audit-slave": ("audit", "--mode", "slave"),
}


def _b_spin_plus_u(lhv):
    outcome = lhv.models.malus_outcome

    def malus_pair(hidden, x, y):
        u, noise_a, noise_b = hidden
        return outcome(u, x, noise_a), outcome(u, y, noise_b)
    return malus_pair


def _sign_rule(lhv):
    outcome = lhv.models.sign_outcome

    def malus_pair(hidden, x, y):
        return outcome(hidden[0], x), outcome(-hidden[0], y)
    return malus_pair


def _leak_10(lhv):
    signal_bits = lhv.protocols._signal_bits

    def leaky(rows, *args):
        bits = signal_bits(rows, *args)
        first = -rows.start % 10  # the chunk's first usable trial of index 0 mod 10
        bits["tau"][first::10] = bits["sigma"][first::10]
        return bits
    return leaky


def _tb_two_bits(lhv):
    send = lhv.protocols._a_to_b

    def twice(bit, trial):
        return send(send(bit, trial), trial)
    return twice


def _shared_third_draw(lhv):
    made, shared_id = lhv.protocols.substream, lhv.protocols.STREAM_SHARED_AB

    def substream(master_seed, stream_id):
        stream = made(master_seed, stream_id)
        if stream_id == shared_id:
            reserve = stream.uniform_rows

            def uniform_rows(size):
                k, n = size
                draw = reserve((k + 1, n))
                return lambda rows: draw(rows)[:k]
            stream.uniform_rows = uniform_rows
        return stream
    return substream


def _hall_one_lune(lhv):
    spins = lhv.models.hall_spins

    def hall_spins(a, b, w, out=None):
        w = w.copy()
        w[1] = 0  # the lune pair's side: always the first lune
        return spins(a, b, w, out)
    return hall_spins


# name -> (lhvlab module, attribute, replacement made from lhvlab)
MUTANTS = {
    "b-spin-plus-u": ("protocols", "malus_pair", _b_spin_plus_u),
    "sign-rule": ("protocols", "malus_pair", _sign_rule),
    "leak-10": ("protocols", "_signal_bits", _leak_10),
    "tb-two-bits": ("protocols", "_a_to_b", _tb_two_bits),
    "shared-third-draw": ("protocols", "substream", _shared_third_draw),
    "hall-one-lune": ("models", "hall_spins", _hall_one_lune),
}


@contextmanager
def mutated(lhv, mutant):
    """lhvlab with the named mutant installed (None: unchanged) for the
    body of the with block."""
    if mutant is None:
        yield
        return
    module_name, attribute, make = MUTANTS[mutant]
    module = getattr(lhv, module_name)
    original = getattr(module, attribute)
    setattr(module, attribute, make(lhv))
    try:
        yield
    finally:
        setattr(module, attribute, original)


def run_checks(lhv, argv):
    """name -> passed for each invariant check of one CLI run, or None if
    the run ended in an error."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            lhv.cli.main(list(argv))
    except SystemExit:
        return None
    return {c["name"]: c["passed"] for c in json.loads(out.getvalue())["invariant_checks"]}


def failure_counts(lhv, commands, seeds, trials=None, mutant=None):
    """command -> {check: runs failed, ..., "(error)": runs without a
    report}, over the given seeds."""
    table = {}
    with mutated(lhv, mutant):
        for name in commands:
            counts = table[name] = {}
            for seed in seeds:
                argv = [*COMMANDS[name], "--seed", str(seed)]
                argv += ["--trials", str(trials)] if trials is not None else []
                checks = run_checks(lhv, argv)
                if checks is None:
                    counts["(error)"] = counts.get("(error)", 0) + 1
                    continue
                for check, passed in checks.items():
                    counts[check] = counts.get(check, 0) + (not passed)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).parents[1])
    parser.add_argument("--seeds", type=int, default=200, help="number of seeds")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trials", type=int, default=None,
                        help="trials of every run (default: each command's own)")
    parser.add_argument("--mutant", choices=tuple(MUTANTS), default=None)
    parser.add_argument("--only", nargs="+", choices=tuple(COMMANDS), default=tuple(COMMANDS),
                        help="run these commands only")
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "lhvlab" / "cli.py").exists():
        parser.error(f"{args.checkout} holds no src/lhvlab/cli.py")
    sys.path.insert(0, str(src))
    import lhvlab.cli  # loads every module

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    print(f"# seeds {seeds.start}-{seeds.stop - 1}, trials {args.trials or 'default'}, "
          f"mutant {args.mutant or 'none'}")
    for name in args.only:
        table = failure_counts(lhvlab, [name], seeds, args.trials, args.mutant)[name]
        for check, failed in table.items():
            print(f"{name:<22} {check:<38} {failed:>4}/{len(seeds)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
