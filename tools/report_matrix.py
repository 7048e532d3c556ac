"""Hash every output of a fixed matrix of command-line runs.

    python3 tools/report_matrix.py [CHECKOUT] [--keep DIR]

Each case runs as ``python -m lhvlab.cli ...`` on the source of CHECKOUT
(default: the checkout that holds this file). The script prints one
``name sha256`` line for each report, each transcript, and each run's
stderr plus exit status, then one for the stdout plus exit status of each
script in CHECKOUT's ``demos/``. Two checkouts give byte-identical outputs
exactly where their listings agree:

    diff <(python3 tools/report_matrix.py A) <(python3 tools/report_matrix.py B)

The matrix covers every subcommand, every protocol name and detection
mode, every audit mode, two seeds and, where a command samples, 1,000 and
65,537 trials; every protocol run writes a transcript. CHUNKED runs the
other sampling commands once more over several 65,536-row chunks. The free-will
models run at n = 4, where every entropy is exact, and at n = 12, where
they round. DEMOS lists every
script in demos/. --keep DIR keeps the outputs for a closer look. The
script uses the standard library only, so it runs against any checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

JOBS = 2  # runs at a time
DEMOS = ("chsh_three_bounds", "detection_loophole", "limited_free_will",
         "master_probability_and_cards", "resource_budgets",
         "singlet_from_classical_models")
SEEDS = (11, 1011)
TRIALS = (1000, 65537)

LAW_MODELS = ("singlet", "uniform", "mixed", "tb", "tb-ext1", "tb-ext2", "tb-freewill",
              "pinned", "hall")
SAMPLED_MODELS = ("mixed", "tb", "tb-ext1", "tb-ext2", "tb-freewill", "pinned", "hall")
LOCAL_MODELS = ("tb-freewill", "pinned", "hall")
P = {"tb-ext1": ("--p", "0.3"), "tb-ext2": ("--p", "0.7")}

# name -> argv, for commands that read --trials; each runs at every seed
# and every trial count.
SAMPLED = {
    **{f"simulate.{m}": ("simulate", "--model", m, *P.get(m, ())) for m in SAMPLED_MODELS},
    "simulate.hall.angles": ("simulate", "--model", "hall", "--a", "30", "--b", "120"),
    "simulate.pinned.vectors": ("simulate", "--model", "pinned", "--vec-a", "1,2,3",
                                "--vec-b", "0,1,-1"),
    **{f"chsh-mc.{m}": ("chsh", "--model", m, *P.get(m, ())) for m in SAMPLED_MODELS},
    **{f"feasibility.from-{m}": ("feasibility", "--from-model", m) for m in LOCAL_MODELS},
    "feasibility.from-pinned.marginals": ("feasibility", "--from-model", "pinned",
                                          "--marginals", "0,0,0,0"),
    "protocol.tb": ("protocol", "--name", "tb"),
    "protocol.tb.angles": ("protocol", "--name", "tb", "--a", "30", "--b", "120"),
    "protocol.tb.vectors": ("protocol", "--name", "tb", "--vec-a", "0,0,1",
                            "--vec-b", "1,1,0"),
    "protocol.tb-freewill": ("protocol", "--name", "tb-freewill"),
    "protocol.tb-freewill.angles": ("protocol", "--name", "tb-freewill", "--a", "10",
                                    "--b", "70"),
    "protocol.shared-coin": ("protocol", "--name", "shared-coin"),
    "protocol.detection.symmetric": ("protocol", "--name", "detection-loophole",
                                     "--mode", "symmetric"),
    "protocol.detection.asymmetric": ("protocol", "--name", "detection-loophole",
                                      "--mode", "asymmetric"),
    "protocol.detection.sphere16": ("protocol", "--name", "detection-loophole",
                                    "--mode", "sphere", "--n-directions", "16"),
    "protocol.detection.sphere-cell": ("protocol", "--name", "detection-loophole",
                                       "--mode", "sphere", "--delta-omega", "0.5"),
    # 12,566 directions: the fire rule on a fine grid.
    "protocol.detection.sphere-fine": ("protocol", "--name", "detection-loophole",
                                       "--mode", "sphere", "--delta-omega", "0.001"),
    "protocol.watch-pinned": ("protocol", "--name", "watch-pinned"),
    "protocol.watch-hall": ("protocol", "--name", "watch-hall"),
    "signal.action": ("signal", "--mode", "action"),
    "signal.action.message": ("signal", "--mode", "action", "--message", "0110"),
    "signal.slave-will": ("signal", "--mode", "slave-will"),
    **{f"audit.{mode}{tag}": ("audit", "--mode", mode, *settings)
       for mode in ("honest", "slave", "third-party")
       for tag, settings in (("", ()), (".angles", ("--a", "0", "--b", "63")),
                             (".vectors", ("--vec-a", "1,0,0", "--vec-b", "0.6,0.8,0")))},
}

# Names in SAMPLED that also run at seed 11 and 200,003 trials: three full
# 65,536-row chunks of a Monte Carlo run plus a 3,395-row tail. The
# protocol runs span two chunks at 65,537 trials already.
CHUNKED_TRIALS = 200_003
CHUNKED = (*(f"simulate.{m}" for m in SAMPLED_MODELS), "chsh-mc.mixed",
           *(f"feasibility.from-{m}" for m in LOCAL_MODELS),
           *(f"audit.{mode}" for mode in ("honest", "slave", "third-party")),
           "signal.action", "signal.slave-will")

# name -> argv, for commands without --trials; each runs at every seed.
EXACT = {
    **{f"law.{m}": ("law", "--model", m, "--a", "30", "--b", "120", *P.get(m, ()))
       for m in LAW_MODELS},
    "law.singlet.vectors": ("law", "--model", "singlet", "--vec-a", "0,0,1",
                            "--vec-b", "1,0,1"),
    "law.singlet.scan": ("law", "--model", "singlet", "--scan", "0:180:7"),
    "law.tb-ext1.scan": ("law", "--model", "tb-ext1", "--p", "0.5", "--scan", "0:90:4"),
    # a.b exactly 0: mixed's (1/2, 1/4, 1/4, 0) law.
    "law.mixed.orthogonal": ("law", "--model", "mixed", "--vec-a", "1,0,0",
                             "--vec-b", "0,1,0"),
    **{f"chsh.{m}": ("chsh", "--model", m, *P.get(m, ())) for m in LAW_MODELS},
    "feasibility.feasible": ("feasibility", "--correlators", "0.5,0.5,0.5,-0.5"),
    "feasibility.tsirelson": ("feasibility", "--correlators",
                              "0.7071,0.7071,0.7071,-0.7071"),
    "feasibility.band": ("feasibility", "--correlators", "0.75,0.75,0.75,-0.75",
                         "--tol", "0.1,0.1,0.1,0.1"),
    "feasibility.marginals": ("feasibility", "--correlators", "0.5,0.5,0.5,0.5",
                              "--marginals", "0.2,0.2,0.2,0.2"),
    # Infeasible by a pair-positivity facet: pair[ab](-1,-1).
    "feasibility.pair-positivity": ("feasibility", "--correlators=-1,0,0,0",
                                    "--marginals", "1,0,1,0"),
    **{f"freewill.{m}": ("freewill", "--model", m, "--n", "4")
       for m in ("pinned", "independent", "dictated")},
    # At n = 12 the entropies are rounded floats, not exact ones.
    **{f"freewill.{m}.n12": ("freewill", "--model", m, "--n", "12")
       for m in ("pinned", "independent", "dictated")},
    # Failing runs: their stderr and exit status are outputs too.
    "error.no-coincidences": ("protocol", "--name", "detection-loophole", "--trials", "2"),
    "error.law-without-p": ("law", "--model", "tb-ext1"),
    "error.bad-correlators": ("feasibility", "--correlators", "1,x,0,0"),
    # An empty value is a malformed one, not an absent one.
    "error.empty-marginals": ("feasibility", "--correlators", "0.5,0.5,0.5,-0.5",
                              "--marginals", ""),
    "error.empty-tol": ("feasibility", "--correlators", "0.5,0.5,0.5,-0.5", "--tol", ""),
    "error.empty-correlators": ("feasibility", "--correlators", ""),
    "error.empty-scan": ("law", "--model", "singlet", "--scan", ""),
}


def cases():
    """(name, argv, writes a transcript) for every run of the matrix."""
    for seed in SEEDS:
        for name, argv in EXACT.items():
            yield f"{name}/s{seed}", (*argv, "--seed", str(seed)), False
        for name, argv in SAMPLED.items():
            for trials in TRIALS:
                yield (f"{name}/s{seed}/t{trials}",
                       (*argv, "--seed", str(seed), "--trials", str(trials)),
                       argv[0] == "protocol")
    for name in CHUNKED:
        yield (f"{name}/s11/t{CHUNKED_TRIALS}",
               (*SAMPLED[name], "--seed", "11", "--trials", str(CHUNKED_TRIALS)), False)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _env(checkout: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LHV_LAB_SEED"}
    env["PYTHONPATH"] = str(checkout / "src")
    return env


def run_case(checkout: Path, work: Path, name: str, argv, transcript: bool) -> list:
    """Run one case; return its `name sha256` lines."""
    stem = str(work / name.replace("/", "_"))
    out = Path(stem + ".json")
    csv = Path(stem + ".csv")
    cmd = [sys.executable, "-m", "lhvlab.cli", *argv, "--out", str(out)]
    if transcript:
        cmd += ["--transcript", str(csv)]
    proc = subprocess.run(cmd, cwd=work, env=_env(checkout), capture_output=True,
                          timeout=600)
    lines = [f"{name}/report {_sha(out.read_bytes()) if out.exists() else 'absent'}"]
    if transcript:
        lines.append(f"{name}/transcript {_sha(csv.read_bytes()) if csv.exists() else 'absent'}")
    status = proc.stderr + f"\nexit {proc.returncode}\n".encode()
    Path(stem + ".stderr").write_bytes(status)
    lines.append(f"{name}/stderr+exit {_sha(status)}")
    return lines


def run_demo(checkout: Path, work: Path, name: str) -> list:
    """Run demos/<name>.py; return its `name sha256` line. Its stderr is
    left out, since a Python warning names the file it came from, which
    differs between checkouts."""
    proc = subprocess.run([sys.executable, str(checkout / "demos" / f"{name}.py")],
                          cwd=work, env=_env(checkout), capture_output=True, timeout=600)
    status = proc.stdout + f"\nexit {proc.returncode}\n".encode()
    (work / f"demo.{name}.stdout").write_bytes(status)
    return [f"demo.{name}/stdout+exit {_sha(status)}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).parents[1])
    parser.add_argument("--keep", type=Path, default=None,
                        help="write the outputs here instead of a temporary directory")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "lhvlab" / "cli.py").exists():
        parser.error(f"{checkout} holds no src/lhvlab/cli.py")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) if args.keep is None else args.keep.resolve()
        work.mkdir(parents=True, exist_ok=True)
        with ThreadPoolExecutor(JOBS) as pool:
            runs = pool.map(lambda case: run_case(checkout, work, *case), cases())
            demos = pool.map(lambda name: run_demo(checkout, work, name), DEMOS)
            for lines in itertools.chain(runs, demos):
                print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
