"""tools/reach.py finds every src/ function that no command calls; each one
it finds is kept on purpose."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
_SPEC = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

# One small argv per subcommand and mode. protocol runs write a transcript.
# simulate at 65,537 trials takes the chunk pool, and shared-coin at 32,769
# takes it with two transcript chunks of 32,768 rows.
LAW_MODELS = ("singlet", "uniform", "mixed", "tb", "tb-freewill", "pinned", "hall")
SAMPLED_MODELS = ("mixed", "tb", "tb-freewill", "pinned", "hall")
P = (("tb-ext1", "0.3"), ("tb-ext2", "0.7"))
ARGV = [
    *(["law", "--model", m] for m in LAW_MODELS),
    *(["law", "--model", m, "--p", p] for m, p in P),
    ["law", "--model", "singlet", "--vec-a", "0,0,1", "--vec-b", "1,0,1"],
    ["law", "--model", "tb-ext1", "--p", "0.5", "--scan", "0:90:4"],
    *(["chsh", "--model", m] for m in LAW_MODELS),
    *(["chsh", "--model", m, "--p", p] for m, p in P),
    *(["simulate", "--model", m, "--trials", "1000"] for m in SAMPLED_MODELS),
    *(["simulate", "--model", m, "--p", p, "--trials", "1000"] for m, p in P),
    ["simulate", "--model", "tb", "--trials", "65537"],
    *(["chsh", "--model", m, "--trials", "1000"] for m in SAMPLED_MODELS),
    *(["chsh", "--model", m, "--p", p, "--trials", "1000"] for m, p in P),
    ["feasibility", "--correlators", "0.5,0.5,0.5,-0.5"],
    ["feasibility", "--correlators", "0,0,0,0"],
    ["feasibility", "--correlators", "0.7071,0.7071,0.7071,-0.7071"],
    ["feasibility", "--correlators", "0.75,0.75,0.75,-0.75", "--tol", "0.1,0.1,0.1,0.1"],
    ["feasibility", "--correlators", "0.5,0.5,0.5,0.5", "--marginals", "0.2,0.2,0.2,0.2"],
    *(["feasibility", "--from-model", m, "--trials", "1000"]
      for m in ("tb-freewill", "pinned", "hall")),
    *(["protocol", "--name", name, "--trials", "1000"]
      for name in ("tb", "tb-freewill", "watch-pinned", "watch-hall")),
    ["protocol", "--name", "shared-coin", "--trials", "32769"],
    *(["protocol", "--name", "detection-loophole", "--mode", mode, "--trials", "1000"]
      for mode in ("symmetric", "asymmetric")),
    ["protocol", "--name", "detection-loophole", "--mode", "sphere", "--n-directions", "16",
     "--trials", "1000"],
    ["protocol", "--name", "detection-loophole", "--mode", "sphere", "--delta-omega", "0.5",
     "--trials", "1000"],
    *(["signal", "--mode", mode, "--trials", "1000"] for mode in ("action", "slave-will")),
    *(["freewill", "--model", m, "--n", "4"] for m in ("pinned", "independent", "dictated")),
    *(["audit", "--mode", mode, "--trials", "1000"]
      for mode in ("honest", "slave", "third-party")),
    # Failing runs: their error paths are reached too.
    ["protocol", "--name", "detection-loophole", "--trials", "2"],
    ["law", "--model", "tb-ext1"],
    ["feasibility", "--correlators", "1,x,0,0"],
]

# Every function the runs above may leave unreached, with why it stays.
KEEP = {
    "cli.py _json_key": "rare branch: a report dict key that is not a str",
    "cli.py binomial_tail": "rare branch: a check cell far out in the tail",
    "cli.py _memory_hint": "rare branch: a run that runs out of memory",
    "exactlp.py _fraction_ratio": "reads numpy and Decimal values for _integer_ratios",
    "freewill.py measure_M": "paper content: the free-will measure M on its own",
    "geometry.py gathered": "fills sample_outcomes' arrays, which the acceptance tests read",
    "geometry.py gathered.<locals>.put": "gathered's chunk work",
    "geometry.py _forget_pool": "runs only in a forked child",
    "geometry.py RandomStream.__repr__": "a stream's repr",
    "geometry.py RandomStream.uniform": "tracer hook (perfbench/tracing.py METHODS)",
    "geometry.py RandomStream.integers": "tracer hook; MasterProb16.random's draw",
    "inequalities.py MasterProb16.__init__": "paper content: a master probability from q",
    "inequalities.py MasterProb16.random": "tracer hook; a random master probability",
    "inequalities.py MasterProb16.q": "paper content: the master probability's q",
    "inequalities.py MasterProb16._moment": "paper content: its correlators and marginals",
    "inequalities.py MasterProb16.correlators": "paper content: the four correlators",
    "inequalities.py MasterProb16.marginals": "paper content: the four marginals",
    "inequalities.py MasterProb16.chsh_value": "tracer hook; the CHSH value of a witness",
    "inequalities.py bayes_chain_check": "paper content (ROADMAP items 8 and 24)",
    "inequalities.py CardDeckModel.__post_init__": "paper content: the card deck",
    "inequalities.py two_deck_example": "paper content: the card deck",
    "inequalities.py card_deck_stats": "paper content: the card deck",
    "models.py JointLaw2x2.from_outcomes": "tracer hook (perfbench/tracing.py METHODS)",
    "models.py JointLaw2x2.__repr__": "a law's repr",
    "models.py malus_marginal": "paper content: Malus's law, the exact detection laws' term",
    "models.py AtomSpins.__neg__": "no caller left (a FOUND line in CHANGES.md)",
    "models.py IncompatiblePriors.__repr__": "the sentinel's repr",
    "models.py tb_conditional": "paper content: the 0/0 conditional of incompatible priors",
    "models.py tb_freewill_density": "paper content (ROADMAP items 8 and 24)",
    "models.py hall_f": "paper content (ROADMAP items 8 and 24)",
    "models.py _hall_g": "paper content (ROADMAP items 8 and 24)",
    "models.py hall_density": "paper content (ROADMAP items 8 and 24)",
    "models.py sample_outcomes": "the acceptance tests' sampled outcomes",
    "protocols.py TranscriptBatch.__init__": "tracer hook until ROADMAP item 10",
    "protocols.py TranscriptBatch.to_csv": "tracer hook (perfbench/tracing.py METHODS)",
    "protocols.py TranscriptBatch._csv_chunk": "TranscriptBatch.to_csv's chunk work",
}
# The chunk pool starts on a host with two or more CPUs only.
ONE_CPU = {"geometry.py _executor", "geometry.py _mark_busy"}


def _census():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py"), str(ROOT),
                           "--argv", json.dumps(ARGV)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    *lines, total = proc.stdout.splitlines()
    names = {}
    for line in lines:
        place, name, count = line.split()
        names[f"{Path(place.split(':')[0]).name} {name}"] = int(count)
    return names, total


def test_every_unreached_function_is_kept_with_a_reason():
    names, total = _census()
    allowed = set(KEEP) | (ONE_CPU if len(os.sched_getaffinity(0)) == 1 else set())
    assert set(names) <= allowed, sorted(set(names) - allowed)
    assert total == f"unreached: {len(names)} functions, {sum(names.values())} lines"
    assert all(reason and "\n" not in reason for reason in KEEP.values())


def test_every_kept_function_exists():
    # A name left here after its function is gone would hide nothing.
    defined = {f"{Path(path).name} {name}"
               for (path, _), (name, _) in reach.functions(ROOT / "src" / "lhvlab").items()}
    assert set(KEEP) <= defined, sorted(set(KEEP) - defined)
