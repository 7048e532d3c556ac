"""Hash every output of a fixed set of in-process library runs.

    python3 tools/runner_outputs.py [CHECKOUT]

The script imports lhvlab from CHECKOUT/src (default: the checkout that
holds this file) and prints one ``name sha256`` line per output. Two
checkouts give byte-identical outputs exactly where their listings agree:

    diff <(python3 tools/runner_outputs.py A) <(python3 tools/runner_outputs.py B)

It complements report_matrix.py, whose protocol runs stop at 65,537 trials
because each one writes a transcript. Here, at seeds 5 and 6:

- every runner runs at 1,000,003 trials, and the runners that can record
  run again at 200,003 trials with their transcript; the outputs are the
  summary, the count table of a result that keeps one (detection's per
  setting pair or overlap bin, signal's intended and received bit pairs),
  the binned comparison and the transcript CSV;
- singlet_deviation is an output of its own, once in full and once at 9
  significant digits, so that a last-bit change shows apart from the rest;
- estimate_law, sample_outcomes, chsh_mc and counterfactual_correlators
  run for every sampling model, and four draws are read whole, in one
  window each, with the stream counter after each: sphere points
  (geometry.sphere_rows), Hall spins (models._draw_hall), tb-freewill's
  (u, v, c) (models._draw_tb_freewill) and pinned's atoms as (u, c, d)
  (models._draw_atoms). These are the outputs the deleted whole-array
  samplers gave (stream.sphere, hall_sample, tb_freewill_sample and
  pinned_spin_sample), under the same names: a window read is
  column-major where those arrays were C-ordered, and _digest reads
  both in C order;
- every runner at 1,000,003 trials, estimate_law for every sampling model
  and the four draws run once more (names marked ``@mid``) on
  streams that first draw 3 uniforms and 5 integers in [0, 12,566), so
  that every window of uniforms starts mid-block, with a 32-bit half of a
  word buffered;
- mutual_information's whole report (M, I and I_max in full) for each
  free-will model builder at n = 4, 12, 16, 32 and 64, for one model whose
  denominators pass 2**70, and for seeded models whose rows share some of
  their atoms, with duplicate rows and zero weights: on int64 and on
  Python-int rows, with every pair of rows overlapping (so that M lies
  strictly between 0 and 2 and the overlap scan runs to its end) and
  without;
- exactlp.integer_feasible_point's point, as Fractions, or None for fixed
  seeded systems (the outputs of the deleted exactlp.feasible_point): those
  of tools/lp_times.py in steps of 1/16 and 1/64 (exact, marginals and
  band feasibility, 1e9-denominator bands, one and two rows), systems with
  coefficients over 2**70-sized denominators, and systems whose right-hand
  sides are all zero, so that every ratio ties. A feasibility system is
  taken with every right-hand side over that of its first equality, the
  atoms' sum, so that a checkout whose verdicts pass rationals (the sum
  as 1) and one that passes integers over a common denominator D (the
  sum as D) give the same rational systems.

A checkout's runners must write their transcript to the file given as
record. A line whose draw or LP entry the checkout lacks is skipped, with
a note on stderr that names the line and the missing name. The script
uses the standard library and the checkout's lhvlab only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

SEEDS = (5, 6)
TRIALS = 1_000_003
RECORDED_TRIALS = 200_003
MESSAGE = (0, 1, 1, 0, 1)
P = {"tb-ext1": 0.3, "tb-ext2": 0.7}
LP_SEED = 7
LP_COUNT = 16


def _digest(value) -> str:
    """sha256 of value: arrays by dtype, shape and bytes, sequences item
    by item, strings as UTF-8, anything else by repr."""
    h = hashlib.sha256()

    def feed(x):
        if hasattr(x, "tobytes") and hasattr(x, "dtype"):
            h.update(f"array {x.dtype.str} {x.shape}\n".encode())
            h.update(x.tobytes())
        elif isinstance(x, (tuple, list)):
            h.update(f"{type(x).__name__} {len(x)}\n".encode())
            for item in x:
                feed(item)
        else:
            h.update((x if isinstance(x, str) else repr(x)).encode())
            h.update(b"\n")
    feed(value)
    return h.hexdigest()


def runners(lhv):
    """name -> (run(n, seed, record), whether it records a transcript), with
    record None or an open text file."""
    g, p = lhv.geometry, lhv.protocols
    a, b = g.planar_setting(0.0), g.planar_setting(75.0)
    grid_a = [g.planar_setting(x) for x in (0.0, 60.0, 120.0)]
    grid_b = [g.planar_setting(x) for x in (30.0, 100.0)]
    detection = {
        "detection-symmetric": {"mode": "symmetric"},
        "detection-asymmetric": {"mode": "asymmetric"},
        "detection-grid": {"mode": "symmetric", "settings_a": grid_a, "settings_b": grid_b},
        "detection-sphere64": {"mode": "sphere", "n_directions": 64},
        "detection-sphere-fine": {"mode": "sphere", "delta_omega": 0.001},
    }
    return {
        "tb": (lambda n, s, r: p.run_tb_protocol(n, a, b, s, r), True),
        "tb-freewill": (lambda n, s, r: p.run_tb_freewill(n, a, b, s, r), True),
        "shared-coin": (lambda n, s, r: p.run_shared_coin(n, s, record=r), True),
        "shared-coin-fixed": (lambda n, s, r: p.run_shared_coin(n, s, a, b, r), True),
        **{f"watch-{m}": (lambda n, s, r, m=m: p.run_watch_realization(n, m, s, r), True)
           for m in ("pinned", "hall")},
        **{name: (lambda n, s, r, kw=kw: p.run_detection_loophole(n, seed=s, record=r, **kw),
                  True) for name, kw in detection.items()},
        **{f"audit-{m}": (lambda n, s, r, m=m: p.run_conspiracy_audit(n, a, b, m, s), False)
           for m in ("honest", "slave", "third-party")},
        **{f"signal-{m}": (lambda n, s, r, m=m: p.run_signaling_experiment(MESSAGE, m, n, s),
                           False) for m in ("action", "slave-will")},
    }


def _run_outputs(stem: str, res, record):
    """(name, value) for every output of one runner's result; record is the
    StringIO the run wrote its transcript to, or None."""
    summary = res.summary()
    if "singlet_deviation" in summary:
        dev = summary.pop("singlet_deviation")
        yield f"{stem}/singlet_deviation", dev
        yield f"{stem}/singlet_deviation.9g", f"{dev:.9g}"
    yield f"{stem}/summary", summary
    for part in ("counts", "singlet_comparison"):
        if hasattr(res, part):
            yield f"{stem}/{part}", getattr(res, part)
    if record is not None:
        yield f"{stem}/csv", record.getvalue()


def runner_outputs(lhv, seed: int):
    """(name, value) for every runner output at the given seed."""
    for name, (run, records) in runners(lhv).items():
        for n, recorded in ((TRIALS, False), (RECORDED_TRIALS, True)):
            if recorded and not records:
                continue
            record = io.StringIO() if recorded else None
            yield from _run_outputs(f"{name}/s{seed}/t{n}", run(n, seed, record), record)


def _absent(lhv, name: str):
    """name, a dotted lhvlab name such as "models._draw_hall", if the
    checkout lacks it; else None."""
    owner = lhv
    for part in name.split("."):
        owner = getattr(owner, part, None)
    return name if owner is None else None


def _skip(line: str, missing: str) -> None:
    print(f"note: {line} skipped: this checkout has no {missing}", file=sys.stderr, flush=True)


def _atoms(spins):
    """pinned's atom codes as the spins u, the int64 coins c and the float
    signs d."""
    return spins.rows(), (spins.code >> 1).astype("int64"), (spins.code & 1) * -2.0 + 1.0


def samplers(lhv):
    """name -> (the dotted name it reads, draw(stream)) for the four draws
    read whole."""
    g, m = lhv.geometry, lhv.models
    a, b = g.planar_setting(0.0), g.planar_setting(75.0)
    whole = slice(0, TRIALS)
    return {
        "sphere": ("geometry.sphere_rows", lambda stream: g.sphere_rows(stream, TRIALS)(whole)),
        "hall_sample": ("models._draw_hall",
                        lambda stream: m._draw_hall(a, b, TRIALS, stream, None)(whole)),
        "tb_freewill_sample": ("models._draw_tb_freewill", lambda stream:
                               m._draw_tb_freewill(a, b, TRIALS, stream, None)(whole)),
        "pinned_spin_sample": ("models._draw_atoms", lambda stream:
                               _atoms(m._draw_atoms(a, b, TRIALS, stream, None)(whole)[0])),
    }


def sampler_outputs(lhv, seed: int, mid: bool = False):
    """(name, value) for each of the four draws the checkout has, on a
    stream taken through mid_block first if mid."""
    for name, (reads, draw) in samplers(lhv).items():
        line = f"sampler.{name}{'@mid' if mid else ''}/s{seed}/t{TRIALS}"
        missing = _absent(lhv, reads)
        if missing:
            _skip(line, missing)
            continue
        stream = lhv.geometry.RandomStream(seed, 4)
        if mid:
            mid_block(stream)
        yield line, (draw(stream), stream.counter)


def model_outputs(lhv, seed: int):
    """(name, value) for every model's sampled law, outcomes, CHSH report
    and counterfactual correlators, and for the four draws read whole."""
    g, m, q = lhv.geometry, lhv.models, lhv.inequalities
    a, b = g.planar_setting(0.0), g.planar_setting(75.0)
    a2, b2 = g.planar_setting(45.0), g.planar_setting(135.0)
    for model in m.MODEL_IDS:
        stem = f"model.{model}/s{seed}/t{TRIALS}"
        stream = g.RandomStream(seed, 1)
        law = m.estimate_law(model, a, b, TRIALS, stream, p=P.get(model))
        yield f"{stem}/estimate_law", (law.p, law.n_trials, stream.counter)
        stream = g.RandomStream(seed, 2)
        yield (f"{stem}/sample_outcomes",
               (m.sample_outcomes(model, a, b, TRIALS, stream, p=P.get(model)), stream.counter))
        stream = g.RandomStream(seed, 5)
        report = q.chsh_mc(model, a, a2, b, b2, TRIALS, stream, p=P.get(model))
        yield f"{stem}/chsh_mc", (report.as_dict(), stream.counter)
        if m.MODELS[model].local:
            stream = g.RandomStream(seed, 3)
            estimates = q.counterfactual_correlators(model, a, a2, b, b2, TRIALS, stream)
            yield (f"{stem}/counterfactual_correlators",
                   ([e.as_dict() for e in estimates], stream.counter))
    yield from sampler_outputs(lhv, seed)


def mid_block(stream):
    """stream after 3 uniforms and 5 integers in [0, 12,566): its next
    uniform reads a word in the middle of a Philox block, and a 32-bit half
    of a word is buffered."""
    stream.uniform(3)
    stream.integers(0, 12_566, 5)
    return stream


def mid_block_outputs(lhv, seed: int):
    """(name, value) for every runner at TRIALS without a transcript, for
    estimate_law of every sampling model and for the four draws read whole,
    each stream taken through mid_block first."""
    g, m, p = lhv.geometry, lhv.models, lhv.protocols
    made = p.substream
    p.substream = lambda master_seed, stream_id: mid_block(made(master_seed, stream_id))
    try:
        for name, (run, _) in runners(lhv).items():
            yield from _run_outputs(f"{name}@mid/s{seed}/t{TRIALS}", run(TRIALS, seed, None),
                                    None)
    finally:
        p.substream = made
    a, b = g.planar_setting(0.0), g.planar_setting(75.0)
    for model in m.MODEL_IDS:
        stream = mid_block(g.RandomStream(seed, 1))
        law = m.estimate_law(model, a, b, TRIALS, stream, p=P.get(model))
        yield (f"model.{model}@mid/s{seed}/t{TRIALS}/estimate_law",
               (law.p, law.n_trials, stream.counter))
    yield from sampler_outputs(lhv, seed, mid=True)


def freewill_models(f, seed: int):
    """name -> seeded DiscretizedModel: each row holds a random subset of
    the shared atoms, with zero weights among them, and an atom of its own;
    about one row in four repeats an earlier one. A hub atom held with a
    positive weight by every row makes every pair of rows overlap."""
    rng = random.Random(seed)
    shapes = {"shared": (3, 4, 6, 6, False), "shared-hub": (12, 12, 40, 6, True),
              "shared-hub-2**70": (6, 5, 10, 2**70, True)}
    models = {}
    for name, (n_a, n_b, n_shared, top, hub) in shapes.items():
        conditional = {}
        for i in range(n_a):
            for j in range(n_b):
                if conditional and rng.random() < 0.25:
                    conditional[(i, j)] = dict(rng.choice(list(conditional.values())))
                    continue
                atoms = [("shared", k) for k in rng.sample(range(n_shared),
                                                           rng.randint(1, n_shared))]
                atoms += [("own", i, j)] + [("hub",)] * hub
                nums = [rng.randint(0, top) for _ in atoms[:-1]] + [rng.randint(1, top)]
                conditional[(i, j)] = {atom: Fraction(x, sum(nums))
                                       for atom, x in zip(atoms, nums)}
        models[name] = f.DiscretizedModel(n_a, n_b, conditional)
    return models


def freewill_outputs(lhv):
    """(name, repr of the FreeWillReport) for each free-will builder at n = 4,
    12, 16, 32 and 64, for a model whose denominators pass 2**70 and for
    the seeded models of freewill_models."""
    f = lhv.freewill
    builders = {"pinned": f.discretized_setting_tied_model,
                "independent": f.setting_independent_model,
                "dictated": f.dictated_settings_model}
    for name, build in builders.items():
        for n in (4, 12, 16, 32, 64):
            yield f"freewill.{name}/n{n}", repr(f.mutual_information(build(n)))
    conditional = {(0, j): {"x": Fraction(1, d), "y": Fraction(d - 1, d)}
                   for j, d in enumerate((2**70 + 1, 2**70 + 3, 3))}
    model = f.DiscretizedModel(1, 3, conditional)
    yield "freewill.big-denominators", repr(f.mutual_information(model))
    for seed in SEEDS:
        for name, model in freewill_models(f, seed).items():
            yield f"freewill.{name}/s{seed}", repr(f.mutual_information(model))


def _over_first_equality(A_eq, b_eq, A_ub, b_ub):
    """The system with every right-hand side divided by b_eq[0]."""
    first = b_eq[0]
    return (A_eq, [Fraction(b, first) for b in b_eq],
            A_ub, [Fraction(b, first) for b in b_ub])


def lp_systems(seed: int, count: int):
    """name -> count seeded systems: tools/lp_times.py's shapes in steps of
    1/16 and 1/64, then 2**70-sized denominators and all-zero right-hand
    sides on random shapes of up to 13 rows, with and without inequalities."""
    spec = importlib.util.spec_from_file_location("lp_times",
                                                  Path(__file__).with_name("lp_times.py"))
    lp_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lp_times)
    for den in (16, 64):
        for shape, batch in lp_times.systems(seed, count, den).items():
            if shape in lp_times.VERDICT_SHAPES:
                batch = [_over_first_equality(*system) for system in batch]
            yield f"{shape}/d{den}", batch
    rng = random.Random(seed)

    def big():
        return Fraction(rng.randint(-2**72, 2**72), 2**70 + rng.randint(0, 3))
    entries = {"2**70": (big, big),  # (coefficient, right-hand side)
               "ties": (lambda: rng.randint(-2, 2), lambda: rng.choice((0, 0, 0, 1)))}
    for name, (coef, rhs) in entries.items():
        batch = []
        for _ in range(count):
            n_eq, k, n = rng.randint(1, 9), rng.randint(0, 4), rng.randint(2, 16)
            A_eq, A_ub = ([[coef() for _ in range(n)] for _ in range(rows)] for rows in (n_eq, k))
            b_eq, b_ub = ([rhs() for _ in range(rows)] for rows in (n_eq, k))
            batch.append((A_eq, b_eq, A_ub, b_ub))
        yield name, batch


def lp_outputs(lhv):
    """(name, the points as Fractions, or Nones) for every batch of
    lp_systems."""
    missing = _absent(lhv, "exactlp.integer_feasible_point")
    for name, batch in lp_systems(LP_SEED, LP_COUNT):
        line = f"lp.{name}/s{LP_SEED}"
        if missing:
            _skip(line, missing)
            continue
        points = (lhv.exactlp.integer_feasible_point(*args) for args in batch)
        yield line, [None if point is None else [Fraction(v, point[1]) for v in point[0]]
                     for point in points]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).parents[1])
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "lhvlab" / "protocols.py").exists():
        parser.error(f"{args.checkout} holds no src/lhvlab/protocols.py")
    sys.path.insert(0, str(src))
    import lhvlab  # loads every module
    for seed in SEEDS:
        for outputs in (runner_outputs, model_outputs, mid_block_outputs):
            for name, value in outputs(lhvlab, seed):
                print(name, _digest(value), flush=True)
    for outputs in (freewill_outputs, lp_outputs):
        for name, value in outputs(lhvlab):
            print(name, _digest(value), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
