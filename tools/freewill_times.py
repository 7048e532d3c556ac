"""Time the free-will measures on the models that `lhvlab freewill` builds.

    python3 tools/freewill_times.py [CHECKOUT]

The script imports lhvlab from CHECKOUT/src (default: the checkout that
holds this file) and prints one ``builder/nN build_µs measure_µs`` line per
builder (pinned, independent, dictated) and size N in 16, 32 and 64: the
time of one build of the model (the builder, which checks the model and
turns it into integer rows) and of one freewill.mutual_information call on
it, each the best of 7 passes. Running it on two checkouts compares them
on the same models:

    python3 tools/freewill_times.py A; python3 tools/freewill_times.py B

The script uses the standard library and the checkout's lhvlab only.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

SIZES = (16, 32, 64)
REPEATS = 7


def measure(builder, n: int, repeats: int) -> tuple[float, float]:
    """(µs per build, µs per mutual_information), each best of repeats."""
    from lhvlab.freewill import mutual_information
    build = info = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        model = builder(n)
        built = time.perf_counter()
        mutual_information(model)
        build = min(build, built - start)
        info = min(info, time.perf_counter() - built)
    return build * 1e6, info * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).parents[1])
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "lhvlab" / "freewill.py").exists():
        parser.error(f"{args.checkout} holds no src/lhvlab/freewill.py")
    sys.path.insert(0, str(src))
    from lhvlab import freewill
    builders = {"pinned": freewill.discretized_setting_tied_model,
                "independent": freewill.setting_independent_model,
                "dictated": freewill.dictated_settings_model}
    for name, builder in builders.items():
        for n in SIZES:
            build, info = measure(builder, n, REPEATS)
            print(f"{name}/n{n} {build:.1f} {info:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
