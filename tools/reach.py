"""Print the lhvlab functions that no command of the report matrix and no
demo calls.

    python3 tools/reach.py [CHECKOUT] [--argv JSON]

The script imports lhvlab from CHECKOUT/src (default: the checkout that
holds this file) under a profile function set on this thread and on every
thread started later (sys.setprofile, threading.setprofile), so the chunk
pool's threads, which start with the first run of two or more chunks, are
seen too. It then runs, in-process, every case of report_matrix.py (the
file beside this one): lhvlab.cli.main of the case's argv with its --out
and --transcript files in a temporary directory. Then it runs each script
of CHECKOUT's demos/ that report_matrix.py lists. It prints one
``path:line qualname lines`` line for each function defined in
CHECKOUT/src/lhvlab (methods and nested functions included, lambdas not)
that no run called: the function's first line, decorators included, and its
count of lines. The last line gives the number of such functions and their
lines in total. --argv JSON runs the JSON list of argv lists in place of
the matrix and the demos.

A function is reached if its code ran at all: a call that raised, or the
first resumption of a generator or a context manager, counts. The script
uses the standard library and the checkout's lhvlab only.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import json
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path


def functions(package: Path) -> dict:
    """(path, first line) -> (qualname, lines) for each def under package."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[path, first] = (name, child.end_lineno - first + 1)
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path.resolve()), "")
    return found


def _matrix_runs(tool_dir: Path):
    """(argv, writes a transcript) for each case of report_matrix.py."""
    spec = importlib.util.spec_from_file_location("report_matrix",
                                                  tool_dir / "report_matrix.py")
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    return [(list(argv), transcript) for _, argv, transcript in matrix.cases()], matrix.DEMOS


def census(checkout: Path, runs, demos) -> list:
    """(path, first line, qualname, lines) of each function under
    checkout/src/lhvlab that none of runs ((argv, transcript) pairs, each
    through lhvlab.cli.main) and of the named demos called, in path and
    line order."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    os.environ.pop("LHV_LAB_SEED", None)  # as report_matrix.py runs its cases
    sys.path.insert(0, str(checkout / "src"))
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        import lhvlab.cli  # the package imports every other module itself
        with tempfile.TemporaryDirectory() as tmp:
            out, csv = str(Path(tmp) / "report.json"), str(Path(tmp) / "transcript.csv")
            for argv, transcript in runs:
                argv = [*argv, "--out", out] + (["--transcript", csv] if transcript else [])
                with _quiet():
                    lhvlab.cli.main(argv)
            for name in demos:
                with _quiet():
                    runpy.run_path(str(checkout / "demos" / f"{name}.py"), run_name="__main__")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    called = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in seen}
    return [(path, line, name, lines)
            for (path, line), (name, lines) in sorted(functions(checkout / "src" / "lhvlab")
                                                      .items())
            if (path, line) not in called]


@contextlib.contextmanager
def _quiet():
    """Swallow a run's stdout, stderr and exit."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with contextlib.suppress(SystemExit):
            yield


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).parents[1])
    parser.add_argument("--argv", type=json.loads, default=None,
                        help="a JSON list of argv lists to run instead of the matrix and demos")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "lhvlab" / "cli.py").exists():
        parser.error(f"{checkout} holds no src/lhvlab/cli.py")
    if args.argv is None:
        runs, demos = _matrix_runs(Path(__file__).resolve().parent)
    else:
        runs, demos = [(list(a), a[:1] == ["protocol"]) for a in args.argv], ()
    unreached = census(checkout, runs, demos)
    root = checkout / "src"
    for path, line, name, lines in unreached:
        print(f"{Path(path).relative_to(root)}:{line} {name} {lines}")
    print(f"unreached: {len(unreached)} functions, {sum(u[3] for u in unreached)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
