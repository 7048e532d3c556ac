"""tools/report_matrix.py runs every subcommand, protocol and mode."""

import argparse
import importlib.util
from pathlib import Path

from lhvlab.cli import build_parser

_SPEC = importlib.util.spec_from_file_location(
    "report_matrix", Path(__file__).parents[1] / "tools" / "report_matrix.py")
matrix = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(matrix)


def _subparsers():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_matrix_covers_every_command_and_choice():
    cases = list(matrix.cases())
    assert len({name for name, _, _ in cases}) == len(cases)
    runs = [argv for _, argv, _ in cases]
    subparsers = _subparsers()
    assert {argv[0] for argv in runs} == set(subparsers)
    for command, parser in subparsers.items():
        for action in parser._actions:
            if action.choices is None:
                continue
            flag = action.option_strings[0]
            used = {argv[argv.index(flag) + 1] for argv in runs
                    if argv[0] == command and flag in argv}
            assert used == set(action.choices), (command, flag)


def test_protocol_runs_write_transcripts():
    sampled = [(argv, transcript) for name, argv, transcript in matrix.cases()
               if argv[0] == "protocol" and not name.startswith("error.")]
    assert sampled and all(transcript for _, transcript in sampled)
    assert {argv[argv.index("--trials") + 1] for argv, _ in sampled} == {"1000", "65537"}


def test_matrix_runs_every_demo():
    demos = {p.stem for p in (Path(__file__).parents[1] / "demos").glob("*.py")}
    assert demos and set(matrix.DEMOS) == demos
