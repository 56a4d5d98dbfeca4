"""Golden CLI surface: every subcommand's flags, as argparse sees them.

For each (sub)command the test records every action's option strings,
dest, parser default, choices, nargs and required flag, and compares
the lot with ``cli_surface.json``.  Help texts are not recorded, so a
refactor of how the parser is built must keep this test green without
touching the golden file.

Regenerate the golden file (only for a deliberate surface change)::

    PYTHONPATH=src python tests/harness/test_cli_surface.py \\
        > tests/harness/cli_surface.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.data import scenario_names
from repro.harness.cli import build_parser

GOLDEN = Path(__file__).with_name("cli_surface.json")


def _jsonable(value):
    return json.loads(json.dumps(value, default=repr))


def _choices(action: argparse.Action):
    if isinstance(action, argparse._SubParsersAction):
        return sorted(action.choices)
    if action.choices is None:
        return None
    choices = list(action.choices)
    # Manifest cells join the scenario registry at runtime, so the live
    # list depends on which tests ran first; record the reference.
    if choices == list(scenario_names()):
        return "<scenario_names>"
    return _jsonable(choices)


def surface(parser: argparse.ArgumentParser, path: str = "") -> dict:
    """``{command path: [action record, ...]}`` for *parser*'s tree."""
    records = []
    commands = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        records.append({
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": _jsonable(action.default),
            "choices": _choices(action),
            "nargs": action.nargs,
            "required": action.required,
        })
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                commands.update(surface(subparser, f"{path} {name}".strip()))
    records.sort(key=lambda record: (record["option_strings"],
                                     record["dest"]))
    return {path or "repro": records, **commands}


def test_cli_surface_matches_golden():
    actual = surface(build_parser())
    golden = json.loads(GOLDEN.read_text())
    assert sorted(actual) == sorted(golden)
    for command, records in golden.items():
        assert actual[command] == records, command


if __name__ == "__main__":
    commands = sorted(surface(build_parser()).items())
    print("{")
    for index, (command, records) in enumerate(commands):
        rows = ",\n".join(f"  {json.dumps(record, sort_keys=True)}"
                           for record in records)
        comma = "," if index < len(commands) - 1 else ""
        print(f"{json.dumps(command)}: [\n{rows}\n]{comma}")
    print("}")
