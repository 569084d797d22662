"""Write cli_options.json: every subcommand's options as ``build_parser()``
declares them, one row per option: command, option strings, dest, default
(its repr), type, choices, nargs and action, sorted.

Run from the repository root:  PYTHONPATH=src python tests/data/make_cli_options.py
The fixture pins the command-line surface; regenerate it only when a change
to an option is intended.
"""

import argparse
import json
import os

from conespec.cli import build_parser


def option_table(parser):
    """The sorted rows of every subcommand's options, as JSON-ready lists;
    declaration order is not part of the table."""
    subparsers, = (a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
    return sorted(
        [name, a.option_strings, a.dest, repr(a.default),
         getattr(a.type, "__name__", repr(a.type)),
         None if a.choices is None else list(a.choices), a.nargs,
         type(a).__name__]
        for name, sub in subparsers.choices.items() for a in sub._actions)


def main():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "cli_options.json")
    with open(path, "w") as fh:
        rows = (json.dumps(row) for row in option_table(build_parser()))
        fh.write("[\n" + ",\n".join(rows) + "\n]\n")


if __name__ == "__main__":
    main()
