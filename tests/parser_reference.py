"""Reference oracle for the command-line parser.

`cli.build_parser(command)` lists every subcommand but gives options only
to the one named.  The builder below is the one it replaced: it gives every
subcommand all of its options, from the same COMMANDS and _OPTIONS tables.
"""

import argparse

from blockiso.cli import _OPTIONS, COMMANDS


def build_full_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockiso",
        description="Exact block/wreath character computations and verifications.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _, options) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for name in options.split():
            flag, spec = _OPTIONS.get(f"{command} {name}", _OPTIONS[name])
            sub.add_argument(flag, **spec)
    return parser
