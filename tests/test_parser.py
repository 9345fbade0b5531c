"""The parser built for one command against the full-parser oracle.

`cli.main` builds a parser whose only subparser with options is the one of
the command its arguments name.  Every help text, usage line, error and
parsed namespace must be what the full parser of `parser_reference` gives,
at a fixed width of 80 columns.  The checks take no pytest fixtures, so
they also run under an interpreter without pytest.
"""

import argparse
import contextlib
import io
import json
import os
from functools import cache
from pathlib import Path

import blockiso.cli as cli
from parser_reference import build_full_parser

EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"

# Runs that end in the parser: no arguments, an unknown command, a missing
# required option, an unknown option or verb, arguments before the command,
# and help at both levels.
STOPS = (
    [],
    ["bogus"],
    ["core", "--p", "2"],
    ["verify", "main", "--w", "1"],
    ["core", "--p", "2", "--partition", "2", "--bogus", "1"],
    ["verify", "nosuch", "--p", "2", "--w", "1"],
    ["table", "--n", "3", "--format", "xml"],
    ["--x", "core", "--p", "2", "--partition", "2"],
    ["--", "core", "--p", "2", "--partition", "2"],
    ["-h"],
    ["-h", "core"],
    ["table", "--help"],
)


class Parsed(Exception):
    """Raised in place of `cli._check`, so a run ends right after parsing."""


@contextlib.contextmanager
def columns(width: int):
    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(width)
    try:
        yield
    finally:
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old


@cache
def full_parser() -> argparse.ArgumentParser:
    return build_full_parser()


def reference(command=None) -> argparse.ArgumentParser:
    return full_parser()


def outcome(argv: list, builder) -> tuple:
    """Exit code, stdout, stderr and parsed arguments of `cli.main(argv)`
    with `builder` building its parser, stopped right after parsing."""
    parsed = []

    def check(args):
        parsed.append(vars(args))
        raise Parsed

    saved = cli.build_parser, cli._check
    cli.build_parser, cli._check = builder, check
    out, err = io.StringIO(), io.StringIO()
    try:
        with columns(80), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        cli.build_parser, cli._check = saved
    return code, out.getvalue(), err.getvalue(), parsed


def subparsers(parser: argparse.ArgumentParser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_help_matches_full_parser():
    with columns(80):
        want = full_parser()
        assert cli.build_parser().format_help() == want.format_help()
        for name in cli.COMMANDS:
            subs = subparsers(cli.build_parser(name))
            assert subs[name].format_help() == subparsers(want)[name].format_help(), name
            # Every other subcommand is listed, without -h or any option.
            assert all(not sub._actions for other, sub in subs.items() if other != name)


def test_parser_stops_match_full_parser():
    for argv in STOPS:
        got = outcome(argv, cli.build_parser)
        assert got == outcome(argv, reference), argv
        code, out, err, parsed = got
        assert not parsed, argv
        if "-h" in argv or "--help" in argv:
            assert code == 0 and out.startswith("usage: blockiso") and not err, argv
        else:
            assert code == 2 and not out and "blockiso" in err and "error:" in err, argv


def test_namespaces_match_full_parser():
    argvs = [json.loads(key) for key in json.loads(EXPECTED.read_text())]
    assert {argv[0] for argv in argvs} == set(cli.COMMANDS)
    for argv in argvs:
        got = outcome(argv, cli.build_parser)
        assert got == outcome(argv, reference), argv
        assert got[3] and got[3][0]["command"] == argv[0], argv
