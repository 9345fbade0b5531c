"""Command-line front end.

Every subcommand is a thin shell over the library: parse wire-format
arguments, run one computation or verification, emit deterministic output.
Partitions travel as comma-separated decreasing part lists ("" for the
empty partition), wreath class labels as `k1:c1,k2:c2,...` with each c a
partition of p, and irreducible labels for the wreath product as
`kappa1:mu1;kappa2:mu2;...` (omitted kappas receive the empty partition).

Computation commands (core, quotient, sign, gamma, char, wchar) print one
JSON object.  Table-like commands (table, isometry, decomp, mu) print CSV
or JSON Lines.  Verification commands print a JSON Lines report: a meta
line carrying the guard limits and the canonical orderings used, then one
record per checked identity with fields check / parameters / status /
witness.  Exit codes: 0 all checks pass, 1 a verification failed, 2
invalid arguments, 3 a guard limit was exceeded, 4 an internal error (any
other exception, or a verification that produced no records), reported as
one stderr line.  Only the ArgumentError of an argument check exits 2; any
other ValueError raised inside the library is an internal error, exit 4.

Every subcommand is one row of COMMANDS; the parser lists them all but
gives options only to the one a run names.  Its body is
`blockiso.commands._cmd_<name>`; that module (like `abacus` and `json`)
loads only after the argument check.  One check (`_check`) runs right
after parsing, before any work.  In order: each integer option against
MINIMUM (--p >= 2; --n, --w, --e >= 0; --max-group-order >= 1), then
--p <= MAX_ENUM_N (else exit 3) ahead of the prime and core tests, whose
work grows with p; a verify verb's --w >= 1, then every verify option the
verb does not read (its VERIFY row names those it does) at its default,
--p prime where the command needs it, and --core a --p-core wherever the
command takes --core; --core without --p (possible only for table) is
rejected; then --out, if given, names no directory and sits in an
existing one.  Last come the other size limits, which are the CLI's alone (the library runs any size it is
asked for): the wreath guard (p <= MAX_P, w <= MAX_W) for every command
that builds wreath classes, --n <= MAX_TABLE_N for `table`, n = p*w + |core|
<= MAX_ENUM_N for every command that takes --w and --core (isometry, mu,
verify), at most MAX_BLOCK members in the block of `isometry`, and
(p*w + e)! <= --max-group-order for `verify centp`; beyond any of them,
exit 3.

Composite p is accepted exactly where the mathematics never needs
primality: core, quotient, sign, gamma, isometry, and `verify main`.
Everything block-theoretic (heights, modular data, bicharacter work)
insists on a prime.
"""

import argparse
import os
import sys
from importlib import import_module

from .partitions import ArgumentError, Partition, is_prime, parse_partition

# Smallest accepted value of each integer option, checked right after parsing.
MINIMUM = {"p": 2, "w": 0, "e": 0, "n": 0, "max_group_order": 1}
# The wreath guard: the largest p and w of a command that builds wreath classes.
MAX_P = 5
MAX_W = 4
# The largest n of `table`; the largest --p, and p*w + |core| for a command
# taking --w and --core.
MAX_TABLE_N = 12
MAX_ENUM_N = 64
# The most members of the block that `isometry` tabulates (p=2 w=22 has 49,010).
MAX_BLOCK = 50000
# The default bound on n! for the centralizer scans of `verify centp`.
MAX_GROUP_ORDER = 50000


class GuardExceeded(Exception):
    """A request is beyond a size limit of the CLI; it exits 3."""


def _lib(name: str):
    """The library module `name`, imported when a command first needs it:
    a fresh process loads only the modules its subcommand runs."""
    return import_module(f".{name}", __package__)


_ENCODER = None


def _json_line(obj) -> str:
    global _ENCODER
    if _ENCODER is None:  # one encoder per process, built at the first record
        import json
        _ENCODER = json.JSONEncoder(sort_keys=True)
    return _ENCODER.encode(obj)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list, rows: list[list]) -> str:
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _guards(max_group_order: int) -> dict:
    return {
        "max_enum_n": MAX_ENUM_N,
        "max_table_n": MAX_TABLE_N,
        "max_wreath_p": MAX_P,
        "max_wreath_w": MAX_W,
        "max_group_order": max_group_order,
    }


def _report_text(rep, params: dict, orderings: dict, max_group_order: int) -> str:
    meta = {
        "check": rep.check,
        "parameters": params,
        "status": "meta",
        "witness": {"guards": _guards(max_group_order), "orderings": orderings},
    }
    lines = [_json_line(meta)]
    lines.extend(_json_line(r) for r in rep.records)
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ verify verbs

_BLOCK_WREATH = ("block", "wreath_classes")
_BLOCK_SN_WREATH = ("block", "sn_classes", "wreath_classes")

# The verify verbs, in the README's order: whether p must be prime, the
# library function, the verify options the verb reads besides --p and --w,
# and the keys of the orderings its meta line carries.  The function is
# looked up when the verb runs, so a wrapper later bound on its module is
# the one run.  `commands._cmd_verify` passes the read options on
# (--max-group-order only feeds the group-order guard), and `_check`
# refuses every other verify option away from its default.
VERIFY = {
    "main": (False, lambda: _lib("isometry").verify_main, "core", _BLOCK_WREATH),
    "val": (True, lambda: _lib("isometry").verify_val, "", _BLOCK_WREATH),
    "heights": (True, lambda: _lib("isometry").verify_heights, "core", ("block",)),
    "unique": (True, lambda: _lib("isometry").verify_uniqueness, "", _BLOCK_WREATH),
    "centp": (True, lambda: _lib("isometry").verify_centp, "e max-group-order", ("wreath_classes",)),
    "diagram": (True, lambda: _lib("isometry").verify_diagram, "core", _BLOCK_WREATH),
    "lemmaf": (True, lambda: _lib("isometry").verify_lemma_f, "", _BLOCK_WREATH),
    "sep": (True, lambda: _lib("perfect").verify_sep, "core", _BLOCK_SN_WREATH),
    "type": (True, lambda: _lib("perfect").verify_type, "core", _BLOCK_SN_WREATH),
    "perfproj": (True, lambda: _lib("perfect").verify_perfproj, "core", _BLOCK_SN_WREATH),
    "probe": (True, lambda: _lib("perfect").perfectness_probe, "core", _BLOCK_SN_WREATH),
    "orth": (True, lambda: _lib("modular").verify_orth, "", ("wreath_classes", "gibr", "regular_classes")),
    "transfer": (True, lambda: _lib("perfect").verify_transfer, "core", _BLOCK_SN_WREATH),
}
VERIFY_VERBS = tuple(VERIFY)
# Every option some verify verb reads besides --p and --w, each with a default.
_VERIFY_OPTIONS = sorted({name for _, _, reads, _ in VERIFY.values() for name in reads.split()})


# ------------------------------------------------------------------ parser

# The flag and add_argument spec of every option, by name.  A command that
# spells an option its own way has its own entry under "<command> <name>".
_OPTIONS = {
    "what": ("what", dict(choices=VERIFY_VERBS)),
    "p": ("--p", dict(type=int, required=True, help="base cycle length / characteristic")),
    "w": ("--w", dict(type=int, required=True, help="top degree / block weight")),
    "n": ("--n", dict(type=int, required=True)),
    "e": ("--e", dict(type=int, default=0, help="extra points fixed by the top group")),
    "core": ("--core", dict(default="", help="block core")),
    "partition": ("--partition", dict(required=True)),
    "over": ("--over", dict(help="inner partition (default: the p-core)")),
    "lambda": ("--lambda", dict(dest="lam", required=True)),
    "mu": ("--mu", dict(dest="mu")),
    "class": ("--class", dict(dest="cls", required=True)),
    "phi": ("--phi", dict(required=True, help="assignment kappa:mu;... over base labels")),
    "max-group-order": (
        "--max-group-order",
        dict(type=int, default=MAX_GROUP_ORDER, help="brute-force guard for permutation scans"),
    ),
    "out": ("--out", dict(help="write output to this file instead of stdout")),
    "format": ("--format", dict(choices=("csv", "json"), default="csv")),
    "core partition": ("--partition", dict(required=True, help="partition wire format")),
    "gamma core": ("--core", dict(required=True)),
    "table p": ("--p", dict(type=int, help="restrict rows to the block of --core")),
    "table core": ("--core", dict(default="", help="block core (with --p)")),
    "wchar class": ("--class", dict(dest="cls", required=True, help="label k1:c1,k2:c2,...")),
}

# Every subcommand, in help order: its help line, whether --p must be prime
# (None: as VERIFY says for the verb), whether it builds wreath classes (and
# so is held to the wreath guard), and its options.  Its body is
# `commands._cmd_<name>`, looked up when the command runs, so a wrapper
# later bound there is the one run.
COMMANDS = {
    "core": ("p-core of a partition", False, False, "p out partition"),
    "quotient": ("p-quotient of a partition", False, False, "p out partition"),
    "sign": ("bead-push sign between p-compatible partitions", False, False, "p out partition over"),
    "gamma": ("runner permutation of a p-core", False, False, "p out core"),
    "char": ("one symmetric-group (skew) character value", False, False, "n lambda mu class out"),
    "table": ("symmetric-group character table, optionally one block", True, False, "n p core out format"),
    "wchar": ("one wreath-product irreducible character value", True, True, "p w out phi class"),
    "isometry": ("signed bijection table for one block", False, False, "p w out core"),
    "verify": ("run one verification suite", None, True, "what p w out e core max-group-order"),
    "decomp": ("decomposition matrix of the wreath principal block", True, True, "p w out format"),
    "mu": ("bicharacter matrix of the block bijection", True, True, "p w out format core"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand with its help line, and `-h` and the options of
    `command` alone: a run parses one command, so no other subparser needs
    any."""
    parser = argparse.ArgumentParser(
        prog="blockiso",
        description="Exact block/wreath character computations and verifications.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _, options) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text, add_help=name == command)
        if name == command:
            for option in options.split():
                flag, spec = _OPTIONS.get(f"{name} {option}", _OPTIONS[option])
                sub.add_argument(flag, **spec)
    return parser


def _check(args) -> Partition | None:
    """Every argument check, in the documented order, then the guards,
    all before any work.

    Returns the parsed --core, or None where the command takes no --core or
    --p is not given."""
    for name, low in MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            option = name.replace("_", "-")
            raise ArgumentError(f"--{option}={value} must be >= {low}")
    p = getattr(args, "p", None)
    if p is not None and p > MAX_ENUM_N:
        raise GuardExceeded(f"p guard: p={p} > {MAX_ENUM_N}")
    _, prime, wreath, _ = COMMANDS[args.command]
    if args.command == "verify":
        if args.w < 1:
            raise ArgumentError(f"verify {args.what} needs w >= 1, got w={args.w}")
        prime, _, reads, _ = VERIFY[args.what]
        for name in _VERIFY_OPTIONS:
            default = _OPTIONS[name][1]["default"]
            if name not in reads.split() and getattr(args, name.replace("-", "_")) != default:
                raise ArgumentError(f"verify {args.what} takes no --{name}")
    rho = None
    if p is None:
        if getattr(args, "core", ""):
            raise ArgumentError("--core needs --p")
    else:
        if prime and not is_prime(p):
            raise ArgumentError(f"p={p} must be prime for this command")
        if hasattr(args, "core"):
            rho = parse_partition(args.core)
            if not _lib("abacus").is_core(rho, p):
                raise ArgumentError(f"{args.core!r} is not a {p}-core")
    if args.out and (os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or ".")):
        raise ArgumentError(f"--out={args.out} names no file in an existing directory")
    if wreath and (p > MAX_P or args.w > MAX_W):
        raise GuardExceeded(f"wreath guard: p={p}, w={args.w} beyond ({MAX_P}, {MAX_W})")
    if args.command == "table" and args.n > MAX_TABLE_N:
        raise GuardExceeded(f"table guard: n={args.n} > {MAX_TABLE_N}")
    if hasattr(args, "w") and rho is not None and p * args.w + sum(rho) > MAX_ENUM_N:
        raise GuardExceeded(f"enumeration guard: n={p * args.w + sum(rho)} > {MAX_ENUM_N}")
    if args.command == "isometry" and (size := _block_size(p, args.w)) > MAX_BLOCK:
        raise GuardExceeded(f"block guard: {size} members > {MAX_BLOCK}")
    if getattr(args, "what", None) == "centp":
        n, order = p * args.w + args.e, 1
        for k in range(2, n + 1):  # n!, built only until it passes the bound
            order *= k
            if order > args.max_group_order:
                raise GuardExceeded(f"group order {n}! exceeds {args.max_group_order}")
    return rho


def _block_size(p: int, w: int) -> int:
    """The members of a p-block of weight w, counted without listing them:
    p-multipartitions of w are partitions of w whose parts come in p colours."""
    count = [1] + [0] * w
    for part in range(1, w + 1):
        for _ in range(p):
            for m in range(part, w + 1):
                count[m] += count[m - part]
    return count[w]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top level takes no option with a value, so the command is the
    # first argument without a leading '-' (an earlier '-', '--' or negative
    # number is read as the command and refused, whatever the subparsers hold).
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        rho = _check(args)
        text, code = getattr(_lib("commands"), f"_cmd_{args.command}")(args, rho)
        _emit(text, args.out)
        return code
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except ArgumentError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
