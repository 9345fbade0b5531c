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
gives options only to the one a run names.  One check (`_check`) runs
right after parsing, before any work.  In order: each integer option
against MINIMUM (--p >= 2; --n, --w, --e >= 0; --max-group-order >= 1), a
verify verb's --w >= 1, then every verify option the verb does not read
(its VERIFY row names those it does) at its default, --p prime where the
command needs it, and --core a --p-core wherever the command takes --core;
--core without --p (possible only for table) is rejected; then --out, if
given, names no directory and sits in an existing one.  Last come the
size limits, which are the CLI's alone (the library runs any size it is
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
import io
import json
import os
import sys
from importlib import import_module

from . import abacus
from .partitions import (
    ArgumentError,
    Partition,
    enumerate_partitions,
    format_partition,
    is_prime,
    parse_partition,
)

# Smallest accepted value of each integer option, checked right after parsing.
MINIMUM = {"p": 2, "w": 0, "e": 0, "n": 0, "max_group_order": 1}
# The wreath guard: the largest p and w of a command that builds wreath classes.
MAX_P = 5
MAX_W = 4
# The largest n of `table`, and of p*w + |core| for a command taking --w and --core.
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


_ENCODER = json.JSONEncoder(sort_keys=True)


def _json_line(obj) -> str:
    return _ENCODER.encode(obj)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list, rows: list[list]) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table_text(fmt: str, meta: dict, row_key: str, values_key: str, columns: list, rows) -> str:
    """(name, values) rows as JSON Lines, a meta line first, or as CSV under
    a header of row_key and the column names."""
    if fmt == "json":
        lines = [_json_line(meta)]
        lines.extend(_json_line({row_key: name, values_key: vals}) for name, vals in rows)
        return "\n".join(lines) + "\n"
    return _csv_text([row_key] + columns, [[name] + vals for name, vals in rows])


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


# ---------------------------------------------------------------- commands
#
# Each command takes the parsed arguments and the core `_check` returned,
# and gives back its output text and exit code.


def cmd_core(args, _rho) -> tuple[str, int]:
    lam = parse_partition(args.partition)
    out = {
        "p": args.p,
        "partition": format_partition(lam),
        "core": format_partition(abacus.p_core(lam, args.p)),
        "weight": abacus.block_weight(lam, args.p),
    }
    return _json_line(out) + "\n", 0


def cmd_quotient(args, _rho) -> tuple[str, int]:
    lam = parse_partition(args.partition)
    quot = abacus.p_quotient(lam, args.p)
    out = {
        "p": args.p,
        "partition": format_partition(lam),
        "quotient": [format_partition(q) for q in quot],
    }
    return _json_line(out) + "\n", 0


def cmd_sign(args, _rho) -> tuple[str, int]:
    lam = parse_partition(args.partition)
    mu = parse_partition(args.over) if args.over is not None else abacus.p_core(lam, args.p)
    if not abacus.contains_p(lam, mu, args.p):
        raise ArgumentError("the first partition must p-contain the second")
    out = {
        "p": args.p,
        "partition": format_partition(lam),
        "over": format_partition(mu),
        "sign": abacus.p_sign(lam, mu, args.p),
    }
    return _json_line(out) + "\n", 0


def cmd_gamma(args, rho) -> tuple[str, int]:
    out = {
        "p": args.p,
        "core": format_partition(rho),
        "gamma": list(abacus.runner_permutation(rho, args.p)),
        "circular_start": abacus.circularly_nondecreasing(rho, args.p),
    }
    return _json_line(out) + "\n", 0


def cmd_char(args, _rho) -> tuple[str, int]:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu) if args.mu is not None else ()
    tau = parse_partition(args.cls)
    if sum(lam) != args.n:
        raise ArgumentError(f"--lambda must be a partition of n={args.n}")
    if sum(tau) != args.n - sum(mu):
        raise ArgumentError(f"--class must be a partition of n - |mu| = {args.n - sum(mu)}")
    out = {
        "n": args.n,
        "lambda": format_partition(lam),
        "mu": format_partition(mu),
        "class": format_partition(tau),
        "value": _lib("symchar").mn_value(lam, mu, tau),
    }
    return _json_line(out) + "\n", 0


def cmd_table(args, rho) -> tuple[str, int]:
    n = args.n
    if args.p is not None and (n < sum(rho) or (n - sum(rho)) % args.p):
        raise ArgumentError("n minus the core size must be a nonnegative multiple of p")
    classes = enumerate_partitions(n)
    labels = classes if args.p is None else abacus.partitions_with_core(n, rho, args.p)
    irr = _lib("symchar").irr_class_function
    names = [format_partition(t) for t in classes]
    rows = [(format_partition(lam), list(irr(lam).values)) for lam in labels]
    return _table_text(args.format, {"n": n, "classes": names}, "lambda", "values", names, rows), 0


def cmd_wchar(args, _rho) -> tuple[str, int]:
    wreath = _lib("wreath")
    phi = wreath.parse_pmap(args.phi, args.p, args.w)
    label = wreath.parse_class_label(args.cls, args.p, args.w)
    out = {
        "p": args.p,
        "w": args.w,
        "phi": wreath.format_assignment(wreath.irr_names(args.p), phi),
        "class": wreath.format_class_label(label),
        "value": wreath.zeta_row(args.p, wreath.factors_from_pmap(phi, args.p), [label])[0],
    }
    return _json_line(out) + "\n", 0


def cmd_isometry(args, rho) -> tuple[str, int]:
    rows = _lib("isometry").build_isometry(args.p, args.w, rho)
    lines = [
        _json_line(
            {
                "lambda": format_partition(lam),
                "sign": sign,
                "psi": [format_partition(q) for q in psi],
            }
        )
        for lam, sign, psi in rows
    ]
    return "\n".join(lines) + "\n", 0


def cmd_decomp(args, _rho) -> tuple[str, int]:
    modular, wreath = _lib("modular"), _lib("wreath")
    matrix = modular.decomposition_matrix(args.p, args.w)
    all_irr = wreath.enumerate_irr_wreath(args.p, args.w)
    principal = set(wreath.principal_block_filter(all_irr, args.p))
    cols, irr = modular.gibr_texts(args.p, args.w), wreath.irr_names(args.p)
    rows = [(wreath.format_assignment(irr, phi), row) for phi, row in zip(all_irr, matrix) if phi in principal]
    meta = {"p": args.p, "w": args.w, "gibr": cols}
    return _table_text(args.format, meta, "phi", "numbers", cols, rows), 0


def cmd_mu(args, rho) -> tuple[str, int]:
    matrix = _lib("perfect").build_mu(args.p, args.w, rho)
    wreath = _lib("wreath")
    classes = [format_partition(t) for t in enumerate_partitions(args.p * args.w + sum(rho))]
    labels = [wreath.format_class_label(l) for l in wreath.enumerate_wreath_classes(args.p, args.w)]
    meta = {"p": args.p, "w": args.w, "core": format_partition(rho), "classes": classes, "labels": labels}
    return _table_text(args.format, meta, "class", "values", labels, zip(classes, matrix)), 0


def _verify_orderings(keys, p: int, w: int, rho: Partition) -> dict:
    n = p * w + sum(rho)
    wreath = _lib("wreath")
    build = {
        "block": lambda: [format_partition(lam) for lam in abacus.partitions_with_core(n, rho, p)],
        "sn_classes": lambda: [format_partition(t) for t in enumerate_partitions(n)],
        "wreath_classes": lambda: [
            wreath.format_class_label(l) for l in wreath.enumerate_wreath_classes(p, w)
        ],
        "gibr": lambda: _lib("modular").gibr_texts(p, w),
        "regular_classes": lambda: [
            wreath.format_class_label(l) for l in _lib("modular").regular_wreath_classes(p, w)
        ],
    }
    return {key: build[key]() for key in keys}


_BLOCK_WREATH = ("block", "wreath_classes")
_BLOCK_SN_WREATH = ("block", "sn_classes", "wreath_classes")

# The verify verbs, in the README's order: whether p must be prime, the
# library function, the verify options the verb reads besides --p and --w,
# and the keys of the orderings its meta line carries.  The function is
# looked up when the verb runs, so a wrapper later bound on its module is
# the one run.  `cmd_verify` passes the read options on (--max-group-order
# only feeds the group-order guard), and `_check` refuses every other
# verify option away from its default.
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


def cmd_verify(args, rho) -> tuple[str, int]:
    _, verb_fn, reads, keys = VERIFY[args.what]
    given = {"core": rho, "e": args.e}
    rep = verb_fn()(args.p, args.w, *(given[name] for name in reads.split() if name in given))
    if not rep.records:
        raise RuntimeError(f"verify {args.what} produced no records")
    params = {"p": args.p, "w": args.w, "e": args.e, "core": format_partition(rho)}
    orderings = _verify_orderings(keys, args.p, args.w, rho)
    return _report_text(rep, params, orderings, args.max_group_order), 0 if rep.ok else 1


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

# Every subcommand, in help order: its help line, its command, whether --p
# must be prime (None: as VERIFY says for the verb), whether it builds wreath
# classes (and so is held to the wreath guard), and its options.
COMMANDS = {
    "core": ("p-core of a partition", cmd_core, False, False, "p out partition"),
    "quotient": ("p-quotient of a partition", cmd_quotient, False, False, "p out partition"),
    "sign": ("bead-push sign between p-compatible partitions", cmd_sign, False, False, "p out partition over"),
    "gamma": ("runner permutation of a p-core", cmd_gamma, False, False, "p out core"),
    "char": ("one symmetric-group (skew) character value", cmd_char, False, False, "n lambda mu class out"),
    "table": (
        "symmetric-group character table, optionally one block", cmd_table, True, False, "n p core out format"
    ),
    "wchar": ("one wreath-product irreducible character value", cmd_wchar, True, True, "p w out phi class"),
    "isometry": ("signed bijection table for one block", cmd_isometry, False, False, "p w out core"),
    "verify": ("run one verification suite", cmd_verify, None, True, "what p w out e core max-group-order"),
    "decomp": ("decomposition matrix of the wreath principal block", cmd_decomp, True, True, "p w out format"),
    "mu": ("bicharacter matrix of the block bijection", cmd_mu, True, True, "p w out format core"),
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
    for name, (help_text, _, _, _, options) in COMMANDS.items():
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
    _, _, prime, wreath, _ = COMMANDS[args.command]
    if args.command == "verify":
        if args.w < 1:
            raise ArgumentError(f"verify {args.what} needs w >= 1, got w={args.w}")
        prime, _, reads, _ = VERIFY[args.what]
        for name in _VERIFY_OPTIONS:
            default = _OPTIONS[name][1]["default"]
            if name not in reads.split() and getattr(args, name.replace("-", "_")) != default:
                raise ArgumentError(f"verify {args.what} takes no --{name}")
    p = getattr(args, "p", None)
    rho = None
    if p is None:
        if getattr(args, "core", ""):
            raise ArgumentError("--core needs --p")
    else:
        if prime and not is_prime(p):
            raise ArgumentError(f"p={p} must be prime for this command")
        if hasattr(args, "core"):
            rho = parse_partition(args.core)
            if not abacus.is_core(rho, p):
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
        text, code = COMMANDS[args.command][1](args, _check(args))
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
