"""The bodies of the CLI's subcommands.

`cli.main` loads this module only once the arguments have passed `_check`,
so `--help`, an argument error and a bare `import blockiso.cli` compile
none of it.  The body of command `name` is `_cmd_<name>`, which `cli.main`
looks up by name; it takes the parsed arguments and the core `_check`
returned, and gives back its output text and exit code.  Output is built
through `cli`'s emit helpers and `cli.VERIFY`, read as attributes of `cli`
when a command runs, so a wrapper later bound on `cli` is the one run.
"""

from . import abacus, cli
from .cli import _lib
from .partitions import ArgumentError, Partition, enumerate_partitions, format_partition, multipartitions, parse_partition


def _table_text(fmt: str, meta: dict, row_key: str, values_key: str, columns: list, rows) -> str:
    """(name, values) rows as JSON Lines, a meta line first, or as CSV under
    a header of row_key and the column names."""
    if fmt == "json":
        lines = [cli._json_line(meta)]
        lines.extend(cli._json_line({row_key: name, values_key: vals}) for name, vals in rows)
        return "\n".join(lines) + "\n"
    return cli._csv_text([row_key] + columns, [[name] + vals for name, vals in rows])


def _cmd_core(args, _rho) -> tuple[str, int]:
    lam = parse_partition(args.partition)
    out = {
        "p": args.p,
        "partition": format_partition(lam),
        "core": format_partition(abacus.p_core(lam, args.p)),
        "weight": abacus.block_weight(lam, args.p),
    }
    return cli._json_line(out) + "\n", 0


def _cmd_quotient(args, _rho) -> tuple[str, int]:
    lam = parse_partition(args.partition)
    quot = abacus.p_quotient(lam, args.p)
    out = {
        "p": args.p,
        "partition": format_partition(lam),
        "quotient": [format_partition(q) for q in quot],
    }
    return cli._json_line(out) + "\n", 0


def _cmd_sign(args, _rho) -> tuple[str, int]:
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
    return cli._json_line(out) + "\n", 0


def _cmd_gamma(args, rho) -> tuple[str, int]:
    out = {
        "p": args.p,
        "core": format_partition(rho),
        "gamma": list(abacus.runner_permutation(rho, args.p)),
        "circular_start": abacus.circularly_nondecreasing(rho, args.p),
    }
    return cli._json_line(out) + "\n", 0


def _cmd_char(args, _rho) -> tuple[str, int]:
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
    return cli._json_line(out) + "\n", 0


def _cmd_table(args, rho) -> tuple[str, int]:
    n = args.n
    if args.p is not None and (n < sum(rho) or (n - sum(rho)) % args.p):
        raise ArgumentError("n minus the core size must be a nonnegative multiple of p")
    classes = enumerate_partitions(n)
    labels = classes if args.p is None else abacus.partitions_with_core(n, rho, args.p)
    irr = _lib("symchar").irr_class_function
    names = [format_partition(t) for t in classes]
    rows = [(format_partition(lam), list(irr(lam).values)) for lam in labels]
    return _table_text(args.format, {"n": n, "classes": names}, "lambda", "values", names, rows), 0


def _cmd_wchar(args, _rho) -> tuple[str, int]:
    wreath = _lib("wreath")
    phi = wreath.parse_pmap(args.phi, args.p, args.w)
    label = wreath.parse_class_label(args.cls, args.p, args.w)
    out = {
        "p": args.p,
        "w": args.w,
        "phi": wreath.format_assignment(wreath.irr_names(args.p), phi),
        "class": wreath.format_class_label(label),
        "value": wreath.zeta_row(args.p, wreath.induction_factors(wreath.irr_base_rows(args.p), phi), [label])[0],
    }
    return cli._json_line(out) + "\n", 0


def _cmd_isometry(args, rho) -> tuple[str, int]:
    rows = _lib("isometry").build_isometry(args.p, args.w, rho)
    lines = [
        cli._json_line(
            {
                "lambda": format_partition(lam),
                "sign": sign,
                "psi": [format_partition(q) for q in psi],
            }
        )
        for lam, sign, psi in rows
    ]
    return "\n".join(lines) + "\n", 0


def _cmd_decomp(args, _rho) -> tuple[str, int]:
    modular, wreath = _lib("modular"), _lib("wreath")
    matrix = modular.decomposition_matrix(args.p, args.w)
    all_irr = wreath.enumerate_irr_wreath(args.p, args.w)
    principal = {wreath.lambda_psi(psi, args.p) for psi in multipartitions(args.p, args.w)}
    cols, irr = modular.gibr_texts(args.p, args.w), wreath.irr_names(args.p)
    rows = [(wreath.format_assignment(irr, phi), row) for phi, row in zip(all_irr, matrix) if phi in principal]
    meta = {"p": args.p, "w": args.w, "gibr": cols}
    return _table_text(args.format, meta, "phi", "numbers", cols, rows), 0


def _cmd_mu(args, rho) -> tuple[str, int]:
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


def _cmd_verify(args, rho) -> tuple[str, int]:
    _, verb_fn, reads, keys = cli.VERIFY[args.what]
    given = {"core": rho, "e": args.e}
    rep = verb_fn()(args.p, args.w, *(given[name] for name in reads.split() if name in given))
    if not rep.records:
        raise RuntimeError(f"verify {args.what} produced no records")
    params = {"p": args.p, "w": args.w, "e": args.e, "core": format_partition(rho)}
    orderings = _verify_orderings(keys, args.p, args.w, rho)
    return cli._report_text(rep, params, orderings, args.max_group_order), 0 if rep.ok else 1
