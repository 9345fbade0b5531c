"""The checked grid: every case CI runs past tier-1, one row per case.

    python tests/grid.py

A library row is (verb, p, w, core) or (verb, N).  The verb is a `verify`
verb of `blockiso.cli.VERIFY`, called through the library past the CLI's
guards, or `residues`, the degree congruence of
`core_sweep.degree_residues`.  The core is (), an explicit core, or
"reduced" for every core of `core_sweep.reduced_cores(p, w)`.  The row
(verb, N) runs the verb at every block of every S_n with n <= N, the
blocks of `core_sweep.every_block(N)`.  A library row fails when it raises,
when a report has no records or when a record fails.  A CLI row is the argument
string of `python -m blockiso`, and it fails unless it exits 0.

Each row runs in its own fresh `python -W error` child, one after another.
The runner prints one JSON line per row: its index, the case, the exit code,
wall seconds, peak RSS (`ru_maxrss` from os.wait4) and, for a library row,
the number of records.  It runs every row even after a failure, and exits 1
naming the failed rows.  Times and RSS are printed, not gated.  To check a
new case, add its row.

Cases left out, and why:
- `main` (2,16): 45.2 s and 45.9 s, 407 MB, in two fresh processes.
- `perfproj` (2,10): the echelon of its block's values on the 2-singular
  classes runs past 600 s.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROWS = [
    *[(verb, 5, 5, ()) for verb in ("main", "val", "heights", "unique", "lemmaf")],
    *[(verb, p, 3, ()) for p in (11, 13, 17) for verb in ("main", "val", "heights")],
    *[("main", p, w, ()) for p, w in ((2, 12), (3, 10), (5, 8), (7, 5), (13, 4), (19, 3), (7, 7))],
    ("heights", 13, 4, ()),
    ("heights", 19, 3, ()),
    *[(verb, 7, 3, ()) for verb in ("sep", "probe", "transfer", "type", "orth", "diagram", "perfproj")],
    *[(verb, p, w, ()) for p, w in ((2, 8), (3, 6)) for verb in ("diagram", "perfproj")],
    ("perfproj", 5, 4, ()),
    ("type", 3, 6, ()),
    ("type", 5, 3, (1,)),
    *[(verb, p, w, "reduced") for p, w in ((5, 3), (7, 2)) for verb in ("main", "heights", "residues")],
    ("main", 24),
    ("heights", 24),
    *[(verb, 16) for verb in ("diagram", "transfer", "type", "perfproj", "sep", "probe")],
    *[f"verify {verb} --p 5 --w 4" for verb in ("main", "val", "unique", "lemmaf", "heights", "type", "diagram")],
    *[f"verify {verb} --p 3 --w 4" for verb in ("sep", "type", "transfer", "probe", "diagram")],
    *[f"verify {verb} --p 5 --w 3" for verb in ("sep", "transfer", "diagram", "type", "probe", "perfproj", "orth")],
    "decomp --p 5 --w 3",
    "decomp --p 5 --w 4",
    "isometry --p 2 --w 1 --core 10,9,8,7,6,5,4,3,2,1",
    "verify main --p 2 --w 4 --core 9,8,7,6,5,4,3,2,1",
    "isometry --p 2 --w 16",
    "verify centp --p 5 --w 2 --max-group-order 3628800",
    "verify centp --p 3 --w 4 --max-group-order 479001600",
]

TESTS = Path(__file__).resolve().parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])}


def check(verb, *case) -> int:
    """Run one library row in this process; its record count, or exit 1."""
    from blockiso import cli
    from core_sweep import degree_residues, every_block, reduced_cores

    if len(case) == 1:
        blocks = every_block(*case)
    else:
        p, w, core = case
        blocks = [(p, w, rho) for rho in (reduced_cores(p, w) if core == "reduced" else [core])]
    records = 0
    for p, w, rho in blocks:
        if verb == "residues":
            for lam, sign, lhs, rhs in degree_residues(p, w, rho):
                if not (lhs - sign * rhs) % p == 0 != (lhs + sign * rhs) % p:
                    sys.exit(f"degree congruence fails at {(p, w, rho, lam)}")
                records += 1
            continue
        _, verb_fn, reads, _ = cli.VERIFY[verb]
        rep = verb_fn()(p, w, *([rho] if "core" in reads.split() else []))
        if not rep.records or not rep.ok:
            sys.exit(f"{verb} {(p, w, rho)}: {len(rep.records)} records, failing {rep.failures()[:3]}")
        records += len(rep.records)
    return records


def run(index: int, row) -> dict:
    """Run one row in a fresh child and read its cost from os.wait4.  The
    child runs the script the parent runs, so a script that edits ROWS
    before calling main() sees its own table in every child."""
    cli_row = isinstance(row, str)
    argv = ["-m", "blockiso", *row.split()] if cli_row else [os.path.abspath(sys.argv[0]), str(index)]
    start = time.perf_counter()
    out = subprocess.DEVNULL if cli_row else subprocess.PIPE
    with subprocess.Popen([sys.executable, "-W", "error", *argv], stdout=out, env=ENV) as child:
        summary = json.loads(child.stdout.read() or "{}") if child.stdout else {}
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    seconds = round(time.perf_counter() - start, 2)
    return {"row": index, "case": row, "exit": child.returncode, "seconds": seconds,
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1), **summary}


def main(argv=sys.argv[1:]) -> int:
    if argv:
        print(json.dumps({"records": check(*ROWS[int(argv[0])])}))
        return 0
    failed = []
    for index, row in enumerate(ROWS):
        result = run(index, row)
        print(json.dumps(result), flush=True)
        if result["exit"]:
            failed.append(result)
    for result in failed:
        print(f"failed row {result['row']}: {result['case']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
