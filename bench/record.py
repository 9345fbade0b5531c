"""Record the expected exit code and stdout digest of every invocation.

    python3 bench/record.py

Runs each invocation any workload and seed can produce (see
`workloads.every_invocation`) once, untraced, two at a time, and writes
`bench/expected.json`.  Run it only on a commit whose outputs are known to
be right: the benchmark then fails any later commit whose bytes differ.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import run
import workloads


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    invocations = {run.key(a): a for a in workloads.every_invocation()}
    with ThreadPoolExecutor(max_workers=2) as pool:
        rows = list(pool.map(lambda a: run.run_invocation(a, False, 300.0), invocations.values()))
    bad = [r for r in rows if r["exit"] != 0 or r["import_s"] is None or r["stderr"]]
    for r in bad:
        print(f"unexpected: exit {r['exit']} {' '.join(r['argv'])} {r['stderr'][-1:]}", file=sys.stderr)
    expected = {
        run.key(r["argv"]): {"exit": r["exit"], "sha256": r["sha256"], "bytes": r["bytes"]}
        for r in rows
    }
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(expected)} invocations; {len(bad)} exited nonzero or wrote to stderr")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
