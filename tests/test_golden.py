"""Golden corpus: the benchmark's recorded outputs, replayed in-process.

`bench/expected.json` holds the exit code and stdout SHA-256 of every CLI
invocation the benchmark can run.  This test replays every one of them
through `blockiso.cli.main` and compares the bytes, so a refactor that
changes any output fails tier-1 without running the benchmark.  All of them
together take a few seconds in one process.  The file is only read here;
`bench/record.py` is what rewrites it.
"""

import hashlib
import json
from pathlib import Path

import blockiso.cli as cli

EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"


def test_recorded_outputs_are_byte_identical(capsys):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    cases = [(json.loads(key), want) for key, want in expected.items()]
    verbs = {argv[1] if argv[0] == "verify" else argv[0] for argv, _ in cases}
    # Every subcommand and every verify verb stays covered.
    assert verbs >= set(cli.VERIFY_VERBS)
    assert verbs >= {"core", "quotient", "sign", "gamma", "char", "table", "wchar", "isometry", "decomp", "mu"}
    mismatches, replayed = [], 0
    for argv, want in cases:
        rc = cli.main(argv)
        replayed += 1
        out = capsys.readouterr().out.encode("utf-8")
        got = (rc, hashlib.sha256(out).hexdigest())
        if got != (want["exit"], want["sha256"]):
            mismatches.append(argv)
    assert not mismatches, f"{len(mismatches)} of {replayed} outputs changed: {mismatches[:5]}"
    assert replayed == len(expected)
