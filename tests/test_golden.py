"""Golden corpus: the benchmark's recorded outputs, replayed in-process.

`bench/expected.json` holds the exit code and stdout SHA-256 of every CLI
invocation the benchmark can run.  This test replays the ones that finish
in well under a second through `blockiso.cli.main` and compares the bytes,
so a refactor that changes any output fails tier-1 without running the
benchmark.  That is every invocation with p*w <= 9, and every recorded
`verify main|val|unique|lemmaf` whatever its size: those verbs evaluate
only the classes they check, so even their largest recorded cases (p = 5,
w = 3) take a fraction of a second.  The recorded `verify centp` scans are
replayed too: they walk only each centralizer, not all of S_n.  The file is
only read here; `bench/record.py` is what rewrites it.
"""

import hashlib
import json
from pathlib import Path

import blockiso.cli as cli

EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"
POINTWISE_VERBS = ("main", "val", "unique", "lemmaf")


def _option(argv: list[str], name: str):
    return int(argv[argv.index(name) + 1]) if name in argv else None


def _small(argv: list[str]) -> bool:
    p, w = _option(argv, "--p"), _option(argv, "--w")
    if argv[0] == "verify" and argv[1] in POINTWISE_VERBS:
        return True
    return p is None or w is None or p * w <= 9


def test_recorded_outputs_are_byte_identical(capsys):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    cases = [(json.loads(key), want) for key, want in expected.items()]
    cases = [(argv, want) for argv, want in cases if _small(argv)]
    verbs = {argv[1] if argv[0] == "verify" else argv[0] for argv, _ in cases}
    # Every subcommand and every verify verb stays covered.
    assert verbs >= set(cli.VERIFY_VERBS)
    assert verbs >= {"core", "quotient", "sign", "gamma", "char", "table", "wchar", "isometry", "decomp", "mu"}
    # The largest recorded outputs of the pointwise verbs are replayed too.
    large = {
        " ".join(argv)
        for argv, _ in cases
        if (_option(argv, "--p") or 0) * (_option(argv, "--w") or 0) > 9
    }
    assert large >= {
        "verify main --p 5 --w 3",
        "verify main --p 5 --w 3 --core 2",
        "verify val --p 5 --w 3",
        "verify unique --p 5 --w 3",
        "verify lemmaf --p 5 --w 3",
    }
    mismatches = []
    for argv, want in cases:
        rc = cli.main(argv)
        out = capsys.readouterr().out.encode("utf-8")
        got = (rc, hashlib.sha256(out).hexdigest())
        if got != (want["exit"], want["sha256"]):
            mismatches.append(argv)
    assert not mismatches, f"{len(mismatches)} of {len(cases)} outputs changed: {mismatches[:5]}"
