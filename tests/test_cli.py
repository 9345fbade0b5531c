"""End to end runs of the command line front end.

Frozen byte-level outputs pin the wire formats; exit codes cover the five
documented outcomes.  Deliberately failing or broken verifications are
mocked in to exercise exit codes 1 and 4, since every real check currently
passes.
"""

import argparse
import ast
import csv
import hashlib
import importlib
import io
import json
import pkgutil
import re
from pathlib import Path

import pytest

import blockiso
import blockiso.cli as cli
from blockiso import abacus, isometry, modular, partitions, perfect, symchar, wreath
from blockiso.abacus import partitions_with_core
from blockiso.partitions import multipartitions, parse_partition
from blockiso.reporting import Report


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_verify_val_example(capsys):
    rc, out = run(capsys, "verify", "val", "--p", "2", "--w", "2")
    assert rc == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["status"] == "meta"
    assert "guards" in lines[0]["witness"]
    assert "orderings" in lines[0]["witness"]
    body = lines[1:]
    assert body and all(r["status"] == "pass" for r in body)
    assert all(r["check"] == "val" for r in body)


def test_isometry_example_bytes(capsys):
    rc, out = run(capsys, "isometry", "--p", "2", "--w", "1", "--core", "")
    assert rc == 0
    assert out.splitlines() == [
        '{"lambda": "2", "psi": ["1", ""], "sign": 1}',
        '{"lambda": "1,1", "psi": ["", "1"], "sign": 1}',
    ]


def test_verify_centp_example(capsys):
    rc, out = run(capsys, "verify", "centp", "--p", "2", "--w", "3", "--e", "1")
    assert rc == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["status"] == "meta"
    assert all(r["status"] == "pass" for r in records[1:])


def test_core_quotient_sign_frozen(capsys):
    rc, out = run(capsys, "core", "--partition", "4,3,1,1", "--p", "2")
    assert rc == 0
    assert out == '{"core": "2,1", "p": 2, "partition": "4,3,1,1", "weight": 3}\n'
    rc, out = run(capsys, "quotient", "--partition", "4,3,1,1", "--p", "2")
    assert rc == 0
    assert out == '{"p": 2, "partition": "4,3,1,1", "quotient": ["1", "1,1"]}\n'
    rc, out = run(capsys, "sign", "--partition", "2,1", "--p", "3")
    assert rc == 0
    assert out == '{"over": "", "p": 3, "partition": "2,1", "sign": -1}\n'


def test_gamma_frozen(capsys):
    rc, out = run(capsys, "gamma", "--core", "1,1", "--p", "3")
    assert rc == 0
    assert out == '{"circular_start": 1, "core": "1,1", "gamma": [2, 0, 1], "p": 3}\n'
    rc, out = run(capsys, "gamma", "--core", "1", "--p", "3")
    assert rc == 0
    assert json.loads(out)["circular_start"] is None


def test_char_frozen(capsys):
    rc, out = run(capsys, "char", "--n", "4", "--lambda", "3,1", "--class", "2,1,1")
    assert rc == 0
    assert json.loads(out)["value"] == 1
    rc, out = run(
        capsys, "char", "--n", "4", "--lambda", "3,1", "--mu", "1", "--class", "2,1"
    )
    assert rc == 0
    assert json.loads(out)["value"] == 1


def test_wchar_frozen(capsys):
    rc, out = run(
        capsys, "wchar", "--p", "2", "--w", "2", "--phi", "2:2", "--class", "1:2,1:1,1"
    )
    assert rc == 0
    assert json.loads(out)["value"] == 1
    rc, out = run(
        capsys, "wchar", "--p", "2", "--w", "2", "--phi", "1,1:1;2:1", "--class", "2:2"
    )
    assert rc == 0
    assert json.loads(out)["value"] == 0


def test_table_csv_frozen(capsys):
    rc, out = run(capsys, "table", "--n", "3", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == [
        'lambda,3,"2,1","1,1,1"',
        "3,1,1,1",
        '"2,1",-1,0,2',
        '"1,1,1",1,-1,1',
    ]


def test_table_block_filter(capsys):
    rc, out = run(
        capsys, "table", "--n", "5", "--p", "3", "--core", "1,1", "--format", "csv"
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "lambda"
    assert [r[0] for r in rows[1:]] == ["4,1", "3,2", "1,1,1,1,1"]


def test_table_builds_only_the_block_rows(capsys, monkeypatch):
    built = []

    def recorded(lam, original=symchar.irr_class_function):
        built.append(lam)
        return original(lam)

    monkeypatch.setattr(symchar, "irr_class_function", recorded)
    rc, out = run(capsys, "table", "--n", "9", "--p", "2", "--core", "2,1")
    assert rc == 0
    block = list(partitions_with_core(9, (2, 1), 2))
    assert len(block) == 10 and len(out.splitlines()) == 1 + len(block)
    assert built == block


def test_table_json(capsys):
    rc, out = run(capsys, "table", "--n", "3", "--format", "json")
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0] == {"classes": ["3", "2,1", "1,1,1"], "n": 3}
    assert lines[1] == {"lambda": "3", "values": [1, 1, 1]}
    assert lines[2] == {"lambda": "2,1", "values": [-1, 0, 2]}


def test_decomp_csv_frozen(capsys):
    rc, out = run(capsys, "decomp", "--p", "2", "--w", "2", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == [
        'phi,leg0:2,"leg0:1,1"',
        "2:2,1,0",
        '"2:1,1",0,1',
        '"2:1;1,1:1",1,1',
        '"1,1:2",1,0',
        '"1,1:1,1",0,1',
    ]


def test_mu_csv_frozen(capsys):
    rc, out = run(capsys, "mu", "--p", "2", "--w", "1", "--core", "", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == [
        'class,1:2,"1:1,1"',
        "2,2,0",
        '"1,1",0,2',
    ]


def test_composite_p_allowed_where_documented(capsys):
    for argv in (
        ("core", "--partition", "5,3", "--p", "4"),
        ("quotient", "--partition", "5,3", "--p", "4"),
        ("sign", "--partition", "5,3,1,1,1,1", "--p", "4"),
        ("gamma", "--core", "2,1", "--p", "4"),
        ("isometry", "--p", "4", "--w", "1", "--core", ""),
        ("verify", "main", "--p", "4", "--w", "1", "--core", ""),
    ):
        rc, _ = run(capsys, *argv)
        assert rc == 0, argv


def test_composite_p_rejected_elsewhere(capsys):
    for argv in (
        ("verify", "val", "--p", "4", "--w", "1"),
        ("verify", "heights", "--p", "4", "--w", "1", "--core", ""),
        ("table", "--n", "4", "--p", "4", "--core", ""),
        ("decomp", "--p", "4", "--w", "1"),
        ("wchar", "--p", "4", "--w", "1", "--phi", "4:1", "--class", "1:4"),
        ("mu", "--p", "4", "--w", "1", "--core", ""),
    ):
        rc = cli.main(list(argv))
        assert rc == 2, argv
        assert "must be prime" in capsys.readouterr().err, argv


def test_invalid_arguments_exit_two(capsys):
    for argv in (
        ("core", "--partition", "3,1,2", "--p", "2"),
        ("core", "--p", "2"),
        ("nonsense",),
        ("wchar", "--p", "2", "--w", "1", "--phi", "2:1", "--class", "1:3"),
        ("sign", "--partition", "3,1", "--p", "2", "--over", "3"),
        ("verify", "main", "--p", "2", "--w", "1", "--jobs", "2"),
        ("wchar", "--p", "2", "--w", "1", "--phi", "2:1", "--class", "1:x"),
        ("char", "--n", "3", "--lambda", "2,1", "--mu", "1", "--class", "1"),
    ):
        rc, _ = run(capsys, *argv)
        assert rc == 2, argv


def test_malformed_class_labels_exit_two(capsys):
    # each class is read by parse_partition, so an empty part is malformed
    # too: "1:,1,1" at w=1 was once read as 1:1,1
    for w, label in [(1, "1:,1,1")] + [
        (2, label)
        for label in (
            "1:x", "1:2:3", "2,1:2", ":2", "a:2", "0:2,1:1,1", "1:2,", "1:2,,1:1,1",
            "1:1,1,2", "1:-1,3", "1:0,2", "1:3", "1:1", "1:2", "2:2,1:2", "1:2;1:1,1",
        )
    ]:
        rc = cli.main(["wchar", "--p", "2", "--w", str(w), "--phi", f"2:{w}", "--class", label])
        captured = capsys.readouterr()
        assert rc == 2, label
        assert captured.out == "", label
        assert captured.err.startswith("invalid arguments: "), label
        assert captured.err.count("\n") == 1, label


def test_out_of_range_integers_exit_two(capsys):
    for argv in (
        ("verify", "centp", "--p", "2", "--w", "1", "--e", "-1"),
        ("verify", "main", "--p", "3", "--w", "-1"),
        ("decomp", "--p", "3", "--w", "-1"),
        ("core", "--partition", "2", "--p", "1"),
        ("table", "--n", "-1"),
        ("verify", "centp", "--p", "2", "--w", "2", "--max-group-order", "-5"),
        ("verify", "centp", "--p", "2", "--w", "2", "--max-group-order", "0"),
        ("verify", "main", "--p", "2", "--w", "1", "--max-group-order", "-5"),
        ("verify", "main", "--p", "2", "--w", "1", "--max-group-order", "0"),
    ):
        rc = cli.main(list(argv))
        captured = capsys.readouterr()
        assert rc == 2, argv
        assert captured.out == "", argv
        assert captured.err.startswith("invalid arguments: "), argv
        assert captured.err.count("\n") == 1, argv
        if "--max-group-order" in argv:
            assert "--max-group-order=" in captured.err, argv


def test_guard_exit_three(capsys):
    rc, _ = run(capsys, "table", "--n", "13")
    assert rc == 3
    rc, _ = run(capsys, "verify", "centp", "--p", "3", "--w", "2", "--e", "3")
    assert rc == 3
    rc, _ = run(capsys, "wchar", "--p", "2", "--w", "5", "--phi", "2:5", "--class", "")
    assert rc == 3


def test_wreath_guard_before_any_work(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("ran before the guard")

    monkeypatch.setattr(isometry, "compute_W", never)
    monkeypatch.setattr(isometry, "verify_lemma_f", never)
    monkeypatch.setattr(modular, "enumerate_gibr", never)
    monkeypatch.setattr(perfect, "build_mu", never)
    monkeypatch.setattr(wreath, "parse_pmap", never)
    monkeypatch.setattr(symchar, "irr_class_function", never)
    monkeypatch.setattr(isometry, "build_isometry", never)
    monkeypatch.setattr(isometry, "verify_main", never)
    staircase = ",".join(str(k) for k in range(11, 0, -1))  # a 2-core of size 66
    for argv in (
        ("verify", "centp", "--p", "7", "--w", "1"),
        ("verify", "lemmaf", "--p", "7", "--w", "1"),
        ("decomp", "--p", "5", "--w", "16"),
        ("mu", "--p", "5", "--w", "5"),
        ("wchar", "--p", "47", "--w", "1", "--phi", "", "--class", ""),
        # within the wreath guard, beyond the group-order guard (9! > 50000)
        ("verify", "centp", "--p", "3", "--w", "2", "--e", "3"),
        # beyond the table guard (n > 12), even where n - |core| is not a
        # multiple of p
        ("table", "--n", "13"),
        ("table", "--n", "13", "--p", "3", "--core", "1,1"),
        # beyond the enumeration guard: n = p*w + |core| > 64
        ("isometry", "--p", "2", "--w", "33"),
        # beyond the block guard: 68,150 and 1,046,705 members > 50,000
        ("isometry", "--p", "2", "--w", "23"),
        ("isometry", "--p", "2", "--w", "32"),
        ("mu", "--p", "2", "--w", "1", "--core", staircase),
        ("verify", "main", "--p", "2", "--w", "1", "--core", staircase),
    ):
        rc = cli.main(list(argv))
        captured = capsys.readouterr()
        assert rc == 3, argv
        assert captured.out == "", argv
        assert captured.err.startswith("guard exceeded: "), argv
        assert captured.err.count("\n") == 1, argv


def test_block_guard_accepts_p2_w22():
    # the largest block the bound accepts at p = 2: 49,010 members
    args = cli.build_parser("isometry").parse_args(["isometry", "--p", "2", "--w", "22"])
    assert cli._check(args) == ()
    assert cli._block_size(2, 22) == 49010 <= cli.MAX_BLOCK < cli._block_size(2, 23)
    # the count is the number of p-multipartitions of w
    for p, w in ((2, 0), (2, 5), (3, 4), (5, 3), (7, 2)):
        assert cli._block_size(p, w) == len(multipartitions(p, w))


def test_large_core_lists_the_block_from_its_quotients(capsys, monkeypatch):
    # A core of 55 or 45 boxes: the block is built from its 2-quotients,
    # never by listing the partitions of n = 57 or 53.
    enumerate_partitions = partitions.enumerate_partitions

    def small_only(n):
        if n > 20:
            raise AssertionError(f"listed the partitions of {n}")
        return enumerate_partitions(n)

    for info in pkgutil.iter_modules(blockiso.__path__):
        module = importlib.import_module(f"blockiso.{info.name}")
        if getattr(module, "enumerate_partitions", None) is enumerate_partitions:
            monkeypatch.setattr(module, "enumerate_partitions", small_only)
    # The SHA-256 of each stdout, as printed before the block was built from
    # its quotients.
    for argv, digest in (
        (
            "isometry --p 2 --w 1 --core 10,9,8,7,6,5,4,3,2,1",
            "c9de313ea85e1b6a27a75c3bcd023b62168cc2324dafde81db5a37812b03cf47",
        ),
        (
            "verify main --p 2 --w 4 --core 9,8,7,6,5,4,3,2,1",
            "4914c29562d2165b12e5bf996b68bc3c73ce828fea20762d27e750d25ca9d609",
        ),
    ):
        rc, out = run(capsys, *argv.split())
        assert rc == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_group_order_guard_never_builds_the_factorial(capsys):
    # (2 + 10**6)! would take minutes to build and cannot be printed
    rc, _ = run(capsys, "verify", "centp", "--p", "2", "--w", "1", "--e", "1000000")
    assert rc == 3


def test_p_bound_before_any_work_that_grows_with_p(capsys, monkeypatch):
    # The primality test divides up to sqrt(p) and the core test reads an
    # abacus of about 2p beads, so --p is bounded before either runs.
    rc, out = run(capsys, "core", "--p", "64", "--partition", "3")
    assert (rc, out) == (0, '{"core": "3", "p": 64, "partition": "3", "weight": 0}\n')

    def never(*args):
        raise AssertionError("ran before the p bound")

    monkeypatch.setattr(abacus, "_reading", never)
    monkeypatch.setattr(cli, "is_prime", never)
    big, prime = "99999999999", str(10**18 + 3)
    for argv in (
        ("core", "--p", "65", "--partition", "3"),
        ("core", "--p", big, "--partition", "3"),
        ("quotient", "--p", big, "--partition", "3"),
        ("sign", "--p", big, "--partition", "3"),
        ("gamma", "--p", big, "--core", "3"),
        ("table", "--n", "3", "--p", big),
        ("isometry", "--p", big, "--w", "0"),
        ("verify", "main", "--p", big, "--w", "1"),
        ("verify", "val", "--p", prime, "--w", "1"),
        ("table", "--n", "3", "--p", prime),
    ):
        rc = cli.main(list(argv))
        captured = capsys.readouterr()
        assert rc == 3, argv
        assert captured.out == "", argv
        assert captured.err.startswith("guard exceeded: p guard: ") and captured.err.count("\n") == 1, argv


def test_invalid_input_exits_two_before_any_work(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("ran before the arguments were checked")

    monkeypatch.setattr(isometry, "enumerate_partitions", never)
    # verify_lemma_f keeps its own w check; the CLI rejects w=0 before reaching it.
    with pytest.raises(ValueError, match="w=0"):
        isometry.verify_lemma_f(2, 0)
    monkeypatch.setattr(symchar, "irr_class_function", never)
    for verb, (prime, _, reads, keys) in list(cli.VERIFY.items()):
        monkeypatch.setitem(cli.VERIFY, verb, (prime, never, reads, keys))
    weight_zero = [("verify", verb, "--p", "2", "--w", "0") for verb in cli.VERIFY_VERBS]
    non_default = {"core": "1", "e": "1", "max-group-order": "720"}
    unread = [
        ("verify", verb, "--p", "2", "--w", "1", f"--{name}", value)
        for verb, (_, _, reads, _) in cli.VERIFY.items()
        for name, value in non_default.items()
        if name not in reads.split()
    ]
    assert len(unread) == 29
    for argv in [
        ("verify", "orth", "--p", "3", "--w", "1", "--core", "3"),
        ("verify", "centp", "--p", "2", "--w", "2", "--core", "2"),
        ("verify", "val", "--p", "2", "--w", "1", "--core", "2"),
        ("verify", "main", "--p", "7", "--w", "1", "--core", "7"),
        ("isometry", "--p", "2", "--w", "1", "--core", "2"),
        ("table", "--n", "5", "--p", "4"),
        ("table", "--n", "5", "--p", "2", "--core", "2"),
        ("table", "--n", "5", "--p", "3", "--core", "1"),
        ("table", "--n", "3", "--core", "junk"),
        # a core larger than n leaves a negative multiple of p
        ("table", "--n", "2", "--p", "2", "--core", "3,2,1"),
        ("table", "--n", "4", "--p", "2", "--core", "3,2,1"),
        # an --out that cannot be written: a missing directory, or a directory
        ("core", "--p", "2", "--partition", "1", "--out", "/nonexistent/x"),
        ("verify", "type", "--p", "5", "--w", "4", "--out", "/nonexistent/x"),
        ("core", "--p", "2", "--partition", "1", "--out", "."),
    ] + weight_zero + unread:
        rc = cli.main(list(argv))
        captured = capsys.readouterr()
        assert rc == 2, argv
        assert captured.out == "", argv
        assert captured.err.startswith("invalid arguments: "), argv
        assert captured.err.count("\n") == 1, argv
        if argv in weight_zero:
            assert f"verify {argv[1]} " in captured.err and "w=0" in captured.err, argv
        if argv in unread:
            assert captured.err == f"invalid arguments: verify {argv[1]} takes no {argv[6]}\n", argv


@pytest.mark.parametrize("p, cores", [(2, ("", "1", "2,1")), (3, ("", "1", "2", "1,1"))])
def test_verify_meta_line_names_the_block_its_records_check(capsys, p, cores):
    w = 2
    for verb in cli.VERIFY_VERBS:
        for core in cores:
            rc, out = run(capsys, "verify", verb, "--p", str(p), "--w", str(w), "--core", core)
            if core and "core" not in cli.VERIFY[verb][2].split():
                assert rc == 2 and out == "", (verb, core)
                continue
            assert rc in (0, 1), (verb, core)
            meta, *records = [json.loads(line) for line in out.splitlines()]
            n = p * w + sum(parse_partition(meta["parameters"]["core"]))
            assert records, (verb, core)
            for record in records:
                params = record["parameters"]
                assert params.get("core", meta["parameters"]["core"]) == meta["parameters"]["core"]
                for key in ("lambda", "lambda1", "lambda2"):
                    if key in params:
                        assert sum(parse_partition(params[key])) == n, (verb, core, record)


def test_internal_errors_exit_four(capsys, monkeypatch):
    def broken(p, w):
        raise RuntimeError("forced for the exit path")

    def empty(p, w, rho):
        return Report("main", {"p": p, "w": w})

    def library_value_error(p, w, rho):
        # only an argument check's ArgumentError means invalid arguments
        raise ValueError("forced for the exit path")

    monkeypatch.setattr(isometry, "verify_val", broken)
    monkeypatch.setattr(isometry, "verify_main", empty)
    monkeypatch.setattr(isometry, "verify_heights", library_value_error)
    for verb, message in (
        ("val", "RuntimeError: forced for the exit path"),
        ("main", "RuntimeError: verify main produced no records"),
        ("heights", "ValueError: forced for the exit path"),
    ):
        rc = cli.main(["verify", verb, "--p", "2", "--w", "2"])
        captured = capsys.readouterr()
        assert rc == 4, verb
        assert captured.out == "", verb
        assert captured.err == f"internal error: {message}\n", verb


def test_report_records_carry_the_run_parameters():
    rep = Report("main", {"p": 2, "w": 1, "core": ""})
    rep.add({"lambda": "2", "level": 1}, True)
    assert rep.records[0]["parameters"] == {"p": 2, "w": 1, "core": "", "lambda": "2", "level": 1}


def test_failing_verification_exits_one(capsys, monkeypatch):
    def fake(p, w):
        rep = Report("val")
        rep.add({"p": p, "w": w}, False, {"reason": "forced for the exit path"})
        return rep

    monkeypatch.setattr(isometry, "verify_val", fake)
    rc, out = run(capsys, "verify", "val", "--p", "2", "--w", "2")
    assert rc == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["status"] == "meta"
    assert lines[1]["status"] == "fail"
    assert lines[1]["witness"]["reason"] == "forced for the exit path"


def test_byte_determinism(capsys):
    pairs = []
    for _ in range(2):
        rc, out = run(capsys, "verify", "main", "--p", "2", "--w", "2", "--core", "")
        assert rc == 0
        pairs.append(out)
    assert pairs[0] == pairs[1]
    pairs = []
    for _ in range(2):
        rc, out = run(capsys, "table", "--n", "4", "--format", "json")
        assert rc == 0
        pairs.append(out)
    assert pairs[0] == pairs[1]


def test_out_file_matches_stdout(capsys, tmp_path):
    rc, out = run(capsys, "decomp", "--p", "2", "--w", "2", "--format", "csv")
    assert rc == 0
    target = tmp_path / "decomp.csv"
    rc, silent = run(
        capsys,
        "decomp", "--p", "2", "--w", "2", "--format", "csv", "--out", str(target),
    )
    assert rc == 0
    assert silent == ""
    assert target.read_text() == out


def test_probe_reports_but_never_fails(capsys):
    rc, out = run(capsys, "verify", "probe", "--p", "2", "--w", "2", "--core", "")
    assert rc == 0
    records = [json.loads(line) for line in out.splitlines()]
    crits = {r["parameters"].get("criterion") for r in records[1:]}
    assert crits == {"regularity", "divisibility"}
    div = next(
        r for r in records if r["parameters"].get("criterion") == "divisibility"
    )
    assert div["parameters"]["expected_perfect"] is False
    assert div["parameters"]["violations"] > 0


def test_verify_verbs_match_readme():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Verify\s+verbs:(.*?)\.\n", text, re.S).group(1)
    assert cli.VERIFY_VERBS == tuple(re.findall(r"`(\w+)`", sentence))
    assert len(cli.VERIFY_VERBS) == 13


# The parser surface recorded before the subcommands moved into one table:
# for each subcommand, in order, its (option strings, dest, required,
# default, choices, type).
_OUT = (("--out",), "out", False, None, None, None)
_P = (("--p",), "p", True, None, None, int)
_W = (("--w",), "w", True, None, None, int)
_CORE = (("--core",), "core", False, "", None, None)
_FORMAT = (("--format",), "format", False, "csv", ("csv", "json"), None)
_PARTITION = (("--partition",), "partition", True, None, None, None)
_CLASS = (("--class",), "cls", True, None, None, None)
_VERBS = (
    "main", "val", "heights", "unique", "centp", "diagram", "lemmaf",
    "sep", "type", "perfproj", "probe", "orth", "transfer",
)
PARSER_SURFACE = {
    "core": {_P, _OUT, _PARTITION},
    "quotient": {_P, _OUT, _PARTITION},
    "sign": {_P, _OUT, _PARTITION, (("--over",), "over", False, None, None, None)},
    "gamma": {_P, _OUT, (("--core",), "core", True, None, None, None)},
    "char": {
        (("--n",), "n", True, None, None, int),
        (("--lambda",), "lam", True, None, None, None),
        (("--mu",), "mu", False, None, None, None),
        _CLASS,
        _OUT,
    },
    "table": {
        (("--n",), "n", True, None, None, int),
        (("--p",), "p", False, None, None, int),
        _CORE,
        _OUT,
        _FORMAT,
    },
    "wchar": {_P, _W, _OUT, (("--phi",), "phi", True, None, None, None), _CLASS},
    "isometry": {_P, _W, _OUT, _CORE},
    "verify": {
        ((), "what", True, None, _VERBS, None),
        _P,
        _W,
        _OUT,
        (("--e",), "e", False, 0, None, int),
        _CORE,
        (("--max-group-order",), "max_group_order", False, 50000, None, int),
    },
    "decomp": {_P, _W, _OUT, _FORMAT},
    "mu": {_P, _W, _OUT, _FORMAT, _CORE},
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_parser_surface_frozen():
    assert list(_subparsers(cli.build_parser())) == list(PARSER_SURFACE)
    for name in PARSER_SURFACE:
        sub = _subparsers(cli.build_parser(name))[name]
        surface = {
            (tuple(a.option_strings), a.dest, a.required, a.default, a.choices, a.type)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert surface == PARSER_SURFACE[name], name


def _bench_emit_names() -> tuple:
    """`EMIT` of the benchmark's tracer, read from its source: the output
    boundaries of `cli` whose spans make up the traced `cli.emit_s`."""
    tree = ast.parse((Path(__file__).resolve().parent.parent / "bench" / "tracer.py").read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["EMIT"]
    )


def test_bench_emit_names_are_cli_functions():
    names = _bench_emit_names()
    assert {"cli._json_line", "cli._csv_text"} <= set(names)
    for name in names:
        module, attr = name.split(".")
        assert module == "cli" and callable(getattr(cli, attr)), name


def test_output_passes_through_the_cli_emit_helpers(capsys, monkeypatch):
    # Loaded before the patch, so a helper it bound at import would miss the counters.
    importlib.import_module("blockiso.commands")
    calls = {"_json_line": 0, "_csv_text": 0}
    for name in calls:

        def counted(*args, _real=getattr(cli, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cli, name, counted)
    rc, out = run(capsys, "core", "--p", "3", "--partition", "4,2,1")
    assert (rc, out) == (0, '{"core": "1", "p": 3, "partition": "4,2,1", "weight": 2}\n')
    assert calls == {"_json_line": 1, "_csv_text": 0}
    rc, out = run(capsys, "decomp", "--p", "2", "--w", "2")
    assert rc == 0 and out.startswith("phi,")
    assert calls == {"_json_line": 1, "_csv_text": 1}
