"""The checked grid's table and the failure paths of its runner."""

import json
import subprocess
import sys

import grid
from core_sweep import every_block

from blockiso import cli
from blockiso.isometry import verify_main

# Every case the ten inline library steps and seven exit-0 CLI steps of the
# CI workflow ran before the grid replaced them, one entry per case.
LIBRARY_CASES = [
    ("main", 5, 5, ()), ("val", 5, 5, ()), ("heights", 5, 5, ()), ("unique", 5, 5, ()), ("lemmaf", 5, 5, ()),
    ("main", 11, 3, ()), ("val", 11, 3, ()), ("heights", 11, 3, ()),
    ("main", 13, 3, ()), ("val", 13, 3, ()), ("heights", 13, 3, ()),
    ("main", 17, 3, ()), ("val", 17, 3, ()), ("heights", 17, 3, ()),
    ("main", 2, 12, ()), ("main", 3, 10, ()), ("main", 5, 8, ()), ("main", 7, 5, ()), ("main", 13, 4, ()),
    ("heights", 13, 4, ()),
    ("heights", 19, 3, ()), ("main", 19, 3, ()), ("main", 7, 7, ()),
    ("type", 3, 6, ()), ("type", 5, 3, (1,)),
    ("perfproj", 2, 8, ()),
    ("perfproj", 3, 6, ()), ("perfproj", 5, 4, ()), ("perfproj", 7, 3, ()),
    ("orth", 7, 3, ()),
    ("sep", 7, 3, ()), ("probe", 7, 3, ()), ("transfer", 7, 3, ()), ("type", 7, 3, ()),
    ("diagram", 2, 8, ()), ("diagram", 3, 6, ()), ("diagram", 7, 3, ()),
    ("main", 5, 3, "reduced"), ("heights", 5, 3, "reduced"), ("residues", 5, 3, "reduced"),
    ("main", 7, 2, "reduced"), ("heights", 7, 2, "reduced"), ("residues", 7, 2, "reduced"),
]
CLI_CASES = [
    "verify main --p 5 --w 4", "verify val --p 5 --w 4", "verify unique --p 5 --w 4",
    "verify lemmaf --p 5 --w 4", "verify heights --p 5 --w 4",
    "verify sep --p 3 --w 4", "verify type --p 3 --w 4", "verify transfer --p 3 --w 4",
    "verify probe --p 3 --w 4", "verify diagram --p 3 --w 4",
    "verify sep --p 5 --w 3", "verify transfer --p 5 --w 3", "verify diagram --p 5 --w 3",
    "verify type --p 5 --w 3", "verify probe --p 5 --w 3", "verify perfproj --p 5 --w 3",
    "decomp --p 5 --w 3", "verify orth --p 5 --w 3", "verify type --p 5 --w 4",
    "decomp --p 5 --w 4",
    "verify diagram --p 5 --w 4",
    "isometry --p 2 --w 1 --core 10,9,8,7,6,5,4,3,2,1", "verify main --p 2 --w 4 --core 9,8,7,6,5,4,3,2,1",
    "isometry --p 2 --w 16",
    "verify centp --p 5 --w 2 --max-group-order 3628800", "verify centp --p 3 --w 4 --max-group-order 479001600",
]


def test_every_case_is_one_row():
    assert (len(LIBRARY_CASES), len(CLI_CASES)) == (43, 26)
    assert len(set(grid.ROWS)) == len(grid.ROWS)
    for case in LIBRARY_CASES + CLI_CASES:
        assert grid.ROWS.count(case) == 1, case


def test_library_rows_name_a_verb_and_a_core_it_reads():
    for row in grid.ROWS:
        if isinstance(row, str):
            continue
        verb, *case = row
        reads = "core" if verb == "residues" else cli.VERIFY[verb][2]
        core = "every" if len(case) == 1 else case[2]
        assert core in ("reduced", "every") or isinstance(core, tuple), row
        assert core == () or "core" in reads.split(), row


def test_every_block_rows():
    assert [row for row in grid.ROWS if len(row) == 2] == [
        ("main", 24), ("heights", 24),
        *[(verb, 16) for verb in ("diagram", "transfer", "type", "perfproj", "sep", "probe")],
    ]
    # (verb, N) counts the records of the verb at every block of every S_n, n <= N
    assert grid.check("main", 6) == sum(len(verify_main(*block).records) for block in every_block(6))


# A script that runs the grid on tiny rows, three of them with the library
# patched to fail; every child runs it too, so each sees the same patches.
SYNTHETIC = """
import sys
import grid
from blockiso import isometry, perfect
from blockiso.reporting import Report

def failing(p, w, rho):
    rep = Report("main", {"p": p, "w": w})
    rep.add({}, False)
    return rep

def raising(p, w, rho):
    raise RuntimeError("an internal error")

isometry.verify_main = failing
isometry.verify_heights = lambda p, w, rho: Report("heights")
perfect.verify_type = raising
grid.ROWS[:] = [
    ("main", 2, 1, ()),
    ("val", 2, 1, ()),
    ("heights", 2, 1, ()),
    ("type", 2, 1, ()),
    "verify main --p 2 --w 2 --core 3",
    "core --p 3 --partition 2,1",
]
sys.exit(grid.main())
"""


def test_runner_names_each_failed_row_and_runs_every_row(tmp_path):
    script = tmp_path / "synthetic_grid.py"
    script.write_text(SYNTHETIC)
    run = subprocess.run(
        [sys.executable, "-W", "error", str(script)],
        capture_output=True, text=True, env=grid.ENV, cwd=tmp_path, timeout=120,
    )
    assert run.returncode == 1, run.stderr
    lines = [json.loads(line) for line in run.stdout.splitlines()]
    assert [line["row"] for line in lines] == list(range(6))
    assert [line["exit"] for line in lines] == [1, 0, 1, 1, 2, 0]
    assert lines[1]["records"] > 0 and "records" not in lines[0]
    for line in lines:
        assert line["seconds"] > 0 and line["peak_rss_mb"] > 0, line
    failed = [line for line in run.stderr.splitlines() if line.startswith("failed row")]
    assert failed == [
        "failed row 0: ('main', 2, 1, ())",
        "failed row 2: ('heights', 2, 1, ())",
        "failed row 3: ('type', 2, 1, ())",
        "failed row 4: verify main --p 2 --w 2 --core 3",
    ]
    assert "an internal error" in run.stderr
