"""A fresh process loads only the modules its subcommand runs.

Each check runs in a new interpreter, since this test process has long
since imported every submodule.  Nothing here is timed: the checks read
`sys.modules` only.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import blockiso

SRC = str(Path(blockiso.__file__).resolve().parent.parent)
# What `import blockiso.cli` and a parser build load: the command bodies
# (`blockiso.commands`) and `abacus` wait until the arguments pass their check.
LIGHT = {f"blockiso.{m}" for m in ("cli", "partitions")}
# Standard modules that neither the import nor a `core` run may load.
UNUSED = {"__future__", "csv", "dataclasses", "fractions"}
# Standard modules that only output needs, loaded with its first record (`io`
# is not among them: the interpreter loads it at start-up for sys.stdout).
OUTPUT = {"csv", "json"}
# Exact-rational modules that runs with integral inner products never need.
RATIONAL = {"fractions", "decimal"}

PRELUDE = """
import contextlib, io, sys
start = set(sys.modules)

def loaded():
    return sorted(m for m in sys.modules if m.startswith("blockiso."))

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)

def report(**fields):
    import json
    print(json.dumps(fields))
"""


def fresh(code: str) -> dict:
    """Run PRELUDE + code in a new interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + code],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return json.loads(proc.stdout)


def test_parser_build_loads_no_library_module():
    got = fresh(
        "from blockiso.cli import build_parser, main\n"
        "build_parser()\n"
        "report(loaded=loaded(), new=sorted(set(sys.modules) - start))\n"
    )
    assert set(got["loaded"]) == LIGHT, got
    assert not (UNUSED | OUTPUT) & set(got["new"]), got


def test_core_adds_only_abacus_and_commands():
    got = fresh(
        "from blockiso.cli import build_parser, main\n"
        "build_parser()\n"
        "before, modules = loaded(), set(sys.modules)\n"
        "rc = run(['core', '--p', '3', '--partition', '4,2,1'])\n"
        "report(rc=rc, added=sorted(set(loaded()) - set(before)), new=sorted(set(sys.modules) - modules))\n"
    )
    assert got["rc"] == 0
    assert set(got["added"]) == {"blockiso.abacus", "blockiso.commands"}, got
    assert "json" in got["new"]
    assert not UNUSED & set(got["new"]), got


def test_help_and_early_argument_errors_load_no_command_body():
    # --p 1 fails the first check, before the --core step loads abacus.
    got = fresh(
        "from blockiso.cli import main\n"
        "rcs = [run(['core', '--help']), run(['core', '--p', '1', '--partition', '2'])]\n"
        "report(rcs=rcs, loaded=loaded(), new=sorted(set(sys.modules) - start))\n"
    )
    assert got["rcs"] == [0, 2]
    assert set(got["loaded"]) == LIGHT, got
    assert not OUTPUT & set(got["new"]), got


def test_verify_main_skips_perfect_and_modular():
    got = fresh(
        "from blockiso.cli import main\n"
        "rc = run(['verify', 'main', '--p', '2', '--w', '2'])\n"
        "report(rc=rc, loaded=loaded())\n"
    )
    assert got["rc"] == 0
    assert "blockiso.isometry" in got["loaded"]
    assert not {"blockiso.perfect", "blockiso.modular"} & set(got["loaded"]), got


def test_mu_and_verify_sep_skip_modular():
    got = fresh(
        "from blockiso.cli import main\n"
        "rcs = [run(['mu', '--p', '2', '--w', '2']), run(['verify', 'sep', '--p', '2', '--w', '2'])]\n"
        "report(rcs=rcs, loaded=loaded(), new=sorted(set(sys.modules) - start))\n"
    )
    assert got["rcs"] == [0, 0]
    assert "blockiso.perfect" in got["loaded"]
    assert "blockiso.modular" not in got["loaded"], got
    assert not RATIONAL & set(got["new"]), got


def test_verify_diagram_needs_no_rationals():
    # Every pairing of an adjoined character with the smaller block is integral.
    got = fresh(
        "from blockiso.cli import main\n"
        "rc = run(['verify', 'diagram', '--p', '3', '--w', '2', '--core', '2'])\n"
        "report(rc=rc, new=sorted(set(sys.modules) - start))\n"
    )
    assert got["rc"] == 0
    assert not RATIONAL & set(got["new"]), got


def test_lattice_loads_only_for_perfproj():
    got = fresh(
        "from blockiso.cli import main\n"
        "rcs = [run(['verify', 'main', '--p', '2', '--w', '2']),"
        " run(['decomp', '--p', '2', '--w', '2'])]\n"
        "before, new = loaded(), sorted(set(sys.modules) - start)\n"
        "rcs.append(run(['verify', 'perfproj', '--p', '2', '--w', '2']))\n"
        "report(rcs=rcs, before=before, new=new, after=loaded())\n"
    )
    assert got["rcs"] == [0, 0, 0]
    assert {"blockiso.wreath", "blockiso.modular"} <= set(got["before"]), got
    assert not RATIONAL & set(got["new"]), got
    assert "blockiso.lattice" not in got["before"], got
    assert "blockiso.lattice" in got["after"]


def test_public_names_resolve_to_their_home_objects():
    got = fresh(
        "import importlib\n"
        "import blockiso\n"
        "bare = loaded()\n"
        "names = [n for n in blockiso.__all__ if n != '__version__']\n"
        "same = {n: getattr(blockiso, n) is getattr("
        "importlib.import_module('blockiso.' + blockiso._HOME[n]), n) for n in names}\n"
        "report(bare=bare, same=same, version=blockiso.__version__)\n"
    )
    assert got["bare"] == []
    assert got["version"] == blockiso.__version__
    assert got["same"] and all(got["same"].values()), got["same"]
    assert set(got["same"]) == set(blockiso.__all__) - {"__version__"}


def test_no_module_imports_dataclasses():
    got = fresh(
        "import importlib, pkgutil\n"
        "import blockiso\n"
        "names = [info.name for info in pkgutil.iter_modules(blockiso.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('blockiso.' + name)\n"
        "report(names=names, dataclasses='dataclasses' in sys.modules and 'dataclasses' not in start)\n"
    )
    assert {"cli", "classfn", "reporting", "perfect"} <= set(got["names"])
    assert not got["dataclasses"]


def test_python_m_blockiso_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=SRC)
    ok = subprocess.run(
        [sys.executable, "-m", "blockiso", "core", "--p", "3", "--partition", "4,2,1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (ok.returncode, ok.stdout) == (0, '{"core": "1", "p": 3, "partition": "4,2,1", "weight": 2}\n')
    bad = subprocess.run(
        [sys.executable, "-m", "blockiso", "core", "--p", "1", "--partition", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert bad.returncode == 2 and bad.stderr.startswith("invalid arguments:")
