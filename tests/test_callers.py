"""No library function without a library caller.

Every top-level function or class of `src/blockiso`, public or private,
must be read somewhere in the package outside its own definition, either by
name or as an attribute (`wreath.zeta_row`, `_lib("symchar").mn_value`).
Attribute reads on the parsed arguments (`args.partition`) name options,
not functions, so they do not count.  Dunder hooks (`__getattr__`) are read
by the interpreter.  The exceptions are the helpers that state a definition
of the paper, which the tests call directly, and the command bodies
`commands._cmd_<name>`, which `cli.main` looks up by the name of their
`COMMANDS` row.
"""

import ast
from pathlib import Path

import blockiso
import blockiso.cli as cli

PACKAGE = Path(blockiso.__file__).parent
PAPER_ROLE = (
    "wreath.in_K_s",
    "wreath.omega_lambda",
    "wreath.shr_m",
    "wreath.span_membership",
    "wreath.tilde_power",
)


def _reads(tree: ast.Module):
    """(name, top-level statement it sits in) for each name read in a module."""
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                yield node.id, top
            elif isinstance(node, ast.Attribute):
                if not (isinstance(node.value, ast.Name) and node.value.id == "args"):
                    yield node.attr, top


def uncalled_definitions(package: Path) -> list[str]:
    """`module.name` of each top-level definition nothing else reads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    readers: dict[str, list] = {}
    for tree in trees.values():
        for name, top in _reads(tree):
            readers.setdefault(name, []).append(top)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
                continue
            if all(top is node for top in readers.get(node.name, ())):
                out.append(f"{module}.{node.name}")
    return sorted(out)


def test_every_definition_has_a_library_caller():
    bodies = [f"commands._cmd_{name}" for name in sorted(cli.COMMANDS)]
    tree = ast.parse((PACKAGE / "commands.py").read_text())
    names = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert sorted(f"commands.{name}" for name in names if name.startswith("_cmd_")) == bodies
    assert uncalled_definitions(PACKAGE) == sorted([*PAPER_ROLE, *bodies])


def test_args_attributes_are_not_callers(tmp_path):
    (tmp_path / "a.py").write_text("def partition(parts):\n    return partition(parts)\n")
    (tmp_path / "b.py").write_text("def _run(args):\n    return args.partition\n")
    # A private definition needs a reader too.
    assert uncalled_definitions(tmp_path) == ["a.partition", "b._run"]
    (tmp_path / "c.py").write_text("from . import a\n\nx = a.partition(())\n")
    assert uncalled_definitions(tmp_path) == ["b._run"]
