"""Every public name of the package is used by something other than its tests.

A name defined at the top level of ``src/pmsquare/*.py`` (a function, a
class or an assigned constant whose name does not start with ``_``), and
a public method or property of a public class, must be read in ``src/``
outside its own definition and ``__init__.py``, be read by the code of
``perfbench/``, or be named in README.md.  A name that only the tests
reach is code nothing needs: delete it, or document it as library API.
A mention in a ``perfbench/`` string or comment is not a read.  Members
are reported as ``Class.member`` and count as read wherever an attribute
of their name is read.

The other direction holds too: every name README.md shows in backticks
that contains ``_`` or starts with a capital letter is bound in
``src/pmsquare/`` (or is a member of a class defined there), a Python
builtin, or a ``numpy.random`` name, so the README names nothing that
is gone.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import os
import re
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pmsquare"


def _defined_names(statement: ast.stmt) -> list[str]:
    """The public names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _public_members(statement: ast.stmt) -> list[ast.FunctionDef]:
    """The public methods and properties of a public class statement."""
    if not isinstance(statement, ast.ClassDef) or statement.name.startswith("_"):
        return []
    return [
        node
        for node in statement.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def _read_names(statement: ast.AST, skip: Sequence[ast.AST] = ()) -> set[str]:
    """The identifiers a statement reads, as bare names or as attributes, outside ``skip``."""
    read = set()
    nodes = [statement]
    while nodes:
        node = nodes.pop()
        if any(node is skipped for skipped in skip):
            continue
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        nodes.extend(ast.iter_child_nodes(node))
    return read


def _surface(sources: dict[str, str]) -> tuple[dict[str, str], set[str]]:
    """Public names (name -> module) and the names read outside their own definitions.

    ``sources`` maps each module name to its source text.  A member is
    defined as ``Class.member``; the reads inside its own body do not count.
    """
    defined: dict[str, str] = {}
    used: set[str] = set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            own = _defined_names(statement)
            for name in own:
                defined[name] = module
            members = _public_members(statement)
            read = _read_names(statement, skip=members)
            for member in members:
                defined[f"{statement.name}.{member.name}"] = module
                read |= _read_names(member) - {member.name}
            used |= read - set(own)
    return defined, used


def _package_sources() -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _mentioned(name: str, text: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def test_every_public_name_is_used_outside_the_tests():
    defined, used = _surface(_package_sources())
    # the scan sees a function, a class and a constant of three modules
    assert defined["build_realization"] == "realizations"
    assert defined["HVModel"] == "hvmodels"
    assert defined["TOLERANCE"] == "feasibility"
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _read_names(ast.parse(path.read_text(encoding="utf-8")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    # the scan sees a method and a property
    assert defined["HVModel.column"] == "hvmodels"
    assert defined["WitnessReport.context_count"] == "hvmodels"
    unused = [
        f"{module}.{name}"
        for name, module in sorted(defined.items(), key=lambda item: (item[1], item[0]))
        if name.split(".")[-1] not in used and not _mentioned(name.split(".")[-1], readme)
    ]
    assert not unused, f"public names only the tests use: {unused}"


def _bound_names(source: str) -> set[str]:
    """Every name a module binds: definitions, assignments, fields, arguments and imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[0])
    return names


def _unknown_readme_names(readme: str, known: set[str]) -> list[str]:
    """Backticked names (dotted, or called as ``name(...)``) with ``_`` or a capital, not known."""
    unknown = []
    for span in re.findall(r"`([^`\n]+)`", readme):
        name = re.fullmatch(r"([A-Za-z_][\w.]*)(?:\(.*\))?", span)
        for part in name.group(1).split(".") if name else ():
            if ("_" in part or part[:1].isupper()) and part not in known:
                unknown.append(part)
    return unknown


def test_every_readme_name_exists():
    import numpy.random

    sources = _package_sources()
    known = set(dir(builtins)) | set(dir(numpy.random))
    for module, source in sources.items():
        known |= _bound_names(source)
        if module != "__main__":
            for cls in vars(importlib.import_module(f"pmsquare.{module}")).values():
                if isinstance(cls, type) and cls.__module__ == f"pmsquare.{module}":
                    known |= set(dir(cls))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert not _unknown_readme_names(readme, known)
    # a name deleted from the package but still in the README is caught
    text = "`value_triples(context)`, `admissible_triples`, `Realization.scan_plan`, `--json`"
    assert _unknown_readme_names(text, known - {"admissible_triples"}) == ["admissible_triples"]


def test_a_definition_does_not_count_as_its_own_use():
    source = (
        "def helper(n):\n"
        "    return helper(n - 1)\n"
        "class Node:\n"
        "    def copy(self):\n"
        "        return Node()\n"
        "def used():\n"
        "    return Other.used_attr\n"
        "LIMIT: int = used()\n"
        "_private = LIMIT\n"
    )
    defined, used = _surface({"m": source})
    assert defined == {"helper": "m", "Node": "m", "Node.copy": "m", "used": "m", "LIMIT": "m"}
    assert {"used", "LIMIT", "used_attr"} <= used
    assert not {"helper", "Node"} & used


def test_a_member_counts_as_used_by_another_member_but_not_by_itself():
    source = (
        "class Tree:\n"
        "    size = 0\n"
        "    def depth(self):\n"
        "        return self.depth() + self.width\n"
        "    @property\n"
        "    def width(self):\n"
        "        return self.leaves\n"
        "    def leaves(self):\n"
        "        return self._hidden()\n"
        "    def _hidden(self):\n"
        "        return self.size\n"
        "class _Private:\n"
        "    def helper(self):\n"
        "        return 0\n"
    )
    defined, used = _surface({"m": source})
    assert set(defined) == {"Tree", "Tree.depth", "Tree.width", "Tree.leaves"}
    assert {"width", "leaves", "size", "_hidden"} <= used
    assert "depth" not in used


def test_importing_the_package_loads_no_module_of_it():
    # each public name has one import path, its module; the package re-exports nothing
    script = (
        "import sys, pmsquare\n"
        "print(sorted(n for n in sys.modules if n.startswith('pmsquare.') or n == 'numpy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "[]\n"


def _loaded_by(*argv: str) -> tuple[int | None, set[str]]:
    """Exit code of ``cli.main(argv)`` in a fresh process (None for a bare import), and
    the modules of the package and numpy it leaves in ``sys.modules``."""
    script = (
        "import contextlib, io, sys\n"
        "from pmsquare import cli\n"
        "code = None\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(sys.argv[1:])\n"
        "loaded = sorted(n for n in sys.modules if n.startswith('pmsquare.') or n == 'numpy')\n"
        "print(code, *loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, check=True
    )
    code, *loaded = result.stdout.split()
    return (None if code == "None" else int(code)), set(loaded)


def test_importing_the_cli_loads_no_numpy():
    loaded = {"pmsquare.cli", "pmsquare.errors", "pmsquare.reports", "pmsquare.square"}
    assert _loaded_by() == (None, loaded)


@pytest.mark.parametrize(
    "line", ["contradiction", "contradiction --constraints r0,r1,r2", "realization 2"]
)
def test_the_combinatorial_commands_load_no_numeric_layer(line):
    # value triples and cell maps are all they need; verify checks the tables they stand for
    code, loaded = _loaded_by(*line.split())
    assert code == 0
    assert not loaded & {"numpy", "pmsquare.qm", "pmsquare.hvmodels", "pmsquare.feasibility"}


def test_verify_loads_no_model_layer():
    code, loaded = _loaded_by("verify")
    assert code == 0
    assert "pmsquare.qm" in loaded
    assert not loaded & {"pmsquare.hvmodels", "pmsquare.feasibility", "pmsquare.realizations"}
