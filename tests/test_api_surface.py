"""Every public top-level name of the package is used by something other than its tests.

A name defined at the top level of ``src/pmsquare/*.py`` (a function, a
class or an assigned constant whose name does not start with ``_``) must
be read in ``src/`` outside its own definition and ``__init__.py``, appear
in ``perfbench/``, or be named in README.md.  A name that only the tests
reach is code nothing needs: delete it, or document it as library API.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

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


def _read_names(statement: ast.stmt) -> set[str]:
    """The identifiers a statement reads, as bare names or as attributes."""
    read = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def _surface(sources: dict[str, str]) -> tuple[dict[str, str], set[str]]:
    """Public names (name -> module) and the names read outside their own definitions.

    ``sources`` maps each module name to its source text.
    """
    defined: dict[str, str] = {}
    used: set[str] = set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            own = _defined_names(statement)
            for name in own:
                defined[name] = module
            used |= _read_names(statement) - set(own)
    return defined, used


def _package_sources() -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _mentioned(name: str, texts: list[str]) -> bool:
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    return any(pattern.search(text) for text in texts)


def test_every_public_name_is_used_outside_the_tests():
    defined, used = _surface(_package_sources())
    # the scan sees a function, a class and a constant of three modules
    assert defined["build_realization"] == "realizations"
    assert defined["HVModel"] == "hvmodels"
    assert defined["TOLERANCE"] == "feasibility"
    texts = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    unused = [
        f"{module}.{name}"
        for name, module in sorted(defined.items(), key=lambda item: (item[1], item[0]))
        if name not in used and not _mentioned(name, texts)
    ]
    assert not unused, f"public names only the tests use: {unused}"


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
    assert defined == {"helper": "m", "Node": "m", "used": "m", "LIMIT": "m"}
    assert {"used", "LIMIT", "used_attr"} <= used
    assert not {"helper", "Node"} & used
