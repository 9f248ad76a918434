"""Every name a package module imports or defines is used.

Static checks with the standard library's ``ast``.  An import bound to a
name that no expression of the module reads is dead code.  ``__init__.py``
imports in order to re-export, and lines marked ``# noqa: F401`` keep a
name importable on purpose, so both are skipped.  A public top-level
function or class is dead code unless the package exports it, some
module of the package reads it, or it is the console script.
"""

import ast
from pathlib import Path

import pytest

import perpetuities

SRC = Path(__file__).resolve().parents[1] / "src" / "perpetuities"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the [project.scripts] entry point of pyproject.toml
ENTRY_POINTS = {("cli", "main")}


def unused_imports(source: str):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_detects_a_dead_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep  # noqa: F401\nmath.pi\n"
    assert unused_imports(source) == [(2, "np")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_public_names(sources: dict, exported, entry_points=()):
    """(module, name) of each public top-level def or class that is not
    exported, not an entry point, and read by no module in ``sources``."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            (module, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(
        (module, name) for module, name in defined
        if name not in exported and name not in read and (module, name) not in entry_points
    )


def test_detects_a_dead_public_name():
    sources = {
        "a": ("def used():\n    pass\ndef exported():\n    pass\n"
              "def dead():\n    pass\ndef _private():\n    pass\nclass Main:\n    pass\n"),
        "b": "from . import a\nfrom .a import dead\na.used()\n",
    }
    assert dead_public_names(sources, {"exported"}, {("a", "Main")}) == [("a", "dead")]


def test_every_public_name_is_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert dead_public_names(sources, perpetuities.__all__, ENTRY_POINTS) == []
