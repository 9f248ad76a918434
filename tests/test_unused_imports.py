"""Every name a package module imports or defines is used.

Static checks with the standard library's ``ast``.  An import bound to a
name that no expression of the module reads is dead code.  ``__init__.py``
imports in order to re-export, and lines marked ``# noqa: F401`` keep a
name importable on purpose, so both are skipped.  A public top-level
function or class, a public method or property of such a class, and
every name the package exports, is dead code unless a caller reads it: a
package module other than ``__init__.py``, a script of ``demos/`` or
``bench/``, or a hook of ``bench/tracing.py``.  The console script and
the few names that only tests read are listed by name.
"""

import ast
import types
from pathlib import Path

import pytest

import perpetuities

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "perpetuities"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the scripts outside the package that call into it; their tests do not count
SCRIPTS = sorted(
    p for d in ("demos", "bench") for p in (ROOT / d).glob("*.py")
    if not p.name.startswith("test_")
)
TRACING = ROOT / "bench" / "tracing.py"
# the [project.scripts] entry point of pyproject.toml
ENTRY_POINTS = ("main",)
# public names whose only readers are tests, each with the reason it stays
TEST_ONLY = (
    ("tail_Q", "the exact tail that the quantile tests compare against"),
    ("drift_exceedance_intensity", "the acceptance identity exp(-intensity) = CDF"),
    ("status_of", "11 condition tests in test_functionals.py read one status by name"),
    ("law_from_dict", "the inverse of law_to_dict, for re-running a command from its output"),
)


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


def read_names(source: str):
    """Every name and attribute name that ``source`` loads."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def public_defs(source: str):
    """The top-level defs and classes of ``source``, and the methods and
    properties of those classes, whose names do not start with ``_``."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            names |= {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return {name for name in names if not name.startswith("_")}


def dead_public_names(modules, callers, exported, exempt):
    """Each name in ``exported``, and each public def, class, method or
    property of ``modules``, that no source in ``modules`` or ``callers``
    reads and ``exempt`` does not list."""
    names = set(exported).union(*map(public_defs, modules))
    read = set().union(*map(read_names, [*modules, *callers]))
    return sorted(names - read - set(exempt))


def test_detects_a_dead_public_name():
    modules = [
        "def used():\n    pass\ndef exported():\n    pass\n"
        "def dead():\n    pass\ndef _private():\n    pass\nclass Main:\n    pass\n",
        "from . import a\nfrom .a import dead\na.used()\n",
        "class Box:\n    def __init__(self):\n        pass\n    def _helper(self):\n"
        "        pass\n    @property\n    def size(self):\n        return 1\n"
        "    def dead_method(self):\n        pass\n    def read(self):\n"
        "        return self.size\nBox().read()\n",
    ]
    callers = ["import pkg\npkg.called()\n"]
    exported = {"exported", "called", "hooked"}
    assert dead_public_names(modules, callers, exported, {"Main", "hooked"}) == [
        "dead", "dead_method", "exported",
    ]


def hooked_attributes():
    """The module attributes that the hooks of ``bench/tracing.py`` replace."""
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return {attr for _, _, attr, _ in module.HOOKS}


def test_every_public_name_is_used():
    modules = [p.read_text(encoding="utf-8") for p in MODULES]
    callers = [p.read_text(encoding="utf-8") for p in SCRIPTS]
    test_only = sorted(name for name, _ in TEST_ONLY)
    exempt = {*ENTRY_POINTS, *hooked_attributes()}
    assert dead_public_names(modules, callers, perpetuities.__all__, {*exempt, *test_only}) == []
    # an exemption is dropped once a caller reads the name
    assert dead_public_names(modules, callers, test_only, exempt) == test_only


def test_all_lists_exactly_the_reexports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    reexported = [
        alias.asname or alias.name for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names
    ]
    assert sorted(perpetuities.__all__) == sorted(reexported)
    assert len(set(reexported)) == len(reexported)
    # the package list is the only one
    defines_all = [
        p.name for p in MODULES
        for node in ast.parse(p.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    assert defines_all == []
