"""``cli`` writes every output file.

No other package module imports ``csv`` or ``json`` or spells the
``# config:`` line, and ``cli`` takes no private name from another
package module.  Static checks with the standard library's ``ast``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "perpetuities"
OTHERS = sorted(p for p in SRC.glob("*.py") if p.name != "cli.py")


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def imported_modules(tree):
    """The top-level name of every module that ``tree`` imports, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def strings(tree):
    """Every string constant of ``tree``, the literal parts of f-strings included."""
    return [n.value for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def private_imports(tree):
    """Names other than dunders that ``tree`` imports from a package module."""
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


def test_detects_a_writer_outside_cli():
    tree = ast.parse('import json\ndef w(fp, c):\n    fp.write(f"# config: {json.dumps(c)}")\n')
    assert "json" in imported_modules(tree)
    assert any("# config:" in s for s in strings(tree))
    tree = ast.parse("from . import __version__\nfrom .simulate import _reprs, run\n")
    assert private_imports(tree) == ["_reprs"]


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_only_cli_writes(path):
    tree = parse(path)
    assert imported_modules(tree) & {"csv", "json"} == set()
    assert [s for s in strings(tree) if "# config:" in s] == []


def test_cli_imports_no_private_name():
    assert private_imports(parse(SRC / "cli.py")) == []
