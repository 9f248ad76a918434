"""``cli`` writes every output file.

No other package module imports ``csv`` or ``json`` or spells the
``# config:`` line, ``cli`` takes no private name from another package
module, and every JSON it writes is standard (no NaN or Infinity).
Static checks with the standard library's ``ast``.
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


def json_writes(tree):
    """Every call of ``json.dump`` or ``json.dumps`` in ``tree``, with
    whether it passes ``allow_nan=False``."""
    return [(node.func.attr, any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                                 and k.value.value is False for k in node.keywords))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
            and node.func.attr in ("dump", "dumps")]


def test_detects_a_writer_outside_cli():
    tree = ast.parse('import json\ndef w(fp, c):\n    fp.write(f"# config: {json.dumps(c)}")\n')
    assert "json" in imported_modules(tree)
    assert any("# config:" in s for s in strings(tree))
    tree = ast.parse("from . import __version__\nfrom .simulate import _reprs, run\n")
    assert private_imports(tree) == ["_reprs"]
    tree = ast.parse("json.dump(d, fp, allow_nan=False)\nx = json.dumps(d, allow_nan=True)\n"
                     "json.loads(s)\n")
    assert json_writes(tree) == [("dump", True), ("dumps", False)]


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_only_cli_writes(path):
    tree = parse(path)
    assert imported_modules(tree) & {"csv", "json"} == set()
    assert [s for s in strings(tree) if "# config:" in s] == []


def test_cli_imports_no_private_name():
    assert private_imports(parse(SRC / "cli.py")) == []


def test_cli_json_is_standard():
    # Python's json writes NaN and Infinity by default, which a strict
    # parser rejects; allow_nan=False makes such a value an error instead
    writes = json_writes(parse(SRC / "cli.py"))
    assert writes and all(strict for _, strict in writes), writes
