"""No module of the package keeps results between calls.

Static check with the standard library's ``ast``.  A context variable or
a ``functools`` cache would let one call's output depend on an earlier
call; without them every output depends on the arguments alone.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "perpetuities"

FORBIDDEN = {"contextvars", "functools.cache", "functools.lru_cache"}


def hidden_state_uses(source: str):
    """Each forbidden module or cache the source imports or reads, by its
    dotted name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        found += [name for name in names if name in FORBIDDEN]
    return found


def test_detects_every_form():
    source = (
        "import contextvars\n"
        "from contextvars import ContextVar\n"
        "import functools\n"
        "from functools import lru_cache, partial\n"
        "@functools.cache\ndef f():\n    pass\n"
        "import math\nmath.pi\n"
    )
    assert sorted(hidden_state_uses(source)) == [
        "contextvars", "contextvars", "functools.cache", "functools.lru_cache",
    ]


def test_no_module_keeps_results_between_calls():
    uses = [
        (path.stem, name) for path in sorted(SRC.glob("*.py"))
        for name in hidden_state_uses(path.read_text(encoding="utf-8"))
    ]
    assert uses == []
