"""The hooks of ``bench/tracing.py`` still find what they wrap.

``--trace 1`` replaces module attributes of the package with timing
wrappers, so a hook whose attribute is gone breaks the traced run.  The
package keeps some imports it never reads (marked ``# noqa: F401``) only
so that a hook can replace them; each such import must be hooked.  The
tracing module is read as source and executed, never written to.
"""

import ast
import importlib
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "perpetuities"
TRACING = ROOT / "bench" / "tracing.py"


def read_hooks():
    module = types.ModuleType("tracing")
    source = TRACING.read_text(encoding="utf-8")
    exec(compile(source, str(TRACING), "exec"), module.__dict__)
    return module.HOOKS


def unresolved_hooks(hooks):
    """(module, attribute) of each hook target the package lacks."""
    return [
        (mod_name, attr) for _, modules, attr, _ in hooks for mod_name in modules
        if not hasattr(importlib.import_module(f"perpetuities.{mod_name}"), attr)
    ]


def unhooked_keepalives(sources: dict, hooks):
    """(module, name) of each ``# noqa: F401`` import that no hook replaces."""
    hooked = {(mod_name, attr) for _, modules, attr, _ in hooks for mod_name in modules}
    kept = []
    for module, source in sources.items():
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]
            ):
                kept += [(module, alias.asname or alias.name) for alias in node.names]
    return sorted(k for k in kept if k not in hooked)


def test_detects_a_made_up_hook():
    hooks = (("verify.no_such_function", ("verify",), "no_such_function", None),)
    assert unresolved_hooks(hooks) == [("verify", "no_such_function")]


def test_detects_an_unhooked_keepalive():
    sources = {"a": "from .b import f, g  # noqa: F401\nfrom .b import h\n"}
    hooks = (("b.f", ("a",), "f", None),)
    assert unhooked_keepalives(sources, hooks) == [("a", "g")]


def test_every_hook_resolves():
    assert unresolved_hooks(read_hooks()) == []


def test_every_keepalive_is_hooked():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unhooked_keepalives(sources, read_hooks()) == []
