"""The hooks of ``bench/tracing.py`` still find what they wrap.

``--trace 1`` replaces module attributes of the package with timing
wrappers, so a hook whose attribute is gone breaks the traced run, and
its counters bind each call's arguments by name, so a renamed or
reordered parameter breaks it too.  The package keeps some imports it
never reads (marked ``# noqa: F401``) only so that a hook can replace
them; each such import must be hooked.  The tracing module is read as
source and executed, never written to.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

from perpetuities import cli, simulate
from perpetuities.laws import preset_law

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "perpetuities"
TRACING = ROOT / "bench" / "tracing.py"


def read_tracing():
    module = types.ModuleType("tracing")
    source = TRACING.read_text(encoding="utf-8")
    exec(compile(source, str(TRACING), "exec"), module.__dict__)
    return module


def read_hooks():
    return read_tracing().HOOKS


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


# one small request of each kind that the bench workloads send
TRACED_REQUESTS = [
    ("verify", "--law", "cauchy", "--n", "200", "--R", "100", "--jobs", "2"),
    *(("verify", "--theorem", tag, "--law", "regvar1", "--n", "200", "--R", "100")
      for tag in ("thm15-backward", "pakes119")),
    *(("simulate", "--chain", chain, "--law", "cauchy", "--n", "100", "--R", "2")
      for chain in ("forward", "backward")),
    ("limits", "path", "--kind", "forward", "--c", "1", "--alpha", "1", "--T", "1",
     "--gamma", "0.1", "--R", "2"),
    ("theorem21", "--instance", "mixed-sign", "--ns", "100,200"),
]
COUNTERS = ("laws.pairs_drawn", "simulate.replications", "simulate.steps", "limits.atoms",
            "verify.samples_tested", "verify.attempted_replications")


def test_traced_requests_fill_every_counter(tmp_path, capsys):
    tracing = read_tracing()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for i, argv in enumerate(TRACED_REQUESTS):
            # a failed verification exits 2; a broken hook raises or exits 1
            assert cli.main([*argv, "--out", str(tmp_path / str(i))]) in (0, 2), argv
    assert [key for key in COUNTERS if tracer.counters[key] <= 0] == []
    assert {span[3] for span in tracer.spans} >= {
        "cli.main", "simulate.backward_marginal_values", "simulate.pakes_values",
        "verify.verify_marginal", "limits.sample_prm", "functionals.check_conditions",
    }
    # uninstalling restores every attribute
    assert unresolved_hooks(tracing.HOOKS) == []
    assert not hasattr(cli.main, "__wrapped__")


@pytest.mark.parametrize("sampler", [simulate.forward_marginal_values,
                                     simulate.backward_marginal_values],
                         ids=lambda f: f.__name__)
def test_crossover_call_binds_the_counted_names(sampler):
    # the thread-split crossover calls (law, n, 1.0, reps, seed, jobs=2)
    law = preset_law("cauchy")
    arguments = inspect.signature(sampler).bind(law, 500, 1.0, 256, 0, jobs=2).arguments
    assert {k: arguments[k] for k in ("n", "u", "reps", "seed", "jobs")} == dict(
        n=500, u=1.0, reps=256, seed=0, jobs=2)
