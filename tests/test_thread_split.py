"""No function of the package starts threads or takes a job count.

Static check with the standard library's ``ast``.  Every batch sampler is
a per-replication function mapped by ``simulate._map_replications`` on
the calling thread: the numpy calls of one replication are too short for
a second thread to save wall time, and handing the interpreter lock back
and forth costs CPU.  A function that reads ``ThreadPoolExecutor`` would
bring that split back, and a ``jobs`` parameter would be a knob that
changes nothing.
"""

import ast
import inspect
from pathlib import Path

import perpetuities

# the benchmark's thread-split crossover probe still passes jobs= to these
PROBE_SAMPLERS = ("backward_marginal_values", "forward_marginal_values")

SRC = Path(__file__).resolve().parents[1] / "src" / "perpetuities"


def thread_pool_users(source: str):
    """The innermost enclosing function (None at module level) of each
    read of ``ThreadPoolExecutor``, bare or as an attribute."""
    users = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (isinstance(node, ast.Name) and node.id == "ThreadPoolExecutor") or (
            isinstance(node, ast.Attribute) and node.attr == "ThreadPoolExecutor"
        ):
            users.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return users


def test_detects_every_user():
    source = (
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import concurrent.futures as cf\n"
        "POOL = ThreadPoolExecutor\n"
        "def a():\n    ThreadPoolExecutor(2)\n"
        "def b():\n    def inner():\n        cf.ThreadPoolExecutor(2)\n"
    )
    assert thread_pool_users(source) == [None, "a", "inner"]


def test_no_module_starts_threads():
    users = [
        (path.stem, scope) for path in sorted(SRC.glob("*.py"))
        for scope in thread_pool_users(path.read_text(encoding="utf-8"))
    ]
    assert users == []


def test_no_public_callable_takes_jobs():
    takers = [
        name for name in perpetuities.__all__
        # exception classes have no signature
        if callable(obj := getattr(perpetuities, name))
        and not (isinstance(obj, type) and issubclass(obj, Exception))
        and "jobs" in inspect.signature(obj).parameters
    ]
    assert takers == list(PROBE_SAMPLERS)
