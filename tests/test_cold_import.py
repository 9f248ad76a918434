"""No module of the package imports scipy, which is a test dependency
only: importing the package loads numpy alone, and no command or public
call loads a scipy module.  Nothing in the package starts threads, so no
import loads ``concurrent.futures`` either, and no import-time table
calls ``np.unique``, which loads ``numpy.ma``.

Every runtime check runs in a fresh interpreter: the other test modules
import scipy, so in this process a scipy import would go unseen."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perpetuities import paths, verify

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = {"paths": paths, "verify": verify}
_LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
_LOADED_MA = "sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.'))"

# public calls that compute what a scipy routine would; each must load none
CALLS = {
    "point_match_distance":
        "paths.point_match_distance(paths.PointMeasure(1.0, [0.1, 0.5, 0.9], [2.0, 1.0, 3.0]),"
        " paths.PointMeasure(1.0, [0.2, 0.45, 0.8], [2.5, 1.2, 2.0]), 0.5)",
    "ks_threshold": "verify.ks_threshold(512)",
    "two_sample_threshold": "verify.two_sample_threshold(512, 300)",
}

# small runs of every command; a verify run may end with exit code 2, a
# failed gate, after every check has run
COMMANDS = {
    "verify-suite": "verify --law cauchy --n 200 --R 200",
    "verify-functionalsup": "verify --theorem functionalsup --law cauchy --n 200 --R 100",
    "theorem21": "theorem21 --instance mixed-sign",
    "simulate": "simulate --chain forward --law cauchy --n 200 --T 1 --R 2",
    "limits-path": "limits path --kind forward --c 1 --alpha 1 --T 1 --gamma 0.1 --R 2",
    "classify": "classify --law cauchy",
}

def fresh(*lines):
    """The JSON value printed by ``lines`` run in a new interpreter."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def fresh_command(argv, out, loaded):
    """(exit code, the ``loaded`` expression's value) of ``cli.main`` on
    ``argv`` in a new interpreter, writing into ``out``."""
    return fresh(
        "import contextlib, io, json, sys", "from perpetuities import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    code = cli.main({argv.split() + ['--out', str(out)]!r})",
        f"print(json.dumps([code, {loaded}]))")


def test_import_loads_no_scipy():
    loaded = fresh("import json, sys", "import perpetuities, perpetuities.cli",
                   f"print(json.dumps({_LOADED_SCIPY}))")
    assert loaded == []


def test_import_loads_no_masked_arrays():
    loaded = fresh("import json, sys", "import perpetuities, perpetuities.cli",
                   f"print(json.dumps({_LOADED_MA}))")
    assert loaded == []


def test_slow_variation_check_loads_no_masked_arrays(tmp_path):
    code, loaded = fresh_command(
        "verify --theorem thm15-backward --law regvar1 --n 200 --R 100", tmp_path, _LOADED_MA)
    assert code in (0, 2)
    assert loaded == []


def test_import_loads_no_thread_pool():
    loaded = fresh("import json, sys", "import perpetuities, perpetuities.cli",
                   "print(json.dumps(sorted(m for m in sys.modules if m.startswith('concurrent'))))")
    assert loaded == []


@pytest.mark.parametrize("expr", list(CALLS.values()), ids=list(CALLS))
def test_deferred_import_returns_the_same_float(expr):
    value, loaded = fresh(
        "import json, sys", "from perpetuities import paths, verify",
        f"print(json.dumps([float({expr}), {_LOADED_SCIPY}]))")
    # JSON round-trips a finite float exactly
    assert value == float(eval(expr, dict(MODULES)))
    assert loaded == []


@pytest.mark.parametrize("argv", list(COMMANDS.values()), ids=list(COMMANDS))
def test_command_loads_no_scipy(argv, tmp_path):
    code, loaded = fresh_command(argv, tmp_path, _LOADED_SCIPY)
    assert code in (0, 2)
    assert loaded == []


def test_no_module_imports_scipy():
    found = []
    for path in sorted((SRC / "perpetuities").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]  # None for "from . import x"
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []
