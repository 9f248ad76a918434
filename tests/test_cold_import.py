"""Importing the package loads numpy and no scipy module; each function
that needs scipy imports the submodule it calls, where it calls it.  Only
``classify``'s functions do: the KS thresholds and the atom matching run
on numpy and the standard library, so ``simulate``, ``limits``,
``verify`` and ``theorem21`` load no scipy module at all.  Nothing in the
package starts threads, so no import loads ``concurrent.futures`` either,
and no import-time table calls ``np.unique``, which loads ``numpy.ma``.

Every check runs in a fresh interpreter: the other test modules import
scipy, so in this process a mistyped import inside a function would go
unseen."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perpetuities import laws, paths, verify

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = {"laws": laws, "paths": paths, "verify": verify}
_LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
_LOADED_MA = "sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.'))"

# public calls, each with the scipy submodule it imports in its body, or
# None for a call that loads no scipy module
CALLS = [
    ("compute_A", "laws.compute_A(laws.preset_law('cauchy'), 2.5)", "scipy.special"),
    ("stability_integral_truncated",
     "laws.stability_integral_truncated(laws.preset_law('cauchy'), 50.0)", "scipy.integrate"),
    ("point_match_distance",
     "paths.point_match_distance(paths.PointMeasure(1.0, [0.1, 0.5, 0.9], [2.0, 1.0, 3.0]),"
     " paths.PointMeasure(1.0, [0.2, 0.45, 0.8], [2.5, 1.2, 2.0]), 0.5)", None),
    ("ks_threshold", "verify.ks_threshold(512)", None),
    ("two_sample_threshold", "verify.two_sample_threshold(512, 300)", None),
]

# small runs of every command but classify; a verify run may end with
# exit code 2, a failed gate, after every check has run
COMMANDS = {
    "verify-suite": "verify --law cauchy --n 200 --R 200",
    "verify-functionalsup": "verify --theorem functionalsup --law cauchy --n 200 --R 100",
    "theorem21": "theorem21 --instance mixed-sign",
    "simulate": "simulate --chain forward --law cauchy --n 200 --T 1 --R 2",
    "limits-path": "limits path --kind forward --c 1 --alpha 1 --T 1 --gamma 0.1 --R 2",
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


@pytest.mark.parametrize("expr, submodule", [c[1:] for c in CALLS], ids=[c[0] for c in CALLS])
def test_deferred_import_returns_the_same_float(expr, submodule):
    value, loaded = fresh(
        "import json, sys", "from perpetuities import laws, paths, verify",
        f"print(json.dumps([float({expr}), {_LOADED_SCIPY}]))")
    # JSON round-trips a finite float exactly
    assert value == float(eval(expr, dict(MODULES)))
    if submodule is None:
        assert loaded == []
    else:
        assert submodule in loaded


@pytest.mark.parametrize("argv", list(COMMANDS.values()), ids=list(COMMANDS))
def test_command_loads_no_scipy(argv, tmp_path):
    code, loaded = fresh_command(argv, tmp_path, _LOADED_SCIPY)
    assert code in (0, 2)
    assert loaded == []
