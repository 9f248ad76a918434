"""Record the byte-identity manifest ``tests/golden.json``.

Each request runs in process through ``perpetuities.cli.main``, once per
seed, with a fresh ``--out`` directory that does not exist yet.  Its
digest is one SHA-256 over the exit code, stdout, stderr, whether
``--out`` exists afterwards, and the relative path and bytes of every
file under it, in sorted path order.  A request with several argument
lists (one suite at ``--jobs 1`` and ``--jobs 3``) has one digest, which
every list must give.

``tests/test_golden.py`` re-runs every request and compares.  Re-record
only for an intended output change, and list in CHANGES.md each digest
that moved and why:

    PYTHONPATH=src python3 tests/record_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
SEEDS = (0, 7)
# commands that take no --seed run once, recorded with seed None
UNSEEDED = ("limits-cdf", "classify", "classify-cauchy-large-c", "classify-heavynegm")

_SUITE = ("verify", "--law", "cauchy", "--n", "500", "--R", "200")
_SMALL_SIM = ("--n", "200", "--R", "20", "--T", "2", "--x0", "0.5")

# name -> argument lists without --seed and --out; all lists of one name
# must give the same digest
REQUESTS = {
    # the benchmark's requests
    "drift-suite": [("verify", "--law", "cauchy", "--n", "5000", "--R", "512", "--jobs", "2")],
    **{
        f"slowvar-{tag}": [("verify", "--theorem", tag, "--law", "regvar1", "--n", "2000",
                            "--R", "1000", "--jobs", "1")]
        for tag in ("thm15-backward", "pakes119")
    },
    **{
        f"path-simulate-{chain}": [("simulate", "--chain", chain, "--law", "cauchy",
                                    "--n", "2000", "--T", "1", "--R", "20")]
        for chain in ("forward", "backward")
    },
    "path-limits-forward": [("limits", "path", "--kind", "forward", "--c", "1", "--alpha", "1",
                             "--T", "1", "--gamma", "0.1", "--R", "20")],
    # verification suites and the two checks the suite shares a draw with
    "suite-regvar": [("verify", "--law", "regvar")],
    "suite-regvar1": [("verify", "--law", "regvar1")],
    "suite-heavynegm": [("verify", "--law", "heavynegm", "--T", "0.5")],
    "suite-jobs": [_SUITE + ("--jobs", "1"), _SUITE + ("--jobs", "3")],
    # u != 1: no Pakes114 report, and the sup reads T = u
    "suite-interior-u": [_SUITE + ("--u", "0.5")],
    "functionalsup": [("verify", "--theorem", "functionalsup", "--variant", "thm11-forward")],
    # no --law: the variant's preset law (regvar)
    "functionalsup-default-law": [("verify", "--theorem", "functionalsup",
                                   "--variant", "thm15-forward")],
    "forwardbackwardequality": [("verify", "--theorem", "forwardbackwardequality")],
    # a point mass, whose two chains agree up to roundoff
    "forwardbackwardequality-degenerate": [("verify", "--theorem", "forwardbackwardequality",
                                            "--law", "degenerate", "--n", "20", "--R", "100")],
    # paths, limit samples and tables
    **{
        f"simulate-{chain}": [("simulate", "--law", "regvar", "--chain", chain) + _SMALL_SIM]
        for chain in ("backward", "forward")
    },
    **{
        f"limits-path-{kind}": [("limits", "path", "--kind", kind, "--R", "50")]
        for kind in ("backward", "peak")
    },
    "limits-path-forward-grid": [("limits", "path", "--kind", "forward", "--grid-step", "0.01",
                                  "--R", "5")],
    "limits-prm": [("limits", "prm", "--R", "20")],
    "limits-cdf": [("limits", "cdf", "--kind", "thm11", "--ca", "2", "--xs", "0.5,1,2")],
    **{
        f"theorem21-{instance}": [("theorem21", "--instance", instance)]
        for instance in ("mixed-sign", "all-plus", "single-atom", "prm")
    },
    "classify": [("classify", "--law", "cauchy")],
    # a tail that starts late (c > e^15) and an infinite E log|M| (JSON null)
    "classify-cauchy-large-c": [("classify", "--law", "cauchy", "--c", "3.3e6")],
    "classify-heavynegm": [("classify", "--law", "heavynegm")],
    # failures leave --out as it was (here: not created)
    "exit1-grid-step": [("limits", "path", "--kind", "forward", "--grid-step", "1e-12")],
    "exit1-n-zero": [("simulate", "--n", "0")],
    "exit2-zero-iterate": [("simulate", "--law", "degenerate", "--m0", "-1", "--q0", "1",
                            "--n", "4", "--R", "2")],
    "exit2-failing-check": [("verify", "--theorem", "thm11-backward", "--n", "2", "--R", "100")],
}


def environment() -> dict:
    """The numpy version and platform the digests were taken under."""
    return {"numpy": np.__version__, "platform": platform.platform()}


def run_request(argv) -> tuple:
    """(exit code, SHA-256 hex digest) of one in-process CLI run."""
    from perpetuities.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", out])
        h = hashlib.sha256()
        for part in (str(code), stdout.getvalue(), stderr.getvalue(), str(os.path.isdir(out))):
            h.update(part.encode() + b"\0")
        files = sorted(
            os.path.relpath(os.path.join(root, name), out)
            for root, _, names in os.walk(out) for name in names
        )
        for rel in files:
            with open(os.path.join(out, rel), "rb") as fh:
                data = fh.read()
            h.update(rel.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return code, h.hexdigest()


def seeds(name) -> tuple:
    return (None,) if name in UNSEEDED else SEEDS


def run_entry(argvs, seed) -> tuple:
    """The one (code, digest) of every argument list, or ``None`` if they differ."""
    flags = () if seed is None else ("--seed", str(seed))
    results = {run_request([*argv, *flags]) for argv in argvs}
    return results.pop() if len(results) == 1 else None


def record() -> dict:
    entries = []
    for name, argvs in REQUESTS.items():
        for seed in seeds(name):
            result = run_entry(argvs, seed)
            if result is None:
                raise SystemExit(f"{name} at seed {seed}: its argument lists disagree")
            entries.append({
                "name": name,
                "seed": seed,
                "argvs": [list(argv) for argv in argvs],
                "code": result[0],
                "sha256": result[1],
            })
    return {**environment(), "requests": entries}


if __name__ == "__main__":
    manifest = record()
    lines = [json.dumps(entry) for entry in manifest.pop("requests")]
    head = json.dumps(manifest, indent=1)[:-2]  # open for one more key
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        fh.write(head + ',\n "requests": [\n  ' + ",\n  ".join(lines) + "\n ]\n}\n")
    print(f"recorded {len(lines)} digests to {MANIFEST}", file=sys.stderr)
