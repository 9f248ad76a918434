"""Output checks for one CLI request, derived from its argv alone.

``check_request`` returns the problems it found (an empty list means the
request produced correct output), a summary of the numbers kept as
references, and the files' byte and data-row counts. ``compare_summary``
compares a summary with its stored reference. Every CSV is streamed line
by line so checking does not raise the process's peak RSS.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

# files each subcommand writes into --out
EXPECTED_FILES = {
    "simulate": ("simulate_paths.csv",),
    "limits path": ("limits_paths.csv",),
    "theorem21": ("theorem21_conditions.csv", "theorem21_decay.csv"),
    "verify": ("verify_reports.json", "verify_summary.csv"),
}

# reports of the full `verify` suite for the preset laws the workloads use
SUITE_TAGS = {
    "cauchy": ("Thm11-backward", "Thm11-forward", "Pakes114",
               "ForwardBackwardEquality", "FunctionalSup"),
}

CONDITION_NAMES = ("support-charged", "distinct-times", "level-separation",
                   "count-growth", "path-convergence", "measure-convergence")
DEFAULT_STAGE_COUNT = 13

# References are compared within these tolerances, loose enough for a
# roundoff-level kernel rewrite (about 1e-14 relative) and far below any
# change of algorithm. Log-magnitudes near a cancellation amplify
# roundoff, hence the absolute term on path values.
DISTANCE_ATOL = 1e-9  # KS statistics D and J1 decay distances d_n
VALUE_ATOL = 1e-7
VALUE_RTOL = 1e-9
SAMPLE_STRIDE = 97


def parse_argv(argv):
    """(command key, {flag: value}) of a request's argv."""
    argv = list(argv)
    command = argv.pop(0)
    if command == "limits":
        command = f"limits {argv.pop(0)}"
    flags = {}
    while argv:
        flag = argv.pop(0)
        if not flag.startswith("--") or not argv:
            raise ValueError(f"unexpected argv item {flag!r}")
        flags[flag[2:]] = argv.pop(0)
    return command, flags


def _norm_tag(tag):
    return str(tag).lower().replace("-", "").replace("_", "")


def _config_problems(config, command, flags):
    problems = []
    if not isinstance(config, dict):
        return ["config is not an object"]
    if config.get("command") != command.split()[0]:
        problems.append(f"config command {config.get('command')!r}")
    for key in ("seed", "n", "R", "T", "c", "alpha", "gamma"):
        if key in flags and config.get(key) != float(flags[key]):
            problems.append(f"config {key}={config.get(key)!r}, argv says {flags[key]}")
    for key in ("chain", "kind", "instance"):
        if key in flags and config.get(key) != flags[key]:
            problems.append(f"config {key}={config.get(key)!r}, argv says {flags[key]}")
    if "theorem" in flags and _norm_tag(config.get("theorem")) != _norm_tag(flags["theorem"]):
        problems.append(f"config theorem {config.get('theorem')!r}")
    return problems


def _read_config_line(fh):
    line = fh.readline()
    prefix = "# config: "
    if not line.startswith(prefix):
        raise ValueError(f"first line is not a config line: {line[:40]!r}")
    return json.loads(line[len(prefix):])


def _path_rows(fh, reps, problems, summary, steps=None, n=None, min_rows=1,
               forward_limit=False):
    """Stream (rep, t, value) rows; check their shape and collect samples."""
    if fh.readline() != "rep,t,value\n":
        problems.append("path CSV header is not 'rep,t,value'")
        return 0
    rows, rep, k, last_t, last_v, total = 0, -1, 0, 0.0, 0.0, 0.0
    per_rep = []

    def close_rep():
        if rep < 0:
            return
        if steps is not None and k != steps:
            problems.append(f"rep {rep} has {k} rows, expected {steps}")
        if k < min_rows:
            problems.append(f"rep {rep} has {k} rows, expected at least {min_rows}")
        per_rep[-1]["rows"] = k
        per_rep[-1]["mean"] = total / k
        per_rep[-1]["last"] = last_v

    for line in fh:
        rows += 1
        try:
            r_text, t_text, v_text = line.rstrip("\n").split(",")
            r, t, v = int(r_text), float(t_text), float(v_text)
        except ValueError:
            problems.append(f"malformed path row {rows}: {line[:60]!r}")
            return rows
        if r != rep:
            close_rep()
            if r != rep + 1:
                problems.append(f"rep {r} follows rep {rep}")
                return rows
            rep, k, total = r, 0, 0.0
            per_rep.append({"samples": []})
            if t != 0.0:
                problems.append(f"rep {r} does not start at t=0")
            if forward_limit and v != 0.0:
                problems.append(f"forward limit path of rep {r} starts at {v}")
        else:
            if not t > last_t:
                problems.append(f"rep {r} times not increasing at row {rows}")
            # between atoms the forward limit path falls at unit rate
            if forward_limit and v - last_v < -(t - last_t) - 1e-9:
                problems.append(f"forward limit path of rep {r} falls too fast at t={t}")
        if n is not None and t != k / n:
            problems.append(f"rep {r} row {k} at t={t}, expected {k}/{n}")
        if not math.isfinite(v):
            problems.append(f"non-finite value in rep {r} at t={t}")
        total += v
        if k % SAMPLE_STRIDE == 0:
            per_rep[-1]["samples"].append(v)
        k, last_t, last_v = k + 1, t, v
    close_rep()
    if rep != reps - 1:
        problems.append(f"path CSV holds reps 0..{rep}, expected 0..{reps - 1}")
    if len(problems) > 20:
        del problems[20:]
    summary["paths"] = per_rep
    return rows


def _check_simulate(out, flags, problems, summary):
    with open(os.path.join(out, "simulate_paths.csv"), encoding="utf-8") as fh:
        problems += _config_problems(_read_config_line(fh), "simulate", flags)
        n = int(flags["n"])
        steps = math.floor(n * float(flags.get("T", 1.0))) + 1
        return _path_rows(fh, int(flags["R"]), problems, summary, steps=steps, n=n)


def _check_limits_path(out, flags, problems, summary):
    with open(os.path.join(out, "limits_paths.csv"), encoding="utf-8") as fh:
        problems += _config_problems(_read_config_line(fh), "limits path", flags)
        forward = flags.get("kind") == "forward"
        # the forward path is sampled on a grid of 10**4 cells at least
        min_rows = 10_001 if forward and "grid-step" not in flags else 1
        return _path_rows(fh, int(flags["R"]), problems, summary,
                          min_rows=min_rows, forward_limit=forward)


def _csv_body(fh, header):
    if fh.readline() != header + "\n":
        raise ValueError(f"header is not {header!r}")
    return [line.rstrip("\n").split(",", 2) for line in fh]


def _check_theorem21(out, flags, problems, summary):
    with open(os.path.join(out, "theorem21_conditions.csv"), encoding="utf-8") as fh:
        problems += _config_problems(_read_config_line(fh), "theorem21", flags)
        rows = _csv_body(fh, "name,status,detail")
    names = tuple(r[0] for r in rows)
    statuses = [r[1] for r in rows if len(r) > 1]
    if names != CONDITION_NAMES:
        problems.append(f"condition names {names}")
    if "FAIL" in statuses or len(statuses) != len(rows):
        problems.append(f"condition statuses {statuses} next to a decay table")
    summary["conditions"] = statuses
    with open(os.path.join(out, "theorem21_decay.csv"), encoding="utf-8") as fh:
        problems += _config_problems(_read_config_line(fh), "theorem21", flags)
        decay = [tuple(float(x) for x in r) for r in _csv_body(fh, "n,c_n,d_n")]
    stages = len(flags["ns"].split(",")) if "ns" in flags else DEFAULT_STAGE_COUNT
    if len(decay) != stages:
        problems.append(f"decay table has {len(decay)} rows, expected {stages}")
    elif any(b[0] <= a[0] for a, b in zip(decay, decay[1:])):
        problems.append("decay table stages not increasing")
    elif any(c != n or not (math.isfinite(d) and d >= 0) for n, c, d in decay):
        problems.append("decay rows need c_n = n and finite d_n >= 0")
    elif not decay[-1][2] < decay[0][2]:
        problems.append(f"no decay: d_n goes {decay[0][2]} -> {decay[-1][2]}")
    summary["decay"] = [d for _, _, d in decay]
    return len(rows) + len(decay)


def _check_verify(out, flags, problems, summary, exit_code):
    with open(os.path.join(out, "verify_reports.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    config = doc.get("config")
    problems += _config_problems(config, "verify", flags)
    reports = doc.get("reports", [])
    if "theorem" in flags:
        expected = (flags["theorem"],)
    else:
        expected = SUITE_TAGS.get(flags.get("law"))
        if expected is None:
            problems.append(f"no expected suite for law {flags.get('law')!r}")
            expected = ()
    tags = tuple(r.get("tag") for r in reports)
    if tuple(map(_norm_tag, tags)) != tuple(map(_norm_tag, expected)):
        problems.append(f"report tags {tags}, expected {expected}")
    for r in reports:
        D, thr = r.get("D"), r.get("threshold")
        if not (isinstance(D, float) and 0.0 <= D <= 1.0 and isinstance(thr, float) and thr > 0):
            problems.append(f"{r.get('tag')}: D={D!r} threshold={thr!r}")
        elif r.get("pass") is not (D <= thr):
            problems.append(f"{r.get('tag')}: pass={r.get('pass')} but D={D} threshold={thr}")
        for key in ("n", "R", "seed"):
            if key in flags and r.get(key) != int(flags[key]):
                problems.append(f"{r.get('tag')}: {key}={r.get(key)!r}")
    want_code = 0 if all(r.get("pass") for r in reports) else 2
    if exit_code != want_code:
        problems.append(f"exit code {exit_code} for verdicts needing {want_code}")
    with open(os.path.join(out, "verify_summary.csv"), encoding="utf-8") as fh:
        if _read_config_line(fh) != config:
            problems.append("CSV config differs from JSON config")
        rows = list(csv.DictReader(fh))
    if [(w.get("tag"), float(w.get("D", "nan")), w.get("pass"), float(w.get("threshold", "nan")))
            for w in rows] != [(r.get("tag"), r.get("D"), str(r.get("pass")), r.get("threshold"))
                               for r in reports]:
        problems.append("CSV rows differ from JSON reports")
    summary["reports"] = [
        {"tag": r.get("tag"), "D": r.get("D"), "pass": r.get("pass")} for r in reports
    ]
    summary["exit_code"] = exit_code
    return len(rows) + len(reports)


_CHECKERS = {
    "simulate": _check_simulate,
    "limits path": _check_limits_path,
    "theorem21": _check_theorem21,
}


def check_request(argv, exit_code, out):
    """(problems, summary, stats) of one finished request.

    ``stats`` holds ``bytes`` and ``rows`` written; ``summary`` holds the
    numbers kept as references.
    """
    command, flags = parse_argv(argv)
    problems, summary = [], {}
    stats = {"bytes": 0, "rows": 0}
    expected = EXPECTED_FILES.get(command)
    if expected is None:
        return [f"no checks for command {command!r}"], summary, stats
    if command != "verify" and exit_code != 0:
        problems.append(f"exit code {exit_code}")
    found = tuple(sorted(os.listdir(out))) if os.path.isdir(out) else ()
    if found != tuple(sorted(expected)):
        return problems + [f"files {found}, expected {expected}"], summary, stats
    stats["bytes"] = sum(os.path.getsize(os.path.join(out, f)) for f in found)
    try:
        if command == "verify":
            stats["rows"] = _check_verify(out, flags, problems, summary, exit_code)
        else:
            stats["rows"] = _CHECKERS[command](out, flags, problems, summary)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems, summary, stats


def digest(out):
    """{file name: sha256} of every file a request wrote."""
    sums = {}
    for name in sorted(os.listdir(out)):
        h = hashlib.sha256()
        with open(os.path.join(out, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        sums[name] = h.hexdigest()
    return sums


def _close(a, b, atol, rtol):
    return abs(a - b) <= atol + rtol * abs(b)


def compare_summary(got, ref, where="", atol=VALUE_ATOL):
    """Differences between a summary and its reference, as messages."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ"]
        return [m for k in ref for m in compare_summary(
            got[k], ref[k], f"{where}.{k}", DISTANCE_ATOL if k in ("D", "decay") else atol)]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length {len(got) if isinstance(got, list) else '?'} != {len(ref)}"]
        return [m for i, (g, r) in enumerate(zip(got, ref))
                for m in compare_summary(g, r, f"{where}[{i}]", atol)]
    if isinstance(ref, float) and isinstance(got, float):
        return [] if _close(got, ref, atol, VALUE_RTOL) else [f"{where}: {got!r} != {ref!r}"]
    return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]
