"""Tests of the benchmark's own output checks and result line.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from checks import check_request, compare_summary  # noqa: E402
from tracing import summarize  # noqa: E402

CLI = run.import_cli()

VERIFY = ["verify", "--theorem", "thm11-backward", "--law", "cauchy", "--n", "200",
          "--R", "100", "--jobs", "1", "--seed", "5"]
SIMULATE = ["simulate", "--chain", "backward", "--law", "cauchy", "--n", "100",
            "--T", "1", "--R", "3", "--seed", "5"]


def _request(argv, out):
    argv = argv + ["--out", str(out)]
    code = CLI.main(argv)
    return argv, code


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edit(text))


def test_clean_outputs_pass(tmp_path):
    for argv in (VERIFY, SIMULATE):
        argv, code = _request(argv, tmp_path / argv[0])
        problems, summary, stats = check_request(argv, code, argv[-1])
        assert problems == []
        assert stats["bytes"] > 0 and stats["rows"] > 0


def test_altered_D_is_caught(tmp_path):
    argv, code = _request(VERIFY, tmp_path)
    _, reference, _ = check_request(argv, code, argv[-1])
    path = tmp_path / "verify_reports.json"
    doc = json.loads(path.read_text())
    report = doc["reports"][0]
    report["D"] = 0.999 if report["pass"] else 0.0  # contradicts the verdict
    path.write_text(json.dumps(doc))
    problems, _, _ = check_request(argv, code, argv[-1])
    assert any("pass=" in p for p in problems)
    assert any("CSV rows differ" in p for p in problems)

    # a small consistent shift passes the structural checks but not the reference
    doc["reports"][0]["D"] = reference["reports"][0]["D"] + 1e-6
    doc["reports"][0]["pass"] = doc["reports"][0]["D"] <= doc["reports"][0]["threshold"]
    path.write_text(json.dumps(doc))
    _, summary, _ = check_request(argv, code, argv[-1])
    assert compare_summary(summary, reference)
    assert compare_summary(reference, reference) == []


def test_truncated_csv_is_caught(tmp_path):
    argv, code = _request(SIMULATE, tmp_path)
    _rewrite(tmp_path / "simulate_paths.csv", lambda t: t[: len(t) // 2])
    problems, _, _ = check_request(argv, code, argv[-1])
    assert problems


def test_wrong_exit_code_and_file_set_are_caught(tmp_path):
    argv, code = _request(VERIFY, tmp_path)
    problems, _, _ = check_request(argv, 2 if code == 0 else 0, argv[-1])
    assert any("exit code" in p for p in problems)
    os.remove(tmp_path / "verify_summary.csv")
    problems, _, _ = check_request(argv, code, argv[-1])
    assert any("files" in p for p in problems)


class _CorruptingCli:
    """Runs the real CLI, then drops the last row of every path CSV."""

    def main(self, argv):
        code = CLI.main(argv)
        out = argv[argv.index("--out") + 1]
        for name in os.listdir(out):
            if name.endswith("paths.csv"):
                _rewrite(os.path.join(out, name), lambda t: t[: t.rstrip("\n").rfind("\n") + 1])
        return code


def test_corrupted_output_counts_as_failed_operation(tmp_path):
    workload = run.Workload("cauchy", None, (tuple(SIMULATE[:-2]), tuple(VERIFY[:-2])))
    runner = run.Runner(CLI, workload, 5, tmp_path)
    runner.cycle()
    assert (runner.attempted, runner.failed) == (2, 0)
    runner.cli = _CorruptingCli()
    runner.cycle()
    assert (runner.attempted, runner.failed) == (4, 1)
    assert "differ from the first cycle's" in runner.problems[0]


def test_missing_metric_fails_the_run():
    declared = run.declared_metrics(0)
    measured = {name: 1.0 for name in declared}
    line = json.loads(run.result_line(measured, 0, True, 1, 0))
    assert set(line["metrics"]) == set(declared)
    del measured[next(iter(declared))]
    with pytest.raises(SystemExit):
        run.result_line(measured, 0, True, 1, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, None, "r", "cli.main", 0.0, 10.0),
        (2, 1, "r", "simulate.x", 1.0, 5.0),
        (3, 1, "r", "simulate.x", 3.0, 7.0),  # overlaps span 2, as threads do
    ]
    calls, busy, self_time = summarize(spans)
    assert calls["simulate.x"] == 2 and busy["simulate.x"] == 8.0
    assert self_time["cli"] == 4.0 and self_time["simulate"] == 8.0
