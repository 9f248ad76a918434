"""End-to-end tests of the command line interface."""

import csv
import json
import re

import numpy as np
import pytest

import perpetuities.cli as cli
import perpetuities.functionals as functionals
import perpetuities.simulate as simulate_module
from perpetuities.cli import main
from perpetuities.errors import ParameterError, StatisticalError
from perpetuities.laws import Regime, classify_regime, draw_log_mq, preset_law
from perpetuities.limits import PrmSpec, sample_prm
from perpetuities.verify import (
    two_sample_threshold,
    verify_forward_backward_equality,
    verify_functional_sup,
    verify_marginal,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLimitsCdf:
    def test_drift_table_rows(self, capsys):
        code, out, _ = run(
            capsys, "limits", "cdf", "--kind", "thm11", "--u", "1",
            "--ca", "1", "--xs", "0.5,1,2",
        )
        assert code == 0
        assert out.splitlines() == [
            "x,F",
            "0.5,0.3333333333333333",
            "1.0,0.5",
            "2.0,0.6666666666666666",
        ]

    def test_peak_table_rows(self, capsys):
        code, out, _ = run(
            capsys, "limits", "cdf", "--kind", "thm15", "--u", "1",
            "--alpha", "0.5", "--xs", "1,4",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        np.testing.assert_allclose(float(rows[0].split(",")[1]), np.exp(-1.0))
        np.testing.assert_allclose(float(rows[1].split(",")[1]), np.exp(-0.5))

    def test_file_output_embeds_config(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "limits", "cdf", "--kind", "thm11", "--ca", "2",
            "--xs", "1", "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "limits_cdf.csv").read_text().splitlines()
        assert lines[0].startswith("# config:")
        embedded = json.loads(lines[0].split("# config:")[1])
        assert embedded["command"] == "limits" and embedded["ca"] == 2.0
        assert lines[1] == "x,F"

    def test_missing_arguments(self, capsys):
        assert run(capsys, "limits", "cdf", "--kind", "thm11")[0] == 1
        assert run(capsys, "limits", "cdf", "--kind", "thm11", "--xs", "1")[0] == 1
        assert run(capsys, "limits", "cdf", "--kind", "thm9", "--xs", "1")[0] == 1


class TestDomainChecks:
    # an out-of-domain input fails with a package error and exit code 1,
    # not a NaN row, a RuntimeWarning or a silent no-op
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ("limits", "cdf", "--kind", "thm11", "--ca", "1", "--xs", "nan,1"),
        ("limits", "cdf", "--kind", "thm11", "--ca", "1", "--xs", "inf"),
        ("simulate", "--n", "5", "--R", "-1"),
        ("limits", "path", "--R", "-2"),
        ("simulate", "--n", "5", "--R", "1", "--jobs", "-2"),
        ("limits", "cdf", "--kind", "thm11", "--ca", "1", "--xs", "abc"),
        ("theorem21", "--ns", "10,abc"),
        ("theorem21", "--ns", "10.4,20.6"),
        ("verify", "--gamma", "0.1", "--n", "50", "--R", "100"),
        ("verify", "--R", "abc"),
        ("verify", "--theorem", "functionalsup", "--law", "convergent", "--n", "50",
         "--R", "100"),
        ("simulate", "--n", "5", "--R", "1", "--seed", "-3"),
        ("limits", "prm", "--R", "1", "--seed", "-1"),
        ("verify", "--theorem", "thm11-backward", "--variant", "nonsense", "--n", "50",
         "--R", "100"),
        ("verify", "--n", "2.5", "--R", "100"),
        ("simulate", "--n", "0", "--R", "1"),
        ("limits", "prm", "--R", "2", "--gamma", "1e-9"),
        ("limits", "path", "--kind", "forward", "--R", "1", "--grid-step", "1e-12"),
        # a non-finite value fails its check, never reaching a config line as NaN
        ("simulate", "--law", "cauchy", "--m0", "nan", "--n", "5", "--R", "1"),
        ("simulate", "--law", "regvar", "--c", "inf", "--n", "5", "--R", "1"),
        ("verify", "--law", "heavynegm", "--a", "nan", "--n", "50", "--R", "100"),
        ("theorem21", "--T", "nan"),
        ("limits", "path", "--kind", "forward", "--R", "1", "--grid-step", "nan"),
        ("verify", "--theorem", "thm11-backward", "--T", "inf", "--n", "50", "--R", "100"),
    ], ids=["xs-nan", "xs-inf", "simulate-R", "limits-R", "jobs", "xs-abc", "ns-abc",
            "ns-fraction", "verify-gamma", "R-abc", "functionalsup-no-variant", "seed-negative",
            "limits-seed-negative", "variant-unknown", "n-fraction", "n-zero",
            "prm-tiny-gamma", "path-tiny-grid-step", "law-m0-nan", "law-c-inf", "law-a-nan",
            "theorem21-T-nan", "grid-step-nan", "unread-T-inf"])
    def test_rejected_with_exit_one(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "unexpected" not in err
        # the message speaks of the value, not of a private function
        assert re.search(r"\b_\w", err) is None, err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [("--n", "2.5", "--R", "1"), ("--n", "5", "--R", "2.5")],
                             ids=["n", "R"])
    def test_count_flags_fail_alike(self, capsys, argv):
        # --n was parsed by int() and failed with argparse's own wording
        code, _, err = run(capsys, "simulate", *argv)
        assert code == 1 and "must be an integer >= 1, got '2.5'" in err


class TestUnreadFlags:
    # a flag the command does not read is an error, on the command line
    # and in a config file alike, not a silent no-op in the config line
    @pytest.mark.parametrize("argv, doc", [
        (("simulate", "--n", "5", "--R", "1", "--u", "0.5"), None),
        (("limits", "cdf", "--ca", "1", "--xs", "1", "--seed", "1"), None),
        (("limits", "cdf", "--ca", "1", "--xs", "1", "--grid-step", "0.5"), None),
        (("limits", "prm", "--R", "1", "--kind", "peak"), None),
        (("limits", "path", "--R", "1", "--n", "5"), None),
        (("theorem21", "--R", "5"), None),
        (("theorem21", "--threshold", "2"), None),
        (("classify", "--law", "cauchy", "--n", "5"), None),
        (("classify", "--law", "cauchy"), {"n": 5}),
        (("limits", "cdf", "--ca", "1", "--xs", "1"), {"seed": 1}),
        (("limits", "path", "--R", "1"), {"u": 0.5}),
        (("theorem21",), {"R": 5}),
        (("theorem21", "--instance", "single-atom", "--n", "10.5"), None),
        (("verify", "--theorem", "thm11-backward", "--n", "50", "--R", "100",
          "--threshold", "0.2"), None),
        (("simulate", "--n", "5", "--R", "1", "--ch", "forward"), None),
    ], ids=["simulate-u", "cdf-seed", "cdf-grid-step", "prm-kind", "path-n",
            "theorem21-R", "theorem21-threshold", "classify-n", "classify-config-n",
            "cdf-config-seed", "path-config-u", "theorem21-config-R",
            "theorem21-prefix-of-ns", "verify-threshold",
            "simulate-prefix-of-chain"])
    def test_rejected_with_exit_one(self, capsys, tmp_path, argv, doc):
        if doc is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(doc))
            argv += ("--config", str(cfg))
        out = tmp_path / "out"
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 1 and stdout == ""
        assert err.startswith("error:") and "unexpected" not in err
        assert not out.exists()


class TestConfigKeys:
    # the config line records every flag the command reads, resolved,
    # and nothing else; --jobs and --out never reach it
    BASE = {"command", "version"}

    @pytest.mark.parametrize("argv, name, keys", [
        (("simulate", "--n", "20", "--R", "1"), "simulate_paths.csv",
         {"law", "n", "T", "R", "seed", "chain", "x0"}),
        (("limits", "cdf", "--ca", "1", "--xs", "1"), "limits_cdf.csv",
         {"mode", "kind", "u", "ca", "xs"}),
        (("limits", "prm", "--R", "1"), "limits_prm.csv",
         {"mode", "T", "R", "seed", "c", "alpha", "gamma"}),
        (("limits", "path", "--R", "1", "--grid-step", "0.5"), "limits_paths.csv",
         {"mode", "T", "R", "seed", "c", "alpha", "gamma", "kind", "grid_step"}),
        (("verify", "--theorem", "functionalsup", "--n", "50", "--R", "100"),
         "verify_summary.csv", {"law", "n", "T", "u", "R", "seed", "theorem", "variant"}),
        (("verify", "--theorem", "thm11-backward", "--variant", "thm11-forward",
          "--n", "50", "--R", "100"), "verify_summary.csv",
         {"law", "n", "T", "u", "R", "seed", "theorem"}),
        (("theorem21", "--instance", "single-atom", "--ns", "10,20"), "theorem21_decay.csv",
         {"T", "seed", "instance", "ns", "gamma"}),
        (("classify", "--law", "cauchy"), "classify_regime.json", {"law", "seed"}),
    ], ids=["simulate", "limits-cdf", "limits-prm", "limits-path", "verify",
            "verify-marginal-variant", "theorem21", "classify"])
    def test_keys(self, capsys, tmp_path, argv, name, keys):
        code, _, err = run(capsys, *argv, "--jobs", "2", "--out", str(tmp_path))
        assert code in (0, 2), err
        text = (tmp_path / name).read_text()
        if name.endswith(".json"):
            config = json.loads(text)["config"]
        else:
            config = json.loads(text.splitlines()[0].removeprefix("# config:"))
        assert set(config) == self.BASE | keys


class TestLimitsSampling:
    def test_prm_atoms(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "limits", "prm", "--c", "1", "--alpha", "0.5", "--T", "2",
            "--gamma", "0.5", "--R", "3", "--seed", "9", "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "limits_prm.csv").read_text().splitlines()
        assert lines[1] == "rep,time,mark"
        for row in lines[2:]:
            rep, t, mark = row.split(",")
            assert int(rep) in (0, 1, 2)
            assert 0.0 <= float(t) <= 2.0 and float(mark) > 0.5

    def test_prm_rows_match_per_atom_writer(self, capsys, tmp_path):
        # about one atom per replication, so some replications have none
        argv = ["--c", "1", "--alpha", "1", "--T", "1", "--gamma", "1", "--R", "12"]
        code, _, _ = run(capsys, "limits", "prm", *argv, "--out", str(tmp_path))
        assert code == 0
        spec = PrmSpec(c=1.0, alpha=1.0, T=1.0, gamma=1.0)
        atoms = [sample_prm(spec, rep=r) for r in range(12)]
        assert min(pm.count for pm in atoms) == 0 < max(pm.count for pm in atoms)
        rows = [f"{r},{float(t)!r},{float(y)!r}\n"
                for r, pm in enumerate(atoms) for t, y in zip(pm.times, pm.marks)]
        text = (tmp_path / "limits_prm.csv").read_text()
        assert text.split("\n", 1)[1] == "rep,time,mark\n" + "".join(rows)

    def test_extremal_paths(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "limits", "path", "--kind", "forward", "--c", "1",
            "--alpha", "1", "--T", "1", "--gamma", "0.1", "--R", "2",
            "--grid-step", "0.25", "--seed", "4", "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "limits_paths.csv").read_text().splitlines()
        assert lines[1] == "rep,t,value"
        assert run(capsys, "limits", "path", "--kind", "bogus", "--R", "1")[0] == 1


class TestSimulateCommand:
    def test_backward_paths(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "simulate", "--law", "cauchy", "--n", "20", "--T", "1",
            "--R", "3", "--seed", "5", "--out", str(tmp_path),
        )
        assert code == 0 and "3 backward paths" in out
        lines = (tmp_path / "simulate_paths.csv").read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "rep,t,value"
        reps = {row.split(",")[0] for row in lines[2:]}
        assert reps == {"0", "1", "2"}

    def test_forward_chain(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "simulate", "--chain", "forward", "--n", "20", "--R", "2",
            "--out", str(tmp_path),
        )
        assert code == 0 and "forward" in out

    def test_rerun_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(capsys, "simulate", "--n", "30", "--R", "2", "--seed", "11",
                "--out", str(out))
        assert (a / "simulate_paths.csv").read_bytes() == (
            b / "simulate_paths.csv"
        ).read_bytes()


class TestStreamedPathRuns:
    # each path (and each atom sample of limits prm) is drawn as it is
    # written, so a run that fails has written part of its file; --out
    # must still be left as it was
    CASES = {
        "simulate": ("simulate_perpetuity_path", 3, StatisticalError("an iterate is zero"),
                     ("simulate", "--n", "20", "--R", "6"), "simulate_paths.csv", 2),
        "limits-path": ("extremal_path", 2, ParameterError("grid step too small"),
                        ("limits", "path", "--kind", "forward", "--gamma", "0.1", "--R", "5"),
                        "limits_paths.csv", 1),
        "limits-prm": ("sample_prm", 2, StatisticalError("too many atoms"),
                       ("limits", "prm", "--gamma", "0.1", "--R", "5"), "limits_prm.csv", 2),
    }
    PATH_CASES = ["simulate", "limits-path"]

    @pytest.mark.parametrize("name, argv", [(c[0], c[3]) for c in map(CASES.get, PATH_CASES)],
                             ids=PATH_CASES)
    def test_each_path_is_drawn_when_written(self, capsys, tmp_path, monkeypatch, name, argv):
        original, write, calls, drawn = getattr(cli, name), cli.write_paths_csv, [], []

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        def writing(paths, fp):
            def counted():
                for p in paths:
                    drawn.append(len(calls))  # draws made when path k is handed over
                    yield p
            write(counted(), fp)

        monkeypatch.setattr(cli, name, counting)
        monkeypatch.setattr(cli, "write_paths_csv", writing)
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 0
        assert drawn == list(range(1, int(argv[-1]) + 1))

    @pytest.fixture(params=list(CASES))
    def case(self, request, monkeypatch):
        name, rep, error, argv, file, code = self.CASES[request.param]
        original, calls = getattr(cli, name), []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) > rep:  # the call that draws replication rep
                raise error
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, failing)
        yield argv, file, code
        assert len(calls) == rep + 1

    def test_new_out_is_not_created(self, capsys, tmp_path, case):
        argv, _, expected = case
        code, out, _ = run(capsys, *argv, "--out", str(tmp_path / "new" / "out"))
        assert code == expected and out == ""
        assert not any(tmp_path.iterdir())

    def test_existing_file_keeps_its_bytes(self, capsys, tmp_path, case):
        argv, file, expected = case
        (tmp_path / file).write_bytes(b"rep,t,value\n0,0.0,1.5\n")
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path))
        assert code == expected
        assert [p.name for p in tmp_path.iterdir()] == [file]
        assert (tmp_path / file).read_bytes() == b"rep,t,value\n0,0.0,1.5\n"


class TestVerifyCommand:
    def test_single_theorem(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "verify", "--theorem", "thm11-backward", "--a", "1", "--c", "1",
            "--n", "2000", "--u", "1", "--R", "500", "--seed", "7",
            "--out", str(tmp_path),
        )
        assert code == 0 and "PASS" in out
        doc = json.loads((tmp_path / "verify_reports.json").read_text())
        assert doc["config"]["theorem"] == "Thm11-backward"
        assert doc["reports"][0]["tag"] == "Thm11-backward"
        assert doc["reports"][0]["pass"] is True
        summary = (tmp_path / "verify_summary.csv").read_text().splitlines()
        assert len(summary) == 3

    def test_failing_threshold_exit_code(self, capsys, tmp_path):
        # at n = 2 the scaled chain is far from its limit law (D near 0.3)
        code, out, _ = run(
            capsys, "verify", "--theorem", "thm11-backward", "--n", "2",
            "--R", "150", "--out", str(tmp_path),
        )
        assert code == 2 and "FAIL" in out
        (rep,) = json.loads((tmp_path / "verify_reports.json").read_text())["reports"]
        assert rep["D"] > rep["threshold"] and rep["pass"] is False

    def test_suite_mode(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "verify", "--n", "400", "--R", "150", "--seed", "2",
            "--out", str(tmp_path),
        )
        # the subject is the tag order; at R = 150 a marginal may fail its gate
        assert code in (0, 2)
        doc = json.loads((tmp_path / "verify_reports.json").read_text())
        assert all(r["D"] <= 0.2 for r in doc["reports"])
        tags = [r["tag"] for r in doc["reports"]]
        assert tags == [
            "Thm11-backward",
            "Thm11-forward",
            "Pakes114",
            "ForwardBackwardEquality",
            "FunctionalSup",
        ]

    def test_suite_skips_the_decayed_sum_off_u_one(self, capsys, tmp_path):
        # Pakes114 has no time parameter, so a u != 1 suite leaves it out
        code, _, err = run(
            capsys, "verify", "--law", "cauchy", "--n", "300", "--R", "120",
            "--u", "0.5", "--out", str(tmp_path),
        )
        assert code in (0, 2), err
        doc = json.loads((tmp_path / "verify_reports.json").read_text())
        assert [r["tag"] for r in doc["reports"]] == [
            "Thm11-backward",
            "Thm11-forward",
            "ForwardBackwardEquality",
            "FunctionalSup",
        ]

    def test_functional_variant(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "verify", "--theorem", "functionalsup", "--variant",
            "thm11-backward", "--n", "400", "--R", "150", "--out", str(tmp_path),
        )
        assert code == 0
        (rep,) = json.loads((tmp_path / "verify_reports.json").read_text())["reports"]
        assert rep["D"] <= 0.3

    # a variant with no path-functional form, or of another family, at T = u
    # (the shared draw) and at T != u (a draw of its own)
    @pytest.mark.parametrize("flags, message", [
        (("--variant", "pakes114"), "Pakes114 has no path-functional form"),
        (("--variant", "pakes114", "--T", "2"), "Pakes114 has no path-functional form"),
        (("--variant", "forwardbackwardequality"), "has no path-functional form"),
        (("--variant", "thm15-backward"), "applies to families"),
    ], ids=["pakes114", "pakes114-T2", "equality", "other-family"])
    def test_suite_refuses_a_variant_before_drawing(self, capsys, tmp_path, monkeypatch,
                                                    flags, message):
        draws = []
        monkeypatch.setattr(simulate_module, "draw_log_mq", lambda *a: draws.append(a))
        out = tmp_path / "out"
        code, stdout, err = run(capsys, "verify", "--law", "cauchy", "--n", "200",
                                "--R", "100", *flags, "--out", str(out))
        assert (code, stdout, draws) == (1, "", [])
        assert message in err
        assert not out.exists()

    def test_each_gate_is_its_checks_rule(self, capsys, tmp_path):
        # marginals are judged by the absolute bound 0.05, the two-sample
        # checks by the 1% critical value of their kept sample sizes
        R = 120
        code, _, err = run(capsys, "verify", "--law", "cauchy", "--n", "200", "--R", str(R),
                           "--seed", "5", "--out", str(tmp_path))
        assert code in (0, 2), err
        reports = json.loads((tmp_path / "verify_reports.json").read_text())["reports"]
        assert [r["degenerate"] for r in reports] == [0] * 5
        gates = {"Thm11-backward": 0.05, "Thm11-forward": 0.05, "Pakes114": 0.05,
                 "ForwardBackwardEquality": two_sample_threshold(R, R),
                 "FunctionalSup": two_sample_threshold(R, R)}
        assert {r["tag"]: r["threshold"] for r in reports} == gates
        assert all(r["pass"] is (r["D"] <= r["threshold"]) for r in reports)
        lines = (tmp_path / "verify_summary.csv").read_text().splitlines()[1:]
        rows = list(csv.DictReader(lines))
        assert [(w["tag"], float(w["threshold"])) for w in rows] == list(gates.items())
        assert all(w["pass"] == str(float(w["D"]) <= float(w["threshold"])) for w in rows)

    @pytest.mark.parametrize("flags, family", [
        (("--theorem", "functionalsup", "--variant", "thm15-forward"), "RegVarTail"),
        (("--variant", "thm15-backward"), "RegVarTail"),
        (("--theorem", "thm15-forward", "--variant", "thm11-forward"), "RegVarTail"),
        (("--theorem", "forwardbackwardequality", "--variant", "thm15-forward"), "CauchyTail"),
    ], ids=["functionalsup", "suite", "marginal-over-variant", "equality-reads-no-variant"])
    def test_default_law_is_the_read_tags_preset(self, capsys, tmp_path, flags, family):
        code, _, err = run(capsys, "verify", *flags, "--n", "300", "--R", "200",
                           "--out", str(tmp_path))
        assert code in (0, 2), err
        config = json.loads((tmp_path / "verify_reports.json").read_text())["config"]
        assert config["law"]["family"] == family

    def test_statistical_failure_exit(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "verify", "--theorem", "forwardbackwardequality",
            "--law", "degenerate", "--m0", "-1", "--q0", "1",
            "--n", "50", "--R", "100", "--out", str(tmp_path),
        )
        assert code == 2 and "degenerate" in err

    def test_configuration_failures(self, capsys):
        assert run(capsys, "verify", "--theorem", "bogus")[0] == 1
        assert run(capsys, "verify", "--theorem", "pakes114", "--u", "2",
                   "--n", "100", "--R", "100")[0] == 1
        assert run(capsys, "verify", "--theorem", "thm11-backward",
                   "--law", "regvar", "--n", "100", "--R", "100")[0] == 1

    def test_overflowing_law_is_a_clean_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "verify", "--theorem", "thm15-backward", "--law", "regvar",
            "--alpha", "0.01", "--n", "2000", "--R", "200", "--out", str(tmp_path),
        )
        assert code == 1
        assert err.startswith("error:") and "overflows" in err
        assert "Traceback" not in err


class TestVerifySuiteSharing:
    ARGV = ("verify", "--law", "cauchy", "--n", "200", "--R", "100",
            "--seed", "5", "--jobs", "2")

    def test_suite_draws_each_batch_once(self, capsys, tmp_path, monkeypatch):
        # the suite draws replications 0..R-1 once for every check but the
        # equality check's backward side, which draws R..2R-1: 2R draws
        calls = []

        def counted(law, rng, size):
            calls.append(size)
            return draw_log_mq(law, rng, size)

        monkeypatch.setattr(simulate_module, "draw_log_mq", counted)
        for out in ("a", "b"):
            run(capsys, *self.ARGV, "--out", str(tmp_path / out))
            assert len(calls) == 200  # nothing survives the previous call
            calls.clear()
        for name in ("verify_reports.json", "verify_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # (extra flags, law, u, T, the suite's tags): the forward sup column, a
    # suite without the decayed sum, a sup outside the shared draw, and Pakes119
    SHAPES = [
        ((), "cauchy", 1.0, 1.0, ("Thm11-backward", "Thm11-forward", "Pakes114")),
        (("--variant", "thm11-forward"), "cauchy", 1.0, 1.0,
         ("Thm11-backward", "Thm11-forward", "Pakes114")),
        (("--u", "0.5"), "cauchy", 0.5, 0.5, ("Thm11-backward", "Thm11-forward")),
        (("--T", "2"), "cauchy", 1.0, 2.0, ("Thm11-backward", "Thm11-forward", "Pakes114")),
        (("--law", "regvar1"), "regvar1", 1.0, 1.0,
         ("Thm15-backward", "Thm15-forward", "Pakes119")),
    ]

    def test_suite_matches_separate_checks(self, capsys, tmp_path):
        # each suite report equals its check run alone
        for i, (flags, name, u, T, marginals) in enumerate(self.SHAPES):
            out = tmp_path / str(i)
            run(capsys, *self.ARGV, *flags, "--out", str(out))
            doc = json.loads((out / "verify_reports.json").read_text())
            law, variant = preset_law(name), doc["config"]["variant"]
            common = dict(seed=5)
            alone = [verify_marginal(tag, law, 200, u, 100, **common) for tag in marginals] + [
                verify_forward_backward_equality(law, 200, u, 100, **common),
                verify_functional_sup(variant, law, 200, T, 100, **common),
            ]
            assert doc["reports"] == [r.to_dict() for r in alone], flags

    def test_single_backward_check_matches_the_suite(self, capsys, tmp_path, monkeypatch):
        # in the suite Thm11-backward reads the batch table that
        # FunctionalSup reuses; alone it runs no prefix scan
        run(capsys, *self.ARGV, "--out", str(tmp_path / "suite"))
        scans = []
        scan = simulate_module.signed_log_cumsum
        monkeypatch.setattr(simulate_module, "signed_log_cumsum",
                            lambda *a: scans.append(1) or scan(*a))
        run(capsys, *self.ARGV, "--theorem", "thm11-backward", "--out", str(tmp_path / "one"))
        assert scans == []
        suite, one = (
            json.loads((tmp_path / out / "verify_reports.json").read_text())["reports"]
            for out in ("suite", "one")
        )
        (in_suite,) = [r for r in suite if r["tag"] == "Thm11-backward"]
        assert one[0]["tag"] == "Thm11-backward"
        np.testing.assert_allclose(one[0]["D"], in_suite["D"], rtol=1e-12)
        assert one[0]["degenerate"] == in_suite["degenerate"]


class TestUnexpectedErrors:
    def test_catch_all_exit_code(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "classify", broken)
        code, _, err = run(capsys, "classify", "--law", "cauchy")
        assert code == 1
        assert err == "error: unexpected RuntimeError: boom\n"

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._HANDLERS, "classify", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["classify", "--law", "cauchy"])


class TestTheorem21Command:
    def test_single_atom_instance(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "theorem21", "--instance", "single-atom", "--out", str(tmp_path),
        )
        assert code == 0
        cond = (tmp_path / "theorem21_conditions.csv").read_text().splitlines()
        assert cond[1] == "name,status,detail"
        assert len(cond) == 8
        decay = (tmp_path / "theorem21_decay.csv").read_text().splitlines()
        assert decay[1] == "n,c_n,d_n"
        assert all(row.split(",")[2] == "0.0" for row in decay[2:])

    def test_mixed_sign_decreasing(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "theorem21", "--ns", "100,400,1600", "--out", str(tmp_path),
        )
        assert code == 0
        decay = (tmp_path / "theorem21_decay.csv").read_text().splitlines()[2:]
        ds = [float(r.split(",")[2]) for r in decay]
        assert len(ds) == 3 and ds[2] < ds[1] < ds[0]

    def test_stage_sizes_in_exponent_form(self, capsys, tmp_path):
        code, _, _ = run(capsys, "theorem21", "--instance", "single-atom", "--ns", "1e1,2e1",
                         "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "theorem21_decay.csv").read_text().splitlines()
        assert json.loads(lines[0].split("# config:")[1])["ns"] == [10, 20]
        assert [row.split(",")[0] for row in lines[2:]] == ["10", "20"]

    def test_unknown_instance(self, capsys):
        assert run(capsys, "theorem21", "--instance", "nope")[0] == 1

    def test_record_starting_below_zero_is_refused(self, capsys, tmp_path):
        # seed 3 draws its earliest atom at level f(tau) + y = -0.0486; F_n
        # would tend to max(G, 0), and its decay table would stay flat
        code, out, _ = run(capsys, "theorem21", "--instance", "prm", "--seed", "3",
                           "--out", str(tmp_path))
        assert code == 1 and "level-separation: FAIL" in out
        cond = (tmp_path / "theorem21_conditions.csv").read_text()
        assert "earliest record level -0.0486 < 0" in cond
        assert not (tmp_path / "theorem21_decay.csv").exists()

    def test_conditions_are_checked_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        original = functionals.check_conditions

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "check_conditions", counted)
        monkeypatch.setattr(functionals, "check_conditions", counted)
        code, _, _ = run(capsys, "theorem21", "--ns", "100,400", "--out", str(tmp_path))
        assert code == 0
        assert len(calls) == 1


class TestClassifyCommand:
    def test_divergent_contractive(self, capsys):
        code, out, _ = run(capsys, "classify", "--law", "cauchy", "--a", "1", "--c", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"]["tag"] == "DivergentContractive"
        assert doc["config"]["law"]["family"] == "CauchyTail"

    def test_convergent_preset(self, capsys, tmp_path):
        code, out, _ = run(capsys, "classify", "--law", "convergent",
                           "--out", str(tmp_path))
        assert code == 0
        assert json.loads(out)["regime"]["tag"] == "ConvergentPerpetuity"
        on_disk = json.loads((tmp_path / "classify_regime.json").read_text())
        assert on_disk == json.loads(out)

    def test_law_required(self, capsys):
        assert run(capsys, "classify")[0] == 1

    @staticmethod
    def strict_json(text):
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")
        return json.loads(text, parse_constant=refuse)

    def test_infinite_mean_is_null(self, capsys):
        # HeavyNegM has E log|M| = -inf
        code, out, _ = run(capsys, "classify", "--law", "heavynegm")
        assert code == 0
        assert self.strict_json(out)["regime"]["mean_log_m"] is None

    def test_non_finite_tuple_entries_are_null(self, capsys, monkeypatch):
        regime = Regime("ConvergentPerpetuity", -1.0, -1.0, (1.0, float("inf")),
                        (float("nan"), 2.0), float("inf"))
        monkeypatch.setattr(cli, "classify_regime", lambda law, rng: regime)
        code, out, _ = run(capsys, "classify", "--law", "cauchy")
        assert code == 0
        doc = self.strict_json(out)["regime"]
        assert doc["truncation_levels"] == [1.0, None]
        assert doc["integral_estimates"] == [None, 2.0]
        assert doc["growth_ratio"] is None

    def test_seed_drives_the_monte_carlo_evidence(self, capsys):
        law = preset_law("cauchy")
        mc = {}
        for seed in (0, 5):
            code, out, _ = run(capsys, "classify", "--law", "cauchy", "--seed", str(seed))
            assert code == 0
            mc[seed] = json.loads(out)["regime"]["mean_log_m_mc"]
        assert mc[0] == classify_regime(law).mean_log_m_mc
        assert mc[5] == classify_regime(law, rng=np.random.default_rng(5)).mean_log_m_mc
        assert mc[5] != mc[0]


class TestConfigFile:
    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"law": "cauchy", "n": 300, "R": 150, "seed": 3}))
        code, _, _ = run(
            capsys, "verify", "--config", str(cfg), "--theorem", "thm11-backward",
            "--n", "200", "--out", str(tmp_path),
        )
        # the subject is config precedence, not the verdict
        assert code in (0, 2)
        doc = json.loads((tmp_path / "verify_reports.json").read_text())
        assert all(r["D"] <= 0.9 for r in doc["reports"])
        assert doc["config"]["n"] == 200
        assert doc["config"]["R"] == 150 and doc["config"]["seed"] == 3

    def test_bad_config_files(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run(capsys, "verify", "--config", str(bad))[0] == 1
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"frobnicate": 1}))
        assert run(capsys, "verify", "--config", str(unknown))[0] == 1
        assert run(capsys, "verify", "--config", str(tmp_path / "missing.json"))[0] == 1

    @pytest.mark.parametrize("doc", [
        {"chain": "sideways"},
        {"n": "abc"},
        {"n": 2.7},
        {"R": True},
        {"config": "other.json"},
    ], ids=["bad-choice", "not-a-number", "fractional-int", "bool-int", "config-key"])
    def test_values_are_checked_as_flags(self, capsys, tmp_path, doc):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code, stdout, err = run(capsys, "simulate", "--config", str(cfg), "--R", "1",
                                "--out", str(out))
        assert code == 1 and stdout == ""
        assert err.startswith("error:") and "unexpected" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, doc, flags", [
        (("limits", "cdf"), {"kind": "thm11", "ca": 1, "xs": [0.5, 1, 2], "alpha": None},
         ("--kind", "thm11", "--ca", "1", "--xs", "0.5,1,2")),
        (("theorem21",), {"instance": "single-atom", "ns": [10, 20]},
         ("--instance", "single-atom", "--ns", "10,20")),
        (("limits", "path"), {"kind": "forward", "R": 2, "grid_step": 0.25},
         ("--kind", "forward", "--R", "2", "--grid-step", "0.25")),
        (("limits", "path"), {"kind": "forward", "R": 2, "grid-step": 0.25},
         ("--kind", "forward", "--R", "2", "--grid-step", "0.25")),
    ], ids=["list-xs-null", "list-ns", "grid_step", "grid-step"])
    def test_file_runs_as_its_flags(self, capsys, tmp_path, command, doc, flags):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        a, b = tmp_path / "a", tmp_path / "b"
        from_file = run(capsys, *command, "--config", str(cfg), "--out", str(a))
        from_flags = run(capsys, *command, *flags, "--out", str(b))
        assert from_file[0] == 0 and from_file == from_flags
        names = sorted(p.name for p in b.iterdir())
        assert names and names == sorted(p.name for p in a.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestDeterminism:
    def test_outputs_independent_of_jobs(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out, jobs in ((a, "1"), (b, "4")):
            code, _, _ = run(
                capsys, "verify", "--theorem", "thm11-backward", "--n", "800",
                "--R", "200", "--seed", "7", "--jobs", jobs, "--out", str(out),
            )
            assert code == 0
        for name in ("verify_reports.json", "verify_summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_command_and_flag(self, capsys):
        assert run(capsys, "nosuchcmd")[0] == 1
        assert run(capsys, "simulate", "--frobnicate", "1")[0] == 1
