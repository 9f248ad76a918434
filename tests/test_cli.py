"""End-to-end tests of the command line interface."""

import json
import re

import numpy as np
import pytest

import perpetuities.cli as cli
import perpetuities.simulate as simulate_module
from perpetuities.cli import main
from perpetuities.laws import classify_regime, draw_log_mq, preset_law
from perpetuities.verify import (
    DEFAULT_D_BOUND,
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
        ("verify", "--gamma", "0.1", "--n", "50", "--R", "100"),
        ("verify", "--R", "abc"),
        ("verify", "--theorem", "functionalsup", "--law", "convergent", "--n", "50",
         "--R", "100"),
    ], ids=["xs-nan", "xs-inf", "simulate-R", "limits-R", "jobs", "xs-abc", "ns-abc",
            "verify-gamma", "R-abc", "functionalsup-no-variant"])
    def test_rejected_with_exit_one(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "unexpected" not in err
        # the message speaks of the value, not of a private function
        assert re.search(r"\b_\w", err) is None, err
        assert not any(tmp_path.iterdir())


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
        code, out, _ = run(
            capsys, "verify", "--theorem", "thm11-backward", "--n", "500",
            "--R", "150", "--threshold", "0.0001", "--out", str(tmp_path),
        )
        assert code == 2 and "FAIL" in out

    def test_suite_mode(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "verify", "--n", "400", "--R", "150", "--seed", "2",
            "--threshold", "0.2", "--out", str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "verify_reports.json").read_text())
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
            "thm11-backward", "--n", "400", "--R", "150", "--threshold", "0.3",
            "--out", str(tmp_path),
        )
        assert code == 0

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
        # Thm11-backward, Thm11-forward, Pakes114 and the backward side of
        # the equality check are distinct; the equality check's forward
        # side and FunctionalSup reuse batches, so 4R draws, not 6R
        calls = []

        def counted(law, rng, size):
            calls.append(size)
            return draw_log_mq(law, rng, size)

        monkeypatch.setattr(simulate_module, "draw_log_mq", counted)
        for out in ("a", "b"):
            run(capsys, *self.ARGV, "--out", str(tmp_path / out))
            assert len(calls) == 400  # nothing survives the previous call
            calls.clear()
        for name in ("verify_reports.json", "verify_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_suite_matches_separate_checks(self, capsys, tmp_path):
        run(capsys, *self.ARGV, "--out", str(tmp_path))
        doc = json.loads((tmp_path / "verify_reports.json").read_text())
        law = preset_law("cauchy")
        common = dict(seed=5, jobs=1)
        alone = [
            verify_marginal(tag, law, 200, 1.0, 100, threshold=DEFAULT_D_BOUND, **common)
            for tag in ("Thm11-backward", "Thm11-forward", "Pakes114")
        ] + [
            verify_forward_backward_equality(law, 200, 1.0, 100, **common),
            verify_functional_sup("Thm11-backward", law, 200, 1.0, 100, **common),
        ]
        assert doc["reports"] == [r.to_dict() for r in alone]


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

    def test_unknown_instance(self, capsys):
        assert run(capsys, "theorem21", "--instance", "nope")[0] == 1


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
            "--n", "200", "--threshold", "0.9", "--out", str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "verify_reports.json").read_text())
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
        (("limits", "cdf"), {"kind": "thm11", "ca": 1, "xs": [0.5, 1, 2], "threshold": None},
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
