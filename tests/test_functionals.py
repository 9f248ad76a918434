"""Tests for the running-max and smoothed-signed-sum path functionals."""

import dataclasses
import math

import numpy as np
import pytest

from perpetuities.errors import ConfigurationError, ParameterError
from perpetuities.functionals import (
    FAIL,
    PASS,
    UNDECIDABLE,
    ConditionReport,
    ConvergenceInstance,
    SignedAtomSequence,
    bundled_instance,
    check_conditions,
    convergence_demo,
    fn_functional,
    g_functional,
    instance_names,
)
from perpetuities.paths import PointMeasure, StepPath

# (1/10) log(e^20 - e^10), frozen from a 60-digit decimal evaluation
PINNED_SIGNED_VALUE = 1.999995459903962951079049555364012109117181154

ZERO_PATH = StepPath(1.0, [], [0.0])


def drop_path(horizon, slope=1.0, extra=()):
    """Dense staircase tracking t -> -slope * t, exact at breakpoints."""
    grid = np.unique(np.concatenate([np.arange(0.0, horizon, 0.01), [horizon], extra]))
    return StepPath(horizon, grid[1:], -slope * grid)


def two_stage_instance(nu_limit, signs=(1, -1)):
    """Minimal instance sharing nu across stages, for condition tests."""
    f0 = drop_path(2.0, extra=nu_limit.times)
    nu = SignedAtomSequence(nu_limit, np.resize(signs, nu_limit.count))
    return ConvergenceInstance(
        name="custom",
        ns=(10, 100),
        f_seq=(f0, f0),
        f_limit=f0,
        nu_seq=(nu, nu),
        nu_limit=nu_limit,
        c_seq=(10.0, 100.0),
    )


class TestSignedAtomSequence:
    def test_validation(self):
        pm = PointMeasure(1.0, [0.5], [1.0])
        with pytest.raises(ParameterError):
            SignedAtomSequence(pm, [1, -1])
        with pytest.raises(ParameterError):
            SignedAtomSequence(pm, [0])
        with pytest.raises(ParameterError):
            SignedAtomSequence(pm, [2])

    def test_from_atoms_sorts_jointly(self):
        nu = SignedAtomSequence.from_atoms(3.0, [2.0, 1.0], [5.0, 7.0], [-1, 1])
        np.testing.assert_array_equal(nu.measure.times, [1.0, 2.0])
        np.testing.assert_array_equal(nu.measure.marks, [7.0, 5.0])
        np.testing.assert_array_equal(nu.signs, [1, -1])

    def test_mixed_signs(self):
        pm = PointMeasure(1.0, [0.2, 0.5], [1.0, 1.0])
        assert SignedAtomSequence(pm, [1, -1]).mixed_signs
        assert not SignedAtomSequence(pm, [1, 1]).mixed_signs
        single = PointMeasure(1.0, [0.2], [1.0])
        assert not SignedAtomSequence(single, [-1]).mixed_signs


class TestGFunctional:
    def test_empty_measure_constant(self):
        f = StepPath(1.0, [0.5], [0.7, 0.3])
        g = g_functional(f, PointMeasure(1.0, [], []))
        assert g.value_at(0.0) == 0.7
        assert g.value_at(0.9) == 0.7

    def test_flat_path(self):
        nu = PointMeasure(3.0, [1.0, 2.0], [3.0, 1.0])
        g = g_functional(StepPath(3.0, [], [0.0]), nu)
        assert g.value_at(0.5) == 0.0
        assert g.value_at(1.0) == 3.0
        assert g.value_at(2.5) == 3.0

    def test_drop_path(self):
        nu = PointMeasure(3.0, [1.0, 2.0], [3.0, 1.0])
        g = g_functional(drop_path(3.0, extra=[1.0, 2.0]), nu)
        assert g.value_at(0.5) == 0.0
        # the later atom scores -2 + 1 and never displaces the record
        assert g.value_at(1.0) == 2.0
        assert g.value_at(3.0) == 2.0

    def test_monotone_for_positive_marks(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(1, 30))
            nu = PointMeasure(1.0, rng.uniform(0, 1, k), rng.uniform(0.01, 5, k))
            g = g_functional(StepPath(1.0, [], [0.0]), nu)
            assert np.all(np.diff(g.values) >= 0)

    def test_atom_at_zero(self):
        nu = PointMeasure(1.0, [0.0], [2.0])
        g = g_functional(ZERO_PATH, nu)
        assert g.value_at(0.0) == 2.0

    def test_atoms_outside_horizon(self):
        with pytest.raises(ParameterError):
            g_functional(ZERO_PATH, PointMeasure(2.0, [1.5], [1.0]))


class TestFnFunctional:
    def test_single_atom_exact(self):
        for c in (0.5, 3.0, 50.0):
            nu = SignedAtomSequence(PointMeasure(1.0, [0.4], [1.7]), [1])
            p = fn_functional(ZERO_PATH, nu, c)
            assert p.value_at(0.2) == 0.0
            np.testing.assert_allclose(p.value_at(0.4), 1.7, rtol=1e-15)

    def test_single_negative_level_clips(self):
        # log+ of a single small exponential is zero
        f = drop_path(1.0, extra=[0.5])
        nu = SignedAtomSequence(PointMeasure(1.0, [0.5], [0.1]), [1])
        p = fn_functional(f, nu, 4.0)
        assert p.value_at(0.8) == 0.0

    def test_pinned_mixed_value(self):
        nu = SignedAtomSequence(
            PointMeasure(1.0, [0.2, 0.5], [1.0, 2.0]), [1, -1]
        )
        p = fn_functional(ZERO_PATH, nu, 10.0)
        np.testing.assert_allclose(p.value_at(1.0), PINNED_SIGNED_VALUE, rtol=1e-14)
        np.testing.assert_allclose(p.value_at(0.3), 1.0, rtol=1e-15)

    def test_empty_sum_convention(self):
        empty = PointMeasure(1.0, [], [])
        low = StepPath(1.0, [], [-0.5])
        assert fn_functional(low, SignedAtomSequence(empty, []), 2.0).value_at(0.5) == 0.0
        high = StepPath(1.0, [], [0.8])
        assert fn_functional(high, SignedAtomSequence(empty, []), 2.0).value_at(0.5) == 0.8

    def test_exact_cancellation(self):
        nu = SignedAtomSequence(PointMeasure(1.0, [0.3, 0.6], [1.0, 1.0]), [1, -1])
        p = fn_functional(ZERO_PATH, nu, 5.0)
        assert p.value_at(0.4) == 1.0
        assert p.value_at(0.8) == 0.0
        assert p.meta["cancelled"] >= 1

    def test_duplicate_atom_times_enter_together(self):
        nu = SignedAtomSequence(PointMeasure(1.0, [0.5, 0.5], [1.0, 2.0]), [1, 1])
        p = fn_functional(ZERO_PATH, nu, 1.0)
        assert p.times.size == 1
        np.testing.assert_allclose(
            p.value_at(0.5), math.log(math.exp(1.0) + math.exp(2.0)), rtol=1e-15
        )

    def test_atom_at_zero_folds_into_start(self):
        nu = SignedAtomSequence(PointMeasure(1.0, [0.0], [1.0]), [1])
        p = fn_functional(ZERO_PATH, nu, 2.0)
        assert p.value_at(0.0) == 1.0

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            k = int(rng.integers(1, 12))
            times = np.sort(rng.uniform(0.0, 1.0, k))
            marks = rng.uniform(0.05, 3.0, k)
            signs = rng.choice([-1, 1], size=k)
            c = float(rng.uniform(0.5, 5.0))
            nu = SignedAtomSequence.from_atoms(1.0, times, marks, signs)
            p = fn_functional(ZERO_PATH, nu, c)
            for j in range(k):
                total = math.fsum(
                    s * math.exp(c * m) for s, m in zip(signs[: j + 1], marks[: j + 1])
                )
                want = max(math.log(abs(total)), 0.0) / c if total != 0 else 0.0
                np.testing.assert_allclose(
                    p.value_at(times[j]), want, rtol=1e-12, atol=1e-12
                )

    def test_all_plus_sandwich(self):
        # the displayed bounds presume a nonnegative running record, so the
        # generator pins f(0) = 0 and lifts the earliest atom above level 0
        rng = np.random.default_rng(17)
        for _ in range(40):
            k = int(rng.integers(1, 25))
            steps = np.sort(rng.uniform(0.0, 1.0, 6))[1:]
            f = StepPath(1.0, steps, np.concatenate([[0.0], rng.uniform(-2, 2, 5)]))
            times = np.sort(rng.uniform(0.0, 1.0, k))
            marks = rng.uniform(0.01, 4.0, k)
            marks[0] = max(marks[0], 0.01 - f.value_at(times[0]))
            nu = SignedAtomSequence.from_atoms(
                1.0, times, marks, np.ones(k, dtype=int)
            )
            c = float(rng.uniform(0.3, 20.0))
            upper_path = fn_functional(f, nu, c)
            g = g_functional(f, nu.measure)
            grid = np.unique(np.concatenate([[0.0], upper_path.times, g.times]))
            fv = upper_path.values_at(grid)
            gv = g.values_at(grid)
            counts = np.searchsorted(nu.measure.times, grid, side="right")
            bound = gv + np.log(np.maximum(counts, 1)) / c
            assert np.all(fv >= gv - 1e-12)
            assert np.all(fv <= bound + 1e-12)

    def test_dominant_level_controls_value(self):
        # when the top record level clears the rest by a gap, the signed
        # sum stays within log(1 + k exp(-c gap))/c + 1/c of that level
        rng = np.random.default_rng(23)
        for _ in range(30):
            k = int(rng.integers(2, 15))
            levels = np.sort(rng.uniform(0.2, 3.0, k))
            gap = float(rng.uniform(0.3, 1.0))
            levels[-1] = levels[-2] + gap
            c = float((math.log(k) + 1.5) / gap * rng.uniform(1.0, 3.0))
            times = np.sort(rng.uniform(0.0, 1.0, k))
            signs = rng.choice([-1, 1], size=k)
            signs[np.argmax(levels)] = 1
            nu = SignedAtomSequence.from_atoms(1.0, times, levels, signs)
            p = fn_functional(ZERO_PATH, nu, c)
            slack = math.log1p(k * math.exp(-c * gap)) / c + 1.0 / c
            assert abs(p.value_at(1.0) - np.max(levels)) <= slack

    def test_validation(self):
        nu = SignedAtomSequence(PointMeasure(1.0, [0.5], [1.0]), [1])
        with pytest.raises(ParameterError):
            fn_functional(ZERO_PATH, nu, 0.0)
        with pytest.raises(ParameterError):
            fn_functional(ZERO_PATH, nu, math.inf)


class TestCheckConditions:
    def test_bundled_mixed_all_pass(self):
        inst = bundled_instance("mixed-sign")
        report = check_conditions(inst, 2.0, gamma=0.425)
        for r in report.results:
            assert r.status == PASS, (r.name, r.detail)
        assert not report.has_fail

    def test_duplicate_times_fail(self):
        nu = PointMeasure(2.0, [0.5, 0.5, 1.2, 1.8], [1.0, 2.0, 1.5, 2.5])
        report = check_conditions(two_stage_instance(nu), 2.0, gamma=0.4)
        assert report.status_of("distinct-times") == FAIL

    def test_atom_at_zero_fails_support(self):
        nu = PointMeasure(2.0, [0.0, 0.6, 1.2, 1.8], [1.0, 2.0, 1.5, 2.5])
        report = check_conditions(two_stage_instance(nu), 2.0, gamma=0.4)
        assert report.status_of("support-charged") == FAIL

    def test_sparse_support_undecidable(self):
        report = check_conditions(bundled_instance("single-atom"), 2.0, gamma=0.75)
        assert report.status_of("support-charged") == UNDECIDABLE

    def test_level_collision_fails(self):
        # both atoms sit at record level 0.5 under the drop path
        nu = PointMeasure(2.0, [0.5, 1.0, 1.2, 1.8], [1.0, 1.5, 2.0, 2.4])
        report = check_conditions(two_stage_instance(nu), 2.0, gamma=0.4)
        assert report.status_of("level-separation") == FAIL

    def test_small_mark_negative_fails(self):
        nu = PointMeasure(2.0, [0.4, 1.5, 0.9, 1.9], [1.0, 0.2, 1.7, 2.6])
        report = check_conditions(two_stage_instance(nu), 2.0, gamma=0.3)
        assert report.status_of("level-separation") == FAIL

    def test_no_small_marks_undecidable(self):
        nu = PointMeasure(2.0, [0.4, 1.5, 0.9, 1.9], [1.0, 1.2, 1.7, 2.6])
        report = check_conditions(two_stage_instance(nu), 2.0, gamma=0.05)
        assert report.status_of("level-separation") == UNDECIDABLE

    def test_single_signed_skips_separation(self):
        nu = PointMeasure(2.0, [0.5, 1.0, 1.2, 1.8], [1.0, 1.5, 2.0, 2.4])
        report = check_conditions(two_stage_instance(nu, signs=(1, 1)), 2.0, gamma=0.4)
        assert report.status_of("level-separation") == PASS

    def test_record_starting_below_zero_fails(self):
        # the earliest atom sits at level -0.5 + 0.3 = -0.2 under the drop
        # path, so F_n tends to max(G, 0) rather than G
        nu = PointMeasure(2.0, [0.5, 1.0, 1.2, 1.8], [0.3, 1.5, 2.0, 2.4])
        report = check_conditions(two_stage_instance(nu, signs=(1, 1)), 2.0, gamma=0.4)
        assert report.status_of("level-separation") == FAIL
        assert ("level-separation", FAIL, "earliest record level -0.2 < 0") in report.rows()

    def test_count_growth_fail(self):
        base = bundled_instance("all-plus", ns=(10, 100))
        big = PointMeasure(
            2.0, np.linspace(0.01, 1.99, 400), np.full(400, 1.0) + np.arange(400) * 1e-4
        )
        crowded = SignedAtomSequence(big, np.ones(400, dtype=int))
        inst = dataclasses.replace(
            base, nu_seq=(base.nu_seq[0], crowded), c_seq=(10.0, 12.0)
        )
        report = check_conditions(inst, 2.0, gamma=0.4)
        assert report.status_of("count-growth") == FAIL

    def test_path_divergence_fail(self):
        base = bundled_instance("all-plus", ns=(10, 100))
        drift = drop_path(2.0, slope=3.0, extra=base.nu_limit.times)
        inst = dataclasses.replace(base, f_seq=(base.f_seq[0], drift))
        report = check_conditions(inst, 2.0, gamma=0.4)
        assert report.status_of("path-convergence") == FAIL

    def test_validation(self):
        inst = bundled_instance("all-plus")
        with pytest.raises(ParameterError):
            check_conditions(inst, 5.0, gamma=0.4)
        with pytest.raises(ParameterError):
            check_conditions(inst, 2.0, gamma=0.0)

    def test_report_interface(self):
        report = check_conditions(bundled_instance("all-plus"), 2.0, gamma=0.4)
        rows = report.rows()
        assert len(rows) == 6
        assert all(len(r) == 3 for r in rows)
        with pytest.raises(KeyError):
            report.status_of("missing")


class TestConvergenceDemo:
    def test_mixed_sign_decay(self):
        rows = convergence_demo(bundled_instance("mixed-sign"), 2.0)
        ds = [d for _, _, d in rows]
        assert all(b < a for a, b in zip(ds, ds[1:]))
        assert rows[-1][0] == 10_000 and ds[-1] <= 1e-3
        # the decay constant is stable: n * d_n settles near 0.95
        assert abs(rows[-1][0] * ds[-1] - 0.95) < 0.01

    def test_all_plus_bounded_by_count(self):
        inst = bundled_instance("all-plus")
        rows = convergence_demo(inst, 2.0)
        for n, c, d in rows:
            assert d <= math.log(inst.nu_limit.count) / c + 1e-12

    def test_single_atom_exact(self):
        rows = convergence_demo(bundled_instance("single-atom"), 2.0)
        assert all(d == 0.0 for _, _, d in rows)

    def test_prm_instance_runs(self):
        inst = bundled_instance("prm", ns=(50, 500), seed=4)
        report = check_conditions(inst, 2.0, gamma=0.11)
        assert report.status_of("distinct-times") == PASS
        rows = convergence_demo(inst, 2.0)
        assert rows[-1][2] <= rows[0][2] + 1e-12

    def test_refuses_on_fail(self):
        nu = PointMeasure(2.0, [0.4, 1.5, 0.9, 1.9], [1.0, 0.2, 1.7, 2.6])
        inst = two_stage_instance(nu)
        with pytest.raises(ConfigurationError):
            convergence_demo(inst, 2.0, gamma=0.3)


class TestInstanceConstruction:
    def test_names(self):
        assert set(instance_names()) == {"mixed-sign", "all-plus", "single-atom", "prm"}

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            bundled_instance("nope")

    def test_bad_stage_lists(self):
        with pytest.raises(ParameterError):
            bundled_instance("all-plus", ns=(100, 50))
        with pytest.raises(ParameterError):
            bundled_instance("all-plus", ns=())

    def test_instance_invariants(self):
        inst = bundled_instance("mixed-sign")
        assert inst.mixed_signs
        assert inst.stages == len(inst.ns)
        with pytest.raises(ParameterError):
            dataclasses.replace(inst, c_seq=inst.c_seq[:-1] + (1.0,))
        bad_f = StepPath(2.0, [1.0], [0.5, 0.5])
        with pytest.raises(ParameterError):
            dataclasses.replace(inst, f_limit=bad_f)
