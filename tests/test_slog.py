"""Tests for signed log-space arithmetic."""

import math

import numpy as np
import pytest

from perpetuities.errors import ParameterError
from perpetuities.slog import (
    CANCEL_RTOL,
    SignedLogValue,
    signed_log_add_arrays,
    signed_log_diff,
    slog_sum,
)

# 1000 + log1p(exp(-10)), oracle evaluated at 50 decimal digits
SHIFTED_ADD_EXPECTED = 1000.0000453988992168646467694878293071055967815023


def sv(x):
    return SignedLogValue.from_real(x)


def kernel_add(x, y):
    """x + y through ``signed_log_add_arrays`` on length-1 arrays."""
    out = signed_log_add_arrays(*(np.array([v]) for v in (x.sign, x.logmag, y.sign, y.logmag)))
    return SignedLogValue(*(a.item() for a in out))


class TestSignedLogValue:
    def test_zero_representation(self):
        z = sv(0.0)
        assert z.sign == 0
        assert z.logmag == -np.inf

    def test_invalid_states_rejected(self):
        with pytest.raises(ParameterError):
            SignedLogValue(2, 0.0)
        with pytest.raises(ParameterError):
            SignedLogValue(0, 1.0)
        with pytest.raises(ParameterError):
            SignedLogValue(1, -np.inf)
        with pytest.raises(ParameterError):
            SignedLogValue(1, np.nan)

    def test_rejects_infinite_magnitude(self):
        # +inf would let slog_sum return an exact 0 for inf - inf
        with pytest.raises(ParameterError):
            SignedLogValue(-1, np.inf)
        with pytest.raises(ParameterError):
            SignedLogValue.from_real(np.inf)
        with pytest.raises(ParameterError):
            SignedLogValue.from_real(-np.inf)

    def test_round_trip(self):
        # exp(log x) amplifies the log's rounding by |log x|, so the bound
        # scales with the stored magnitude
        rng = np.random.default_rng(2)
        xs = rng.normal(0, 1, 200) * np.exp(rng.uniform(-30, 30, 200))
        for x in xs:
            np.testing.assert_allclose(sv(x).to_real(), x, rtol=64 * np.finfo(float).eps)


class TestSlogAdd:
    def test_mixed_sign_small(self):
        out = kernel_add(sv(2.0), sv(-1.0))
        assert out.sign == 1
        np.testing.assert_allclose(out.logmag, 0.0, atol=1e-15)

    def test_zero_is_identity(self):
        for mag in [-5.0, 0.0, 1000.0, 1e6]:
            x = SignedLogValue(1, mag)
            out = kernel_add(x, sv(0.0))
            assert out.sign == 1 and out.logmag == mag

    def test_huge_magnitudes(self):
        out = kernel_add(SignedLogValue(1, 1000.0), SignedLogValue(1, 990.0))
        assert out.sign == 1
        np.testing.assert_allclose(out.logmag, SHIFTED_ADD_EXPECTED, rtol=1e-15)

    def test_commutative_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = SignedLogValue(int(rng.choice([-1, 1])), float(rng.uniform(-50, 50)))
            y = SignedLogValue(int(rng.choice([-1, 1])), float(rng.uniform(-50, 50)))
            a, b = kernel_add(x, y), kernel_add(y, x)
            assert a.sign == b.sign and a.logmag == b.logmag

    def test_associative_within_tolerance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            vals = rng.normal(0, 1, 3) * np.exp(rng.uniform(-5, 5, 3))
            x, y, z = (sv(v) for v in vals)
            left = kernel_add(kernel_add(x, y), z)
            right = kernel_add(x, kernel_add(y, z))
            if left.cancelled or right.cancelled:
                continue
            assert left.sign == right.sign
            np.testing.assert_allclose(left.logmag, right.logmag, rtol=1e-12, atol=1e-12)

    def test_exact_cancellation(self):
        out = kernel_add(SignedLogValue(1, 7.5), SignedLogValue(-1, 7.5))
        assert out.sign == 0
        assert out.logmag == -np.inf
        assert out.cancelled

    def test_near_cancellation_flagged(self):
        out = kernel_add(SignedLogValue(1, 1e-13), SignedLogValue(-1, 0.0))
        assert out.cancelled
        clean = kernel_add(SignedLogValue(1, 1.0), SignedLogValue(-1, 0.0))
        assert not clean.cancelled

    def test_matches_float_in_range(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = rng.normal(0, 10, 2)
            out = kernel_add(sv(a), sv(b))
            if out.cancelled:
                continue
            np.testing.assert_allclose(out.to_real(), a + b, rtol=1e-10, atol=1e-300)


class TestSlogSum:
    def test_empty(self):
        out = slog_sum([])
        assert out.sign == 0 and out.logmag == -np.inf

    def test_two_units(self):
        out = slog_sum([SignedLogValue(1, 0.0), SignedLogValue(1, 0.0)])
        assert out.sign == 1
        np.testing.assert_allclose(out.logmag, math.log(2.0), rtol=1e-15)

    def test_matches_naive_sum(self):
        rng = np.random.default_rng(17)
        signs = rng.choice([-1.0, 1.0], size=1000)
        mags = rng.uniform(-20, 20, size=1000)
        terms = [SignedLogValue(int(s), float(m)) for s, m in zip(signs, mags)]
        naive = float(np.sum(signs * np.exp(mags)))
        out = slog_sum(terms)
        np.testing.assert_allclose(out.to_real(), naive, rtol=1e-10)

    def test_order_insensitive(self):
        rng = np.random.default_rng(19)
        vals = rng.normal(0, 1, 50) * np.exp(rng.uniform(-10, 10, 50))
        terms = [sv(v) for v in vals]
        a = slog_sum(terms)
        b = slog_sum(terms[::-1])
        assert a.sign == b.sign
        np.testing.assert_allclose(a.logmag, b.logmag, rtol=1e-12)

    def test_far_beyond_float_range(self):
        terms = [SignedLogValue(1, 5000.0), SignedLogValue(-1, 4990.0)]
        out = slog_sum(terms)
        assert out.sign == 1
        np.testing.assert_allclose(out.logmag, 5000.0 + math.log1p(-math.exp(-10.0)), rtol=1e-15)


class TestArrayKernels:
    def test_signed_log_diff_matches_scalar(self):
        rng = np.random.default_rng(29)
        pos = rng.uniform(-30, 30, 500)
        neg = rng.uniform(-30, 30, 500)
        sign, mag, cancelled = signed_log_diff(pos, neg)
        for i in range(500):
            expect = np.exp(pos[i]) - np.exp(neg[i])
            if cancelled[i]:
                continue
            np.testing.assert_allclose(float(sign[i]) * np.exp(mag[i]), expect, rtol=1e-10)

    def test_signed_log_diff_empty_pools(self):
        sign, mag, cancelled = signed_log_diff([-np.inf, 0.0], [-np.inf, -np.inf])
        assert sign[0] == 0 and mag[0] == -np.inf and not cancelled[0]
        assert sign[1] == 1 and mag[1] == 0.0

    def test_signed_log_diff_exact_tie_flagged(self):
        sign, mag, cancelled = signed_log_diff([2.0], [2.0])
        assert sign[0] == 0 and cancelled[0]

    def test_cancel_rtol_exposed(self):
        assert CANCEL_RTOL == 1e-12
