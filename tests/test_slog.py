"""Tests for signed log-space arithmetic on (sign, logmag) arrays."""

import math

import numpy as np

from perpetuities.slog import (
    CANCEL_RTOL,
    sign_pools,
    signed_log_add_arrays,
    signed_log_diff,
)

# 1000 + log1p(exp(-10)), oracle evaluated at 50 decimal digits
SHIFTED_ADD_EXPECTED = 1000.0000453988992168646467694878293071055967815023


def split(xs):
    """(sign, logmag) arrays of the reals ``xs``; zero is (0, -inf)."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(divide="ignore"):
        return np.sign(xs).astype(np.int64), np.log(np.abs(xs))


def term(x):
    """(sign, logmag) of one real."""
    sign, mag = split([x])
    return sign.item(), mag.item()


def kernel_add(x, y):
    """(sign, logmag, cancelled) of x + y through ``signed_log_add_arrays``
    on length-1 arrays."""
    out = signed_log_add_arrays(*(np.array([v]) for v in (*x, *y)))
    return tuple(a.item() for a in out)


def total(signs, mags):
    """(sign, logmag, cancelled) of the whole sum: the two pool totals of
    ``sign_pools`` and one ``signed_log_diff``."""
    return tuple(a.item() for a in signed_log_diff(*sign_pools(signs, mags)))


class TestSignedLogValue:
    """The (sign, logmag) pair that every kernel takes and returns."""

    def test_zero_representation(self):
        # zero is (0, -inf), as a term and as the sum of no terms
        assert term(0.0) == (0, -np.inf)
        assert total(*split([0.0])) == (0, -np.inf, False)
        assert total(*split([])) == (0, -np.inf, False)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(0, 1, 200) * np.exp(rng.uniform(-30, 30, 200))
        signs, mags = split(xs)
        # a term alone in its pool comes back bit for bit from the combine
        sign, mag, cancelled = signed_log_diff(np.where(signs > 0, mags, -np.inf),
                                               np.where(signs < 0, mags, -np.inf))
        np.testing.assert_array_equal(sign, signs)
        np.testing.assert_array_equal(mag, mags)
        assert not cancelled.any()
        # exp(log x) amplifies the log's rounding by |log x|, so the bound
        # scales with the stored magnitude
        np.testing.assert_allclose(sign * np.exp(mag), xs, rtol=64 * np.finfo(float).eps)


class TestSlogAdd:
    def test_mixed_sign_small(self):
        sign, mag, _ = kernel_add(term(2.0), term(-1.0))
        assert sign == 1
        np.testing.assert_allclose(mag, 0.0, atol=1e-15)

    def test_zero_is_identity(self):
        for mag in [-5.0, 0.0, 1000.0, 1e6]:
            sign, out, _ = kernel_add((1, mag), term(0.0))
            assert sign == 1 and out == mag

    def test_huge_magnitudes(self):
        sign, mag, _ = kernel_add((1, 1000.0), (1, 990.0))
        assert sign == 1
        np.testing.assert_allclose(mag, SHIFTED_ADD_EXPECTED, rtol=1e-15)

    def test_commutative_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = (int(rng.choice([-1, 1])), float(rng.uniform(-50, 50)))
            y = (int(rng.choice([-1, 1])), float(rng.uniform(-50, 50)))
            assert kernel_add(x, y)[:2] == kernel_add(y, x)[:2]

    def test_associative_within_tolerance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            vals = rng.normal(0, 1, 3) * np.exp(rng.uniform(-5, 5, 3))
            x, y, z = (term(v) for v in vals)
            left = kernel_add(kernel_add(x, y)[:2], z)
            right = kernel_add(x, kernel_add(y, z)[:2])
            if left[2] or right[2]:
                continue
            assert left[0] == right[0]
            np.testing.assert_allclose(left[1], right[1], rtol=1e-12, atol=1e-12)

    def test_exact_cancellation(self):
        assert kernel_add((1, 7.5), (-1, 7.5)) == (0, -np.inf, True)

    def test_near_cancellation_flagged(self):
        assert kernel_add((1, 1e-13), (-1, 0.0))[2]
        assert not kernel_add((1, 1.0), (-1, 0.0))[2]

    def test_matches_float_in_range(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = rng.normal(0, 10, 2)
            sign, mag, cancelled = kernel_add(term(a), term(b))
            if cancelled:
                continue
            np.testing.assert_allclose(sign * math.exp(mag), a + b, rtol=1e-10, atol=1e-300)


class TestSlogSum:
    def test_empty(self):
        sign, mag, _ = total(np.array([]), np.array([]))
        assert sign == 0 and mag == -np.inf

    def test_two_units(self):
        sign, mag, _ = total(np.array([1, 1]), np.array([0.0, 0.0]))
        assert sign == 1
        np.testing.assert_allclose(mag, math.log(2.0), rtol=1e-15)

    def test_matches_naive_sum(self):
        rng = np.random.default_rng(17)
        signs = rng.choice([-1.0, 1.0], size=1000)
        mags = rng.uniform(-20, 20, size=1000)
        naive = float(np.sum(signs * np.exp(mags)))
        sign, mag, _ = total(signs, mags)
        np.testing.assert_allclose(sign * math.exp(mag), naive, rtol=1e-10)

    def test_order_insensitive(self):
        rng = np.random.default_rng(19)
        vals = rng.normal(0, 1, 50) * np.exp(rng.uniform(-10, 10, 50))
        signs, mags = split(vals)
        a = total(signs, mags)
        b = total(signs[::-1], mags[::-1])
        assert a[0] == b[0]
        np.testing.assert_allclose(a[1], b[1], rtol=1e-12)

    def test_far_beyond_float_range(self):
        sign, mag, _ = total(np.array([1, -1]), np.array([5000.0, 4990.0]))
        assert sign == 1
        np.testing.assert_allclose(mag, 5000.0 + math.log1p(-math.exp(-10.0)), rtol=1e-15)


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

    def test_signed_log_diff_non_finite_ties_flagged(self):
        # only two empty pools make a clean zero; an overflowed inf - inf
        # or a NaN pool must not pass as one
        pos = [np.inf, np.nan, np.nan, np.nan, -np.inf]
        neg = [np.inf, 1.0, -np.inf, np.nan, np.nan]
        sign, mag, cancelled = signed_log_diff(pos, neg)
        np.testing.assert_array_equal(sign, 0)
        np.testing.assert_array_equal(mag, -np.inf)
        assert cancelled.all()

    def test_signed_log_diff_exact_tie_flagged(self):
        sign, mag, cancelled = signed_log_diff([2.0], [2.0])
        assert sign[0] == 0 and cancelled[0]

    def test_cancel_rtol_exposed(self):
        assert CANCEL_RTOL == 1e-12
