"""Statistical harness tying the simulators to their limit laws.

The checks are Kolmogorov-Smirnov distances between scaled simulation
output and either a closed-form distribution or a sample from the limit
process itself. Each check judges D by its own fixed gate; reports carry
D next to that gate, so a caller can re-judge with a different tolerance
without rerunning.
"""

from __future__ import annotations

import dataclasses
import math
import struct
import types

import numpy as np

from .errors import ConfigurationError, ParameterError, StatisticalError, whole_number
from .laws import CoefficientLaw, compute_bn
from .limits import (
    LimitKind,
    PrmSpec,
    drift_marginal_cdf,
    limit_marginal_values,
    peak_marginal_cdf,
)
# unused here, kept importable for the hook of bench/tracing.py
from .limits import sample_prm  # noqa: F401
from .simulate import (
    backward_marginal_values,
    backward_sup_values,
    batch_columns,
    forward_marginal_values,
    forward_sup_values,
    pakes_values,
)


@dataclasses.dataclass(frozen=True)
class TagRule:
    """How one marginal tag is checked.

    ``families`` are the laws whose scaled marginals the tag's limit
    describes, and ``preset`` is the law the CLI uses when none is given.
    ``chain`` names the simulated chain, or is None for the Pakes decayed
    sums, which have no time parameter and no path-functional form. The
    regime follows from ``kind``: BACKWARD and FORWARD limits are the
    drift regime (scale ``a n``, mark tail ``(c/a) x^-1``, drift CDF),
    PEAK is the peak regime (scale ``b_n``, mark tail ``x^-alpha``, peak
    CDF).
    """

    tag: str
    families: tuple
    kind: LimitKind
    chain: str | None
    preset: str

    @property
    def drift(self) -> bool:
        return self.kind is not LimitKind.PEAK

    def check_family(self, law: CoefficientLaw) -> None:
        if law.family not in self.families:
            raise ConfigurationError(
                f"{self.tag} applies to families {self.families}, got {law.family}"
            )

    def scale(self, law: CoefficientLaw, n: int) -> float:
        return law.a * n if self.drift else compute_bn(law, n)

    def limit_spec(self, law: CoefficientLaw, T: float, seed) -> PrmSpec:
        c, alpha = (law.c / law.a, 1.0) if self.drift else (1.0, law.alpha)
        return PrmSpec(c=c, alpha=alpha, T=T, gamma=DEFAULT_LIMIT_GAMMA, seed=seed)

    def limit_cdf(self, law: CoefficientLaw, u: float):
        # finite-n samples can land below the limit support, where the
        # distribution function is zero; the core evaluators stay strict
        def extended(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape)
            mask = x >= 0.0 if self.drift else x > 0.0
            if np.any(mask):
                out[mask] = (
                    drift_marginal_cdf(x[mask], u, law.c, law.a)
                    if self.drift
                    else peak_marginal_cdf(x[mask], u, law.alpha)
                )
            return out

        return extended


TAG_RULES = types.MappingProxyType({
    r.tag: r
    for r in (
        TagRule("Thm11-backward", ("CauchyTail",), LimitKind.BACKWARD, "backward", "cauchy"),
        TagRule("Thm11-forward", ("CauchyTail",), LimitKind.FORWARD, "forward", "cauchy"),
        TagRule("Thm15-backward", ("RegVarTail", "HeavyNegM"), LimitKind.PEAK, "backward", "regvar"),
        TagRule("Thm15-forward", ("RegVarTail", "HeavyNegM"), LimitKind.PEAK, "forward", "regvar"),
        TagRule("Pakes114", ("CauchyTail",), LimitKind.BACKWARD, None, "cauchy"),
        TagRule("Pakes119", ("RegVarTail",), LimitKind.PEAK, None, "regvar"),
    )
})
MARGINAL_TAGS = tuple(TAG_RULES)
REPORT_TAGS = MARGINAL_TAGS + ("ForwardBackwardEquality", "FunctionalSup")

# mark level below which the sampled limit measure is truncated; the
# induced CDF error is about (gamma/u)^(c/a), far below KS noise here
DEFAULT_LIMIT_GAMMA = 0.005

# significance level of the asymptotic one-sample critical value
DEFAULT_KS_LEVEL = 0.05
# absolute bound on the one-sample KS distance D in verify_marginal
DEFAULT_D_BOUND = 0.05
DEFAULT_TWO_SAMPLE_LEVEL = 0.01

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def canonical_tag(text) -> str:
    """Map loosely cased or underscored tag spellings to the fixed form."""
    key = str(text).strip().lower().replace("_", "").replace("-", "")
    table = {t.lower().replace("-", ""): t for t in REPORT_TAGS}
    if key not in table:
        known = ", ".join(REPORT_TAGS)
        raise ConfigurationError(f"unknown verification tag {text!r}; known: {known}")
    return table[key]


def _as_sample_array(samples, name):
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ParameterError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must be finite")
    return arr


def ks_statistic(samples, cdf) -> float:
    """sup-distance between the sample ECDF and ``cdf``.

    Both one-sided gaps are evaluated at every sample point, so the
    supremum is exact for a nondecreasing ``cdf``.
    """
    arr = np.sort(_as_sample_array(samples, "samples"))
    probs = np.asarray(cdf(arr), dtype=float).ravel()
    if probs.shape != arr.shape:
        raise ParameterError("cdf must return one probability per sample")
    if not np.all((probs >= -1e-12) & (probs <= 1.0 + 1e-12)):
        raise ParameterError("cdf must map into [0, 1]")
    if np.any(np.diff(probs) < -1e-12):
        raise ParameterError("cdf must be nondecreasing")
    r = arr.size
    upper = np.max(np.arange(1, r + 1) / r - probs)
    lower = np.max(probs - np.arange(0, r) / r)
    return float(min(max(upper, lower, 0.0), 1.0))


def two_sample_ks(first, second) -> float:
    """sup-distance between two sample ECDFs, exact at pooled points."""
    a = np.sort(_as_sample_array(first, "first sample"))
    b = np.sort(_as_sample_array(second, "second sample"))
    grid = np.union1d(a, b)
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def _kolmogorov_tails(x: float):
    """(P(K > x), P(K <= x)) of the Kolmogorov distribution, for x > 0.

    From x = 1 up, the alternating series 2 sum (-1)^(k-1) e^(-2 k^2 x^2)
    gives the upper tail; below it, the Jacobi form
    sqrt(2 pi)/x sum e^(-(2k-1)^2 pi^2 / (8 x^2)) gives the lower one.
    Each side keeps its relative precision where it is small.  Six terms
    of the series and four of the Jacobi form reach double precision on
    their ranges.
    """
    if x < 1.0:
        a = math.pi / x
        a = a * a / 8.0
        # u + u^9 + u^25 + u^49 at u = e^-a, as u (1 + w (1 + w^2 (1 + w^3)))
        # with w = u^8
        w = math.exp(-8.0 * a)
        lower = _SQRT_2PI / x * math.exp(-a) * (1.0 + w * (1.0 + w * w * (1.0 + w * w * w)))
        return 1.0 - lower, lower
    v = math.exp(-2.0 * x * x)
    # v - v^4 + v^9 - ... = v (1 - v^3 (1 - v^5 (1 - ...)))
    upper = 0.0
    for k in range(6, 0, -1):
        upper = v ** (2 * k - 1) * (1.0 - upper)
    return 2.0 * upper, 1.0 - 2.0 * upper


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(b: int) -> float:
    return struct.unpack("<d", struct.pack("<q", b))[0]


def _kolmogi(level: float) -> float:
    """The least float x with P(K > x) <= level, for level in (0, 1).

    Bisection over the bit patterns of the floats in [0.04, 40], which
    order like the floats: P(K > x) rounds to 1 below the bracket and to
    0 above it.  Levels above 1/2 compare P(K <= x) with 1 - level
    (exact there), so a level near 1 keeps its digits.
    """
    low_side = level > 0.5
    target = 1.0 - level if low_side else level
    lo, hi = _float_bits(0.04), _float_bits(40.0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        upper, lower = _kolmogorov_tails(_bits_float(mid))
        if (lower >= target) if low_side else (upper <= target):
            hi = mid
        else:
            lo = mid
    return _bits_float(hi)


def ks_threshold(reps: int, level: float = DEFAULT_KS_LEVEL) -> float:
    """Asymptotic one-sample critical value at the given level."""
    reps = whole_number("replication count", reps)
    if not 0.0 < level < 1.0:
        raise ParameterError(f"level must lie in (0, 1), got {level}")
    return _kolmogi(level) / math.sqrt(reps)


def two_sample_threshold(
    n_first: int, n_second: int, level: float = DEFAULT_TWO_SAMPLE_LEVEL
) -> float:
    """Two-sample critical value: c(level) * sqrt((n + m) / (n m))."""
    n_first = whole_number("first sample size", n_first)
    n_second = whole_number("second sample size", n_second)
    if not 0.0 < level < 1.0:
        raise ParameterError(f"level must lie in (0, 1), got {level}")
    ratio = (n_first + n_second) / (n_first * n_second)
    return _kolmogi(level) * math.sqrt(ratio)


# report columns in file order with their types; "pass" is D <= threshold
REPORT_COLUMNS = (("tag", str), ("n", int), ("R", int), ("u", float), ("D", float),
                  ("threshold", float), ("pass", bool), ("degenerate", int),
                  ("seed", int), ("detail", str))


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """One completed distribution check, threshold included."""

    tag: str
    n: int
    R: int
    u: float
    D: float
    threshold: float
    degenerate: int
    seed: int
    detail: str = ""

    def __post_init__(self):
        if self.tag not in REPORT_TAGS:
            raise ParameterError(f"unknown report tag {self.tag!r}")
        if not (0.0 <= self.D <= 1.0):
            raise ParameterError(f"KS statistic must lie in [0, 1], got {self.D}")
        if not (np.isfinite(self.threshold) and self.threshold > 0):
            raise ParameterError(f"threshold must be positive, got {self.threshold}")
        if not (math.isfinite(self.u) and self.u > 0):
            raise ParameterError(f"u must be finite and positive, got {self.u}")
        whole_number("n", self.n)
        whole_number("R", self.R)
        whole_number("degenerate count", self.degenerate, low=0)
        whole_number("seed", self.seed, low=0)

    @property
    def passed(self) -> bool:
        return self.D <= self.threshold

    def to_dict(self) -> dict:
        return {
            key: kind(self.passed if key == "pass" else getattr(self, key))
            for key, kind in REPORT_COLUMNS
        }


def _screen_degenerate(tag, values, flags, R):
    good = flags == 0
    degenerate = int(R - int(np.sum(good)))
    if degenerate == R:
        raise StatisticalError(
            f"all {R} replications degenerate for {tag}; nothing to test"
        )
    return values[good], degenerate


def verify_marginal(
    tag,
    law: CoefficientLaw,
    n: int,
    u: float,
    R: int,
    seed: int,
) -> VerificationReport:
    """One-sample KS check of a scaled time-u marginal against its limit law.

    The sample is the corresponding chain (or decayed sum) at index
    [nu]+1, scaled by ``a n`` in the drift regime and ``b_n`` in the peak
    regime; degenerate replications are dropped before the test.  The
    check passes when D is at most the absolute bound ``DEFAULT_D_BOUND``.
    """
    rule = _rule(tag, law)
    n, R = whole_number("n", n), whole_number("R", R, low=100)
    if rule.chain is None and u != 1.0:
        raise ConfigurationError(
            f"{rule.tag} checks the n-th indexed sum; its limit has no time "
            f"parameter, so u must be 1, got {u}"
        )
    if rule.chain == "backward":
        sample = backward_marginal_values(law, n, u, R, seed)
    elif rule.chain == "forward":
        sample = forward_marginal_values(law, n, u, R, seed)
    else:
        sample = pakes_values(law, n, R, seed)
    return _marginal_report(rule, law, n, u, R, seed, *sample)


def _rule(tag, law, sup=False):
    """The rule of ``tag``, whose limit must cover the law's family: a
    marginal tag, or with ``sup`` a ``FunctionalSup`` variant (a chain
    tag); otherwise a ConfigurationError."""
    tag = canonical_tag(tag)
    rule = TAG_RULES.get(tag)
    if rule is None or (sup and rule.chain is None):
        raise ConfigurationError(f"{tag} has no path-functional form" if sup
                                 else f"{tag} is not a marginal verification tag")
    rule.check_family(law)
    return rule


def _marginal_report(rule, law, n, u, R, seed, values, flags):
    """The report of ``verify_marginal`` on its drawn sample."""
    samples, degenerate = _screen_degenerate(rule.tag, values / rule.scale(law, n), flags, R)
    D = ks_statistic(samples, rule.limit_cdf(law, u))
    return VerificationReport(
        tag=rule.tag,
        n=n,
        R=R,
        u=u,
        D=D,
        threshold=DEFAULT_D_BOUND,
        degenerate=degenerate,
        seed=int(seed),
        detail=f"source=simulation family={law.family}",
    )


def verify_forward_backward_equality(
    law: CoefficientLaw,
    n: int,
    u: float,
    R: int,
    seed: int,
) -> VerificationReport:
    """Two-sample KS check that both chains share one fixed-n marginal.

    The forward chain starts at zero, the only start at which the two
    agree in law. The two sides use disjoint replication streams;
    equal streams would make the check vacuously tight. The check passes
    when D is at most the 1% two-sample critical value of the kept
    sample sizes.
    """
    n, R = whole_number("n", n), whole_number("R", R, low=100)
    forward = forward_marginal_values(law, n, u, R, seed)
    return _equality_report(law, n, u, R, seed, *forward)


def _equality_report(law, n, u, R, seed, fwd, fwd_flags):
    """The report of ``verify_forward_backward_equality`` on its drawn
    forward side (streams 0..R-1); the backward side uses R..2R-1."""
    bwd, bwd_flags = backward_marginal_values(law, n, u, R, seed, rep_start=R)
    fwd_good, fwd_bad = _screen_degenerate("forward side", fwd, fwd_flags, R)
    bwd_good, bwd_bad = _screen_degenerate("backward side", bwd, bwd_flags, R)
    # The two kernels sum the same terms in different orders, so equal
    # values can differ in their last bits: for a point-mass law every
    # backward value sits 1e-16 (n = 20) to 5e-14 (n = 1000) below every
    # forward one, and the test would see two disjoint atoms, D = 1.
    # Rounding log-magnitudes to 1e-9 (|X| to relative 1e-9) ties them.
    # Rounding is monotone and KS reads ranks alone, so it only merges
    # values that agree far below the 1/R a sample resolves.
    D = two_sample_ks(np.round(fwd_good, 9), np.round(bwd_good, 9))
    return VerificationReport(
        tag="ForwardBackwardEquality",
        n=n,
        R=R,
        u=u,
        D=D,
        threshold=two_sample_threshold(fwd_good.size, bwd_good.size),
        degenerate=fwd_bad + bwd_bad,
        seed=int(seed),
        detail=f"family={law.family}",
    )


def verify_functional_sup(
    tag,
    law: CoefficientLaw,
    n: int,
    T: float,
    R: int,
    seed: int,
) -> VerificationReport:
    """Two-sample KS check of path suprema over [0, T].

    One sample is the sup of the scaled simulated path per replication;
    the other is the sup over [0, T] of an independently sampled limit
    path (replication streams R..2R-1), read as the endpoint value for
    the backward and peak kinds and as the largest mark up to T for the
    forward kind. The check passes when D is at most the 1% two-sample
    critical value of the kept sample sizes.
    """
    rule = _rule(tag, law, sup=True)
    n, R = whole_number("n", n), whole_number("R", R, low=100)
    return _sup_report(rule, law, n, T, R, seed, *_sup_values(rule, law, n, T, R, seed))


def _sup_values(rule, law, n, T, R, seed):
    # each sampler is read as a module global, the name the bench/tracing.py hooks wrap
    sampler = backward_sup_values if rule.chain == "backward" else forward_sup_values
    return sampler(law, n, T, R, seed)


def _sup_report(rule, law, n, T, R, seed, values, flags):
    """The report of ``verify_functional_sup`` on its drawn sample."""
    sim_good, degenerate = _screen_degenerate(rule.tag, values / rule.scale(law, n), flags, R)
    # the backward and peak paths never decrease; the forward path's sup is its largest mark
    kind = LimitKind.PEAK if rule.kind is LimitKind.FORWARD else rule.kind
    lim = limit_marginal_values(kind, rule.limit_spec(law, T, seed), R, rep_start=R)
    D = two_sample_ks(sim_good, lim)
    return VerificationReport(
        tag="FunctionalSup",
        n=n,
        R=R,
        u=T,
        D=D,
        threshold=two_sample_threshold(sim_good.size, lim.size),
        degenerate=degenerate,
        seed=int(seed),
        detail=f"variant={rule.tag} family={law.family}",
    )


def verify_suite(
    law: CoefficientLaw,
    n: int,
    u: float,
    T: float,
    R: int,
    seed: int,
    variant=None,
) -> list:
    """The full suite for the law's family: each compatible marginal tag (a
    chainless sum only at u = 1), ``ForwardBackwardEquality``, and
    ``FunctionalSup`` over [0, T] when a ``variant`` is given.  A variant
    that is not a chain tag of the law's family raises ConfigurationError
    before anything is drawn.

    Replications 0..R-1 are drawn once, at [nu]+1 iterates, and each check
    reads its sample off that draw (``batch_columns``).  The equality
    check's backward side (streams R..2R-1) and a sup at T != u draw their
    own batches, as when their checks run alone.
    """
    n, R = whole_number("n", n), whole_number("R", R, low=100)
    sup_rule = None if variant is None else _rule(variant, law, sup=True)
    rules = [r for r in (TAG_RULES[t] for t in compatible_tags(law)) if r.chain or u == 1.0]
    pakes = any(rule.chain is None for rule in rules)
    columns = batch_columns(law, n, u, R, seed, ("backward", "forward"), pakes)
    reports = [_marginal_report(rule, law, n, u, R, seed, *columns[rule.chain, "marginal"])
               for rule in rules]
    reports.append(_equality_report(law, n, u, R, seed, *columns["forward", "marginal"]))
    if sup_rule is not None:
        sup = (columns[sup_rule.chain, "sup"] if T == u
               else _sup_values(sup_rule, law, n, T, R, seed))
        reports.append(_sup_report(sup_rule, law, n, T, R, seed, *sup))
    return reports


def compatible_tags(law: CoefficientLaw):
    """Marginal tags whose limit law covers this family."""
    return tuple(t for t, rule in TAG_RULES.items() if law.family in rule.families)
