"""Coefficient laws for the recursion X_k = M_k X_{k-1} + Q_k.

Each family pins the tail of log|Q| exactly (not just asymptotically), so
that downstream scaling checks are sharp:

- ``CauchyTail``:       P{log|Q| > x} = min(1, c/x);    log|M| = -a + N(0,1)
- ``RegVarTail``:       alpha < 1: P{log|Q| > x} = min(1, x^-alpha);
                        alpha = 1: P{log|Q| > x} = min(1, (1+log x)/x);
                        log|M| = -a + N(0,1)
- ``HeavyNegM``:        same log|Q| tail as RegVarTail(alpha); |M| <= 1 with
                        P{log^-|M| > x} = min(1, x^-beta), beta in (alpha, 1),
                        so E log^-|M| is infinite
- ``ConvergentControl``: P{log|Q| > x} = min(1, e^(1-x)); log|M| = -a + N(0,1)
- ``ExpandingControl``:  same Q; log|M| = +a + N(0,1)
- ``Degenerate``:        point masses M = m0, Q = q0

Signs of M and Q are independent of magnitudes, positive with probabilities
p_M and p_Q.  All sampling is by inverse transform from the exact tails, so
the empirical tail of log|Q| matches tail_Q identically in distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigurationError, ParameterError, UnsupportedFamilyError, whole_number

FAMILIES = (
    "CauchyTail",
    "RegVarTail",
    "HeavyNegM",
    "ConvergentControl",
    "ExpandingControl",
    "Degenerate",
)

_GAUSSIAN_DRIFT = ("CauchyTail", "RegVarTail", "ConvergentControl", "ExpandingControl")


def _check_prob(name, value):
    if not (0.0 <= value <= 1.0):
        raise ParameterError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class CoefficientLaw:
    """Joint law of one (M, Q) coefficient pair."""

    family: str
    a: float = 1.0
    c: float = 1.0
    alpha: float = 0.5
    beta: float = 0.75
    p_M: float = 1.0
    p_Q: float = 0.5
    m0: float = 0.5
    q0: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFamilyError(
                f"unknown family {self.family!r}; choose one of {FAMILIES}"
            )
        _check_prob("p_M", self.p_M)
        _check_prob("p_Q", self.p_Q)
        if self.family in _GAUSSIAN_DRIFT and not (self.a > 0 and np.isfinite(self.a)):
            raise ParameterError(f"a must be positive, got {self.a}")
        if self.family == "CauchyTail" and not (self.c > 0 and np.isfinite(self.c)):
            raise ParameterError(f"c must be positive, got {self.c}")
        if self.family in ("RegVarTail", "HeavyNegM") and not (0 < self.alpha <= 1):
            raise ParameterError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.family == "HeavyNegM" and not (self.alpha < self.beta < 1):
            raise ParameterError(
                f"beta must lie in (alpha, 1) = ({self.alpha}, 1), got {self.beta}"
            )
        if self.family == "Degenerate":
            if self.m0 == 0 or not np.isfinite(self.m0):
                raise ParameterError("degenerate M must be nonzero and finite")
            if self.q0 == 0 or not np.isfinite(self.q0):
                raise ParameterError("degenerate Q must be nonzero and finite")

    @property
    def x0(self) -> float:
        """Tail cutoff: P{log|Q| > x} = 1 exactly for x below this point."""
        if self.family == "CauchyTail":
            return self.c
        if self.family == "Degenerate":
            return math.log(abs(self.q0))
        return 1.0


def tail_Q(law: CoefficientLaw, x):
    """Exact P{log|Q| > x}; accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    if law.family == "CauchyTail":
        out = law.c / np.maximum(x, law.c)
    elif law.family in ("RegVarTail", "HeavyNegM"):
        z = np.maximum(x, 1.0)
        if law.family == "RegVarTail" and law.alpha == 1.0:
            out = (1.0 + np.log(z)) / z
        else:
            out = z ** (-law.alpha)
    elif law.family in ("ConvergentControl", "ExpandingControl"):
        out = np.exp(1.0 - np.maximum(x, 1.0))
    else:
        out = np.where(x < law.x0, 1.0, 0.0)
    return out if out.ndim else float(out)


def _slow_var_log(L: np.ndarray) -> np.ndarray:
    # root w >= 0 of w - log1p(w) = L.  Start from the series sqrt(2L) + 2L/3
    # at the branch point L = 0, where Lambert W loses every digit, and from
    # L + log1p(L + log1p(L)) above L = 1; four Newton steps on this convex
    # function reach the float root from either.  w = 0 (u = 1) stays fixed.
    w = np.where(L < 1.0, np.sqrt(2.0 * L) + 2.0 * L / 3.0, L + np.log1p(L + np.log1p(L)))
    for _ in range(4):
        w = w - (w - np.log1p(w) - L) * (1.0 + w) / np.where(w == 0.0, 1.0, w)
    return w


def _quantile_slow_var(u: np.ndarray) -> np.ndarray:
    # x with (1 + log x)/x = u is e^w at L = -log u
    return np.exp(_slow_var_log(-np.log(u)))


def quantile_log_q(law: CoefficientLaw, u):
    """Inverse of tail_Q: the x with tail_Q(x) = u, for u in (0, 1];
    ParameterError if x overflows the float range."""
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0) & (u <= 1)):
        raise ParameterError("tail probability must lie in (0, 1]")
    with np.errstate(over="ignore"):
        if law.family == "CauchyTail":
            out = law.c / u
        elif law.family in ("RegVarTail", "HeavyNegM"):
            if law.family == "RegVarTail" and law.alpha == 1.0:
                out = _quantile_slow_var(u)
            else:
                out = u ** (-1.0 / law.alpha)
        elif law.family in ("ConvergentControl", "ExpandingControl"):
            out = 1.0 - np.log(u)
        else:
            out = np.full(u.shape, law.x0)
    if not np.all(np.isfinite(out)):
        raise ParameterError(f"log|Q| of {law.family} overflows at u = {np.min(u):.3g}")
    return out if out.ndim else float(out)


def draw_log_mq(law: CoefficientLaw, rng, size: int):
    """Draw ``size`` i.i.d. coefficient pairs in sign/log-magnitude form.

    Returns (sign_m, log_abs_m, sign_q, log_abs_q) arrays.  The generator
    is consumed in a fixed order (M magnitudes, M signs, Q magnitudes,
    Q signs), which downstream replication streams rely on.
    """
    size = whole_number("size", size, low=0)
    if law.family == "Degenerate":
        sign_m = np.full(size, int(np.sign(law.m0)))
        log_m = np.full(size, math.log(abs(law.m0)))
        sign_q = np.full(size, int(np.sign(law.q0)))
        log_q = np.full(size, math.log(abs(law.q0)))
        return sign_m, log_m, sign_q, log_q
    if law.family == "HeavyNegM":
        log_m = -(1.0 - rng.random(size)) ** (-1.0 / law.beta)
    else:
        log_m = mean_log_m(law) + rng.standard_normal(size)
    sign_m = np.where(rng.random(size) < law.p_M, 1, -1)
    log_q = quantile_log_q(law, 1.0 - rng.random(size))
    sign_q = np.where(rng.random(size) < law.p_Q, 1, -1)
    return sign_m, log_m, sign_q, log_q


def mean_log_m(law: CoefficientLaw) -> float:
    """E log|M|, exact."""
    if law.family == "HeavyNegM":
        return -np.inf
    if law.family == "ExpandingControl":
        return law.a
    if law.family == "Degenerate":
        return math.log(abs(law.m0))
    return -law.a


def _h(t):
    # antiderivative of the standard normal CDF: h'(t) = ndtr(t); the
    # second term is the normal density
    from scipy.special import ndtr

    return t * ndtr(t) + np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def compute_A(law: CoefficientLaw, x):
    """A(x) = E min(log^-|M|, x), the truncated mean of the contraction
    part; equals the integral of P{log^-|M| > u} over [0, x]."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ParameterError("truncation point must be positive")
    if law.family == "HeavyNegM":
        b = law.beta
        out = np.where(x <= 1.0, x, 1.0 + (np.maximum(x, 1.0) ** (1.0 - b) - 1.0) / (1.0 - b))
    elif law.family == "Degenerate":
        level = max(-math.log(abs(law.m0)), 0.0)
        out = np.minimum(x, level)
    else:
        mu = mean_log_m(law)
        out = _h(-mu) - _h(-mu - x)
    return out if out.ndim else float(out)


def compute_bn(law: CoefficientLaw, n: int) -> float:
    """The scaling point b with n * P{log|Q| > b} = 1, the log|Q| quantile
    at 1/n; ParameterError if b overflows the float range."""
    if law.family not in ("RegVarTail", "HeavyNegM"):
        raise UnsupportedFamilyError(
            f"{law.family} has no regularly varying log|Q| tail"
        )
    return quantile_log_q(law, 1.0 / whole_number("n", n))


def _log_q_density_logscale(law: CoefficientLaw, w):
    # x^2 * density of log|Q| at x = e^w, used under the substitution
    # x = e^w so that integrands stay bounded over huge ranges
    x = np.exp(w)
    if law.family == "CauchyTail":
        return law.c * np.ones_like(x)
    if law.family in ("RegVarTail", "HeavyNegM"):
        if law.family == "RegVarTail" and law.alpha == 1.0:
            return np.log(x)
        return law.alpha * x ** (1.0 - law.alpha)
    if law.family in ("ConvergentControl", "ExpandingControl"):
        return x * x * np.exp(1.0 - x)
    raise UnsupportedFamilyError("point-mass law has no density")


def stability_integral_truncated(law: CoefficientLaw, level: float) -> float:
    """E[ log|Q| / A(log|Q|) ; 0 < log|Q| <= level ], by quadrature.

    The full integral (level = infinity) is finite exactly when the
    perpetuity converges, given a contractive M.
    """
    if not level > 0:
        raise ParameterError("truncation level must be positive")
    if law.family == "Degenerate":
        v = math.log(abs(law.q0))
        if v <= 0 or v > level:
            return 0.0
        return v / compute_A(law, v)
    w0 = math.log(law.x0)
    w1 = math.log(level)
    if w1 <= w0:
        return 0.0

    def integrand(w):
        return _log_q_density_logscale(law, w) / compute_A(law, math.exp(w))

    from scipy.integrate import quad

    val, _ = quad(integrand, w0, w1, epsrel=1e-8, limit=200)
    return float(val)


# evidence behind classify_regime: Monte Carlo draws of log|M|, the
# geometric ladder e^1 .. e^21 of log|Q| truncation levels, and the growth
# ratio of the truncated integrals above which it is called divergent
MC_SAMPLES = 10_000
TRUNCATION_LEVELS = tuple(math.exp(k) for k in range(1, 22))
RATIO_THRESHOLD = 10.0


@dataclass(frozen=True)
class Regime:
    """Classification verdict with the evidence it rests on."""

    tag: str
    mean_log_m: float
    mean_log_m_mc: float
    truncation_levels: tuple = field(default_factory=tuple)
    integral_estimates: tuple = field(default_factory=tuple)
    growth_ratio: float = float("nan")
    ratio_threshold: float = RATIO_THRESHOLD


def classify_regime(law: CoefficientLaw, rng=None) -> Regime:
    """Decide among NonContractive / DivergentContractive / ConvergentPerpetuity.

    Contractivity comes from the exact E log|M| (Monte Carlo shown as
    evidence only).  Divergence of the control integral is detected by
    growth of its truncated values across the level ladder: divergent
    integrals keep growing, convergent ones level off.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    drift = mean_log_m(law)
    _, log_m, _, _ = draw_log_mq(law, rng, MC_SAMPLES)
    drift_mc = float(np.mean(log_m))
    if drift >= 0:
        return Regime("NonContractive", drift, drift_mc, TRUNCATION_LEVELS, ())
    estimates = [stability_integral_truncated(law, lev) for lev in TRUNCATION_LEVELS]
    first = next((e for e in estimates if e > 0), 0.0)
    ratio = estimates[-1] / first if first > 0 else 1.0
    tag = "DivergentContractive" if ratio > RATIO_THRESHOLD else "ConvergentPerpetuity"
    return Regime(tag, drift, drift_mc, TRUNCATION_LEVELS, tuple(estimates), ratio)


# ---------------------------------------------------------------------------
# presets and config schema

_PRESETS = {
    "cauchy": dict(family="CauchyTail", a=1.0, c=1.0),
    "regvar": dict(family="RegVarTail", alpha=0.5, a=1.0),
    "regvar1": dict(family="RegVarTail", alpha=1.0, a=1.0),
    "heavynegm": dict(family="HeavyNegM", alpha=0.5, beta=0.75),
    "convergent": dict(family="ConvergentControl", a=1.0),
    "expanding": dict(family="ExpandingControl", a=1.0),
    "degenerate": dict(family="Degenerate", m0=0.5, q0=1.0),
}

PRESET_NAMES = tuple(_PRESETS)


def preset_law(name: str, **overrides) -> CoefficientLaw:
    """Bundled law by short name; keyword overrides replace preset fields."""
    if name not in _PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; choose one of {PRESET_NAMES}"
        )
    params = dict(_PRESETS[name])
    params.update({k: v for k, v in overrides.items() if v is not None})
    return CoefficientLaw(**params)


def law_to_dict(law: CoefficientLaw) -> dict:
    return {f.name: getattr(law, f.name) for f in fields(law)}


def law_from_dict(d: dict) -> CoefficientLaw:
    known = {f.name for f in fields(CoefficientLaw)}
    unknown = set(d) - known
    if unknown:
        raise ConfigurationError(f"unknown law fields: {sorted(unknown)}")
    if "family" not in d:
        raise ConfigurationError("law config requires a 'family' key")
    return CoefficientLaw(**d)
