"""Limit processes of the scaled log-magnitude paths.

The rescaled paths converge to extremal functionals of a Poisson random
measure on ``[0, T] x (0, inf]`` whose mean measure is Lebesgue in time
with mark tail ``c x^{-alpha}``.  Truncating marks at a level ``gamma``
keeps finitely many atoms while leaving every sup-type statistic above
``gamma`` untouched, so the truncated measure is what gets sampled.

This module draws the truncated measure, builds the limit paths, samples
their values at the horizon T in batch, and evaluates the closed-form
marginal distributions.  A value at an interior time u is
``extremal_path(sample_prm(spec, r), kind).value_at(u)``.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, whole_number
from .paths import PointMeasure, StepPath, _collapse_running
from .simulate import _map_replications, replication_rng

DEFAULT_GRID_CELLS = 10_000
# largest forward-path grid accepted; keeps each path's arrays within a
# few hundred MB, against 10**4 cells by default
MAX_GRID_CELLS = 10**7
# largest mean atom count of one draw accepted, so the arrays of a draw
# stay small; the package itself uses at most about 250 (gamma = 0.004
# at c = 1), and a verify sup side at c/a = 1 uses 200
MAX_MEAN_COUNT = 10**6


class LimitKind(enum.Enum):
    """Extremal functional applied to the limiting point measure.

    BACKWARD: running sup of ``-t_k + j_k``; 0 before the first atom.
      Limit of the scaled perpetuity path under contractive drift.
    FORWARD: ``-t`` plus the running sup of ``t_k + j_k``; equals ``-t``
      before the first atom.  Limit of the scaled forward chain.
    PEAK: running sup of the marks ``j_k`` alone; 0 before the first
      atom.  Limit of either chain when the additive tail dominates.
    """

    BACKWARD = "backward"
    FORWARD = "forward"
    PEAK = "peak"


@dataclass(frozen=True)
class PrmSpec:
    """Truncated Poisson random measure on ``[0, T] x (gamma, inf)``.

    The atom count is Poisson with mean ``T * c * gamma**-alpha``, atom
    times are i.i.d. uniform on ``[0, T]``, and marks are i.i.d. Pareto:
    ``P{V <= x} = 1 - (gamma / x)**alpha`` for ``x >= gamma``.
    """

    c: float
    alpha: float
    T: float
    gamma: float
    seed: int = 0

    def __post_init__(self):
        for name in ("c", "alpha", "T", "gamma"):
            v = float(getattr(self, name))
            if not (np.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be positive and finite, got {v}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "seed", whole_number("seed", self.seed, low=0))
        # in logs, since gamma**-alpha can overflow a float
        digits = math.log10(self.T) + math.log10(self.c) - self.alpha * math.log10(self.gamma)
        if digits > math.log10(MAX_MEAN_COUNT):
            raise ParameterError(f"mean atom count 10^{digits:.3g} exceeds {MAX_MEAN_COUNT:.0e}")

    @property
    def mean_count(self) -> float:
        """Expected atom count of one draw."""
        return self.T * self.c * self.gamma ** -self.alpha


def sample_prm(spec: PrmSpec, rep: int = 0) -> PointMeasure:
    """One draw of the truncated measure, deterministic in (seed, rep).

    Draw order is fixed: atom count, then times, then marks.
    """
    rng = replication_rng(spec.seed, rep)
    count = int(rng.poisson(spec.mean_count))
    times = spec.T * rng.random(count)
    # 1 - U lies in (0, 1], keeping marks finite and >= gamma
    marks = spec.gamma * (1.0 - rng.random(count)) ** (-1.0 / spec.alpha)
    return PointMeasure(spec.T, times, marks)


def _atom_scores(kind: LimitKind, times, marks):
    if kind is LimitKind.BACKWARD:
        return marks - times
    if kind is LimitKind.FORWARD:
        return times + marks
    return marks


def extremal_path(pm: PointMeasure, kind: LimitKind, grid_step: float | None = None) -> StepPath:
    """Limit path of the given kind built from one atom configuration.

    BACKWARD and PEAK paths are genuinely piecewise constant with jumps
    at the atom times.  The FORWARD path has slope -1 between atoms, so
    it is emitted as its samples on the merged grid of atom times and a
    regular grid of step ``grid_step`` (default ``pm.horizon / 10**4``);
    the step used is recorded in the path metadata.
    """
    T = pm.horizon
    if not isinstance(kind, LimitKind):
        raise ParameterError(f"unknown limit kind: {kind!r}")

    meta = {"kind": kind.value, "atoms": pm.count}
    scores = _atom_scores(kind, pm.times, pm.marks)

    if kind is LimitKind.FORWARD:
        step = T / DEFAULT_GRID_CELLS if grid_step is None else float(grid_step)
        if not (np.isfinite(step) and step > 0):
            raise ParameterError(f"grid step must be positive, got {step}")
        if T / step > MAX_GRID_CELLS:
            raise ParameterError(f"grid step {step:g} makes {T / step:.3g} cells, "
                                 f"over {MAX_GRID_CELLS:.0e}")
        grid = np.unique(np.concatenate([np.arange(0.0, T, step), [T], pm.times]))
        if pm.count:
            running = np.maximum.accumulate(scores)
            idx = np.searchsorted(pm.times, grid, side="right")
            sup = np.where(idx > 0, running[np.maximum(idx - 1, 0)], 0.0)
        else:
            sup = np.zeros(grid.shape)
        vals = sup - grid
        meta["grid_step"] = step
        return StepPath(T, grid[1:], vals, meta=meta)

    if grid_step is not None:
        raise ParameterError("grid step applies to the FORWARD kind only")
    return _collapse_running(T, pm.times, np.maximum.accumulate(scores), 0.0, meta)


def limit_marginal_values(kind: LimitKind, spec: PrmSpec, reps: int,
                          rep_start: int = 0) -> np.ndarray:
    """Value of the ``kind`` limit path at time ``spec.T`` across
    replications; atom times lie in [0, T), so every atom counts.

    Replication ``r`` draws from the stream (spec.seed, rep_start + r).
    """

    def one(r):
        pm = sample_prm(spec, rep_start + r)
        scores = _atom_scores(kind, pm.times, pm.marks)
        sup = float(np.max(scores)) if scores.size else 0.0
        return sup - spec.T if kind is LimitKind.FORWARD else sup

    return _map_replications(one, reps)


def drift_marginal_cdf(x, u: float, c: float, a: float):
    """Distribution of the BACKWARD (equally FORWARD) value at time u.

    Returns ``(x / (x + u))**(c/a)`` for ``x >= 0``; the FORWARD path has
    the same one-point law even though the two paths differ.
    """
    _check_cdf_params(u=u, c=c, a=a)
    xv = np.asarray(x, dtype=float)
    if np.any(np.isnan(xv) | (xv < 0)):
        raise ParameterError("x must be nonnegative, not NaN")
    with np.errstate(invalid="ignore"):  # inf / inf; np.where takes the limit 1
        out = np.where(np.isinf(xv), 1.0, (xv / (xv + u)) ** (c / a))
    return out if out.ndim else float(out)


def peak_marginal_cdf(x, u: float, alpha: float):
    """Distribution of the PEAK value at time u: ``exp(-u * x**-alpha)``.

    Defined for ``x > 0``; the value tends to 0 as x decreases to 0.
    The tail exponent must lie in (0, 1].
    """
    _check_cdf_params(u=u)
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"tail exponent must lie in (0, 1], got {alpha}")
    xv = np.asarray(x, dtype=float)
    if np.any(np.isnan(xv) | (xv <= 0)):
        raise ParameterError("x must be positive, not NaN")
    out = np.exp(-u * xv ** -alpha)
    return out if out.ndim else float(out)


def drift_exceedance_intensity(x, u: float, c: float, a: float):
    """Mean number of atoms with ``t <= u`` and ``-t + j > x``.

    Equals ``(c/a) * log((x + u) / x)``; the no-exceedance probability
    ``exp(-intensity)`` recovers ``drift_marginal_cdf`` exactly.
    """
    _check_cdf_params(u=u, c=c, a=a)
    xv = np.asarray(x, dtype=float)
    if np.any(np.isnan(xv) | (xv <= 0)):
        raise ParameterError("x must be positive, not NaN")
    with np.errstate(invalid="ignore"):  # inf / inf; np.where takes the limit 0
        out = np.where(np.isinf(xv), 0.0, (c / a) * np.log((xv + u) / xv))
    return out if out.ndim else float(out)


def _check_cdf_params(u=None, c=None, a=None):
    if u is not None and not (np.isfinite(u) and u > 0):
        raise ParameterError(f"u must be positive and finite, got {u}")
    if c is not None and not (np.isfinite(c) and c > 0):
        raise ParameterError(f"c must be positive and finite, got {c}")
    if a is not None and not (np.isfinite(a) and a > 0):
        raise ParameterError(f"a must be positive and finite, got {a}")
