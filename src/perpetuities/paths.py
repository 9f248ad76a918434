"""Cadlag step paths, point measures, and the metrics used to compare them.

A ``StepPath`` is right-continuous and piecewise constant: ``values[0]`` on
``[0, times[0])``, then ``values[k]`` on ``[times[k-1], times[k])``, with the
last value holding up to the horizon.  A ``PointMeasure`` is a finite set of
atoms ``(t, y)`` with positive marks.

``j1_distance`` evaluates the Skorokhod J1 metric restricted to piecewise
linear time changes whose breakpoints sit at jump times (time changes fix 0
and the horizon).  Within that class the infimum is computed exactly by a
feasibility dynamic program over monotone pairings of the two jump sets:
unpaired jumps are allowed, a pairing costs the time displacement of the two
jumps, and every segment overlap induced by the pairing costs the value
mismatch.  The optimum is always one of the finitely many candidate costs
(a value gap or a time gap), so a binary search over candidates is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import ParameterError

__all__ = [
    "StepPath",
    "PointMeasure",
    "uniform_distance",
    "j1_distance",
    "point_match_distance",
    "restrict_path",
]


def _as_readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True).reshape(-1)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class StepPath:
    """Right-continuous step function on ``[0, horizon]``."""

    horizon: float
    times: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "times", _as_readonly(self.times))
        object.__setattr__(self, "values", _as_readonly(self.values))
        T = float(self.horizon)
        if not (np.isfinite(T) and T > 0):
            raise ParameterError(f"horizon must be positive and finite, got {T}")
        t = self.times
        if t.size:
            if not (t[0] > 0 and t[-1] <= T):
                raise ParameterError("jump times must lie in (0, horizon]")
            if np.any(np.diff(t) <= 0):
                raise ParameterError("jump times must be strictly increasing")
        if self.values.size != t.size + 1:
            raise ParameterError(
                f"need {t.size + 1} values for {t.size} jumps, got {self.values.size}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("path values must be finite")

    def value_at(self, t: float) -> float:
        return float(self.values_at(np.asarray([t]))[0])

    def values_at(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if np.any((ts < 0) | (ts > self.horizon)):
            raise ParameterError("evaluation time outside [0, horizon]")
        idx = np.searchsorted(self.times, ts, side="right")
        return self.values[idx]


@dataclass(frozen=True)
class PointMeasure:
    """Finite point measure on ``[0, horizon] x (0, inf)``, sorted by time."""

    horizon: float
    times: np.ndarray
    marks: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float).reshape(-1)
        y = np.array(self.marks, dtype=float).reshape(-1)
        if t.size != y.size:
            raise ParameterError("times and marks must have equal length")
        order = np.argsort(t, kind="stable")
        t, y = t[order], y[order]
        t.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "marks", y)
        T = float(self.horizon)
        if not (np.isfinite(T) and T > 0):
            raise ParameterError(f"horizon must be positive and finite, got {T}")
        if t.size:
            if not (t[0] >= 0 and t[-1] <= T):
                raise ParameterError("atom times must lie in [0, horizon]")
            if not np.all(np.isfinite(y)) or np.any(y <= 0):
                raise ParameterError("atom marks must be positive and finite")

    @property
    def count(self) -> int:
        return int(self.times.size)

    def restrict(self, delta: float) -> "PointMeasure":
        """Atoms with mark strictly above ``delta``."""
        keep = self.marks > delta
        return PointMeasure(self.horizon, self.times[keep], self.marks[keep])


def _check_same_horizon(f: StepPath, g: StepPath):
    if f.horizon != g.horizon:
        raise ParameterError(
            f"paths live on different horizons: {f.horizon} vs {g.horizon}"
        )


def uniform_distance(f: StepPath, g: StepPath) -> float:
    """sup_t |f(t) - g(t)|, exact via the merged jump grid."""
    _check_same_horizon(f, g)
    grid = np.concatenate(([0.0], f.times, g.times))
    grid = np.unique(grid)
    return float(np.max(np.abs(f.values_at(grid) - g.values_at(grid))))


def _run_reach(okrow: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    # reach[j] = ok[j] and some seed fires at j' <= j with ok true throughout [j', j]
    idx = np.arange(okrow.size)
    last_bad = np.maximum.accumulate(np.where(~okrow, idx, -1))
    cum = np.cumsum(seeds & okrow)
    cum_before = np.where(last_bad >= 0, cum[np.maximum(last_bad, 0)], 0)
    return okrow & (cum - cum_before > 0)


def _j1_feasible(dvals, pairable, D) -> bool:
    ok = dvals <= D
    p1, q1 = ok.shape
    if not (ok[0, 0] and ok[p1 - 1, q1 - 1]):
        return False
    reach = _run_reach(ok[0], np.concatenate(([True], np.zeros(q1 - 1, bool))))
    for i in range(1, p1):
        seeds = reach.copy()                      # unpaired jump of f
        seeds[1:] |= reach[:-1] & pairable[i - 1]  # paired jumps
        reach = _run_reach(ok[i], seeds)
    return bool(reach[-1])


def _least_feasible(cands: np.ndarray, feasible) -> float:
    # bisection for the smallest of the sorted candidates that passes the
    # monotone test ``feasible``; the last candidate must pass
    if feasible(cands[0]):
        return float(cands[0])
    lo, hi = 0, cands.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(cands[mid]):
            hi = mid
        else:
            lo = mid
    return float(cands[hi])


def j1_distance(f: StepPath, g: StepPath) -> float:
    """Skorokhod J1 distance over jump-aligned piecewise linear time changes.

    Always at most ``uniform_distance(f, g)`` (the identity time change is
    admissible).  The infimum over the restricted class need not be attained
    but is still returned exactly.
    """
    _check_same_horizon(f, g)
    T = f.horizon
    fv, gv = f.values, g.values
    a, b = f.times, g.times
    dvals = np.abs(fv[:, None] - gv[None, :])
    upper = uniform_distance(f, g)
    if upper == 0.0:
        return 0.0
    if a.size and b.size:
        pair_cost = np.abs(a[:, None] - b[None, :])
        # a jump exactly at the horizon can only pair with another one there,
        # because admissible time changes fix the horizon
        mismatch = (a[:, None] == T) != (b[None, :] == T)
        pair_cost = np.where(mismatch, np.inf, pair_cost)
    else:
        pair_cost = np.zeros((a.size, b.size))
    cands = np.concatenate((dvals.ravel(), pair_cost.ravel(), [upper]))
    cands = np.unique(cands[(cands <= upper) & np.isfinite(cands)])
    return _least_feasible(cands, lambda D: _j1_feasible(dvals, pair_cost <= D, D))


def point_match_distance(nu1: PointMeasure, nu2: PointMeasure, delta: float) -> float:
    """Bottleneck matching distance between atoms with mark above ``delta``.

    Atoms with mark <= delta are discarded on both sides.  If the remaining
    counts differ the distance is infinite; otherwise it is the minimum over
    bijections of the maximal matched cost |dt| + |dy|.
    """
    if delta < 0:
        raise ParameterError("delta must be nonnegative")
    r1, r2 = nu1.restrict(delta), nu2.restrict(delta)
    if r1.count != r2.count:
        return float("inf")
    n = r1.count
    if n == 0:
        return 0.0
    cost = (np.abs(r1.times[:, None] - r2.times[None, :])
            + np.abs(r1.marks[:, None] - r2.marks[None, :]))
    cands = np.unique(cost.ravel())

    def feasible(D):
        graph = csr_matrix(cost <= D)
        match = maximum_bipartite_matching(graph, perm_type="column")
        return int(np.sum(match >= 0)) == n

    return _least_feasible(cands, feasible)


def restrict_path(p: StepPath, horizon: float) -> StepPath:
    """The same path viewed on the shorter horizon ``[0, horizon]``."""
    T = float(horizon)
    if not (0 < T <= p.horizon):
        raise ParameterError("restriction horizon must lie in (0, horizon]")
    keep = p.times <= T
    return StepPath(T, p.times[keep], p.values[: int(np.sum(keep)) + 1], meta=dict(p.meta))


def _collapse_running(horizon, times, running, init, meta) -> StepPath:
    # step path of a running record over time-sorted atoms: one
    # breakpoint per distinct atom time, atoms at zero fold into init
    keep = np.ones(times.size, dtype=bool)
    keep[:-1] = times[1:] != times[:-1]
    jump_t = times[keep]
    jump_v = running[keep]
    if jump_t.size and jump_t[0] == 0.0:
        init = jump_v[0]
        jump_t, jump_v = jump_t[1:], jump_v[1:]
    return StepPath(horizon, jump_t, np.concatenate([[init], jump_v]), meta=meta)
