"""Cadlag step paths, point measures, and the metrics used to compare them.

A ``StepPath`` is right-continuous and piecewise constant: ``values[0]`` on
``[0, times[0])``, then ``values[k]`` on ``[times[k-1], times[k])``, with the
last value holding up to the horizon.  A ``PointMeasure`` is a finite set of
atoms ``(t, y)`` with positive marks.

``j1_distance`` evaluates the Skorokhod J1 metric restricted to piecewise
linear time changes whose breakpoints sit at jump times (time changes fix 0
and the horizon), as a bottleneck over monotone pairings of the two jump
sets: unpaired jumps are allowed, a pairing costs the time displacement of
the two jumps, and every segment overlap induced by the pairing costs the
value mismatch.  Unpaired jumps between two pairs may come in any order at
no time cost, so the result can fall below the metric proper where an
unpaired jump would have to cross a jump of the other path.  One pass of a min/max dynamic
program over the (segment of f, segment of g) lattice computes it exactly,
in O(pq) time and O(p+q) memory for p and q jumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

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
            if not np.all(np.diff(t) > 0):
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
        if not np.all((ts >= 0) & (ts <= self.horizon)):
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


def j1_distance(f: StepPath, g: StepPath) -> float:
    """Skorokhod J1 distance over jump-aligned piecewise linear time changes.

    Always at most ``uniform_distance(f, g)`` (the identity time change is
    admissible).  It can report less than the J1 distance: the pairing
    model lets an unpaired jump cross a jump of the other path at no time
    cost (f jumping at 0.9 and g at 0.1 on [0, 1] gives the gap of the
    two jump sizes, not the larger size).
    """
    _check_same_horizon(f, g)
    upper = uniform_distance(f, g)
    if upper == 0.0:
        return 0.0
    # row i of the lattice: best[j] is the least achievable max-cost over
    # staircases from (0, 0) to (i, j), i.e. to f's segment i against g's
    # segment j; a step up leaves a jump of f unpaired, a step right one of
    # g, and a diagonal step pairs the two jumps at their time displacement
    T = f.horizon
    fv, gv = f.values, g.values
    b = g.times
    # a jump exactly at the horizon can only pair with another one there,
    # because admissible time changes fix the horizon
    b_at_T = b == T
    best = np.maximum.accumulate(np.abs(fv[0] - gv))
    for i, t in enumerate(f.times, start=1):
        pair_cost = np.abs(t - b)
        pair_cost[b_at_T != (t == T)] = np.inf
        enter = np.minimum(best[1:], np.maximum(best[:-1], pair_cost)).tolist()
        gap = np.abs(fv[i] - gv).tolist()
        x = max(gap[0], float(best[0]))
        row = [x]
        for d, e in zip(gap[1:], enter):
            if e < x:
                x = e
            if d > x:
                x = d
            row.append(x)
        best = np.array(row)
    return float(best[-1])


def point_match_distance(nu1: PointMeasure, nu2: PointMeasure, delta: float) -> float:
    """Bottleneck matching distance between atoms with mark above ``delta``.

    Atoms with mark <= delta are discarded on both sides.  If the remaining
    counts differ the distance is infinite; otherwise it is the minimum over
    bijections of the maximal matched cost |dt| + |dy|.
    """
    if not delta >= 0:
        raise ParameterError("delta must be nonnegative")
    r1, r2 = nu1.restrict(delta), nu2.restrict(delta)
    if r1.count != r2.count:
        return float("inf")
    n = r1.count
    if n == 0:
        return 0.0
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    cost = (np.abs(r1.times[:, None] - r2.times[None, :])
            + np.abs(r1.marks[:, None] - r2.marks[None, :]))
    cands = np.unique(cost.ravel())

    def feasible(D):
        graph = csr_matrix(cost <= D)
        match = maximum_bipartite_matching(graph, perm_type="column")
        return int(np.sum(match >= 0)) == n

    # bisection for the smallest candidate that admits a perfect matching;
    # the largest always does
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
