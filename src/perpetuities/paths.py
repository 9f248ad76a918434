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
unpaired jump would have to cross a jump of the other path.  One pass of
a min/max dynamic program over the (segment of f, segment of g) lattice
computes it exactly.  The pass visits only the cells whose value gap is
at most the uniform distance, and the cell that ends each run of them:
the identity time change costs exactly that distance, so no optimal
staircase enters any other cell, and dropping them changes no bit of
the result.  Time is O(pq) in the worst case and O(p+q) memory, for p
and q jumps.
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

    Always at most ``upper = uniform_distance(f, g)`` (the identity time
    change is admissible).  It can report less than the J1 distance: the
    pairing model lets an unpaired jump cross a jump of the other path at
    no time cost (f jumping at 0.9 and g at 0.1 on [0, 1] gives the gap of
    the two jump sizes, not the larger size).

    The lattice pass visits only the cells whose value gap is at most
    ``upper``, and the first cell after each run of them; every other
    cell counts as unreachable.  A staircase through a dropped cell costs
    more than ``upper``, which the identity staircase achieves, so it is
    never optimal.  Every value the pass computes is either the full
    lattice's value, bit for bit, or above ``upper``, since it takes only
    min and max of the same costs; the result, at most ``upper``, is
    therefore exact.  Worst-case time is still O(pq), memory O(p+q).
    """
    _check_same_horizon(f, g)
    upper = uniform_distance(f, g)
    if upper == 0.0:
        return 0.0
    # row i of the lattice: best[j] is the least achievable max-cost over
    # staircases from (0, 0) to (i, j), i.e. to f's segment i against g's
    # segment j, and inf at a dropped cell; a step up leaves a jump of f
    # unpaired, a step right one of g, and a diagonal step pairs the two
    # jumps at their time displacement
    T = f.horizon
    gv = g.values
    # b[j] is the jump of g that starts its segment j, inf for segment 0;
    # a jump exactly at the horizon can only pair with another one there,
    # because admissible time changes fix the horizon, so a jump of f
    # before T sees g's jump at T as inf, and one at T sees all others so
    b = np.concatenate(([np.inf], g.times))
    b_before = np.where(b == T, np.inf, b)
    b_at = np.where(b == T, T, np.inf)
    # the start cell (0, 0) is entered from a virtual row below it
    best = np.full(gv.size, np.inf)
    best[0] = -np.inf
    a = f.times.tolist()
    for i, fi in enumerate(f.values.tolist()):
        # the cost of each cell of the row: the value gap of its segments
        cost = np.abs(fi - gv)
        visit = cost <= upper
        # the first dropped cell after a run of kept ones costs more than
        # upper, so a run never carries its value across dropped cells
        visit[1:] |= visit[:-1]
        cols = np.flatnonzero(visit)
        enter = best[cols]
        if i:
            t = a[i - 1]
            pair = np.abs(t - (b_at if t == T else b_before)[cols])
            # cols - 1 wraps round at column 0, where the pair cost is inf
            enter = np.minimum(enter, np.maximum(best[cols - 1], pair))
        row = []
        x = np.inf
        for d, e in zip(cost[cols].tolist(), enter.tolist()):
            if e < x:
                x = e
            if d > x:
                x = d
            row.append(x)
        best = np.full(gv.size, np.inf)
        best[cols] = row
    return float(best[-1])


def _perfect_matching(allowed) -> bool:
    """Whether the square boolean matrix ``allowed`` pairs every row with
    a column of its own.

    Kuhn's algorithm: each row in turn searches depth first for an
    augmenting path (allowed cells alternating with held pairs, ending at
    a free column) and flips it; a visited row first takes its lowest
    free allowed column, if it has one.  A row whose search fails stays
    unmatched in every maximum matching, so the answer is then False at
    once.  Each search keeps its path on a list, so a path as long as the
    matrix needs no recursion.  Rows and column sets are int bitsets, and
    a search visits each row at most once, so one row's search costs
    O(n^2 / 64) word operations at worst.
    """
    n = allowed.shape[0]
    adj = [int.from_bytes(row.tobytes(), "little")
           for row in np.packbits(allowed, axis=1, bitorder="little")]
    owner = [-1] * n  # the row holding each column
    free = (1 << n) - 1
    for root in range(n):
        # rows[k + 1] holds column via[k], reached from rows[k]; todo[k]
        # is the reached columns whose holders rows[k] has not visited
        rows, via, todo = [root], [], []
        seen = 0
        while True:
            reach = adj[rows[-1]] & ~seen
            hit = reach & free
            if hit:
                col = (hit & -hit).bit_length() - 1
                for row, c in zip(rows, via + [col]):
                    owner[c] = row
                free ^= 1 << col
                break
            seen |= reach
            todo.append(reach)
            while not todo[-1]:
                rows.pop()
                todo.pop()
                if not rows:
                    return False
                via.pop()
            low = todo[-1] & -todo[-1]
            todo[-1] ^= low
            col = low.bit_length() - 1
            via.append(col)
            rows.append(owner[col])
    return True


def point_match_distance(nu1: PointMeasure, nu2: PointMeasure, delta: float) -> float:
    """Bottleneck matching distance between atoms with mark above ``delta``.

    Atoms with mark <= delta are discarded on both sides.  If the remaining
    counts differ the distance is infinite; otherwise it is the minimum over
    bijections of the maximal matched cost |dt| + |dy|.  That minimum is
    one of the n^2 pair costs: a bisection over their sorted distinct
    values finds the least one whose cells ``cost <= D`` admit a perfect
    matching (``_perfect_matching``), in O(log n) matching tests after an
    O(n^2 log n) sort.
    """
    if not delta >= 0:
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
        return _perfect_matching(cost <= D)

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
