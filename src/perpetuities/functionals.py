"""Deterministic mappings behind the smoothed-maximum convergence scheme.

Two path functionals drive everything here.  The running-max mapping G
sends a path and a point measure to the step path of record values
``sup(f(tau_k) + y_k)``.  Its smooth counterpart F replaces the max by a
signed exponential sum at inverse temperature ``c``: as ``c`` grows, F
collapses onto G whenever the record levels are separated.  The module
also scores finite inputs against the hypotheses that guarantee the
collapse, and produces decay tables for bundled analytic instances.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError, whole_number
from .limits import PrmSpec, sample_prm
from .paths import (
    PointMeasure,
    StepPath,
    _collapse_running,
    j1_distance,
    point_match_distance,
    restrict_path,
)
from .slog import signed_log_cumsum
# unused here, kept importable for the hook of bench/tracing.py
from .slog import signed_log_diff  # noqa: F401

PASS = "PASS"
FAIL = "FAIL"
UNDECIDABLE = "UNDECIDABLE-ON-FINITE-DATA"

LEVEL_TOL = 1e-12
PARTITION_CELLS = 4
GROWTH_THRESHOLD = 0.2


@dataclass(frozen=True)
class SignedAtomSequence:
    """Point measure whose atoms carry a sign in {-1, +1}.

    Signs align with the measure's time-sorted atom order.  Build via
    ``from_atoms`` when the raw arrays are not already sorted.
    """

    measure: PointMeasure
    signs: np.ndarray

    def __post_init__(self):
        s = np.array(self.signs, dtype=np.int64).reshape(-1)
        if s.size != self.measure.count:
            raise ParameterError("one sign per atom is required")
        if s.size and not np.all(np.abs(s) == 1):
            raise ParameterError("signs must be -1 or +1")
        s.flags.writeable = False
        object.__setattr__(self, "signs", s)

    @classmethod
    def from_atoms(cls, horizon, times, marks, signs):
        t = np.asarray(times, dtype=float).reshape(-1)
        order = np.argsort(t, kind="stable")
        return cls(
            PointMeasure(horizon, t[order], np.asarray(marks, float).reshape(-1)[order]),
            np.asarray(signs).reshape(-1)[order],
        )

    @property
    def count(self) -> int:
        return self.measure.count

    @property
    def mixed_signs(self) -> bool:
        return self.count > 1 and bool(np.any(self.signs != self.signs[0]))


def _check_atoms_inside(f: StepPath, times) -> None:
    if times.size and times[-1] > f.horizon:
        raise ParameterError("atoms must lie inside the path horizon")


def g_functional(f: StepPath, nu: PointMeasure) -> StepPath:
    """Running max of ``f(tau_k) + y_k``; ``f(0)`` before the first atom."""
    _check_atoms_inside(f, nu.times)
    meta = {"kind": "running-max", "atoms": nu.count}
    scores = f.values_at(nu.times) + nu.marks
    running = np.maximum.accumulate(scores)
    return _collapse_running(f.horizon, nu.times, running, float(f.values[0]), meta)


def fn_functional(f: StepPath, nu: SignedAtomSequence, c: float) -> StepPath:
    """Smoothed signed counterpart of ``g_functional`` at temperature ``1/c``.

    Value at ``t``: ``log+|sum of sign_k exp(c (f(tau_k) + y_k))| / c``
    over atoms with ``tau_k <= t``, evaluated in log space so arbitrarily
    large levels never overflow.  Before the first atom the value is
    ``max(f(0), 0)``; an exactly cancelled sum contributes ``log+ 0 = 0``.
    The metadata records how many prefixes cancelled.
    """
    if not (np.isfinite(c) and c > 0):
        raise ParameterError(f"temperature parameter must be positive, got {c}")
    times = nu.measure.times
    _check_atoms_inside(f, times)
    meta = {"kind": "smoothed-signed-sum", "c": float(c), "atoms": nu.count}
    init = max(float(f.values[0]), 0.0)
    levels = c * (f.values_at(times) + nu.measure.marks)
    _, mag, cancelled = signed_log_cumsum(nu.signs, levels)
    running = np.maximum(mag, 0.0) / c
    meta["cancelled"] = int(np.sum(cancelled))
    return _collapse_running(f.horizon, times, running, init, meta)


@dataclass(frozen=True)
class ConvergenceInstance:
    """A staged family (f_n, nu_n, c_n) with its limiting pair (f_0, nu_0).

    ``f_limit`` is a dense-grid stand-in for a continuous path and must
    start at zero; ``c_seq`` must be positive and strictly increasing.
    """

    name: str
    ns: tuple
    f_seq: tuple
    f_limit: StepPath
    nu_seq: tuple
    nu_limit: PointMeasure
    c_seq: tuple

    def __post_init__(self):
        k = len(self.ns)
        if not (len(self.f_seq) == len(self.nu_seq) == len(self.c_seq) == k and k > 0):
            raise ParameterError("stage sequences must share a positive length")
        c = np.asarray(self.c_seq, dtype=float)
        if not (np.all(c > 0) and np.all(np.isfinite(c)) and np.all(np.diff(c) > 0)):
            raise ParameterError("c sequence must be positive and strictly increasing")
        if float(self.f_limit.values[0]) != 0.0:
            raise ParameterError("the limit path must start at zero")

    @property
    def stages(self) -> int:
        return len(self.ns)

    @property
    def mixed_signs(self) -> bool:
        return any(seq.mixed_signs for seq in self.nu_seq)


@dataclass(frozen=True)
class ConditionResult:
    name: str
    status: str
    detail: str


@dataclass(frozen=True)
class ConditionReport:
    results: tuple

    @property
    def has_fail(self) -> bool:
        return any(r.status == FAIL for r in self.results)

    def status_of(self, name: str) -> str:
        for r in self.results:
            if r.name == name:
                return r.status
        raise KeyError(name)

    def rows(self):
        return [(r.name, r.status, r.detail) for r in self.results]


def _trend_status(seq, label):
    vals = np.asarray(seq, dtype=float)
    if vals.size < 2:
        return UNDECIDABLE, f"{label}: fewer than two stages"
    if not np.all(np.isfinite(vals)):
        return FAIL, f"{label}: non-finite distances {vals.tolist()}"
    if np.all(np.diff(vals) <= 1e-12):
        return PASS, f"{label}: nonincreasing from {vals[0]:.3g} to {vals[-1]:.3g}"
    if vals[-1] < vals[0] and vals[-1] <= np.min(vals) + 1e-12:
        return PASS, f"{label}: decreasing overall to {vals[-1]:.3g}"
    return FAIL, f"{label}: no decay, values {np.round(vals, 6).tolist()}"


def check_conditions(inst: ConvergenceInstance, T: float, gamma: float) -> ConditionReport:
    """Score the finite instance against the convergence hypotheses.

    Each hypothesis gets PASS, FAIL, or UNDECIDABLE-ON-FINITE-DATA; the
    infinite-measure clauses (every interval charged, positivity for all
    small gamma) are only ever checked through finite surrogates, so
    their passing statuses certify the surrogate, not the limit object.
    """
    if not (np.isfinite(T) and 0 < T <= inst.f_limit.horizon):
        raise ParameterError(f"window must lie within the instance horizon, got {T}")
    if not (np.isfinite(gamma) and gamma > 0):
        raise ParameterError(f"gamma must be positive, got {gamma}")
    nu0 = inst.nu_limit
    inside = nu0.times <= T
    t0, y0 = nu0.times[inside], nu0.marks[inside]
    results = []

    # no mass at the time origin, and every partition cell charged
    if t0.size and t0[0] == 0.0:
        status, detail = FAIL, "atom at time zero"
    else:
        edges = np.linspace(0.0, T, PARTITION_CELLS + 1)
        hit = [bool(np.any((t0 > lo) & (t0 < hi))) for lo, hi in zip(edges, edges[1:])]
        if all(hit):
            status, detail = PASS, f"all {PARTITION_CELLS} cells of (0, {T}) charged"
        else:
            status = UNDECIDABLE
            detail = f"{hit.count(False)} empty cells; a finite truncation cannot certify density"
    results.append(ConditionResult("support-charged", status, detail))

    # atom times pairwise distinct
    if np.unique(nu0.times).size == nu0.count:
        results.append(ConditionResult("distinct-times", PASS, "all atom times distinct"))
    else:
        results.append(ConditionResult("distinct-times", FAIL, "duplicated atom times"))

    # the earliest record level is nonnegative, since F_n tends to max(G, 0);
    # only the mixed-sign case needs separated levels and a small-mark record
    # above zero
    levels = inst.f_limit.values_at(t0) + y0
    start = levels[t0 > 0.0][:1]
    if start.size and start[0] < 0.0:
        status, detail = FAIL, f"earliest record level {start[0]:.3g} < 0"
    elif not inst.mixed_signs:
        status, detail = PASS, "single-signed input, separation not required"
        if start.size:
            detail += f"; earliest record level {start[0]:.3g} >= 0"
    else:
        gaps = np.diff(np.sort(levels))
        if gaps.size and np.min(gaps) <= LEVEL_TOL:
            status, detail = FAIL, f"record levels collide within {LEVEL_TOL:g}"
        else:
            small = levels[y0 <= gamma]
            if small.size == 0:
                status = UNDECIDABLE
                detail = f"no atoms with mark <= {gamma}; positivity untestable here"
            elif np.max(small) > 0.0:
                status, detail = PASS, f"levels separated; small-mark sup {np.max(small):.3g} > 0"
            else:
                status, detail = FAIL, f"small-mark sup {np.max(small):.3g} <= 0"
    results.append(ConditionResult("level-separation", status, detail))

    # log atom count shrinks against c_n
    counts = [int(np.sum(seq.measure.times <= T)) for seq in inst.nu_seq]
    ratios = [np.log(max(cnt, 1)) / c for cnt, c in zip(counts, inst.c_seq)]
    if len(ratios) < 2:
        status, detail = UNDECIDABLE, "fewer than two stages"
    elif ratios[-1] <= GROWTH_THRESHOLD and ratios[-1] <= ratios[0] + 1e-12:
        status, detail = PASS, f"log-count ratio {ratios[0]:.3g} -> {ratios[-1]:.3g}"
    else:
        status = FAIL
        detail = f"log-count ratio ends at {ratios[-1]:.3g} (threshold {GROWTH_THRESHOLD})"
    results.append(ConditionResult("count-growth", status, detail))

    # stage paths approach the limit path
    limit = restrict_path(inst.f_limit, T)
    dists = [j1_distance(restrict_path(f, T), limit) for f in inst.f_seq]
    results.append(ConditionResult("path-convergence", *_trend_status(dists, "path distance")))

    # stage measures approach the limit measure above the gamma level
    dists = [point_match_distance(seq.measure, nu0, gamma) for seq in inst.nu_seq]
    results.append(
        ConditionResult("measure-convergence", *_trend_status(dists, "atom matching distance"))
    )

    return ConditionReport(tuple(results))


def default_gamma(measure: PointMeasure) -> float:
    """Small-mark level splitting the two lowest distinct mark values.

    This keeps the lowest atom visible to the small-mark positivity
    clause while the atom-matching step never straddles a mark exactly.
    """
    marks = np.unique(measure.marks)
    if marks.size == 0:
        raise ConfigurationError("cannot infer gamma from an atomless measure")
    return float(marks[0] / 2.0 if marks.size == 1 else (marks[0] + marks[1]) / 2.0)


def convergence_demo(inst: ConvergenceInstance, T: float, gamma: float | None = None):
    """Decay table (n, c_n, d_n) of distances to the limiting record path.

    Refuses to run when any hypothesis scores FAIL.  The default gamma
    splits the two smallest limit mark levels, so the small-mark clause
    sees the lowest atom while the matching step never straddles a mark.
    """
    if gamma is None:
        gamma = default_gamma(inst.nu_limit)
    report = check_conditions(inst, T, gamma)
    if report.has_fail:
        bad = ", ".join(r.name for r in report.results if r.status == FAIL)
        raise ConfigurationError(f"hypotheses failed for {inst.name}: {bad}")
    return decay_table(inst, T)


def decay_table(inst: ConvergenceInstance, T: float):
    """Decay table (n, c_n, d_n) of ``convergence_demo``, without scoring
    the hypotheses; a caller that scored them already calls this."""
    target = restrict_path(g_functional(inst.f_limit, inst.nu_limit), T)
    rows = []
    for n, f, nu, c in zip(inst.ns, inst.f_seq, inst.nu_seq, inst.c_seq):
        approx = restrict_path(fn_functional(f, nu, c), T)
        rows.append((int(n), float(c), j1_distance(approx, target)))
    return rows


# ---------------------------------------------------------------------------
# Bundled analytic instances.  The mixed-sign one perturbs a fixed eight-atom
# configuration at rate 1/n in both coordinates and steepens the base path
# by 0.5/n, so every hypothesis is checkable and the decay is ~1/n.

_ATOM_TIMES = np.array([0.10, 0.35, 0.60, 0.90, 1.15, 1.40, 1.70, 1.95])
_ATOM_MARKS = np.array([0.30, 1.10, 0.55, 2.05, 0.85, 1.65, 2.90, 1.25])
_ALT_SIGNS = np.array([1, -1, 1, -1, 1, -1, 1, -1])
_TIME_SHIFTS = np.array([0.5, -0.4, 0.3, -0.5, 0.45, -0.3, 0.35, -0.45])
_MARK_SHIFTS = np.array([0.4, -0.35, 0.5, -0.25, 0.3, -0.5, 0.25, -0.4])
_HORIZON = 2.0

# sorted in Python: np.unique would load numpy.ma in every process
DEFAULT_STAGES = tuple(sorted({int(n) for n in np.rint(np.geomspace(100, 10_000, 13))}))


def _linear_drop_path(horizon, slope, extra_times=()) -> StepPath:
    """Dense right-continuous staircase tracking ``t -> -slope * t``."""
    grid = np.arange(0.0, horizon, 0.01)
    grid = np.unique(np.concatenate([grid, [horizon], np.asarray(extra_times, float)]))
    return StepPath(horizon, grid[1:], -slope * grid)


def instance_names():
    return ("mixed-sign", "all-plus", "single-atom", "prm")


def _constant_instance(name, ns, f0, nu) -> ConvergenceInstance:
    # every stage holds the limit pair (f0, nu) itself, with c_n = n
    return ConvergenceInstance(
        name=name,
        ns=ns,
        f_seq=(f0,) * len(ns),
        f_limit=f0,
        nu_seq=(nu,) * len(ns),
        nu_limit=nu.measure,
        c_seq=tuple(float(n) for n in ns),
    )


def bundled_instance(name: str, ns=None, seed: int = 0) -> ConvergenceInstance:
    """Construct one of the named demo instances.

    mixed-sign: alternating signs, perturbed atoms, c_n = n.
    all-plus: same atom configuration, all positive, unperturbed.
    single-atom: one positive atom; the smoothed map is exact.
    prm: atoms drawn once from the truncated Poisson measure (seeded).
    """
    if ns is None:
        ns = DEFAULT_STAGES
    ns = tuple(whole_number("stage size", n) for n in ns)
    if len(ns) == 0 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ParameterError("stage list must be nonempty and strictly increasing")

    if name == "mixed-sign":
        f_seq, nu_seq = [], []
        for n in ns:
            t = _ATOM_TIMES + _TIME_SHIFTS / n
            y = _ATOM_MARKS + _MARK_SHIFTS / n
            f_seq.append(_linear_drop_path(_HORIZON, 1.0 + 0.5 / n, extra_times=t))
            nu_seq.append(SignedAtomSequence.from_atoms(_HORIZON, t, y, _ALT_SIGNS))
        return ConvergenceInstance(
            name=name,
            ns=ns,
            f_seq=tuple(f_seq),
            f_limit=_linear_drop_path(_HORIZON, 1.0, extra_times=_ATOM_TIMES),
            nu_seq=tuple(nu_seq),
            nu_limit=PointMeasure(_HORIZON, _ATOM_TIMES, _ATOM_MARKS),
            c_seq=tuple(float(n) for n in ns),
        )

    if name == "all-plus":
        f0 = _linear_drop_path(_HORIZON, 1.0, extra_times=_ATOM_TIMES)
        nu = SignedAtomSequence.from_atoms(
            _HORIZON, _ATOM_TIMES, _ATOM_MARKS, np.ones(_ATOM_TIMES.size, dtype=int)
        )
        return _constant_instance(name, ns, f0, nu)

    if name == "single-atom":
        f0 = _linear_drop_path(_HORIZON, 1.0, extra_times=[1.0])
        nu = SignedAtomSequence.from_atoms(_HORIZON, [1.0], [1.5], [1])
        return _constant_instance(name, ns, f0, nu)

    if name == "prm":
        pm = sample_prm(PrmSpec(c=1.0, alpha=1.0, T=_HORIZON, gamma=0.1, seed=seed))
        if pm.count == 0:
            raise ConfigurationError("drawn measure has no atoms; change the seed")
        # single-signed: the drawn support varies with the seed, so the
        # mixed-sign separation clauses would be seed-dependent here
        f0 = _linear_drop_path(_HORIZON, 1.0, extra_times=pm.times)
        nu = SignedAtomSequence(pm, np.ones(pm.count, dtype=int))
        return _constant_instance(name, ns, f0, nu)

    raise ConfigurationError(f"unknown instance name: {name!r}")
