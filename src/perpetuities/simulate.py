"""Path simulation for the backward (perpetuity) and forward (chain) processes.

The backward process is Y_k = sum_{i<=k} M_1...M_{i-1} Q_i, the forward one
is X_k = M_k X_{k-1} + Q_k.  Both are emitted as step paths t -> log|.| at
index [nt]+1 on [0, T]: the value on [k/n, (k+1)/n) is the (k+1)-th iterate,
so every path jumps only at multiples of 1/n.

Both chains run through one prefix-pool kernel in signed log space, with
S_k = log|M_1...M_k| the running sum of log|M| and Pi_k = M_1...M_k.  The
backward terms have magnitudes S_{i-1} + log|Q_i|.  The forward chain
unrolls to the closed form X_k = Pi_k (x0 + sum_{i<=k} Q_i / Pi_i), so its
terms have magnitudes log|Q_i| - S_i (x0 leads as one more term) and the
pool sum is shifted back by S_k.  The prefix sums come from
``slog.signed_log_cumsum``, so no magnitude is ever exponentiated.  The
decayed Pakes sums have positive terms only, so each is one
``slog.pool_logsumexp``.  Near-cancelled combines are flagged and
surface as per-replication counts so the statistical layer can exclude
them; an exact zero iterate (excluded by the model assumptions, possible
only for contrived point-mass laws) raises in the path API and is flagged
in the batch samplers.

Replication r of a run with master seed s draws from the dedicated stream
``default_rng([s, r])``, which makes every batch independent of chunking
and worker count.

The chain samplers (backward and forward, marginal and sup) read one
batch table: per replication, the last log-magnitude, its maximum, the
endpoint flag (a cancelled last combine, plus one if the last iterate is
exactly zero) and the prefix flag (all cancelled combines, plus one if any
iterate is exactly zero).  Each sampler returns fresh copies of the value
and the flag it reads.  Inside a ``shared_batches()`` scope, equal requests
(same law, iterate count, replications, seed, first replication, start
and direction) reuse the table computed first, so a verification suite
that reads one batch both as a marginal and as a sup simulates it once.
Outside a scope nothing is kept, and the backward marginal, which reads
only the endpoint, builds no table: each chain is reduced to its two
sign-pool totals (``slog.sign_pools``) and the whole batch is combined by
one ``slog.signed_log_diff``.  Its values match the table's last entries
to roundoff, and its flags are the endpoint flags.  The forward marginal
keeps the table, because its flag reads every prefix.
"""

from __future__ import annotations

import contextvars
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StatisticalError
from .laws import CoefficientLaw, draw_log_mq
from .paths import StepPath
from .slog import pool_logsumexp, sign_pools, signed_log_cumsum, signed_log_diff
# unused here, kept importable for the hooks of bench/tracing.py
from .slog import signed_log_add_arrays  # noqa: F401

@dataclass(frozen=True)
class SimScenario:
    """One simulation setting: law, scaling index, horizon, start, seed."""

    law: CoefficientLaw
    n: int
    T: float = 1.0
    x0: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ParameterError(f"n must be a positive integer, got {self.n}")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ParameterError(f"T must be positive and finite, got {self.T}")
        if not np.isfinite(self.x0):
            raise ParameterError(f"x0 must be finite, got {self.x0}")

    @property
    def steps(self) -> int:
        """Number of iterates emitted on [0, T]: [nT] + 1."""
        return _index_at(self.n, self.T)


def _index_at(n: int, u: float) -> int:
    """[nu] + 1, the number of iterates up to time u."""
    if not (u > 0 and np.isfinite(u)):
        raise ParameterError(f"evaluation time must be positive, got {u}")
    return int(math.floor(n * u)) + 1


def _replications(reps) -> int:
    """``reps`` as an int; a batch needs at least one replication."""
    reps = int(reps)
    if reps < 1:
        raise ParameterError(f"replication count must be positive, got {reps}")
    return reps


def replication_rng(seed: int, rep: int):
    """The dedicated generator stream of one replication."""
    return np.random.default_rng([int(seed), int(rep)])


def _chain_terms(sign_m, log_m, sign_q, log_q, x0: float = 0.0, forward: bool = False):
    """(sign_pi, S, term_sign, term_mag) of one chain's coefficient arrays.

    Backward: Y_k is the prefix sum of the terms Pi_{i-1} Q_i.  Forward:
    X_k = Pi_k (x0 + sum_{i<=k} Q_i / Pi_i), the prefix sum of x0 and the
    terms Q_i / Pi_i, times Pi_k.
    """
    S = np.cumsum(log_m)
    sign_pi = np.cumprod(sign_m)
    if forward:
        term_sign = np.concatenate(([np.sign(x0)], sign_pi * sign_q))
        term_mag = np.concatenate(([math.log(abs(x0)) if x0 else -np.inf], log_q - S))
    else:
        term_sign = np.concatenate(([1], sign_pi[:-1])) * sign_q
        term_mag = np.concatenate(([0.0], S[:-1])) + log_q
    return sign_pi, S, term_sign, term_mag


def _chain_mags(law: CoefficientLaw, rng, count: int, x0: float = 0.0, forward: bool = False):
    """(sign, logmag, cancelled) of the first ``count`` iterates of one chain.

    ``cancelled[k]`` marks a near-total loss of magnitude in the k-th
    combine of the positive and negative pools.
    """
    sign_pi, S, term_sign, term_mag = _chain_terms(*draw_log_mq(law, rng, count), x0, forward)
    sign, mag, cancelled = signed_log_cumsum(term_sign, term_mag)
    if forward:
        # entry 0 is the pool of x0 alone
        return sign_pi * sign[1:], S + mag[1:], cancelled[1:]
    return sign, mag, cancelled


def _emit_path(s: SimScenario, mags, cancel_count: int, kind: str, rep: int) -> StepPath:
    if not np.all(np.isfinite(mags)):
        raise StatisticalError(
            "an iterate is exactly zero, so its log-magnitude is not a real "
            "number; the model assumes zero iterates have probability zero"
        )
    K = s.steps
    times = np.arange(1, K) / s.n
    meta = {
        "kind": kind,
        "n": s.n,
        "T": s.T,
        "seed": s.seed,
        "rep": rep,
        "cancel_count": int(cancel_count),
        "degenerate": bool(cancel_count),
    }
    return StepPath(s.T, times, mags, meta=meta)


def simulate_perpetuity_path(s: SimScenario, rep: int = 0) -> StepPath:
    """Step path t -> log|Y_{[nt]+1}| on [0, T], unscaled."""
    sign, mag, cancelled = _chain_mags(s.law, replication_rng(s.seed, rep), s.steps)
    return _emit_path(s, mag, np.sum(cancelled), "backward", rep)


def simulate_forward_chain_path(s: SimScenario, rep: int = 0) -> StepPath:
    """Step path t -> log|X_{[nt]+1}| on [0, T], started from x0, unscaled."""
    sign, mag, cancelled = _chain_mags(
        s.law, replication_rng(s.seed, rep), s.steps, s.x0, forward=True
    )
    return _emit_path(s, mag, np.sum(cancelled), "forward", rep)


def simulate_pakes_sum(a: float, law: CoefficientLaw, n: int, seed: int, rep: int = 0) -> float:
    """log of sum_{k=0}^{n} e^{-ak} |Q_{k+1}|, via one positive log-space pool."""
    if not (a > 0 and np.isfinite(a)):
        raise ParameterError(f"decay rate must be positive, got {a}")
    if n < 0:
        raise ParameterError(f"n must be nonnegative, got {n}")
    _, _, _, log_q = draw_log_mq(law, replication_rng(seed, rep), int(n) + 1)
    return pool_logsumexp(-a * np.arange(n + 1) + log_q)


# ---------------------------------------------------------------------------
# batch value samplers: one scalar per replication, r -> stream [seed, r].
# jobs > 1 splits the replication range across threads; the per-replication
# streams make the result identical for every split.

# the memo of the innermost open shared_batches() scope, None outside one
_SHARED = contextvars.ContextVar("shared_batches", default=None)


@contextmanager
def shared_batches():
    """Within this scope, equal batch requests share one batch table."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _run_jobs(worker, reps, jobs):
    ranges = []
    step = max(1, math.ceil(reps / max(1, jobs)))
    for start in range(0, reps, step):
        ranges.append((start, min(start + step, reps)))
    if len(ranges) <= 1 or jobs <= 1:
        return [worker(a, b) for a, b in ranges]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda ab: worker(*ab), ranges))


def _batch(law, count, reps, seed, rep_start, jobs, x0=0.0, forward=False):
    """The batch table (last, sup, endpoint flag, prefix flag) of ``reps``
    chains of ``count`` iterates, one entry per replication.

    Inside ``shared_batches()`` an equal request returns the arrays
    computed first, so the samplers hand out copies.
    """
    memo = _SHARED.get()
    key = (law, int(count), int(reps), int(seed), int(rep_start), float(x0), bool(forward))
    if memo is not None and key in memo:
        return memo[key]
    last, sup = np.empty(reps), np.empty(reps)
    end, prefix = np.zeros(reps, dtype=np.int64), np.zeros(reps, dtype=np.int64)

    def worker(lo, hi):
        for r in range(lo, hi):
            sign, mag, cancelled = _chain_mags(
                law, replication_rng(seed, rep_start + r), count, x0, forward
            )
            last[r], sup[r] = mag[-1], mag.max()
            end[r] = int(cancelled[-1]) + int(sign[-1] == 0)
            any_zero = np.count_nonzero(sign) < sign.size
            prefix[r] = np.count_nonzero(cancelled) + int(any_zero)
        return None

    _run_jobs(worker, reps, jobs)
    table = last, sup, end, prefix
    if memo is not None:
        memo[key] = table
    return table


def _backward_endpoints(law, count, reps, seed, rep_start, jobs):
    """(last, endpoint flag) of ``reps`` backward chains of ``count``
    iterates: each chain reduced to its two sign-pool totals, then one
    combine for the whole batch."""
    pos, neg = np.empty(reps), np.empty(reps)

    def worker(lo, hi):
        for r in range(lo, hi):
            coeffs = draw_log_mq(law, replication_rng(seed, rep_start + r), count)
            _, _, term_sign, term_mag = _chain_terms(*coeffs)
            pos[r], neg[r] = sign_pools(term_sign, term_mag)
        return None

    _run_jobs(worker, reps, jobs)
    sign, last, cancelled = signed_log_diff(pos, neg)
    return last, cancelled.astype(np.int64) + (sign == 0)


def backward_marginal_values(law, n, u, reps, seed, rep_start=0, jobs=1):
    """log|Y_{[nu]+1}| per replication; flags count poisoned samples.

    Outside a ``shared_batches()`` scope only the endpoint is computed;
    inside one the full batch table is, since a later sup request of the
    same batch reads every prefix.
    """
    count, reps = _index_at(n, u), _replications(reps)
    if _SHARED.get() is None:
        return _backward_endpoints(law, count, reps, seed, rep_start, jobs)
    last, _, end, _ = _batch(law, count, reps, seed, rep_start, jobs)
    return last.copy(), end.copy()


def backward_sup_values(law, n, T, reps, seed, rep_start=0, jobs=1):
    """sup over [0, T] of log|Y_{[nt]+1}| per replication."""
    count, reps = _index_at(n, T), _replications(reps)
    _, sup, _, prefix = _batch(law, count, reps, seed, rep_start, jobs)
    return sup.copy(), prefix.copy()


def forward_marginal_values(law, n, u, reps, seed, x0=0.0, rep_start=0, jobs=1):
    """log|X_{[nu]+1}| per replication, started from x0.

    Unlike the backward marginal, whose flag looks at the endpoint only, a
    forward flag counts every cancelled prefix combine up to the index and
    adds one if any iterate up to it is exactly zero.
    """
    count, reps = _index_at(n, u), _replications(reps)
    last, _, _, prefix = _batch(law, count, reps, seed, rep_start, jobs, x0, forward=True)
    return last.copy(), prefix.copy()


def forward_sup_values(law, n, T, reps, seed, x0=0.0, rep_start=0, jobs=1):
    """sup over [0, T] of log|X_{[nt]+1}| per replication."""
    count, reps = _index_at(n, T), _replications(reps)
    _, sup, _, prefix = _batch(law, count, reps, seed, rep_start, jobs, x0, forward=True)
    return sup.copy(), prefix.copy()


def pakes_values(a, law, n, reps, seed, rep_start=0, jobs=1):
    """One decayed-sum sample per replication (always cancellation-free)."""
    reps = _replications(reps)
    values = np.empty(reps)

    def worker(lo, hi):
        for r in range(lo, hi):
            values[r] = simulate_pakes_sum(a, law, n, seed, rep_start + r)
        return None

    _run_jobs(worker, reps, jobs)
    return values, np.zeros(reps, dtype=np.int64)


def write_paths_csv(paths, fp):
    """Consolidated (rep, t, value) rows for a batch of step paths."""
    fp.write("rep,t,value\n")
    for i, p in enumerate(paths):
        rep = p.meta.get("rep", i)
        values = p.values.tolist()
        rows = [f"{rep},{0.0!r},{values[0]!r}\n"]
        rows += [f"{rep},{t!r},{v!r}\n" for t, v in zip(p.times.tolist(), values[1:])]
        fp.write("".join(rows))
