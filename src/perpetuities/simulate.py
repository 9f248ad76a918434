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
``default_rng([s, r])``.  Every batch sampler is one per-replication
function mapped by ``_map_replications``, which returns one row per
replication; the row depends on r alone.

``batch_columns`` draws each replication once and reads every column
off that draw, as a (value, flag) pair.  Per chain a row holds the
marginal, the last log-magnitude, and the sup, its maximum.  The sup and
the forward marginal carry the prefix flag (all cancelled combines, plus
one if any iterate is exactly zero); the backward marginal carries the
endpoint flag (a cancelled last combine, plus one if the last iterate is
exactly zero); the Pakes sum's flag is always 0.  The samplers other than
``backward_marginal_values`` are lookups in that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StatisticalError, whole_number
from .laws import CoefficientLaw, draw_log_mq
from .paths import StepPath
from .slog import pool_logsumexp, sign_pools, signed_log_cumsum, signed_log_diff
# unused here, kept importable for the hooks of bench/tracing.py
from .slog import signed_log_add_arrays  # noqa: F401

@dataclass(frozen=True)
class SimScenario:
    """One simulation setting: law, scaling index, horizon, forward start, seed."""

    law: CoefficientLaw
    n: int
    T: float = 1.0
    x0: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ParameterError(f"T must be positive and finite, got {self.T}")
        if not np.isfinite(self.x0):
            raise ParameterError(f"x0 must be finite, got {self.x0}")
        _index_at(self.n, self.T)

    @property
    def steps(self) -> int:
        """Number of iterates emitted on [0, T]: [nT] + 1."""
        return _index_at(self.n, self.T)


def _index_at(n: int, u: float) -> int:
    """[nu] + 1, the number of iterates up to time u; n is a positive integer."""
    n = whole_number("n", n)
    if not (u > 0 and np.isfinite(u)):
        raise ParameterError(f"evaluation time must be positive, got {u}")
    return int(math.floor(n * u)) + 1


def replication_rng(seed: int, rep: int):
    """The dedicated generator stream of one replication."""
    seed, rep = whole_number("seed", seed, low=0), whole_number("rep", rep, low=0)
    return np.random.default_rng([seed, rep])


def _products(sign_m, log_m):
    """(sign_pi, S): the sign of Pi_k = M_1...M_k and S_k = log|Pi_k|,
    which both chains of one draw share."""
    return np.cumprod(sign_m), np.cumsum(log_m)


def _chain_terms(sign_m, log_m, sign_q, log_q, x0: float = 0.0, forward: bool = False,
                 products=None):
    """(sign_pi, S, term_sign, term_mag) of one chain's coefficient arrays.

    Backward: Y_k is the prefix sum of the terms Pi_{i-1} Q_i.  Forward:
    X_k = Pi_k (x0 + sum_{i<=k} Q_i / Pi_i), the prefix sum of x0 and the
    terms Q_i / Pi_i, times Pi_k.  ``products`` is ``_products`` of the
    same arrays, when the caller has it already.
    """
    if products is None:
        products = _products(sign_m, log_m)
    sign_pi, S = products
    if forward:
        term_sign = np.concatenate(([np.sign(x0)], sign_pi * sign_q))
        term_mag = np.concatenate(([math.log(abs(x0)) if x0 else -np.inf], log_q - S))
    else:
        term_sign = np.concatenate(([1], sign_pi[:-1])) * sign_q
        term_mag = np.concatenate(([0.0], S[:-1])) + log_q
    return sign_pi, S, term_sign, term_mag


def _chain_mags(coeffs, x0: float = 0.0, forward: bool = False, products=None):
    """(sign, logmag, cancelled) of the iterates of one chain of drawn
    coefficients ``coeffs`` (the four arrays of ``draw_log_mq``).

    ``cancelled[k]`` marks a near-total loss of magnitude in the k-th
    combine of the positive and negative pools.
    """
    sign_pi, S, term_sign, term_mag = _chain_terms(*coeffs, x0, forward, products)
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
    coeffs = draw_log_mq(s.law, replication_rng(s.seed, rep), s.steps)
    sign, mag, cancelled = _chain_mags(coeffs)
    return _emit_path(s, mag, np.sum(cancelled), "backward", rep)


def simulate_forward_chain_path(s: SimScenario, rep: int = 0) -> StepPath:
    """Step path t -> log|X_{[nt]+1}| on [0, T], started from x0, unscaled."""
    coeffs = draw_log_mq(s.law, replication_rng(s.seed, rep), s.steps)
    sign, mag, cancelled = _chain_mags(coeffs, s.x0, forward=True)
    return _emit_path(s, mag, np.sum(cancelled), "forward", rep)


# ---------------------------------------------------------------------------
# batch value samplers: one scalar per replication, r -> stream [seed, r].

def _map_replications(one, reps):
    """``np.array([one(r) for r in range(reps)])``, the only loop over
    replications, on the calling thread: the numpy calls of one
    replication are too short for a second thread to save wall time."""
    reps = whole_number("replication count", reps)
    return np.array([one(r) for r in range(reps)])


def _chain_stats(coeffs, products, forward):
    """One chain's marginal and sup as adjacent (value, flag) pairs: the
    last log-magnitude with the endpoint flag (backward) or the prefix
    flag (forward), then the maximum with the prefix flag."""
    sign, mag, cancelled = _chain_mags(coeffs, forward=forward, products=products)
    prefix = np.count_nonzero(cancelled) + int(np.count_nonzero(sign) < sign.size)
    end = prefix if forward else int(cancelled[-1]) + int(sign[-1] == 0)
    return mag[-1], end, mag.max(), prefix


def batch_columns(law, n, u, reps, seed, chains, pakes=False):
    """Fresh (values, flags) pairs read off one draw of [nu]+1 coefficients
    per replication 0..reps-1, keyed by (chain, "marginal" or "sup") for
    each chain in ``chains`` ("backward", "forward") and, with ``pakes``,
    by (None, "marginal") for the decayed sums of the drawn log|Q|.

    Each column equals its sampler's output; the backward marginal reads
    the prefix table's last entry, which ``backward_marginal_values``'
    two-pool sum matches to roundoff.
    """
    count = _index_at(n, u)
    if not set(chains) <= {"backward", "forward"}:
        raise ParameterError(f"chains must be 'backward' or 'forward', got {chains}")
    names = [(chain, stat) for chain in chains for stat in ("marginal", "sup")]
    if pakes:
        if not law.a > 0:  # Degenerate and HeavyNegM laws leave its sign unchecked
            raise ParameterError(f"decay rate must be positive, got {law.a}")
        names.append((None, "marginal"))
        decay = -law.a * np.arange(count)

    def one(r):
        coeffs = draw_log_mq(law, replication_rng(seed, r), count)
        # the Pakes sums alone need no products
        products = _products(*coeffs[:2]) if chains else None
        row = sum((_chain_stats(coeffs, products, chain == "forward") for chain in chains), ())
        return row + (pool_logsumexp(decay + coeffs[3]), 0) if pakes else row

    table = _map_replications(one, reps).T
    return {name: (table[2 * i].copy(), table[2 * i + 1].astype(np.int64))
            for i, name in enumerate(names)}


def backward_marginal_values(law, n, u, reps, seed, rep_start=0, jobs=1):
    """log|Y_{[nu]+1}| per replication with its endpoint flag; each chain
    is reduced to its two sign-pool totals, then combined in one batch."""
    whole_number("jobs", jobs)  # unread; the benchmark's crossover probe passes it
    count = _index_at(n, u)

    def one(r):
        coeffs = draw_log_mq(law, replication_rng(seed, rep_start + r), count)
        _, _, term_sign, term_mag = _chain_terms(*coeffs)
        return sign_pools(term_sign, term_mag)

    pools = _map_replications(one, reps)
    sign, last, cancelled = signed_log_diff(pools[:, 0], pools[:, 1])
    return last, cancelled.astype(np.int64) + (sign == 0)


def backward_sup_values(law, n, T, reps, seed):
    """sup over [0, T] of log|Y_{[nt]+1}| per replication."""
    return batch_columns(law, n, T, reps, seed, ("backward",))["backward", "sup"]


def forward_marginal_values(law, n, u, reps, seed, jobs=1):
    """log|X_{[nu]+1}| per replication, started from zero; unlike the
    backward marginal's endpoint flag, its flag is the prefix flag."""
    whole_number("jobs", jobs)  # unread; the benchmark's crossover probe passes it
    return batch_columns(law, n, u, reps, seed, ("forward",))["forward", "marginal"]


def forward_sup_values(law, n, T, reps, seed):
    """sup over [0, T] of log|X_{[nt]+1}| per replication, started from zero."""
    return batch_columns(law, n, T, reps, seed, ("forward",))["forward", "sup"]


def pakes_values(law, n, reps, seed):
    """log of sum_{k=0}^{n} e^{-ak} |Q_{k+1}| at a = law.a per replication,
    one positive log-space pool each (always cancellation-free)."""
    return batch_columns(law, n, 1.0, reps, seed, (), pakes=True)[None, "marginal"]
