"""Every count of the package obeys one rule: a finite whole number at or
above its floor, or a ParameterError.  No fraction is truncated, and no
bare ValueError or IndexError escapes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from perpetuities.errors import ParameterError, whole_number
from perpetuities.functionals import bundled_instance
from perpetuities.laws import compute_bn, draw_log_mq, preset_law
from perpetuities.limits import LimitKind, PrmSpec, limit_marginal_values, sample_prm
from perpetuities.simulate import (
    SimScenario,
    backward_marginal_values,
    backward_sup_values,
    forward_marginal_values,
    forward_sup_values,
    pakes_values,
    replication_rng,
    simulate_forward_chain_path,
    simulate_perpetuity_path,
)
from perpetuities.verify import (
    VerificationReport,
    ks_threshold,
    two_sample_threshold,
    verify_forward_backward_equality,
    verify_functional_sup,
    verify_marginal,
    verify_suite,
)

CAUCHY = preset_law("cauchy")
SPEC = dict(c=1.0, alpha=1.0, T=1.0, gamma=0.5)

NUMBERS = st.one_of(
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),
    st.floats().map(np.float64),
    st.text(max_size=3),
    st.none(),
)


@given(value=NUMBERS, low=st.integers(-3, 200))
def test_whole_number_is_int_or_parameter_error(value, low):
    whole = isinstance(value, (int, np.integer)) or (
        isinstance(value, float) and math.isfinite(value) and value.is_integer()
    )
    if whole and value >= low:
        out = whole_number("count", value, low)
        assert type(out) is int and out == value
    else:
        with pytest.raises(ParameterError, match="count must be"):
            whole_number("count", value, low)


def _each_count(name, call, valid, lows):
    """(id, one-argument call, floor) for each count argument of ``call``."""
    return [
        (f"{name}.{arg}", lambda v, arg=arg: call(**{**valid, arg: v}), low)
        for arg, low in lows.items()
    ]


_BATCH = {
    "backward_marginal_values": lambda **kw: backward_marginal_values(CAUCHY, u=1.0, **kw),
    "forward_marginal_values": lambda **kw: forward_marginal_values(CAUCHY, u=1.0, **kw),
    "backward_sup_values": lambda **kw: backward_sup_values(CAUCHY, T=1.0, **kw),
    "forward_sup_values": lambda **kw: forward_sup_values(CAUCHY, T=1.0, **kw),
    "pakes_values": lambda **kw: pakes_values(CAUCHY, **kw),
}
_VERIFY = {
    "verify_marginal": lambda **kw: verify_marginal("thm11-backward", CAUCHY, u=1.0, **kw),
    "verify_forward_backward_equality":
        lambda **kw: verify_forward_backward_equality(CAUCHY, u=1.0, **kw),
    "verify_functional_sup":
        lambda **kw: verify_functional_sup("thm11-backward", CAUCHY, T=1.0, **kw),
    "verify_suite": lambda **kw: verify_suite(CAUCHY, u=1.0, T=1.0, variant="thm11-backward", **kw),
}

COUNTS = [
    ("draw_log_mq.size", lambda v: draw_log_mq(CAUCHY, np.random.default_rng(0), v), 0),
    ("compute_bn.n", lambda v: compute_bn(preset_law("regvar"), v), 1),
    ("replication_rng.seed", lambda v: replication_rng(v, 0), 0),
    ("replication_rng.rep", lambda v: replication_rng(0, v), 0),
    ("SimScenario.n", lambda v: SimScenario(CAUCHY, v), 1),
    *(
        (f"{path.__name__}.{arg}", call, 0)
        for path in (simulate_perpetuity_path, simulate_forward_chain_path)
        for arg, call in (
            ("seed", lambda v, path=path: path(SimScenario(CAUCHY, 10, seed=v))),
            ("rep", lambda v, path=path: path(SimScenario(CAUCHY, 10), rep=v)),
        )
    ),
    *(
        entry
        for name, call in _BATCH.items()
        for entry in _each_count(name, call, dict(n=10, reps=3, seed=0), dict(n=1, reps=1, seed=0))
    ),
    # the two samplers that still take the crossover probe's unread jobs
    *(
        entry
        for name in ("backward_marginal_values", "forward_marginal_values")
        for entry in _each_count(name, _BATCH[name], dict(n=10, reps=3, seed=0), dict(jobs=1))
    ),
    *_each_count("backward_marginal_values", _BATCH["backward_marginal_values"],
                 dict(n=10, reps=3, seed=0), dict(rep_start=0)),
    ("PrmSpec.seed", lambda v: PrmSpec(**SPEC, seed=v), 0),
    ("sample_prm.rep", lambda v: sample_prm(PrmSpec(**SPEC), v), 0),
    *_each_count(
        "limit_marginal_values",
        lambda **kw: limit_marginal_values(LimitKind.PEAK, PrmSpec(**SPEC), **kw),
        dict(reps=3, rep_start=0), dict(reps=1, rep_start=0),
    ),
    ("ks_threshold.reps", ks_threshold, 1),
    ("two_sample_threshold.n_first", lambda v: two_sample_threshold(v, 10), 1),
    ("two_sample_threshold.n_second", lambda v: two_sample_threshold(10, v), 1),
    *(
        entry
        for name, call in _VERIFY.items()
        for entry in _each_count(name, call, dict(n=10, R=100, seed=0), dict(n=1, R=100, seed=0))
    ),
    *_each_count("VerificationReport", VerificationReport,
                 dict(tag="Thm11-backward", n=10, R=100, u=1.0, D=0.01, threshold=0.05,
                      degenerate=0, seed=0),
                 dict(n=1, R=1, degenerate=0, seed=0)),
    ("bundled_instance.ns", lambda v: bundled_instance("single-atom", ns=[v]), 1),
    ("bundled_instance.seed", lambda v: bundled_instance("prm", seed=v), 0),
]


# every value is invalid
@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{name}={value}")
        for name, call, low in COUNTS
        for value in dict.fromkeys([2.5, -1, math.nan, math.inf, -math.inf, low - 1])
    ],
)
def test_every_count_rejects_a_non_count(call, value):
    with pytest.raises(ParameterError, match="must be"):
        call(value)


@pytest.mark.parametrize("counts", [dict(n=50.7), dict(R=100.9)], ids=["n", "R"])
def test_verify_rejects_a_fractional_count(counts):
    # both ran before, truncated to n = 50 and R = 100
    kw = {"n": 50, "R": 100, **counts}
    with pytest.raises(ParameterError):
        verify_marginal("thm11-backward", CAUCHY, u=1.0, seed=0, **kw)
