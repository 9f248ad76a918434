"""Property tests of the J1 distance between step paths."""

from hypothesis import given, settings
from hypothesis import strategies as st

from perpetuities.paths import StepPath, j1_distance, uniform_distance

from test_paths import j1_minmax_oracle

# jump times on a coarse grid ending at the horizon, so that jumps of two
# paths coincide and sometimes sit at T; integer values make gaps tie
GRID = [k / 8 for k in range(1, 9)]
VALUES = st.one_of(
    st.integers(-2, 2).map(float),
    st.floats(-4, 4, allow_nan=False, allow_subnormal=False),
)


@st.composite
def paths(draw, max_jumps=6):
    times = sorted(draw(st.sets(st.sampled_from(GRID), max_size=max_jumps)))
    values = draw(st.lists(VALUES, min_size=len(times) + 1, max_size=len(times) + 1))
    return StepPath(1.0, times, values)


@settings(max_examples=300, deadline=None)
@given(paths())
def test_distance_to_itself_is_zero(f):
    assert j1_distance(f, f) == 0.0


@settings(max_examples=300, deadline=None)
@given(paths(), paths())
def test_symmetric_bit_for_bit(f, g):
    assert j1_distance(f, g) == j1_distance(g, f)


@settings(max_examples=300, deadline=None)
@given(paths(), paths())
def test_between_endpoint_gaps_and_uniform_distance(f, g):
    # the identity is an admissible time change, and every time change
    # fixes 0 and the horizon
    d = j1_distance(f, g)
    assert d <= uniform_distance(f, g)
    ends = max(abs(f.values[0] - g.values[0]), abs(f.values[-1] - g.values[-1]))
    assert d >= ends


@settings(max_examples=300, deadline=None)
@given(paths(), paths())
def test_matches_minmax_oracle(f, g):
    assert j1_distance(f, g) == j1_minmax_oracle(f, g)
