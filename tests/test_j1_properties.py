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
def paths(draw, grid=GRID, values=VALUES, max_jumps=6):
    times = sorted(draw(st.sets(st.sampled_from(grid), max_size=max_jumps)))
    values = draw(st.lists(values, min_size=len(times) + 1, max_size=len(times) + 1))
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


# tied paths: quarter-integer values and jump times on a 1/40 grid that
# ends at the horizon, so many cell gaps equal the uniform bound exactly
TIED = dict(grid=[k / 40 for k in range(1, 41)],
            values=st.integers(-8, 8).map(lambda k: k / 4), max_jumps=12)


@settings(max_examples=500, deadline=None)
@given(paths(**TIED), paths(**TIED))
def test_tied_paths_match_minmax_oracle_exactly(f, g):
    assert j1_distance(f, g) == j1_minmax_oracle(f, g)
