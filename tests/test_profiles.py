import math

import pytest
from hypothesis import example, given, settings, strategies as st

from wayscore.profiles import (
    ArrivalProfile,
    FifoViolation,
    ProfileError,
    ScoreProfile,
    check_fifo,
)


class TestArrivalEvaluation:
    def test_single_breakpoint_is_constant_travel_time(self):
        f = ArrivalProfile([(0.0, 2.0)])
        assert f.arrival(10.0) == 12.0

    def test_breakpoint_hit_returns_stored_arrival(self):
        f = ArrivalProfile([(0.0, 2.0), (4.0, 8.0)])
        assert f.arrival(0.0) == 2.0
        assert f.arrival(4.0) == 8.0

    def test_interpolation_between_breakpoints(self):
        f = ArrivalProfile([(0.0, 2.0), (4.0, 8.0)])
        # direct arithmetic on the bracketing segment
        expected = (8.0 - 2.0) * (2.0 - 0.0) / (4.0 - 0.0) + 2.0
        assert expected == 5.0
        assert f.arrival(2.0) == expected

    def test_extrapolation_before_and_after_range(self):
        f = ArrivalProfile([(10.0, 12.0), (20.0, 25.0)])
        assert f.arrival(4.0) == 4.0 + 2.0
        assert f.arrival(30.0) == 30.0 + 5.0


class TestLatestDeparture:
    def test_breakpoint_inverse(self):
        f = ArrivalProfile([(0.0, 2.0), (4.0, 8.0)])
        assert f.latest_departure(8.0) == 4.0

    def test_inverse_interpolation(self):
        f = ArrivalProfile([(0.0, 2.0), (4.0, 8.0)])
        expected = (4.0 - 0.0) * (5.0 - 2.0) / (8.0 - 2.0) + 0.0
        assert expected == 2.0
        assert f.latest_departure(5.0) == expected

    def test_flat_segment_gives_latest_endpoint(self):
        f = ArrivalProfile([(0.0, 5.0), (3.0, 5.0)])
        assert f.latest_departure(5.0) == 3.0

    def test_departure_before_midnight_is_negative(self):
        f = ArrivalProfile([(10.0, 20.0)])
        assert f.latest_departure(5.0) == -5.0
        assert f.arrival(-5.0) == 5.0

    def test_extrapolated_inverse_beyond_last_breakpoint(self):
        f = ArrivalProfile([(0.0, 2.0), (4.0, 8.0)])
        assert f.latest_departure(10.0) == 6.0

    def test_steep_segment_inverse_stays_feasible(self):
        # found by property testing: on a near-vertical segment the
        # interpolated inverse can round up past the deadline
        f = ArrivalProfile(
            [(0.0, 0.0), (5e-324, 4.0), (1.0, 4.0), (2.0, 4.0), (3.0, 4.0), (4.0, 4.0)]
        )
        d = f.latest_departure(3.0)
        assert d is not None
        assert f.arrival(d) <= 3.0


class TestScoreProfile:
    def test_interval_membership(self):
        g = ScoreProfile((0.0, 10.0, 20.0), (5.0, 7.0), 0.0)
        assert g.value(3.0) == 5.0

    def test_half_open_boundary(self):
        g = ScoreProfile((0.0, 10.0, 20.0), (5.0, 7.0), 0.0)
        assert g.value(10.0) == 7.0

    def test_default_outside_intervals(self):
        g = ScoreProfile((0.0, 10.0, 20.0), (5.0, 7.0), 0.0)
        assert g.value(25.0) == 0.0
        assert g.value(-1.0) == 0.0

    def test_constant(self):
        g = ScoreProfile.constant(4.0)
        assert g.value(0.0) == g.value(1e6) == 4.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ProfileError):
            ScoreProfile((5.0, 5.0), (1.0,), 0.0)  # not strictly increasing
        with pytest.raises(ProfileError):
            ScoreProfile((0.0, 10.0), (1.0, 2.0), 0.0)  # too many values
        with pytest.raises(ProfileError):
            ScoreProfile((0.0, 10.0), (-1.0,), 0.0)  # negative score


class TestFifoValidation:
    def test_valid_profile(self):
        assert check_fifo([(0.0, 2.0), (4.0, 8.0)]) is None

    def test_arrival_decrease_reported_with_index(self):
        v = check_fifo([(0.0, 5.0), (4.0, 4.0)])
        assert isinstance(v, FifoViolation)
        assert v.kind == "arrival-decrease"
        assert v.index == 1
        assert "arrival-decrease" in v.message()

    def test_departures_must_strictly_increase(self):
        v = check_fifo([(0.0, 2.0), (0.0, 3.0)])
        assert v is not None and v.kind == "departure-order"

    def test_negative_travel_time_rejected(self):
        v = check_fifo([(5.0, 4.0)])
        assert v is not None and v.kind == "negative-travel"

    def test_empty_rejected(self):
        with pytest.raises(ProfileError):
            check_fifo([])

    def test_constructor_enforces_fifo(self):
        with pytest.raises(ProfileError):
            ArrivalProfile([(0.0, 5.0), (4.0, 4.0)])


# --- property tests over random valid profiles ------------------------------


@st.composite
def arrival_profiles(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    xs = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    pairs = []
    prev_y = 0.0
    for x in xs:
        tt = draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
        y = max(x + tt, prev_y)
        pairs.append((x, y))
        prev_y = y
    return ArrivalProfile(pairs)


@given(arrival_profiles(), st.floats(0.0, 200.0), st.floats(0.0, 200.0))
@settings(max_examples=300)
def test_monotonicity(f, a, b):
    dt1, dt2 = min(a, b), max(a, b)
    assert f.arrival(dt1) <= f.arrival(dt2) + 1e-9


@given(arrival_profiles(), st.floats(0.0, 200.0))
@settings(max_examples=300)
def test_causality(f, dt):
    assert f.arrival(dt) >= dt - 1e-9


@given(arrival_profiles(), st.integers(0, 5), st.floats(0.001, 0.999))
@example(  # dt rounds onto x2 = 5e-324, where a flat segment begins
    ArrivalProfile(
        [(0.0, 0.0), (5e-324, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
    ),
    0,
    0.75,
)
@example(  # slope 1.2e-7: one ulp of arrival moves the inverse by 3.7e-9
    ArrivalProfile([(0.0, 2.0), (1.0, 2.0000001192092896)]), 0, 0.001
)
@settings(max_examples=300)
def test_inverse_consistency_on_increasing_segments(f, seg, frac):
    if seg >= len(f.xs) - 1:
        return
    x1, x2 = f.xs[seg], f.xs[seg + 1]
    y1, y2 = f.ys[seg], f.ys[seg + 1]
    if y2 <= y1:  # flat segment: inverse is set-valued, skip
        return
    dt = x1 + frac * (x2 - x1)
    if dt == x2:
        # rounded onto the segment's end, where the next segment may be
        # flat and make a later departure correct
        return
    arrival = f.arrival(dt)
    recovered = f.latest_departure(arrival)
    assert recovered is not None
    assert f.arrival(recovered) <= arrival
    # The inverse can be no finer than the arrival it inverts: an ulp of
    # arrival spans (x2 - x1) / (y2 - y1) ulps of departure, so near-flat
    # segments get that much more room.
    resolution = 2 * math.ulp(arrival) * (x2 - x1) / (y2 - y1)
    assert math.isclose(recovered, dt, abs_tol=1e-9 + resolution, rel_tol=1e-12)


@given(arrival_profiles(), st.floats(0.0, 300.0))
@settings(max_examples=300)
def test_inverse_maximality(f, arr):
    d = f.latest_departure(arr)
    if d is None:
        assert f.arrival(0.0) > arr
        return
    assert f.arrival(d) <= arr + 1e-9
    # strictly later departures on an increasing stretch must miss
    i = None
    for k in range(len(f.xs) - 1):
        if f.xs[k] < d < f.xs[k + 1]:
            i = k
            break
    if i is not None and f.ys[i + 1] > f.ys[i]:
        assert f.arrival(d + 1e-6) > arr


@given(arrival_profiles(), st.floats(0.0, 300.0), st.floats(0.0, 300.0))
@settings(max_examples=300)
def test_inverse_is_monotone_in_deadline(f, a, b):
    """Relaxing against a later deadline never yields an earlier departure."""
    lo, hi = min(a, b), max(a, b)
    d_lo = f.latest_departure(lo)
    d_hi = f.latest_departure(hi)
    if d_lo is None:
        return
    assert d_hi is not None
    assert d_hi >= d_lo - 1e-9


# --- the floor that keeps the search's edge thresholds sound ---------------


@st.composite
def fifo_profiles(draw):
    """Valid profiles mixing steep, flat, constant-travel and very narrow
    segments, some of them narrower than the smallest normal float, and
    some starting before time 0, where ``x + (y - x)`` can differ from
    ``y``."""
    x = draw(st.one_of(st.just(0.0), st.floats(0.0, 1500.0), st.floats(-50.0, 0.0)))
    y = x + draw(st.one_of(st.floats(0.0, 30.0), st.floats(0.0, 1e-12)))
    pairs = [(x, y)]
    for _ in range(draw(st.integers(0, 5))):
        width = draw(
            st.one_of(
                st.just(0.0),  # the next float
                st.integers(2, 8).map(lambda k: k * 5e-324),
                st.floats(5e-324, 1e-300),
                st.floats(1e-9, 1.0),
                st.floats(1.0, 120.0),
            )
        )
        x2 = x + width
        if x2 <= x:
            x2 = math.nextafter(x, math.inf)
        kind = draw(st.sampled_from(["flat", "constant", "any"]))
        if kind == "flat":
            y2 = y
        elif kind == "constant":
            y2 = x2 + (y - x)
        else:
            y2 = y + draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 60.0)))
        x, y = x2, max(y2, y, x2)
        pairs.append((x, y))
    return ArrivalProfile(pairs)


def _assert_floor_holds(f, departures):
    """``arrival(t) >= min(arrival(t0), floor_after(t0))`` for every
    ``t0 <= t`` among ``departures`` and the floats within two of each
    breakpoint, where one branch of ``arrival`` hands over to the next."""
    near = set(departures)
    for x in f.xs:
        for toward in (-math.inf, math.inf):
            z = x
            for _ in range(3):
                near.add(z)
                z = math.nextafter(z, toward)
    near = sorted(near)
    values = [f.arrival(t) for t in near]
    for i, t0 in enumerate(near):
        least = min(values[i], f.floor_after(t0))
        for later in values[i:]:
            assert later >= least


PINNED = ArrivalProfile(
    [(0.0, 0.0), (5e-324, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
)
# A steep segment three subnormal steps wide: arrival(1e-323) rounds to
# 0.333..., above arrival(1.5e-323) = 0.26, a fall no ulp of 0.26 covers.
NARROW = ArrivalProfile([(0.0, 0.0), (1.5e-323, 0.26), (1.0, 1.0)])
# Before time 0, ``x + (y - x)`` can miss ``y``.  In the first two, the
# branch from -1 (a constant-travel segment, then the last branch) starts
# at -1 + 1.0 = 0.0, below the 1e-17 the segment before it nearly reaches;
# in the third, the first branch ends at -1 + fl(1 + 1.2e-16) = 2.2e-16,
# above where the segment after it starts.
DIPS = [
    ArrivalProfile([(-3.0, 0.0), (-1.0, 1e-17), (1.0, 2.0)]),
    ArrivalProfile([(-3.0, 0.0), (-1.0, 1e-17)]),
    ArrivalProfile([(-1.0, 1.2e-16), (1.0, 1.0)]),
]


@given(fifo_profiles(), st.floats(-10.0, 1800.0), st.floats(-10.0, 1800.0))
@example(PINNED, 0.5, 7.0)
@example(NARROW, 0.5, 7.0)
@example(DIPS[0], 0.5, 7.0)
@example(DIPS[1], 0.5, 7.0)
@example(DIPS[2], 0.5, 7.0)
@settings(max_examples=300)
def test_floor_after_bounds_every_later_arrival(f, a, b):
    _assert_floor_holds(f, (a, b))


def test_floor_after_catches_a_fall():
    assert NARROW.arrival(1e-323) > NARROW.arrival(1.5e-323) == 0.26
    assert NARROW.floor_after(1e-323) == 0.26
    assert NARROW.floor_after(1.0) == math.inf  # the last branch never falls
    # where the computed arrival never falls, the floor is no lower
    for f in (PINNED, ArrivalProfile([(0.0, 2.0), (4.0, 8.0), (6.0, 8.0)])):
        for t in (-1.0, 0.0, 0.5, 1.0, 3.5, 4.0, 9.0):
            assert f.floor_after(t) >= f.arrival(t)
