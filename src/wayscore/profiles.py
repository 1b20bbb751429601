"""Time-of-day edge profiles: arrival-time and score functions.

An edge's travel behaviour is captured by two functions of the departure
time (minutes since midnight, real-valued):

* :class:`ArrivalProfile` -- piecewise-linear, non-decreasing map from
  departure time to arrival time.  Non-decreasing arrivals are exactly the
  FIFO property: leaving later never gets you there earlier.
* :class:`ScoreProfile` -- piecewise-constant map from departure time to a
  non-negative score.

Both are immutable after construction and safe to share across threads; an
arrival profile computes the floors behind :meth:`ArrivalProfile.floor_after`
once, on first use, and keeps them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

# Absolute tolerance for time comparisons, in minutes.  Interpolation
# round-off is orders of magnitude below this.
TIME_EPS = 1e-9


class ProfileError(ValueError):
    """Raised for structurally invalid profile data."""


@dataclass(frozen=True)
class FifoViolation:
    """First offending breakpoint pair of a non-FIFO arrival profile."""

    index: int
    kind: str  # "arrival-decrease" | "departure-order" | "negative-travel"
    departure: float
    arrival: float

    def message(self) -> str:
        return (
            f"{self.kind} at breakpoint {self.index}: "
            f"departure={self.departure!r}, arrival={self.arrival!r}"
        )


def check_fifo(pairs: Sequence[tuple[float, float]]) -> Optional[FifoViolation]:
    """Validate a breakpoint list; return the first violation or None.

    Valid means: departures strictly increasing, arrivals non-decreasing,
    and every arrival >= its departure.  Raises ProfileError for an empty
    list or a non-finite number, which no ordering test can judge, and for
    a travel time or a gap to the previous breakpoint that overflows the
    double range: interpolating across such a gap gives ``inf * 0 = NaN``.
    So does a segment whose two gaps multiply past the double range, where
    interpolating inside it would give an infinite time.
    """
    if not pairs:
        raise ProfileError("arrival profile needs at least one breakpoint")
    inf = math.inf
    prev_x, prev_y = None, None
    steep = None
    for i, (x, y) in enumerate(pairs):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ProfileError(
                f"breakpoint {i} is not finite: departure={x!r}, arrival={y!r}"
            )
        if y < x:
            return FifoViolation(i, "negative-travel", x, y)
        if prev_x is not None:
            if x <= prev_x:
                return FifoViolation(i, "departure-order", x, y)
            if y < prev_y:
                return FifoViolation(i, "arrival-decrease", x, y)
            dx, dy = x - prev_x, y - prev_y
        else:
            dx = dy = 0.0
        # The ordering makes every gap non-negative, so overflow is +inf.
        if y - x == inf or dx == inf or dy == inf:
            raise ProfileError(
                f"breakpoint {i} overflows: its travel time or its gap to the "
                f"previous breakpoint is not finite: departure={x!r}, arrival={y!r}"
            )
        # The product bounds arrival()'s dy * (departure - x1) and
        # latest_departure()'s dx * (arrival_by - y1) on this segment.
        if steep is None and dx * dy == inf:
            steep = i
        prev_x, prev_y = x, y
    # Reported only once every breakpoint has passed the checks above, so a
    # profile that one of them rejects is named by it.
    if steep is not None:
        x, y = pairs[steep]
        raise ProfileError(
            f"breakpoint {steep} overflows: the product of its departure and "
            f"arrival gaps to the previous breakpoint is not finite: "
            f"departure={x!r}, arrival={y!r}"
        )
    return None


class ArrivalProfile:
    """Piecewise-linear departure-to-arrival map for one edge.

    Between breakpoints the arrival time is linearly interpolated.  Outside
    the breakpoint range the travel time of the nearest breakpoint is held
    constant, so a single breakpoint encodes a static edge.
    """

    __slots__ = ("xs", "ys", "_floors")

    def __init__(self, pairs: Sequence[tuple[float, float]]):
        violation = check_fifo(pairs)
        if violation is not None:
            raise ProfileError(violation.message())
        self.xs = tuple([float(x) for x, _ in pairs])
        self.ys = tuple([float(y) for _, y in pairs])
        self._floors: Optional[tuple[float, ...]] = None

    @classmethod
    def _from_checked(cls, xs: tuple, ys: tuple) -> "ArrivalProfile":
        """The profile of two tuples of floats that already pass
        :func:`check_fifo`; nothing is checked again."""
        profile = cls.__new__(cls)
        profile.xs, profile.ys, profile._floors = xs, ys, None
        return profile

    @classmethod
    def constant(cls, travel_time: float, anchor: float = 0.0) -> "ArrivalProfile":
        """Static edge with the given travel time in minutes."""
        return cls([(anchor, anchor + travel_time)])

    def pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.xs, self.ys))

    def arrival(self, departure: float) -> float:
        """Arrival time for a departure at the edge's tail."""
        xs, ys = self.xs, self.ys
        if departure <= xs[0]:
            return departure + (ys[0] - xs[0])
        if departure >= xs[-1]:
            return departure + (ys[-1] - xs[-1])
        i = bisect_right(xs, departure) - 1
        x1, x2 = xs[i], xs[i + 1]
        y1, y2 = ys[i], ys[i + 1]
        dy, dx = y2 - y1, x2 - x1
        if dy == dx:
            # Constant travel time on this segment; skipping the
            # interpolation keeps the result exact.
            return departure + (y1 - x1)
        return dy * (departure - x1) / dx + y1

    def latest_departure(self, arrival_by: float) -> float:
        """Latest departure whose arrival is <= ``arrival_by``.

        Departures are not bounded below: before the first breakpoint the
        travel time stays the first breakpoint's, so the answer may be
        negative.  On a flat (constant-arrival) stretch the right endpoint
        is returned: it is the latest departure that still makes the
        deadline.
        """
        xs, ys = self.xs, self.ys
        if arrival_by >= ys[-1]:
            dep = arrival_by - (ys[-1] - xs[-1])
        elif arrival_by < ys[0]:
            dep = arrival_by - (ys[0] - xs[0])
        else:
            # Rightmost breakpoint with arrival <= target; the segment to
            # its right is strictly increasing in arrival, so the inverse
            # interpolation is well defined.
            i = bisect_right(ys, arrival_by) - 1
            x1, x2 = xs[i], xs[i + 1]
            y1, y2 = ys[i], ys[i + 1]
            dep = (x2 - x1) * (arrival_by - y1) / (y2 - y1) + x1
            # On extremely steep segments a half-ulp of rounding in dep can
            # overshoot the deadline by a lot; walk back to feasibility.
            # The left breakpoint satisfies it exactly, so this terminates.
            for _ in range(16):
                if dep <= x1 or self.arrival(dep) <= arrival_by:
                    break
                dep = math.nextafter(dep, x1)
            else:
                dep = x1
        return dep

    def floor_after(self, t: float) -> float:
        """A bound ``b`` with ``arrival(u) >= min(arrival(t), b)`` for all ``u >= t``.

        FIFO makes the exact profile non-decreasing, but the computed one
        can fall where rounding differs between two formulas: by an ulp
        typically, and by a sizable part of the segment's rise on a segment
        narrower than the smallest normal float, where ``dy * (d - x1)``
        rounds to a subnormal before it is divided by ``dx``.  So no bound
        taken from ``math.ulp`` of the operands holds for every profile.

        The argument.  :meth:`arrival` picks one of several branches by
        comparing the departure with the breakpoints: up to ``x0``, one per
        segment (``x0 < d < x1``, then ``xk <= d < xk+1``) and from the last
        breakpoint on.  Each branch is one formula of correctly rounded
        operations, each monotone in the departure (``d - x1``, times
        ``dy >= 0``, divided by ``dx > 0``, plus ``y1``; or ``d`` plus a
        constant), so each branch is non-decreasing as computed, whatever
        the rounding, while no intermediate overflows (breakpoints below
        ``2**511`` in magnitude).  A departure ``u >= t`` then lies either in
        ``t``'s branch, where ``arrival(u) >= arrival(t)``, or in a later
        one, where ``arrival(u)`` is at least that branch's formula at the
        breakpoint it starts from: exactly ``yk`` for an interpolating
        segment (``0 * (...) / dx + yk``), and ``xk + (yk - xk)`` for a
        constant-travel one and the last branch.  The bound is the least of
        those over the branches after ``t``'s, or infinity if there are
        none; they are computed on first use and kept.
        """
        floors = self._floors
        if floors is None:
            xs, ys = self.xs, self.ys
            least = xs[-1] + (ys[-1] - xs[-1])  # the last branch
            suffix = [least]
            # the segments, last first: (x1, y1) and (x2, y2) bound each
            for x1, y1, x2, y2 in zip(xs[-2::-1], ys[-2::-1], xs[:0:-1], ys[:0:-1]):
                # the segment's formula at x1, as arrival() chooses it
                first = x1 + (y1 - x1) if y2 - y1 == x2 - x1 else y1
                if first < least:
                    least = first
                suffix.append(least)
            suffix.reverse()
            floors = self._floors = tuple(suffix)
        later = bisect_right(self.xs, t) if t > self.xs[0] else 0
        return floors[later] if later < len(floors) else math.inf

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrivalProfile)
            and self.xs == other.xs
            and self.ys == other.ys
        )

    def __hash__(self) -> int:
        return hash((self.xs, self.ys))

    def __repr__(self) -> str:
        return f"ArrivalProfile({self.pairs()!r})"


class ScoreProfile:
    """Piecewise-constant departure-to-score map for one edge.

    ``values[i]`` applies on the half-open interval
    ``[boundaries[i], boundaries[i+1])``; ``default`` applies before the
    first boundary and from the last boundary onward.
    """

    __slots__ = ("boundaries", "values", "default")

    def __init__(
        self,
        boundaries: Sequence[float] = (),
        values: Sequence[float] = (),
        default: float = 0.0,
    ):
        # A constant score, as most edges have, builds no generators: only
        # the default's checks can fail.  Arguments of other types take the
        # general path, which raises for what it cannot iterate.
        if (
            type(boundaries) in (tuple, list)
            and type(values) in (tuple, list)
            and not boundaries
            and not values
        ):
            bounds = vals = ()
            finite = math.isfinite(default)
        else:
            bounds = tuple(float(b) for b in boundaries)
            vals = tuple(float(v) for v in values)
            if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
                raise ProfileError("score boundaries must be strictly increasing")
            expected = max(len(bounds) - 1, 0)
            if len(vals) != expected:
                raise ProfileError(
                    f"expected {expected} score values for {len(bounds)} "
                    f"boundaries, got {len(vals)}"
                )
            finite = all(math.isfinite(x) for x in (*bounds, *vals, default))
        if not finite:
            raise ProfileError("score boundaries and values must be finite")
        if default < 0.0 or (vals and any(v < 0.0 for v in vals)):
            raise ProfileError("scores must be non-negative")
        self.boundaries = bounds
        self.values = vals
        self.default = float(default)

    @classmethod
    def constant(cls, score: float) -> "ScoreProfile":
        return cls((), (), score)

    def value(self, departure: float) -> float:
        """Score earned for entering the edge at ``departure``."""
        bounds = self.boundaries
        if not bounds or departure < bounds[0] or departure >= bounds[-1]:
            return self.default
        return self.values[bisect_right(bounds, departure) - 1]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ScoreProfile)
            and self.boundaries == other.boundaries
            and self.values == other.values
            and self.default == other.default
        )

    def __hash__(self) -> int:
        return hash((self.boundaries, self.values, self.default))

    def __repr__(self) -> str:
        return (
            f"ScoreProfile(boundaries={self.boundaries!r}, "
            f"values={self.values!r}, default={self.default!r})"
        )
