"""Fluctuation scoring: time derivative of a centered sliding-window win rate.

Pipeline: (1) windowed win rate at every point where a symmetric half-open
window of 2*w_v points fits, from one prefix count of wins; (2) a uniform
time grid k*step over the span of those points, whose node count comes from
span/step in O(1); (3) central differences on the grid (one-sided at the
ends); (4) each point reports the derivative at its nearest grid node, and
only that node and its neighbours are interpolated, each found by bisection,
so the cost is O(n log n) whatever the step.  The output is the same, bit
for bit, as differencing the whole grid (`grid_time_derivative`): the same
formulas run in the same operation order at the nodes that are read.

Two exactness guarantees are engineered in, not approximated:

* Antisymmetry between players. Rates enter the pipeline centered at zero
  ((wins - w_v) / (2*w_v)), and every downstream operation — averaging,
  interpolation, differencing — is IEEE sign-symmetric, so the player-2
  series is the exact bitwise negation of the player-1 series.
* Time-shift invariance. All times are reduced to offsets from the first
  valid point before gridding (integer subtraction), so adding a constant to
  every timestamp changes nothing.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass

from ._checks import require_finite, require_int
from .ingest import MatchTimeline, prefix_counts

__all__ = [
    "DbwpParams",
    "DbwpSeries",
    "windowed_win_rate",
    "grid_time_derivative",
    "dbwp_scores",
    "write_dbwp_csv",
]


@dataclass(frozen=True)
class DbwpParams:
    w_v: int = 5
    grid_step_s: float = 1.0
    player: int = 1

    def check(self) -> None:
        require_int(self, "w_v")
        require_finite(self, "grid_step_s")
        if self.w_v < 1:
            raise ValueError(f"w_v must be >= 1, got {self.w_v}")
        if not self.grid_step_s > 0:
            raise ValueError(f"grid_step_s must be positive, got {self.grid_step_s}")
        if self.player not in (1, 2):
            raise ValueError(f"player must be 1 or 2, got {self.player}")


@dataclass(frozen=True)
class DbwpSeries:
    """One entry per point where both half-windows fit; parallel tuples."""

    indices: tuple[int, ...]
    elapsed_s: tuple[int, ...]
    win_rate: tuple[float, ...]
    dbwp: tuple[float, ...]
    params: DbwpParams

    def __len__(self) -> int:
        return len(self.indices)


def windowed_win_rate(timeline: MatchTimeline, i: int, w_v: int, player: int = 1) -> float:
    """Fraction of the 2*w_v points in [i-w_v, i+w_v) won by `player`."""
    DbwpParams(w_v=w_v, player=player).check()
    n = len(timeline)
    if not w_v <= i <= n - w_v:
        raise ValueError(f"index {i} out of range: valid indices are [{w_v}, {n - w_v}]")
    return int(prefix_counts(timeline.point_victor[i - w_v:i + w_v], player)[-1]) / (2 * w_v)


def _knot_offsets(times_s, values) -> list:
    """Knot times as offsets from the first knot, after validating the knots."""
    m = len(times_s)
    if m < 2:
        raise ValueError(f"need at least 2 knots, got {m}")
    if len(values) != m:
        raise ValueError("times and values length mismatch")
    t0 = times_s[0]
    tau = [t - t0 for t in times_s]
    for a, b in zip(tau, tau[1:]):
        if not b > a:
            raise ValueError("times must be strictly increasing")
    return tau


def _node_count(span: float, step_s: float) -> int:
    """Nodes of the grid k*step_s that first covers span: the least n >= 2
    with (n-1)*step_s >= span, in floating point.

    span/step_s estimates n in O(1); the float test then corrects the
    estimate by the rounding of the quotient, so the count equals the one a
    node-by-node walk would find.  Beyond 2**53 nodes, neighbouring node
    indices are no longer distinct floats, so such a grid is refused.
    """
    quotient = span / step_s
    if not quotient < 2 ** 53:
        raise ValueError(f"grid_step_s {step_s!r} is too small for a span of {span!r} s: "
                         f"the grid would need more than 2**53 nodes")
    n = max(2, math.ceil(quotient) + 1)
    while n > 2 and (n - 2) * step_s >= span:
        n -= 1
    while (n - 1) * step_s < span:
        n += 1
    return n


def _interpolate(tau, values, g):
    """Piecewise-linear interpolant of (tau, values) at g >= 0, clamped beyond
    the last knot."""
    if g >= tau[-1]:
        return values[-1]
    seg = bisect.bisect_right(tau, g) - 1
    slope = (values[seg + 1] - values[seg]) / (tau[seg + 1] - tau[seg])
    return values[seg] + (g - tau[seg]) * slope


def _node_derivative(interp, k: int, last: int, step_s: float) -> float:
    """Derivative at node k of a grid with nodes 0..last, where interp(j) is
    the interpolant at node j: central differences inside, one-sided at the
    two ends."""
    if k == 0:
        return (interp(1) - interp(0)) / step_s
    if k == last:
        return (interp(last) - interp(last - 1)) / step_s
    return (interp(k + 1) - interp(k - 1)) / (2 * step_s)


def grid_time_derivative(times_s, values, step_s: float):
    """Interpolate (times, values) onto a uniform grid and differentiate.

    times_s must be strictly increasing with at least two entries; the grid
    starts at times_s[0] with spacing step_s and covers the last knot.
    Returns (grid offsets from times_s[0], derivative at each node).  Central
    differences at interior nodes, one-sided at the two ends.  Every
    arithmetic step is sign-symmetric in `values`.  This is the full-grid
    form of what `dbwp_scores` evaluates only at the nodes its points read.
    """
    if not (math.isfinite(step_s) and step_s > 0):
        raise ValueError(f"step_s must be finite and positive, got {step_s!r}")
    tau = _knot_offsets(times_s, values)
    n_nodes = _node_count(float(tau[-1]), step_s)
    grid = [k * step_s for k in range(n_nodes)]
    interp = [_interpolate(tau, values, g) for g in grid]
    last = n_nodes - 1
    deriv = [_node_derivative(interp.__getitem__, k, last, step_s) for k in range(n_nodes)]
    return grid, deriv


def dbwp_scores(timeline: MatchTimeline, params: DbwpParams | None = None) -> DbwpSeries:
    params = params or DbwpParams()
    params.check()
    n = len(timeline)
    if n <= 2 * params.w_v:
        raise ValueError(
            f"timeline has {n} points but the centered window requires at least {2 * params.w_v + 1}"
        )
    w = params.w_v
    lo, hi = w, n - w  # inclusive valid index range

    indices = range(lo, hi + 1)
    elapsed = timeline.elapsed_s[lo:hi + 1].tolist()
    counts = prefix_counts(timeline.point_victor, params.player)
    wins = (counts[lo + w:hi + w + 1] - counts[lo - w:hi - w + 1]).tolist()
    # Centered rates drive the derivative; plain rates are reported.
    centered = [(c - w) / (2 * w) for c in wins]
    rates = [c / (2 * w) for c in wins]

    # Collapse duplicate timestamps by averaging their centered rates.
    knot_t: list[int] = []
    knot_v: list[float] = []
    k = 0
    while k < len(elapsed):
        j = k
        total = 0.0
        while j < len(elapsed) and elapsed[j] == elapsed[k]:
            total += centered[j]
            j += 1
        knot_t.append(elapsed[k])
        knot_v.append(total / (j - k))
        k = j
    if len(knot_t) < 2:
        raise ValueError("need at least 2 distinct elapsed times to differentiate")

    # Each point reads the derivative at its nearest grid node, which needs
    # the interpolant at that node and its neighbours only.
    step = params.grid_step_s
    tau = _knot_offsets(knot_t, knot_v)
    last = _node_count(float(tau[-1]), step) - 1

    def interp(node):
        return _interpolate(tau, knot_v, node * step)

    t0 = knot_t[0]
    out = [_node_derivative(interp, min(max(round((t - t0) / step), 0), last), last, step)
           for t in elapsed]

    return DbwpSeries(
        indices=tuple(indices),
        elapsed_s=tuple(elapsed),
        win_rate=tuple(rates),
        dbwp=tuple(out),
        params=params,
    )


def write_dbwp_csv(series: DbwpSeries, dest) -> None:
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_dbwp_csv(series, fh)
            return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["point_index", "elapsed_s", "win_rate", "dbwp"])
    for i, t, r, d in zip(series.indices, series.elapsed_s, series.win_rate, series.dbwp):
        writer.writerow([i, t, repr(r), repr(d)])
