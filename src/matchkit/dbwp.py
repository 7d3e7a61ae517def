"""Fluctuation scoring: time derivative of a centered sliding-window win rate.

Pipeline: (1) windowed win rate at every point where a symmetric half-open
window of 2*w_v points fits, from one prefix count of wins; (2) a uniform
time grid k*step over the span of those points, whose node count comes from
span/step in O(1); (3) central differences on the grid (one-sided at the
ends); (4) each point reports the derivative at its nearest grid node, and
only that node and its neighbours are interpolated, for all points at once:
np.rint gives the nearest node (half to even, as round() does) and
np.searchsorted each node's knot segment, so the cost is O(n log n) whatever
the step.  The interpolation and the differences are whole-array IEEE
operations in the scalar formulas' order, and `grid_time_derivative` runs
the same kernel on every node, so the output is the same, bit for bit, as
differencing the whole grid.  Knot offsets are float64, so a knot span past
2**53 s, beyond which they are not exact, is refused.

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

import math
from dataclasses import dataclass

import numpy as np

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


# Knot offsets are searched and differenced as float64, which holds every
# integer up to 2**53 exactly.
_MAX_SPAN_S = 2 ** 53


def _knot_offsets(times_s, values) -> tuple[np.ndarray, np.ndarray]:
    """Knot times as float64 offsets from the first knot, and the knot values
    as float64, after validating the knots."""
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
    if tau[-1] > _MAX_SPAN_S:
        raise ValueError(f"knot span {tau[-1]!r} s is past 2**53 s, beyond which float64 "
                         f"offsets are not exact")
    return np.array(tau, dtype=np.float64), np.array(values, dtype=np.float64)


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


def _interpolate(tau: np.ndarray, values: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolant of the knots (tau, values) at offsets
    g >= 0, clamped beyond the last knot.  Each entry is
    values[s] + (g - tau[s]) * ((values[s+1] - values[s]) / (tau[s+1] - tau[s]))
    on its segment s, one IEEE operation at a time."""
    seg = np.minimum(np.searchsorted(tau, g, side="right") - 1, len(tau) - 2)
    slope = (values[seg + 1] - values[seg]) / (tau[seg + 1] - tau[seg])
    return np.where(g >= tau[-1], values[-1], values[seg] + (g - tau[seg]) * slope)


def _node_derivatives(tau, values, nodes: np.ndarray, last: int, step_s: float) -> np.ndarray:
    """Derivative of the interpolant of (tau, values) at `nodes` of the grid
    k*step_s, k = 0..last: central differences inside, one-sided at the two
    ends."""
    step = float(step_s)
    lo = np.maximum(nodes - 1, 0)
    hi = np.minimum(nodes + 1, last)
    width = np.where((nodes == 0) | (nodes == last), step, 2 * step)
    # Overflow and NaN give their IEEE results silently, as Python floats do.
    with np.errstate(all="ignore"):
        return (_interpolate(tau, values, hi * step) - _interpolate(tau, values, lo * step)) / width


def grid_time_derivative(times_s, values, step_s: float):
    """Interpolate (times, values) onto a uniform grid and differentiate.

    times_s must be strictly increasing with at least two entries and span
    at most 2**53 s; values are read as float64.  The grid starts at
    times_s[0] with spacing step_s and covers the last knot.  Returns (grid
    offsets from times_s[0], derivative at each node).  Central differences
    at interior nodes, one-sided at the two ends.  Every arithmetic step is
    sign-symmetric in `values`.  This is the full-grid form of what
    `dbwp_scores` evaluates only at the nodes its points read, with the same
    kernel.
    """
    if not (math.isfinite(step_s) and step_s > 0):
        raise ValueError(f"step_s must be finite and positive, got {step_s!r}")
    tau, values = _knot_offsets(times_s, values)
    n_nodes = _node_count(float(tau[-1]), step_s)
    grid = [k * step_s for k in range(n_nodes)]
    deriv = _node_derivatives(tau, values, np.arange(n_nodes), n_nodes - 1, step_s)
    return grid, deriv.tolist()


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

    elapsed = timeline.elapsed_s[lo:hi + 1]
    counts = prefix_counts(timeline.point_victor, params.player)
    wins = counts[lo + w:hi + w + 1] - counts[lo - w:hi - w + 1]
    # Centered rates drive the derivative; plain rates are reported.  Each
    # is one correctly rounded division of exact integers, as in Python.
    centered = (wins - w) / (2 * w)
    rates = wins / (2 * w)

    # Collapse duplicate timestamps by averaging their centered rates,
    # summed in point order; a lone point is its own knot.
    starts = np.concatenate(([0], np.flatnonzero(elapsed[1:] != elapsed[:-1]) + 1))
    ends = np.append(starts[1:], len(elapsed))
    knot_v = centered[starts]
    for k in np.flatnonzero(ends - starts > 1).tolist():
        a, b = int(starts[k]), int(ends[k])
        total = 0.0
        for v in centered[a:b].tolist():
            total += v
        knot_v[k] = total / (b - a)
    if len(starts) < 2:
        raise ValueError("need at least 2 distinct elapsed times to differentiate")

    # Each point reads the derivative at its nearest grid node (round half
    # to even, as round() does), which needs the interpolant at that node
    # and its neighbours only.
    step = params.grid_step_s
    knot_t = elapsed[starts]
    tau, knot_v = _knot_offsets(knot_t.tolist(), knot_v)
    last = _node_count(float(tau[-1]), step) - 1
    offsets = (elapsed - knot_t[0]).astype(np.float64)
    nodes = np.clip(np.rint(offsets / step), 0, last).astype(np.int64)
    dbwp = _node_derivatives(tau, knot_v, nodes, last, step)

    return DbwpSeries(
        indices=tuple(range(lo, hi + 1)),
        elapsed_s=tuple(elapsed.tolist()),
        win_rate=tuple(rates.tolist()),
        dbwp=tuple(dbwp.tolist()),
        params=params,
    )


def write_dbwp_csv(series: DbwpSeries, dest) -> None:
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_dbwp_csv(series, fh)
            return
    rows = map("{},{},{!r},{!r}\n".format,
               series.indices, series.elapsed_s, series.win_rate, series.dbwp)
    dest.write("point_index,elapsed_s,win_rate,dbwp\n" + "".join(rows))
