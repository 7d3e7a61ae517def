"""Sliding-window performance scores with a serve factor, and per-set peak times.

For each point index i (0-based position in the timeline) with
i >= max(w_v, w_s), player 1's score counts their point wins over the trailing
victor window [i-w_v, i) plus beta times the number of points in the trailing
server window [i-w_s, i) where the opponent served; player 2 symmetrically.
Windows are half-open and strictly in the past, so the score is causal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._checks import require_finite, require_int
from .ingest import MatchTimeline, format_elapsed, prefix_counts

__all__ = [
    "WinjudParams",
    "WinjudSeries",
    "BestTime",
    "winjud_scores",
    "best_performance_times",
    "write_winjud_csv",
]


@dataclass(frozen=True)
class WinjudParams:
    w_v: int = 5
    w_s: int = 5
    beta: float = 0.5

    def check(self) -> None:
        require_int(self, "w_v", "w_s")
        require_finite(self, "beta")
        if self.w_v < 1:
            raise ValueError(f"w_v must be >= 1, got {self.w_v}")
        if self.w_s < 1:
            raise ValueError(f"w_s must be >= 1, got {self.w_s}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")


@dataclass(frozen=True)
class WinjudSeries:
    """Scores at every defined index; parallel tuples of equal length."""

    indices: tuple[int, ...]
    elapsed_s: tuple[int, ...]
    score_p1: tuple[float, ...]
    score_p2: tuple[float, ...]
    params: WinjudParams

    def __len__(self) -> int:
        return len(self.indices)


def winjud_scores(timeline: MatchTimeline, params: WinjudParams | None = None) -> WinjudSeries:
    params = params or WinjudParams()
    params.check()
    n = len(timeline)
    w_max = max(params.w_v, params.w_s)
    if n <= w_max:
        raise ValueError(
            f"timeline has {n} points but the windows require at least {w_max + 1}"
        )

    # wins1[i] / srv1[i]: player-1 point wins / serves among the first i points.
    wins1 = prefix_counts(timeline.point_victor, 1)
    srv1 = prefix_counts(timeline.server, 1)
    v1 = wins1[w_max:n] - wins1[w_max - params.w_v:n - params.w_v]
    serve1 = srv1[w_max:n] - srv1[w_max - params.w_s:n - params.w_s]
    v2 = params.w_v - v1
    serve2 = params.w_s - serve1
    # One IEEE multiply and add per entry, as in Python; tolist() gives the
    # Python scalars the writer formats.
    s1 = (v1 + params.beta * serve2).tolist()
    s2 = (v2 + params.beta * serve1).tolist()

    return WinjudSeries(
        indices=tuple(range(w_max, n)),
        elapsed_s=tuple(timeline.elapsed_s[w_max:n].tolist()),
        score_p1=tuple(s1),
        score_p2=tuple(s2),
        params=params,
    )


@dataclass(frozen=True)
class BestTime:
    set_no: int
    player: int
    elapsed_s: int
    elapsed_clock: str
    score: float


def best_performance_times(series: WinjudSeries, timeline: MatchTimeline) -> tuple[BestTime, ...]:
    """Per set and player, the elapsed time of the peak score (earliest on ties).

    Sets whose points all precede the first defined index are omitted.
    """
    if not series.indices:
        raise ValueError("series is empty")
    set_nos = timeline.set_no[np.asarray(series.indices)]
    best = []
    for player, scores in ((1, series.score_p1), (2, series.score_p2)):
        # A stable sort by set, then by falling score, puts each set's
        # earliest peak first in its run.
        order = np.lexsort((-np.asarray(scores), set_nos))
        sets, first = np.unique(set_nos[order], return_index=True)
        best += zip(sets.tolist(), itertools.repeat(player), order[first].tolist())
    best.sort()
    return tuple(
        BestTime(set_no=s, player=p, elapsed_s=series.elapsed_s[j],
                 elapsed_clock=format_elapsed(series.elapsed_s[j]),
                 score=(series.score_p1 if p == 1 else series.score_p2)[j])
        for s, p, j in best
    )


def write_winjud_csv(series: WinjudSeries, dest) -> None:
    """Long-form CSV: one row per (point, player), ready for heatmap plotting."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_winjud_csv(series, fh)
            return
    rows = map("{0},{1},1,{2!r}\n{0},{1},2,{3!r}\n".format,
               series.indices, series.elapsed_s, series.score_p1, series.score_p2)
    dest.write("point_index,elapsed_s,player,score\n" + "".join(rows))
