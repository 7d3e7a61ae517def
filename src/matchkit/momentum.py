"""Strategic and psychological momentum scores plus the model feature matrix.

Strategic momentum is a stateless closed form of the score lead: a set lead of
n multiplies the set baseline by set_factor**n, a game lead likewise, and the
two terms multiply.  Psychological momentum is computed per game: the game's
first point is pinned to 1, every later point carries a signed Fibonacci
weight of the current winning streak (streak length includes the point itself
and counts from the start of the game) plus signed event adjustments.
Positive values favor player 1 throughout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._checks import check_config, check_int, real
from .ingest import MatchTimeline, _text_dest

__all__ = [
    "MomentumConfig",
    "MomentumSeries",
    "FeatureMatrix",
    "FEATURE_SETS",
    "fibonacci",
    "strategic_momentum",
    "psychological_momentum",
    "momentum_series",
    "build_feature_matrix",
    "write_momentum_csv",
]


@dataclass(frozen=True)
class MomentumConfig:
    set_factor: float = real(1.5, gt=1)
    game_factor: float = real(1.2, gt=1)
    b0_sets: float = real(1.0, gt=0)
    b0_games: float = real(5.0, gt=0)
    ace_bonus: float = real(1.0)
    double_fault_penalty: float = real(-1.0)
    unforced_error_penalty: float = real(-0.5)

    check = check_config


@dataclass(frozen=True)
class MomentumSeries:
    """Per-point momentum values aligned with the timeline (same length)."""

    indices: tuple[int, ...]
    elapsed_s: tuple[int, ...]
    strategic: tuple[float, ...]
    psychological: tuple[float, ...]
    config: MomentumConfig

    def __len__(self) -> int:
        return len(self.indices)


def fibonacci(n: int) -> int:
    """F(1) = F(2) = 1, F(n) = F(n-1) + F(n-2)."""
    check_int("n", n, minimum=1)
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def _lead_terms(b0: float, factor: float, field: str, leads: list[int]) -> dict[int, float]:
    """b0 * factor**d for each distinct lead d, refusing a factor that overflows."""
    try:
        terms = {d: b0 * factor ** d for d in set(leads)}
        if all(map(math.isfinite, terms.values())):
            return terms
    except OverflowError:
        pass
    raise ValueError(f"{field} is too large for this match's leads: b0 * {field} ** lead "
                     f"overflows, got {factor!r}")


def strategic_momentum(timeline: MatchTimeline, config: MomentumConfig | None = None) -> tuple[float, ...]:
    config = config or MomentumConfig()
    config.check()
    # Powers stay in Python floats (np.power may round differently), once
    # per distinct lead.
    set_leads = (timeline.p1_sets - timeline.p2_sets).tolist()
    game_leads = (timeline.p1_games - timeline.p2_games).tolist()
    set_term = _lead_terms(config.b0_sets, config.set_factor, "set_factor", set_leads)
    game_term = _lead_terms(config.b0_games, config.game_factor, "game_factor", game_leads)
    strategic = tuple(map(operator.mul, map(set_term.__getitem__, set_leads),
                          map(game_term.__getitem__, game_leads)))
    if not all(map(math.isfinite, strategic)):
        raise ValueError("set_factor and game_factor are too large together for this match's "
                         f"leads: the strategic momentum overflows, got {config.set_factor!r} "
                         f"and {config.game_factor!r}")
    return strategic


def psychological_momentum(timeline: MatchTimeline, config: MomentumConfig | None = None) -> tuple[float, ...]:
    config = config or MomentumConfig()
    config.check()
    n = len(timeline)
    if not n:
        return ()
    # A streak runs from a game's first point or a change of victor; the
    # first point of each game still seeds it.
    victor, set_no, game_no = timeline.point_victor, timeline.set_no, timeline.game_no
    first = np.ones(n, dtype=bool)
    first[1:] = (set_no[1:] != set_no[:-1]) | (game_no[1:] != game_no[:-1])
    breaks = first.copy()
    breaks[1:] |= victor[1:] != victor[:-1]
    rows = np.arange(n)
    count = rows - np.maximum.accumulate(np.where(breaks, rows, 0)) + 1
    fib = [0.0]  # fib[k] = float(fibonacci(k))
    a, b = 1, 1
    for _ in range(int(count.max())):
        fib.append(float(a))
        a, b = b, a + b
    magnitude = np.array(fib)[count]
    streak = np.where(victor == 1, magnitude, -magnitude)

    def signed(p1_flag, p2_flag):
        return p1_flag.astype(np.float64) - p2_flag.astype(np.float64)

    # Each term is one IEEE multiply, summed left to right as in Python.
    ace = config.ace_bonus * signed(timeline.p1_ace, timeline.p2_ace)
    df = config.double_fault_penalty * signed(timeline.p1_double_fault, timeline.p2_double_fault)
    ue = config.unforced_error_penalty * signed(timeline.p1_unf_err, timeline.p2_unf_err)
    return tuple(np.where(first, 1.0, streak + ace + df + ue).tolist())


def momentum_series(timeline: MatchTimeline, config: MomentumConfig | None = None) -> MomentumSeries:
    config = config or MomentumConfig()
    return MomentumSeries(
        indices=tuple(range(len(timeline))),
        elapsed_s=tuple(timeline.elapsed_s.tolist()),
        strategic=strategic_momentum(timeline, config),
        psychological=psychological_momentum(timeline, config),
        config=config,
    )


# Ablation variants: which momentum columns stay in the feature matrix.
FEATURE_SETS = {
    "none": (),
    "psych_only": ("psychological",),
    "strat_only": ("strategic",),
    "both": ("psychological", "strategic"),
}

_BASE_FEATURES = ("server_signed", "p1_distance_run", "p2_distance_run",
                  "rally_count", "speed_mph")


@dataclass(frozen=True)
class FeatureMatrix:
    x: np.ndarray
    y: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("feature matrix and labels disagree on row count")
        if self.x.shape[1] != len(self.names):
            raise ValueError("feature matrix and names disagree on column count")


def build_feature_matrix(timeline: MatchTimeline, momentum: MomentumSeries,
                         feature_set: str = "both") -> FeatureMatrix:
    """Assemble per-point features and the player-1 point-win label.

    Momentum columns come first (per the ablation variant), then server
    encoded as +1/-1, both distances, rally count, and serve speed with
    missing values imputed by the per-match mean (0.0 if all missing).
    """
    if feature_set not in FEATURE_SETS:
        raise ValueError(f"unknown feature_set {feature_set!r}; expected one of {sorted(FEATURE_SETS)}")
    n = len(timeline)
    if len(momentum) != n:
        raise ValueError(f"momentum series has {len(momentum)} entries for {n} points")

    momentum_cols = {
        "psychological": np.asarray(momentum.psychological, dtype=np.float64),
        "strategic": np.asarray(momentum.strategic, dtype=np.float64),
    }
    speeds = timeline.speed_mph
    known = speeds[~np.isnan(speeds)]
    fill = float(known.mean()) if known.size else 0.0
    speeds = np.where(np.isnan(speeds), fill, speeds)

    base_cols = {
        "server_signed": np.where(timeline.server == 1, 1.0, -1.0),
        "p1_distance_run": timeline.p1_distance_run,
        "p2_distance_run": timeline.p2_distance_run,
        "rally_count": timeline.rally_count.astype(np.float64),
        "speed_mph": speeds,
    }

    names = FEATURE_SETS[feature_set] + _BASE_FEATURES
    columns = [momentum_cols.get(name, base_cols.get(name)) for name in names]
    x = np.column_stack(columns)
    y = (timeline.point_victor == 1).astype(np.float64)
    return FeatureMatrix(x=x, y=y, names=names)


def write_momentum_csv(series: MomentumSeries, dest) -> None:
    rows = map("{},{},{!r},{!r}\n".format,
               series.indices, series.elapsed_s, series.strategic, series.psychological)
    with _text_dest(dest) as fh:
        fh.write("point_index,elapsed_s,strategic,psychological\n" + "".join(rows))
