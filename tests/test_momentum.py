from __future__ import annotations

import dataclasses
import io
import math

import numpy as np
import pytest

from helpers import make_timeline
from matchkit.ingest import SyntheticSpec, generate_synthetic_match
from matchkit.momentum import (
    FEATURE_SETS,
    MomentumConfig,
    build_feature_matrix,
    fibonacci,
    momentum_series,
    psychological_momentum,
    strategic_momentum,
    write_momentum_csv,
)

CFG = MomentumConfig()


def brute_force_psych(timeline, config):
    """Independent re-derivation: backward streak scan within each game."""
    fib = {1: 1, 2: 1}
    for k in range(3, 2000):
        fib[k] = fib[k - 1] + fib[k - 2]
    pts = timeline.points
    out = []
    for k, p in enumerate(pts):
        if k == 0 or (pts[k - 1].set_no, pts[k - 1].game_no) != (p.set_no, p.game_no):
            out.append(1.0)
            continue
        streak, j = 0, k
        while (j >= 0 and (pts[j].set_no, pts[j].game_no) == (p.set_no, p.game_no)
               and pts[j].point_victor == p.point_victor):
            streak += 1
            j -= 1
        base = float(fib[streak]) if p.point_victor == 1 else -float(fib[streak])
        ace = config.ace_bonus * (float(p.p1_ace) - float(p.p2_ace))
        df = config.double_fault_penalty * (float(p.p1_double_fault) - float(p.p2_double_fault))
        ue = config.unforced_error_penalty * (float(p.p1_unf_err) - float(p.p2_unf_err))
        out.append(base + ace + df + ue)
    return tuple(out)


def swap_players(timeline):
    swapped = tuple(
        dataclasses.replace(
            p,
            point_victor=3 - p.point_victor,
            server=3 - p.server,
            p1_sets=p.p2_sets, p2_sets=p.p1_sets,
            p1_games=p.p2_games, p2_games=p.p1_games,
            p1_ace=p.p2_ace, p2_ace=p.p1_ace,
            p1_double_fault=p.p2_double_fault, p2_double_fault=p.p1_double_fault,
            p1_unf_err=p.p2_unf_err, p2_unf_err=p.p1_unf_err,
            p1_distance_run=p.p2_distance_run, p2_distance_run=p.p1_distance_run,
        )
        for p in timeline.points
    )
    return dataclasses.replace(timeline, points=swapped)


class TestFibonacci:
    def test_base_cases(self):
        assert fibonacci(1) == 1
        assert fibonacci(2) == 1

    def test_unrolled(self):
        assert [fibonacci(n) for n in range(1, 8)] == [1, 1, 2, 3, 5, 8, 13]

    def test_thirtieth(self):
        assert fibonacci(30) == 832040

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fibonacci(0)
        with pytest.raises(ValueError):
            fibonacci(-3)


class TestStrategicMomentum:
    def test_tied_baseline(self):
        tl = make_timeline(victors=[1, 2])
        assert strategic_momentum(tl, CFG) == (5.0, 5.0)

    def test_lead_example(self):
        tl = make_timeline(victors=[1], p1_sets=[1], p1_games=[2])
        (value,) = strategic_momentum(tl, CFG)
        assert value == pytest.approx(1.5 * 5 * 1.2 ** 2)  # 10.8
        assert value == pytest.approx(10.8)

    def test_deficit_example(self):
        tl = make_timeline(victors=[1], p2_sets=[2], p2_games=[1])
        (value,) = strategic_momentum(tl, CFG)
        assert value == pytest.approx(5 / (1.5 ** 2 * 1.2))
        assert value == pytest.approx(1.85185, abs=1e-5)

    def test_always_positive(self, match_300):
        assert all(v > 0 for v in strategic_momentum(match_300, CFG))

    def test_closed_form_everywhere(self, match_300):
        values = strategic_momentum(match_300, CFG)
        for p, v in zip(match_300.points, values):
            m1 = CFG.b0_sets * CFG.set_factor ** (p.p1_sets - p.p2_sets)
            m2 = CFG.b0_games * CFG.game_factor ** (p.p1_games - p.p2_games)
            assert v == m1 * m2

    def test_swap_symmetry_in_log_space(self, match_300):
        m = np.array(strategic_momentum(match_300, CFG))
        m_swapped = np.array(strategic_momentum(swap_players(match_300), CFG))
        target = 2 * math.log(CFG.b0_sets * CFG.b0_games)
        np.testing.assert_allclose(np.log(m) + np.log(m_swapped), target, atol=1e-12)

    def test_config_validation(self):
        for bad in (MomentumConfig(set_factor=1.0), MomentumConfig(game_factor=0.9),
                    MomentumConfig(b0_sets=0.0), MomentumConfig(b0_games=-1.0)):
            with pytest.raises(ValueError):
                bad.check()

    @pytest.mark.parametrize("kw", [
        dict(set_factor=float("nan")), dict(game_factor=float("inf")),
        dict(b0_sets=float("nan")), dict(b0_games=float("inf")),
        dict(ace_bonus=float("inf")), dict(double_fault_penalty=float("-inf")),
        dict(unforced_error_penalty=float("nan")),
    ])
    def test_non_finite_fields_named(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            MomentumConfig(**kw).check()


class TestPsychologicalMomentum:
    def test_first_point_of_each_game_is_one(self):
        tl = make_timeline(victors=[2, 2, 1, 2], game_no=[1, 1, 2, 2],
                           aces2=[True, False, False, False])
        values = psychological_momentum(tl, CFG)
        assert values[0] == 1.0  # even with a player-2 ace on the point
        assert values[2] == 1.0

    def test_four_point_streak(self):
        tl = make_timeline(victors=[1, 1, 1, 1])
        values = psychological_momentum(tl, CFG)
        assert values == (1.0, 1.0, 2.0, 3.0)  # first pinned, then F(2), F(3), F(4)

    def test_streak_spanning_game_restart(self):
        # Streak counts restart at a game boundary along with the pin.
        tl = make_timeline(victors=[1, 1, 1, 1], game_no=[1, 1, 2, 2])
        assert psychological_momentum(tl, CFG) == (1.0, 1.0, 1.0, 1.0)

    def test_opponent_streak_with_ace(self):
        tl = make_timeline(victors=[1, 2, 2], aces2=[False, False, True])
        values = psychological_momentum(tl, CFG)
        assert values[2] == -fibonacci(2) - 1.0 == -2.0

    def test_event_adjustments_all_kinds(self):
        tl = make_timeline(
            victors=[1, 1, 2, 1],
            aces1=[False, True, False, False],
            dfs2=[False, False, False, True],
            ues1=[False, False, False, False],
            ues2=[False, False, True, False],
        )
        values = psychological_momentum(tl, CFG)
        # point 2: streak F(2)=1 plus p1 ace +1.0
        assert values[1] == 1.0 + 1.0
        # point 3: p2 streak F(1)=1 negated, plus p2 unforced error -(-0.5)
        assert values[2] == -1.0 + 0.5
        # point 4: p1 streak F(1)=1, p2 double fault -(-1.0)
        assert values[3] == 1.0 + 1.0

    def test_matches_brute_force_on_synthetic_matches(self):
        for seed in range(12):
            tl = generate_synthetic_match(SyntheticSpec(n_points=250, seed=seed))
            assert psychological_momentum(tl, CFG) == brute_force_psych(tl, CFG)

    def test_matches_brute_force_on_long_games_and_other_weights(self):
        # Streaks far past a real game's length, across set and game starts
        # that keep the same victor, under integer and odd float weights.
        rng = np.random.default_rng(17)
        n = 400
        victors = np.where(rng.random(n) < 0.9, 1, 2).tolist()
        game_no = (1 + np.cumsum(rng.random(n) < 0.02)).tolist()
        set_no = [1 + (g - 1) // 4 for g in game_no]
        flags = [rng.random(n) < 0.2 for _ in range(6)]
        aces1 = flags[0] & ~flags[2]
        aces2 = flags[1] & ~flags[3]
        tl = make_timeline(victors=victors, set_no=set_no, game_no=game_no,
                           aces1=aces1, aces2=aces2, dfs1=flags[2], dfs2=flags[3],
                           ues1=flags[4], ues2=flags[5])
        for cfg in (CFG, MomentumConfig(ace_bonus=2, double_fault_penalty=-0.7,
                                        unforced_error_penalty=-1e-3)):
            assert psychological_momentum(tl, cfg) == brute_force_psych(tl, cfg)

    def test_zero_event_config_depends_only_on_streaks(self):
        quiet = MomentumConfig(ace_bonus=0.0, double_fault_penalty=0.0,
                               unforced_error_penalty=0.0)
        tl = generate_synthetic_match(SyntheticSpec(n_points=200, seed=5))
        with_events = psychological_momentum(tl, quiet)
        stripped = dataclasses.replace(
            tl,
            points=tuple(dataclasses.replace(
                p, p1_ace=False, p2_ace=False, p1_double_fault=False,
                p2_double_fault=False, p1_unf_err=False, p2_unf_err=False)
                for p in tl.points),
        )
        assert with_events == psychological_momentum(stripped, quiet)

    def test_negates_under_player_swap(self):
        tl = generate_synthetic_match(SyntheticSpec(n_points=180, seed=9))
        base = psychological_momentum(tl, CFG)
        flipped = psychological_momentum(swap_players(tl), CFG)
        pts = tl.points
        for k, (a, b) in enumerate(zip(base, flipped)):
            first = k == 0 or (pts[k - 1].set_no, pts[k - 1].game_no) != (pts[k].set_no, pts[k].game_no)
            if first:
                assert a == b == 1.0
            else:
                assert b == -a


class TestMomentumSeries:
    def test_aligned_and_complete(self, match_300):
        series = momentum_series(match_300, CFG)
        assert len(series) == len(match_300.points)
        assert series.strategic == strategic_momentum(match_300, CFG)
        assert series.psychological == psychological_momentum(match_300, CFG)

    def test_csv_export(self, match_80):
        series = momentum_series(match_80, CFG)
        buf = io.StringIO()
        write_momentum_csv(series, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "point_index,elapsed_s,strategic,psychological"
        assert len(lines) == 1 + len(series)
        cells = lines[3].split(",")
        assert float(cells[2]) == series.strategic[2]
        assert float(cells[3]) == series.psychological[2]


class TestFeatureMatrix:
    def test_variant_shapes(self, match_80):
        series = momentum_series(match_80, CFG)
        widths = {"none": 5, "psych_only": 6, "strat_only": 6, "both": 7}
        for variant, width in widths.items():
            fm = build_feature_matrix(match_80, series, variant)
            assert fm.x.shape == (len(match_80.points), width)
            assert len(fm.names) == width

    def test_none_variant_has_no_momentum_columns(self, match_80):
        fm = build_feature_matrix(match_80, momentum_series(match_80, CFG), "none")
        assert "psychological" not in fm.names
        assert "strategic" not in fm.names

    def test_momentum_columns_equal_series(self):
        tl = make_timeline(victors=[1, 2, 1])
        series = momentum_series(tl, CFG)
        fm = build_feature_matrix(tl, series, "both")
        np.testing.assert_array_equal(fm.x[:, fm.names.index("psychological")],
                                      series.psychological)
        np.testing.assert_array_equal(fm.x[:, fm.names.index("strategic")],
                                      series.strategic)

    def test_labels(self):
        tl = make_timeline(victors=[1, 1, 1, 1])
        fm = build_feature_matrix(tl, momentum_series(tl, CFG), "both")
        assert fm.y.tolist() == [1.0, 1.0, 1.0, 1.0]
        tl2 = make_timeline(victors=[2, 1, 2])
        fm2 = build_feature_matrix(tl2, momentum_series(tl2, CFG), "none")
        assert fm2.y.tolist() == [0.0, 1.0, 0.0]

    def test_server_signed_encoding(self):
        tl = make_timeline(victors=[1, 2], servers=[1, 2])
        fm = build_feature_matrix(tl, momentum_series(tl, CFG), "none")
        col = fm.x[:, fm.names.index("server_signed")]
        assert col.tolist() == [1.0, -1.0]

    def test_speed_imputation_uses_match_mean(self):
        tl = make_timeline(victors=[1, 2, 1])
        patched = dataclasses.replace(
            tl,
            points=(
                dataclasses.replace(tl.points[0], speed_mph=100.0),
                dataclasses.replace(tl.points[1], speed_mph=None),
                dataclasses.replace(tl.points[2], speed_mph=110.0),
            ),
        )
        fm = build_feature_matrix(patched, momentum_series(patched, CFG), "none")
        col = fm.x[:, fm.names.index("speed_mph")]
        assert col.tolist() == [100.0, 105.0, 110.0]

    def test_all_speeds_missing_impute_zero(self):
        tl = make_timeline(victors=[1, 2])
        patched = dataclasses.replace(
            tl, points=tuple(dataclasses.replace(p, speed_mph=None) for p in tl.points))
        fm = build_feature_matrix(patched, momentum_series(patched, CFG), "none")
        assert fm.x[:, fm.names.index("speed_mph")].tolist() == [0.0, 0.0]

    def test_misalignment_rejected(self, match_80):
        series = momentum_series(match_80, CFG)
        shorter = dataclasses.replace(match_80, points=match_80.points[:-1])
        with pytest.raises(ValueError, match="entries"):
            build_feature_matrix(shorter, series, "both")

    def test_unknown_variant_rejected(self, match_80):
        with pytest.raises(ValueError, match="feature_set"):
            build_feature_matrix(match_80, momentum_series(match_80, CFG), "momentum")

    def test_variant_registry(self):
        assert set(FEATURE_SETS) == {"none", "psych_only", "strat_only", "both"}
