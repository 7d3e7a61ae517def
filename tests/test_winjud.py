from __future__ import annotations

import dataclasses
import io
import random

import pytest

from helpers import make_timeline, oracle_best_performance_times
from matchkit.ingest import SyntheticSpec, generate_synthetic_match
from matchkit.winjud import (
    WinjudParams,
    WinjudSeries,
    best_performance_times,
    winjud_scores,
    write_winjud_csv,
)


class TestWinjudScores:
    def test_hand_counted_window(self):
        # Window content at the first defined index: victors [1,1,2,1,2],
        # servers [1,2,1,2,2].
        tl = make_timeline(victors=[1, 1, 2, 1, 2, 1], servers=[1, 2, 1, 2, 2, 1])
        series = winjud_scores(tl, WinjudParams(w_v=5, w_s=5, beta=0.5))
        assert series.indices[0] == 5
        assert series.score_p1[0] == 3 + 0.5 * 3  # 4.5
        assert series.score_p2[0] == 2 + 0.5 * 2  # 3.0

    def test_beta_zero_counts_wins_only(self):
        tl = make_timeline(victors=[1, 2, 1, 1, 2, 1, 2], servers=[2] * 7)
        series = winjud_scores(tl, WinjudParams(w_v=5, w_s=5, beta=0.0))
        for k, i in enumerate(series.indices):
            wins = sum(1 for p in tl.points[i - 5:i] if p.point_victor == 1)
            assert series.score_p1[k] == wins

    def test_all_won_and_served_by_p1_beta_one(self):
        tl = make_timeline(victors=[1] * 8, servers=[1] * 8)
        series = winjud_scores(tl, WinjudParams(w_v=5, w_s=5, beta=1.0))
        assert all(s == 5.0 for s in series.score_p1)
        assert all(s == 5.0 for s in series.score_p2)

    def test_too_short_names_minimum(self):
        tl = make_timeline(victors=[1, 2, 1])
        with pytest.raises(ValueError, match="at least 6"):
            winjud_scores(tl, WinjudParams(w_v=5, w_s=3))

    def test_defined_range_and_lengths(self, match_300):
        params = WinjudParams(w_v=5, w_s=7, beta=0.4)
        series = winjud_scores(match_300, params)
        assert series.indices[0] == 7
        assert series.indices[-1] == 299
        assert len(series) == 300 - 7
        assert len(series.elapsed_s) == len(series.score_p1) == len(series.score_p2) == len(series)

    def test_scores_nonnegative(self, match_300):
        series = winjud_scores(match_300, WinjudParams())
        assert min(series.score_p1) >= 0
        assert min(series.score_p2) >= 0

    def test_param_validation(self):
        for bad in (WinjudParams(w_v=0), WinjudParams(w_s=0), WinjudParams(beta=-0.1)):
            with pytest.raises(ValueError):
                bad.check()

    @pytest.mark.parametrize("kw", [
        dict(beta=float("nan")), dict(beta=float("inf")), dict(w_v=2.5), dict(w_s=3.0),
    ])
    def test_non_finite_and_non_integer_fields_named(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            WinjudParams(**kw).check()

    def test_beta_that_overflows_the_scores_named(self):
        # beta times 1 serve is finite; beta times 2 overflows.
        tl = make_timeline(victors=[1] * 6, servers=[1] * 6)
        series = winjud_scores(tl, WinjudParams(w_v=5, w_s=1, beta=1e308))
        assert (series.score_p1, series.score_p2) == ((5.0,), (1e308,))
        with pytest.raises(ValueError) as exc:
            winjud_scores(tl, WinjudParams(w_v=5, w_s=2, beta=1e308))
        assert str(exc.value) == ("beta is too large for this match's serve windows: "
                                  "beta * serves overflows, got 1e+308")


class TestWinjudProperties:
    def test_win_flip_monotonicity(self):
        # Turning a player-2 win inside the victor window into a player-1 win
        # never decreases score_p1 anywhere.
        rng = random.Random(0)
        for _ in range(25):
            n = 20
            victors = [rng.choice([1, 2]) for _ in range(n)]
            servers = [rng.choice([1, 2]) for _ in range(n)]
            two_positions = [k for k, v in enumerate(victors) if v == 2]
            if not two_positions:
                continue
            flip = rng.choice(two_positions)
            flipped = list(victors)
            flipped[flip] = 1
            params = WinjudParams(w_v=5, w_s=5, beta=0.5)
            base = winjud_scores(make_timeline(victors, servers), params)
            bumped = winjud_scores(make_timeline(flipped, servers), params)
            assert all(b >= a for a, b in zip(base.score_p1, bumped.score_p1))

    def test_beta_zero_scores_sum_to_window(self):
        rng = random.Random(1)
        victors = [rng.choice([1, 2]) for _ in range(40)]
        for w in (1, 3, 5):
            series = winjud_scores(make_timeline(victors), WinjudParams(w_v=w, w_s=w, beta=0.0))
            assert all(a + b == w for a, b in zip(series.score_p1, series.score_p2))


class TestBestPerformanceTimes:
    def test_monotone_score_gives_last_time(self):
        # Victor window fills with player-1 wins one point at a time.
        victors = [2] * 10 + [1] * 5
        tl = make_timeline(victors)
        series = winjud_scores(tl, WinjudParams(w_v=10, w_s=10, beta=0.0))
        assert list(series.score_p1) == [0.0, 1.0, 2.0, 3.0, 4.0]
        best = best_performance_times(series, tl)
        p1 = next(b for b in best if b.player == 1)
        assert p1.elapsed_s == tl.points[-1].elapsed_s

    def test_tie_breaks_to_earliest(self):
        tl = make_timeline(victors=[1] * 9, elapsed=[100, 150, 200, 250, 300, 350, 400, 450, 500])
        series = winjud_scores(tl, WinjudParams(w_v=5, w_s=5, beta=0.5))
        assert len(set(series.score_p1)) == 1  # constant, every point ties
        best = best_performance_times(series, tl)
        p1 = next(b for b in best if b.player == 1)
        assert p1.elapsed_s == series.elapsed_s[0]

    def test_against_brute_force_scan(self, match_300):
        series = winjud_scores(match_300, WinjudParams())
        best = best_performance_times(series, match_300)
        # Independent exhaustive scan.
        expected = {}
        for i, elapsed, p1, p2 in zip(series.indices, series.elapsed_s,
                                      series.score_p1, series.score_p2):
            s = match_300.points[i].set_no
            for player, score in ((1, p1), (2, p2)):
                cur = expected.get((s, player))
                if cur is None or score > cur[0] or (score == cur[0] and elapsed < cur[1]):
                    if cur is None or score > cur[0]:
                        expected[(s, player)] = (score, elapsed)
        assert {(b.set_no, b.player): (b.score, b.elapsed_s) for b in best} == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_scan_oracle_on_seeded_matches(self, seed):
        tl = generate_synthetic_match(SyntheticSpec(n_points=150 + 90 * seed, seed=seed))
        # beta 0 and 1 give many tied scores; wide windows start past set 1.
        for w_v, w_s, beta in ((5, 5, 0.5), (3, 8, 0.0), (10, 4, 1.0), (90, 120, 0.25)):
            series = winjud_scores(tl, WinjudParams(w_v=w_v, w_s=w_s, beta=beta))
            assert repr(best_performance_times(series, tl)) == \
                repr(oracle_best_performance_times(series, tl)), (seed, w_v, w_s, beta)

    def test_equals_scan_oracle_on_short_sets(self):
        rng = random.Random(5)
        for _ in range(60):
            sets = [1 + k for k in range(rng.randint(1, 6)) for _ in range(rng.randint(1, 9))]
            n = len(sets)
            if n < 2:
                continue
            tl = make_timeline(victors=[rng.choice((1, 2)) for _ in range(n)],
                               servers=[rng.choice((1, 2)) for _ in range(n)], set_no=sets)
            params = WinjudParams(w_v=rng.randint(1, n - 1), w_s=rng.randint(1, n - 1),
                                  beta=rng.choice((0.0, 0.5, 1.0, 3.0)))
            series = winjud_scores(tl, params)
            best = best_performance_times(series, tl)
            assert repr(best) == repr(oracle_best_performance_times(series, tl))
            first_set = sets[max(params.w_v, params.w_s)]
            assert {b.set_no for b in best} == set(range(first_set, sets[-1] + 1))

    def test_clock_strings(self, match_300):
        series = winjud_scores(match_300, WinjudParams())
        for b in best_performance_times(series, match_300):
            h, m, s = b.elapsed_clock.split(":")
            assert 3600 * int(h) + 60 * int(m) + int(s) == b.elapsed_s

    def test_time_shift_shifts_best_times(self, match_80):
        shift = 1000
        shifted = dataclasses.replace(
            match_80,
            points=tuple(dataclasses.replace(p, elapsed_s=p.elapsed_s + shift)
                         for p in match_80.points),
        )
        params = WinjudParams()
        base = best_performance_times(winjud_scores(match_80, params), match_80)
        moved = best_performance_times(winjud_scores(shifted, params), shifted)
        assert len(base) == len(moved)
        for a, b in zip(base, moved):
            assert (a.set_no, a.player, a.score) == (b.set_no, b.player, b.score)
            assert b.elapsed_s == a.elapsed_s + shift

    def test_empty_series_rejected(self):
        empty = WinjudSeries(indices=(), elapsed_s=(), score_p1=(), score_p2=(),
                             params=WinjudParams())
        with pytest.raises(ValueError, match="empty"):
            best_performance_times(empty, make_timeline([1]))


class TestCsvExport:
    def test_long_form_layout(self, match_80):
        series = winjud_scores(match_80, WinjudParams())
        buf = io.StringIO()
        write_winjud_csv(series, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "point_index,elapsed_s,player,score"
        assert len(lines) == 1 + 2 * len(series)
        first = lines[1].split(",")
        assert int(first[0]) == series.indices[0]
        assert float(first[3]) == series.score_p1[0]
