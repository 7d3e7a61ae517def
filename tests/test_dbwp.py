from __future__ import annotations

import dataclasses
import io
import math
import random
import time

import pytest

from helpers import full_grid_dbwp, make_timeline, oracle_grid_derivative
from matchkit.dbwp import (
    DbwpParams,
    dbwp_scores,
    grid_time_derivative,
    windowed_win_rate,
    write_dbwp_csv,
)
from matchkit.ingest import SyntheticSpec, generate_synthetic_match


class TestWindowedWinRate:
    def test_all_won_by_player1(self):
        tl = make_timeline(victors=[1] * 10)
        for i in range(3, 8):
            assert windowed_win_rate(tl, i, 3, player=1) == 1.0
            assert windowed_win_rate(tl, i, 3, player=2) == 0.0

    def test_alternating(self):
        tl = make_timeline(victors=[1, 2] * 5)
        for i in range(2, 9):
            assert windowed_win_rate(tl, i, 2) == 0.5

    def test_hand_counted(self):
        tl = make_timeline(victors=[1, 1, 2, 1, 2, 2])
        assert windowed_win_rate(tl, 3, 2, player=1) == 0.5

    def test_out_of_range_names_interval(self):
        tl = make_timeline(victors=[1] * 6)
        with pytest.raises(ValueError, match=r"\[2, 4\]"):
            windowed_win_rate(tl, 1, 2)
        with pytest.raises(ValueError, match=r"\[2, 4\]"):
            windowed_win_rate(tl, 5, 2)

    @pytest.mark.parametrize("i", [3.5, True])
    def test_non_integer_index_names_it(self, i):
        tl = make_timeline(victors=[1] * 10)
        with pytest.raises(ValueError, match=f"^i must be an integer, got {i}$"):
            windowed_win_rate(tl, i, 1)

    def test_boundary_indices_are_valid(self):
        tl = make_timeline(victors=[1] * 6)
        assert windowed_win_rate(tl, 2, 2) == 1.0
        assert windowed_win_rate(tl, 4, 2) == 1.0

    @pytest.mark.parametrize("w_v,player,message", [
        (2.5, 1, "w_v must be an integer, got 2.5"),
        (0, 1, "w_v must be >= 1, got 0"),
        (2, 3, "player must be 1 or 2, got 3"),
        (2, True, "player must be an integer, got True"),
        (2, 1.0, "player must be an integer, got 1.0"),
    ])
    def test_bad_window_or_player_names_it(self, w_v, player, message):
        tl = make_timeline(victors=[1] * 10)
        with pytest.raises(ValueError, match=f"^{message}$"):
            windowed_win_rate(tl, 3, w_v, player=player)


class TestDbwpScores:
    def test_constant_winner_derivative_zero(self):
        tl = make_timeline(victors=[1] * 30)
        series = dbwp_scores(tl, DbwpParams(w_v=5))
        assert all(abs(d) < 1e-9 for d in series.dbwp)
        assert all(r == 1.0 for r in series.win_rate)

    def test_linear_ramp_slope(self):
        # Win rate climbs 0.1 per point, points 60 s apart -> slope 0.1/60.
        tl = make_timeline(victors=[2] * 10 + [1] * 10,
                           elapsed=[60 * (k + 1) for k in range(20)])
        series = dbwp_scores(tl, DbwpParams(w_v=5, grid_step_s=1.0))
        for d in series.dbwp:
            assert d == pytest.approx(0.1 / 60, rel=1e-9)

    def test_antisymmetry_exact(self):
        for seed in (0, 1, 2, 3):
            tl = generate_synthetic_match(SyntheticSpec(n_points=200, seed=seed))
            p1 = dbwp_scores(tl, DbwpParams(w_v=5, player=1))
            p2 = dbwp_scores(tl, DbwpParams(w_v=5, player=2))
            assert all(b == -a for a, b in zip(p1.dbwp, p2.dbwp))
            assert all(r1 + r2 == 1.0 for r1, r2 in zip(p1.win_rate, p2.win_rate))

    def test_time_shift_invariance_exact(self):
        tl = generate_synthetic_match(SyntheticSpec(n_points=150, seed=4))
        shifted = dataclasses.replace(
            tl, points=tuple(dataclasses.replace(p, elapsed_s=p.elapsed_s + 12345)
                             for p in tl.points))
        a = dbwp_scores(tl, DbwpParams())
        b = dbwp_scores(shifted, DbwpParams())
        assert a.dbwp == b.dbwp
        assert a.win_rate == b.win_rate

    def test_time_scaling_inverts_derivative(self):
        tl = generate_synthetic_match(SyntheticSpec(n_points=150, seed=6))
        scaled = dataclasses.replace(
            tl, points=tuple(dataclasses.replace(p, elapsed_s=p.elapsed_s * 3)
                             for p in tl.points))
        a = dbwp_scores(tl, DbwpParams(grid_step_s=1.0))
        b = dbwp_scores(scaled, DbwpParams(grid_step_s=3.0))
        for da, db in zip(a.dbwp, b.dbwp):
            assert 3 * db == pytest.approx(da, abs=1e-6)

    def test_duplicate_timestamps_averaged(self):
        # Valid points i=1,2,3 have centered rates 0, -1/2, 0 at times
        # 20, 20, 30; the duplicate pair averages to -1/4, so the single
        # segment has slope (0 - (-1/4)) / 10 = 0.025 everywhere.
        tl = make_timeline(victors=[1, 2, 2, 1], elapsed=[10, 20, 20, 30])
        series = dbwp_scores(tl, DbwpParams(w_v=1, grid_step_s=1.0))
        assert series.indices == (1, 2, 3)
        assert all(d == pytest.approx(0.025, rel=1e-12) for d in series.dbwp)

    def test_too_short_rejected(self):
        tl = make_timeline(victors=[1] * 10)
        with pytest.raises(ValueError, match="at least 11"):
            dbwp_scores(tl, DbwpParams(w_v=5))

    def test_single_distinct_time_rejected(self):
        tl = make_timeline(victors=[1, 2, 1, 2], elapsed=[50, 50, 50, 50])
        with pytest.raises(ValueError, match="distinct"):
            dbwp_scores(tl, DbwpParams(w_v=1))

    def test_series_shape(self, match_300):
        series = dbwp_scores(match_300, DbwpParams(w_v=7))
        assert series.indices == tuple(range(7, 294))
        assert len(series.win_rate) == len(series.dbwp) == len(series)
        assert all(0.0 <= r <= 1.0 for r in series.win_rate)

    def test_param_validation(self):
        for bad in (DbwpParams(w_v=0), DbwpParams(grid_step_s=0.0), DbwpParams(player=3)):
            with pytest.raises(ValueError):
                bad.check()

    @pytest.mark.parametrize("kw", [
        dict(grid_step_s=float("inf")), dict(grid_step_s=float("nan")),
        dict(w_v=2.5), dict(w_v=5.0),
    ])
    def test_non_finite_and_non_integer_fields_named(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            DbwpParams(**kw).check()

    def test_tiny_step_is_bounded_by_input_size(self, match_300):
        # A full grid at this step would hold ~1e13 nodes.
        started = time.perf_counter()
        series = dbwp_scores(match_300, DbwpParams(grid_step_s=1e-9))
        assert time.perf_counter() - started < 1.0
        assert len(series.dbwp) == len(series)
        assert all(math.isfinite(d) for d in series.dbwp)

    def test_grid_beyond_float_node_indices_rejected(self, match_300):
        with pytest.raises(ValueError, match="too small"):
            dbwp_scores(match_300, DbwpParams(grid_step_s=1e-300))


def _time_variants(seed, n):
    """A seeded match, a copy with many duplicate timestamps, and a copy
    whose whole span is a few seconds (often shorter than one grid step)."""
    tl = generate_synthetic_match(SyntheticSpec(n_points=n, seed=seed))
    rng = random.Random(seed)
    dup, short = [], []
    t_dup = t_short = 0
    for p in tl.points:
        t_dup += rng.choice([0, 0, 1, 3, 17, 45])
        t_short += rng.choice([0, 0, 0, 1])
        dup.append(dataclasses.replace(p, elapsed_s=t_dup))
        short.append(dataclasses.replace(p, elapsed_s=t_short))
    return (tl, dataclasses.replace(tl, points=tuple(dup)),
            dataclasses.replace(tl, points=tuple(short)))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestSparseGridEvaluation:
    """dbwp_scores evaluates only the grid nodes its points read; it must
    agree to the last bit with the derivative over the whole grid."""

    # 2.0 puts integer offsets on rounding ties (round half to even).
    STEPS = (1.0, 0.1, 1 / 3, 0.37, 7.5, 1e3, 2.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_full_grid_reference(self, seed):
        for tl in _time_variants(seed, 40 + 15 * seed):
            for step in self.STEPS:
                for player in (1, 2):
                    for w_v in (1, 2, 5):
                        params = DbwpParams(w_v=w_v, grid_step_s=step, player=player)
                        assert _outcome(dbwp_scores, tl, params) == \
                            _outcome(full_grid_dbwp, tl, params), (seed, step, player, w_v)

    @pytest.mark.parametrize("step", STEPS + (0.01,))
    def test_grid_derivative_equals_node_walk(self, step):
        rng = random.Random(int(step * 1000))
        for _ in range(20):
            times = [rng.choice([0, 5, 100])]
            for _ in range(rng.randint(1, 40)):
                times.append(times[-1] + rng.choice([1, 2, 7, 0.5, 1e-3, 30]))
            values = [rng.uniform(-1.0, 1.0) for _ in times]
            assert repr(grid_time_derivative(times, values, step)) == \
                repr(oracle_grid_derivative(times, values, step))

    @pytest.mark.parametrize("span", [21, 42, 161, 63, 119, 126])
    def test_node_count_where_the_quotient_rounds(self, span):
        # At step 0.7 these spans make ceil(span/step) + 1 one node too many
        # (21, 42, 161) or too few (63, 119, 126); the float test corrects it.
        expected = oracle_grid_derivative([0, span], [0.0, 1.0], 0.7)
        assert repr(grid_time_derivative([0, span], [0.0, 1.0], 0.7)) == repr(expected)


class TestKnotSpanBound:
    """Knot offsets are float64: a span up to 2**53 s is exact and kept, a
    longer one is refused."""

    STEP = 2.0 ** 40  # 8,193 nodes over 2**53 s

    def test_span_of_2_pow_53_equals_node_walk(self):
        times = [0, 2 ** 52 + 1, 2 ** 53]
        values = [0.0, 0.25, 1.0]
        assert repr(grid_time_derivative(times, values, self.STEP)) == \
            repr(oracle_grid_derivative(times, values, self.STEP))

    @pytest.mark.parametrize("times", [[0, 2 ** 53 + 1], [5, 7, 2 ** 53 + 6],
                                       [0.0, 2.0 ** 53 + 2], [-(2 ** 62), 2 ** 62]])
    def test_longer_span_refused(self, times):
        with pytest.raises(ValueError, match=r"^knot span .* s is past 2\*\*53 s"):
            grid_time_derivative(times, [0.0] * len(times), self.STEP)

    @pytest.mark.parametrize("base", [0, 2 ** 60])
    def test_dbwp_at_the_bound(self, base):
        # With w_v=1 the knots are the points at indices 1..4.
        elapsed = [base + t for t in (0, 10, 20, 2 ** 53 + 10, 2 ** 53 + 10)]
        tl = make_timeline(victors=[1, 2, 2, 1, 2], elapsed=elapsed)
        params = DbwpParams(w_v=1, grid_step_s=self.STEP)
        assert repr(dbwp_scores(tl, params)) == repr(full_grid_dbwp(tl, params))

    @pytest.mark.parametrize("base", [0, 2 ** 60])
    def test_dbwp_past_the_bound_refused(self, base):
        elapsed = [base + t for t in (0, 10, 20, 2 ** 53 + 11, 2 ** 53 + 11)]
        tl = make_timeline(victors=[1, 2, 2, 1, 2], elapsed=elapsed)
        with pytest.raises(ValueError, match=rf"^knot span {2 ** 53 + 1} s is past 2\*\*53 s"):
            dbwp_scores(tl, DbwpParams(w_v=1, grid_step_s=self.STEP))


class TestGridDerivative:
    def test_exact_line(self):
        times = [0, 10, 25, 40]
        values = [2.0 + 0.5 * t for t in times]
        _, deriv = grid_time_derivative(times, values, 1.0)
        for d in deriv:
            assert d == pytest.approx(0.5, rel=1e-12)

    def test_refinement_is_second_order(self):
        # Knots sampled densely from a smooth curve: halving the grid step
        # changes interior values by O(step^2).
        times = list(range(0, 301))
        values = [math.sin(t / 30.0) for t in times]

        def deriv_at(step):
            _, d = grid_time_derivative(times, values, float(step))
            return d

        d8, d4, d2 = deriv_at(8), deriv_at(4), deriv_at(2)
        K8 = len(d8) - 1

        def gap(coarse, fine, ratio, K):
            return max(abs(coarse[k] - fine[ratio * k]) for k in range(1, K))

        e8 = gap(d8, d4, 2, K8)
        e4 = gap(d4, d2, 2, len(d4) - 1)
        assert e4 <= e8 / 2.5  # ~4x shrink expected; generous to slope noise

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            grid_time_derivative([0, 5, 5], [1.0, 2.0, 3.0], 1.0)

    def test_rejects_single_knot(self):
        with pytest.raises(ValueError, match="at least 2"):
            grid_time_derivative([0], [1.0], 1.0)

    @pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf"),
                                      pytest.param(10**400, id="10**400"), True, "1"])
    def test_rejects_unusable_step(self, step):
        with pytest.raises(ValueError, match="step_s"):
            grid_time_derivative([0, 5], [0.0, 1.0], step)


class TestDbwpCsv:
    def test_layout(self, match_80):
        series = dbwp_scores(match_80, DbwpParams())
        buf = io.StringIO()
        write_dbwp_csv(series, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "point_index,elapsed_s,win_rate,dbwp"
        assert len(lines) == 1 + len(series)
        cells = lines[1].split(",")
        assert int(cells[0]) == series.indices[0]
        assert float(cells[2]) == series.win_rate[0]
        assert float(cells[3]) == series.dbwp[0]
