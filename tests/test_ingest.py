from __future__ import annotations

import csv
import dataclasses
import gc
import io
import math
import random

import numpy as np
import pytest

from helpers import oracle_load_match_csv
from matchkit import ingest
from matchkit.ingest import (
    DEFAULT_SCHEMA,
    IngestError,
    MatchTimeline,
    PointRecord,
    SchemaError,
    SyntheticSpec,
    TimeFormatError,
    ValidationError,
    format_elapsed,
    generate_synthetic_match,
    load_match_csv,
    parse_elapsed_time,
    write_timeline_csv,
)

HEADER = ",".join(DEFAULT_SCHEMA[k] for k in DEFAULT_SCHEMA)


def row(match_id="m1", set_no=1, game_no=1, point_no=1, elapsed="0:00:30",
        server=1, victor=1, p1_sets=0, p2_sets=0, p1_games=0, p2_games=0,
        ace1=0, ace2=0, df1=0, df2=0, ue1=0, ue2=0,
        d1=10.5, d2=12.25, rally=3, speed="101.0"):
    return (f"{match_id},{elapsed},{set_no},{game_no},{point_no},{server},{victor},"
            f"{p1_sets},{p2_sets},{p1_games},{p2_games},{ace1},{ace2},{df1},{df2},"
            f"{ue1},{ue2},{d1},{d2},{rally},{speed}")


def make_csv(*rows):
    return io.BytesIO(("\n".join([HEADER, *rows]) + "\n").encode())


class TestParseElapsedTime:
    def test_paper_times(self):
        assert parse_elapsed_time("0:08:02") == 482
        assert parse_elapsed_time("4:18:08") == 15488

    def test_zero(self):
        assert parse_elapsed_time("0:00:00") == 0

    def test_multi_digit_hours(self):
        assert parse_elapsed_time("12:00:01") == 12 * 3600 + 1

    @pytest.mark.parametrize("bad", ["", "1:2:3", "0:60:00", "0:00:60", "0:-1:00",
                                     "00:00", "1:00:00:00", "abc", "0:08:0x"])
    def test_malformed(self, bad):
        with pytest.raises(TimeFormatError):
            parse_elapsed_time(bad)

    def test_error_names_field(self):
        with pytest.raises(TimeFormatError, match="minutes"):
            parse_elapsed_time("0:61:00")
        with pytest.raises(TimeFormatError, match="seconds"):
            parse_elapsed_time("0:00:99")

    def test_left_inverse_of_format_over_a_day(self):
        for s in range(0, 86400):
            assert parse_elapsed_time(format_elapsed(s)) == s


class TestLoadMatchCsv:
    def test_two_rows_one_match(self):
        tl = load_match_csv(make_csv(row(point_no=1), row(point_no=2, elapsed="0:01:10")))
        assert len(tl) == 1
        assert tl[0].match_id == "m1"
        assert len(tl[0].points) == 2
        assert tl[0].points[0].elapsed_s == 30
        assert tl[0].points[1].elapsed_s == 70

    def test_interleaved_matches_split_and_ordered(self):
        # Oracle: stable sort by (match_id, set, game, point), then split by id.
        raw = [
            row(match_id="b", point_no=2, game_no=1, elapsed="0:02:00"),
            row(match_id="a", point_no=1, game_no=1, elapsed="0:00:30"),
            row(match_id="b", point_no=1, game_no=1, elapsed="0:01:00"),
            row(match_id="a", point_no=3, game_no=2, elapsed="0:03:00"),
        ]
        tls = load_match_csv(make_csv(*raw))
        assert [t.match_id for t in tls] == ["a", "b"]
        assert [p.point_no for p in tls[0].points] == [1, 3]
        assert [p.point_no for p in tls[1].points] == [1, 2]
        for t in tls:
            keys = [(p.set_no, p.game_no, p.point_no) for p in t.points]
            assert keys == sorted(keys)

    def test_missing_column_names_it(self):
        header = HEADER.replace("point_victor,", "")
        body = row().split(",")
        del body[6]
        stream = io.BytesIO(f"{header}\n{','.join(body)}\n".encode())
        with pytest.raises(SchemaError, match="point_victor"):
            load_match_csv(stream)

    def test_schema_mapping_renames(self):
        header = HEADER.replace("point_victor", "winner")
        stream = io.BytesIO(f"{header}\n{row()}\n".encode())
        tls = load_match_csv(stream, schema={"point_victor": "winner"})
        assert tls[0].points[0].point_victor == 1

    def test_unknown_schema_key_rejected(self):
        with pytest.raises(SchemaError, match="nonsense"):
            load_match_csv(make_csv(row()), schema={"nonsense": "x"})

    def test_extra_columns_ignored(self):
        stream = io.BytesIO(f"{HEADER},junk\n{row()},zzz\n".encode())
        tls = load_match_csv(stream)
        assert len(tls[0].points) == 1

    def test_empty_file(self):
        with pytest.raises(SchemaError, match="empty"):
            load_match_csv(io.BytesIO(b""))

    def test_header_only(self):
        with pytest.raises(SchemaError, match="empty"):
            load_match_csv(io.BytesIO((HEADER + "\n").encode()))

    def test_bad_server_value_carries_row_number(self):
        with pytest.raises(ValidationError) as exc:
            load_match_csv(make_csv(row(), row(point_no=2, server=3, elapsed="0:01:00")))
        assert exc.value.row == 3
        assert "server" in str(exc.value)

    def test_bad_bool_rejected(self):
        with pytest.raises(ValidationError, match="0 or 1"):
            load_match_csv(make_csv(row(ace1="yes")))

    @pytest.mark.parametrize("cells,column", [(dict(d1="nan"), "p1_distance_run"),
                                              (dict(d2="inf"), "p2_distance_run"),
                                              (dict(speed="-inf"), "speed_mph")])
    def test_non_finite_number_rejected(self, cells, column):
        with pytest.raises(ValidationError, match=f"'{column}' must be finite") as exc:
            load_match_csv(make_csv(row(), row(point_no=2, elapsed="0:01:00", **cells)))
        assert exc.value.row == 3

    def test_ace_and_double_fault_conflict(self):
        with pytest.raises(ValidationError, match="ace"):
            load_match_csv(make_csv(row(ace1=1, df1=1)))

    def test_duplicate_point_key(self):
        with pytest.raises(ValidationError, match="duplicate"):
            load_match_csv(make_csv(row(), row()))

    def test_missing_speed_is_none(self):
        tls = load_match_csv(make_csv(row(speed="")))
        assert tls[0].points[0].speed_mph is None

    def test_decreasing_elapsed_rejected(self):
        with pytest.raises(ValidationError, match="elapsed"):
            load_match_csv(make_csv(row(), row(point_no=2, elapsed="0:00:10")))

    def test_game_counter_reset_needs_new_set(self):
        bad = [row(p1_games=3), row(point_no=2, p1_games=0, elapsed="0:01:00")]
        with pytest.raises(ValidationError, match="game counters"):
            load_match_csv(make_csv(*bad))
        ok = [row(p1_games=3), row(point_no=2, set_no=2, p1_sets=1, p1_games=0, elapsed="0:01:00")]
        assert len(load_match_csv(make_csv(*ok))[0].points) == 2

    def test_accepts_path(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(HEADER + "\n" + row() + "\n", encoding="utf-8")
        assert len(load_match_csv(str(path))) == 1

    def test_caller_stream_stays_open(self, tmp_path):
        data = (HEADER + "\n" + row() + "\n").encode("utf-8")
        buf = io.BytesIO(data)
        assert len(load_match_csv(buf)) == 1
        gc.collect()  # a collected, undetached wrapper would close buf
        assert not buf.closed
        assert buf.getvalue() == data
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            load_match_csv(fh)
            gc.collect()
            assert not fh.closed
            fh.seek(0)
            assert fh.read() == data


class TestRoundTrip:
    def test_write_then_load_is_identity(self, match_300):
        buf = io.StringIO()
        write_timeline_csv(match_300, buf)
        buf.seek(0)
        (reloaded,) = load_match_csv(buf)
        assert reloaded.match_id == match_300.match_id
        assert reloaded.meta == match_300.meta
        assert reloaded.points == match_300.points

    def test_carriage_return_in_text_cells(self, match_80):
        # A bare "\r" in a cell must be quoted, or the reader ends the row there.
        renamed = [dataclasses.replace(p, match_id="a\rb") for p in match_80.points]
        timeline = MatchTimeline("a\rb", tuple(renamed), {"player1": "x\ry", "player2": "z"})
        buf = io.StringIO()
        write_timeline_csv([match_80, timeline], buf)
        buf.seek(0)
        assert load_match_csv(buf) == [timeline, match_80]

    @pytest.mark.parametrize("field", ["p1_distance_run", "p2_distance_run"])
    def test_nan_distance_refused_as_loading_its_file_is(self, match_80, field):
        points = list(match_80.points)
        points[4] = dataclasses.replace(points[4], **{field: math.nan})
        message = f"{field} must be non-negative, got nan"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            points[4].check()
        timeline = MatchTimeline(match_80.match_id, points, match_80.meta)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            timeline.check()
        buf = io.StringIO()
        write_timeline_csv(timeline, buf)
        buf.seek(0)
        with pytest.raises(ValidationError, match=f"^row 6: column {field!r} must be finite"):
            load_match_csv(buf)

    @pytest.mark.parametrize("field", ["p1_distance_run", "p2_distance_run", "speed_mph"])
    def test_inf_refused_as_loading_its_file_is(self, match_80, field):
        points = list(match_80.points)
        points[4] = dataclasses.replace(points[4], **{field: math.inf})
        message = f"{field} must be finite, got inf"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            points[4].check()
        timeline = MatchTimeline(match_80.match_id, points, match_80.meta)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            timeline.check()
        buf = io.StringIO()
        write_timeline_csv(timeline, buf)
        buf.seek(0)
        with pytest.raises(ValidationError, match=f"^row 6: column {field!r} must be finite"):
            load_match_csv(buf)

    def test_nan_speed_is_missing(self, match_80):
        points = list(match_80.points)
        points[4] = dataclasses.replace(points[4], speed_mph=math.nan)
        points[4].check()
        MatchTimeline(match_80.match_id, points).check()

    def test_round_trip_via_file(self, tmp_path, match_80):
        path = str(tmp_path / "out.csv")
        write_timeline_csv(match_80, path)
        (reloaded,) = load_match_csv(path)
        assert reloaded.points == match_80.points


class TestSyntheticMatch:
    def test_deterministic(self):
        a = generate_synthetic_match(SyntheticSpec(n_points=1, seed=7))
        b = generate_synthetic_match(SyntheticSpec(n_points=1, seed=7))
        assert a == b

    def test_seed_changes_output(self):
        a = generate_synthetic_match(SyntheticSpec(n_points=50, seed=1))
        b = generate_synthetic_match(SyntheticSpec(n_points=50, seed=2))
        assert a != b

    def test_server_always_wins_at_p1(self):
        tl = generate_synthetic_match(SyntheticSpec(n_points=120, p_serve_win=1.0, seed=3))
        assert all(p.point_victor == p.server for p in tl.points)

    def test_empirical_serve_win_rate(self):
        tl = generate_synthetic_match(SyntheticSpec(n_points=500, p_serve_win=0.65, seed=42))
        rate = sum(p.point_victor == p.server for p in tl.points) / len(tl.points)
        assert abs(rate - 0.65) <= 0.06

    def test_server_alternates_by_game(self):
        tl = generate_synthetic_match(SyntheticSpec(n_points=200, seed=11))
        seen = {}
        order = []
        for p in tl.points:
            key = (p.set_no, p.game_no)
            if key not in seen:
                seen[key] = p.server
                order.append(key)
            assert seen[key] == p.server  # one server per game
        servers = [seen[k] for k in order]
        for a, b in zip(servers, servers[1:]):
            assert a != b

    def test_generated_timeline_passes_invariants(self):
        for seed in range(10):
            tl = generate_synthetic_match(SyntheticSpec(n_points=400, seed=seed))
            tl.check()  # raises on violation

    def test_invalid_spec(self):
        with pytest.raises(ValueError, match="n_points"):
            SyntheticSpec(n_points=0).check()
        with pytest.raises(ValueError, match="p_serve_win"):
            SyntheticSpec(n_points=5, p_serve_win=1.5).check()
        with pytest.raises(ValueError, match="ace_rate"):
            SyntheticSpec(n_points=5, ace_rate=-0.1).check()

    @pytest.mark.parametrize("fields,name", [
        (dict(n_points=2.5), "n_points"),
        (dict(seed=1.5), "seed"),
        (dict(mean_point_duration_s=float("nan")), "mean_point_duration_s"),
        (dict(mean_point_duration_s=float("inf")), "mean_point_duration_s"),
        (dict(p_serve_win=float("nan")), "p_serve_win"),
        (dict(unf_err_rate=float("inf")), "unf_err_rate"),
        (dict(mean_point_duration_s=1.5e308), "mean_point_duration_s"),
    ])
    def test_spec_error_names_the_field(self, fields, name):
        spec = SyntheticSpec(**{"n_points": 5, **fields})
        with pytest.raises(ValueError, match=f"^{name} must be"):
            generate_synthetic_match(spec)


class TestRecordInvariants:
    def test_point_record_is_frozen(self, match_80):
        with pytest.raises(AttributeError):
            match_80.points[0].server = 2

    def test_timeline_requires_points(self):
        with pytest.raises(ValidationError, match="no points"):
            MatchTimeline(match_id="x", points=()).check()

    def test_sets_cap(self):
        p = PointRecord(
            match_id="m", set_no=1, game_no=1, point_no=1, elapsed_s=0, server=1,
            point_victor=1, p1_sets=3, p2_sets=3, p1_games=0, p2_games=0,
            p1_ace=False, p2_ace=False, p1_double_fault=False, p2_double_fault=False,
            p1_unf_err=False, p2_unf_err=False, p1_distance_run=0.0,
            p2_distance_run=0.0, rally_count=0,
        )
        with pytest.raises(ValidationError, match="sets"):
            p.check()

    def test_ingest_error_hierarchy(self):
        assert issubclass(SchemaError, IngestError)
        assert issubclass(ValidationError, IngestError)
        assert issubclass(IngestError, ValueError)


def _csv_rows(timelines):
    buf = io.StringIO()
    write_timeline_csv(timelines, buf)
    return list(csv.reader(io.StringIO(buf.getvalue())))


def _csv_bytes(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


def _load_both(data, schema=None):
    """(outcome of load_match_csv, outcome of the reference loader) on `data`.

    An outcome is the list of timelines, or (type, message, row) of the error.
    """
    outcomes = []
    for load in (load_match_csv, oracle_load_match_csv):
        try:
            outcomes.append(load(io.BytesIO(data), schema))
        except IngestError as exc:
            outcomes.append((type(exc), str(exc), getattr(exc, "row", None)))
    return outcomes


def _matches(n_matches, n_points, seed):
    return [generate_synthetic_match(SyntheticSpec(n_points=n_points, seed=seed + k,
                                                   match_id=f"m-{seed}-{k}"))
            for k in range(n_matches)]


class TestMatchesReferenceLoader:
    """load_match_csv against the row-by-row reference loader in tests/helpers.py."""

    def assert_same(self, rows, schema=None):
        new, reference = _load_both(_csv_bytes(rows), schema)
        assert new == reference
        if isinstance(reference, list):
            assert [tl.meta for tl in new] == [tl.meta for tl in reference]
        return new

    @pytest.mark.parametrize("seed", range(3))
    def test_single_match(self, seed):
        (tl,) = self.assert_same(_csv_rows(_matches(1, 200, seed)))
        assert tl == _matches(1, 200, seed)[0]

    def test_multi_match_rows_out_of_order(self):
        header, *body = _csv_rows(_matches(4, 90, seed=11))
        # Player cells that differ by row: meta comes from each match's first point.
        rng = random.Random(3)
        for k, row in enumerate(body):
            row[1:3] = rng.choice([(f"a{k}", f"b{k}"), ("", f"c{k}"), ("", "")])
        rng.shuffle(body)
        assert len(self.assert_same([header, *body])) == 4

    def test_no_player_columns(self):
        rows = _csv_rows(_matches(2, 50, seed=5))
        keep = [k for k, name in enumerate(rows[0]) if name not in ("player1", "player2")]
        (a, b) = self.assert_same([[row[k] for k in keep] for row in rows])
        assert a.meta == b.meta == {}

    def test_schema_remap(self):
        rows = _csv_rows(_matches(2, 50, seed=6))
        schema = {"point_victor": "winner", "elapsed_time": "clock", "speed_mph": "speed"}
        rows[0] = [schema.get(name, name) for name in rows[0]]
        self.assert_same(rows, schema)

    def test_whitespace_padded_cells(self):
        header, *body = _csv_rows(_matches(2, 60, seed=7))
        rng = random.Random(8)
        pads = ["", " ", "\t", "  "]
        padded = [[cell if k == 0 else rng.choice(pads) + cell + rng.choice(pads)
                   for k, cell in enumerate(row)] for row in body]
        self.assert_same([header, *padded])

    def test_empty_speed_and_extra_columns(self):
        header, *body = _csv_rows(_matches(2, 60, seed=9))
        speed = header.index("speed_mph")
        for k, row in enumerate(body):
            if k % 3 == 0:
                row[speed] = ""
        rows = [header + ["note", "speed_mph_2"]] + [row + ["x", "nan"] for row in body]
        (a, _) = self.assert_same(rows)
        assert a.points[0].speed_mph is None

    # Cells every parser must treat exactly as the reference does.
    JUNK = ("", " ", "x", "nan", "inf", "-1", "1.5", "3", "0:00:99", "1_0", "\u0661",
            " 1", "0 ", "2", "0", "1e999", "-0", "+1")

    @pytest.mark.parametrize("column", list(DEFAULT_SCHEMA.values()))
    def test_every_junk_value_in_every_column(self, column):
        header, *body = _csv_rows(_matches(2, 40, seed=21))
        position = header.index(column)
        rng = random.Random(column)
        for junk in self.JUNK:
            for target in rng.sample(range(len(body)), 3):
                corrupted = [list(row) for row in body]
                corrupted[target][position] = junk
                self.assert_same([header, *corrupted])

    def test_seeded_multi_cell_corruptions(self):
        header, *body = _csv_rows(_matches(3, 30, seed=31))
        rng = random.Random(32)
        failures = 0
        for _ in range(300):
            corrupted = [list(row) for row in body]
            rows = rng.sample(corrupted, 2)  # several bad cells in one row test their order
            for _ in range(rng.randint(2, 6)):
                rng.choice(rows)[rng.randrange(len(header))] = rng.choice(self.JUNK)
            if rng.random() < 0.1:
                del rng.choice(corrupted)[-1]  # a short row
            failures += not isinstance(self.assert_same([header, *corrupted]), list)
        assert failures > 200  # most corruptions must be refused, not just ignored

    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    def test_files_read_in_small_blocks(self, block_rows, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
        header, *body = _csv_rows(_matches(3, 40, seed=41))
        rng = random.Random(block_rows)
        rng.shuffle(body)
        self.assert_same([header, *body])
        for _ in range(40):
            corrupted = [list(row) for row in body]
            for _ in range(rng.randint(1, 3)):
                k = rng.randrange(len(corrupted))
                if rng.random() < 0.3:
                    corrupted.insert(k, list(corrupted[rng.randrange(len(corrupted))]))
                else:
                    corrupted[k][rng.randrange(len(header))] = rng.choice(self.JUNK)
            if rng.random() < 0.3:
                corrupted.insert(rng.randrange(len(corrupted)), [])
            self.assert_same([header, *corrupted])

    def test_clocks_crossing_ten_hours(self):
        # The clock column widens from 7 to 8 characters mid-file.
        (tl,) = _matches(1, 260, seed=51)
        tl = MatchTimeline(tl.match_id, [dataclasses.replace(p, elapsed_s=p.elapsed_s * 5)
                                         for p in tl.points], tl.meta)
        header, *body = _csv_rows([tl])
        clock = header.index("elapsed_time")
        assert {len(r[clock]) for r in body} == {7, 8}
        assert self.assert_same([header, *body]) == [tl]
        body[0][clock], body[1][clock] = "9:59:59", "10:00:00"
        (two,) = self.assert_same([header, *body[:2]])
        assert two.elapsed_s.tolist() == [35999, 36000]

    def test_loaded_record_equals_keyword_record(self):
        (tl,) = load_match_csv(make_csv(row(speed="")))
        (loaded,) = tl.points
        built = PointRecord(
            match_id="m1", set_no=1, game_no=1, point_no=1, elapsed_s=30, server=1,
            point_victor=1, p1_sets=0, p2_sets=0, p1_games=0, p2_games=0,
            p1_ace=False, p2_ace=False, p1_double_fault=False, p2_double_fault=False,
            p1_unf_err=False, p2_unf_err=False, p1_distance_run=10.5,
            p2_distance_run=12.25, rally_count=3, speed_mph=None,
        )
        assert loaded == built
        assert hash(loaded) == hash(built)
        assert repr(loaded) == repr(built)
        assert dataclasses.replace(loaded, server=2) == dataclasses.replace(built, server=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            loaded.server = 2


class TestClockColumn:
    """The column-wise clock parse takes only clean H:MM:SS columns of one
    width; every other column goes to the per-cell parser."""

    def test_clean_columns_read_as_the_cell_parser_reads_them(self):
        for cells in (("0:00:00", "1:02:03", "9:59:59"), ("00:00:07", "10:00:00", "99:59:59"),
                      ("123456:00:01", "999999:59:59"), ("000001:30:00",)):
            column = ingest._clock_column(cells)
            assert column.dtype == np.int64
            assert column.tolist() == [parse_elapsed_time(c) for c in cells]

    @pytest.mark.parametrize("cells", [
        ("1:00:00", "10:00:00"), ("1:00:00", "1:00:0"), ("1:00:00\x00",), ("1:0\x000:00",),
        ("\u0661:00:00",), ("1:\uff10\uff10:00",), (" 1:00:00",), ("1:00:00 ",), ("1:60:00",),
        ("1:00:60",), (":00:00",), ("1234567:00:00",), ("9" * 25 + ":00:00",), ("",), ("", ""),
        (), ("1-00:00",), ("1:00:00:",), ("a:00:00",), ("1000:00",), ("1:00500",),
        ("1:00:00", "1:00:00 "), ("1:00:00", "1:00:001"),
    ])
    def test_other_columns_refused(self, cells):
        with pytest.raises(ValueError):
            ingest._clock_column(cells)


class TestInt64Cells:
    """Timeline columns are int64: a larger integer cell, or a clock past
    2**63 - 1 seconds, is refused with the column and the file row."""

    @pytest.mark.parametrize("cells,column,value", [
        (dict(rally="1" + "0" * 20), "rally_count", "1" + "0" * 20),
        (dict(rally=str(2 ** 63)), "rally_count", str(2 ** 63)),
        (dict(p1_games="-" + "9" * 20), "p1_games", "-" + "9" * 20),
        (dict(set_no=" " + "7" * 25), "set_no", " " + "7" * 25),
    ])
    def test_integer_past_int64(self, cells, column, value):
        with pytest.raises(ValidationError) as exc:
            load_match_csv(make_csv(row(), row(point_no=2, elapsed="0:01:00", **cells), row(point_no=3)))
        assert exc.value.row == 3
        assert str(exc.value) == f"row 3: column {column!r} does not fit in a 64-bit integer: {value!r}"

    def test_clock_past_int64_seconds(self):
        clock = "9" * 25 + ":00:00"
        with pytest.raises(ValidationError) as exc:
            load_match_csv(make_csv(row(), row(point_no=2, elapsed=clock)))
        assert exc.value.row == 3
        assert str(exc.value) == ("row 3: column 'elapsed_time' does not fit in a 64-bit "
                                  f"integer of seconds: {clock!r}")

    def test_earlier_row_error_wins_over_a_clock_past_the_digit_limit(self):
        # int() refuses the 5,000-digit hour with a plain ValueError; the
        # bad server two rows up must still be the error reported.
        rows = [row(), row(point_no=2, elapsed="0:01:00", server=3),
                row(point_no=3, elapsed="9" * 5000 + ":00:00")]
        with pytest.raises(ValidationError, match="server must be 1 or 2") as exc:
            load_match_csv(make_csv(*rows))
        assert exc.value.row == 3

    def test_largest_values_load(self):
        hours = (2 ** 63 - 1) // 3600
        last = f"{hours}:{(2 ** 63 - 1) % 3600 // 60:02d}:{(2 ** 63 - 1) % 60:02d}"
        (tl,) = load_match_csv(make_csv(row(elapsed=f"{hours}:00:00", rally=str(2 ** 63 - 1)),
                                        row(point_no=2, elapsed=last)))
        assert tl.elapsed_s.tolist() == [3600 * hours, 2 ** 63 - 1]
        assert tl.rally_count.tolist() == [2 ** 63 - 1, 3]
        with pytest.raises(ValidationError, match="64-bit integer of seconds"):
            load_match_csv(make_csv(row(elapsed=f"{hours}:{(2 ** 63 - 1) % 3600 // 60:02d}:"
                                                f"{(2 ** 63 - 1) % 60 + 1:02d}")))


class TestColumns:
    def test_column_dtypes(self, match_80):
        for name in MatchTimeline.COLUMNS:
            column = getattr(match_80, name)
            assert column.shape == (80,)
            if name in ("p1_ace", "p2_ace", "p1_double_fault", "p2_double_fault",
                        "p1_unf_err", "p2_unf_err"):
                assert column.dtype == np.bool_
            elif name in ("p1_distance_run", "p2_distance_run", "speed_mph"):
                assert column.dtype == np.float64
            else:
                assert column.dtype == np.int64

    def test_columns_are_read_only(self, match_80):
        for name in MatchTimeline.COLUMNS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(match_80, name)[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            match_80.server = match_80.server.copy()
        # loaded matches hold slices of whole-file columns
        for loaded in load_match_csv(make_csv(row(), row(match_id="m2"))):
            with pytest.raises(ValueError, match="read-only"):
                loaded.elapsed_s[0] = 1

    def test_len_of_points_builds_no_record(self, match_80, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a PointRecord was built")

        monkeypatch.setattr(PointRecord, "__init__", refuse)
        assert len(match_80.points) == len(match_80) == 80
        with pytest.raises(AssertionError, match="was built"):
            match_80.points[0]

    def test_points_view_matches_reference_records(self, monkeypatch):
        import helpers

        data = _csv_bytes(_csv_rows(_matches(2, 60, seed=13)))
        records = {}

        class Capture:
            """Keeps the reference loader's keyword-built records."""

            def __init__(self, match_id, points, meta):
                records[match_id] = points

            def check(self):
                pass

        monkeypatch.setattr(helpers, "MatchTimeline", Capture)
        oracle_load_match_csv(io.BytesIO(data))
        timelines = load_match_csv(io.BytesIO(data))
        assert sorted(records) == [tl.match_id for tl in timelines]
        for tl in timelines:
            expected = records[tl.match_id]
            points = tl.points
            assert len(points) == len(expected)
            for i in (0, 1, 17, len(expected) - 1, -1, -len(expected)):
                assert type(points[i]) is PointRecord
                assert points[i] == expected[i]
                assert repr(points[i]) == repr(expected[i])
            for sl in (slice(None), slice(3, 9), slice(None, None, -2), slice(-5, None), slice(8, 2)):
                assert points[sl] == expected[sl]
            assert list(points) == list(expected)
            assert points == expected
            with pytest.raises(IndexError):
                points[len(expected)]
            with pytest.raises(IndexError):
                points[-len(expected) - 1]
        assert any(p.speed_mph is None for tl in timelines for p in tl.points)

    def test_timeline_equality(self, match_80):
        buf = io.StringIO()
        write_timeline_csv(match_80, buf)
        (reloaded,) = load_match_csv(io.BytesIO(buf.getvalue().encode()))
        assert np.isnan(match_80.speed_mph).any()  # missing speeds compare equal
        assert reloaded == match_80
        assert dataclasses.replace(reloaded) == match_80
        renamed = [dataclasses.replace(p, match_id="other") for p in match_80.points]
        assert MatchTimeline("other", renamed, match_80.meta) != match_80
        assert dataclasses.replace(reloaded, meta={}) != match_80
        changed = list(match_80.points)
        changed[40] = dataclasses.replace(changed[40], speed_mph=None if changed[40].speed_mph else 99.0)
        assert MatchTimeline(match_80.match_id, changed, match_80.meta) != match_80
        assert MatchTimeline(match_80.match_id, match_80.points[:-1], match_80.meta) != match_80
        with pytest.raises(TypeError):
            hash(match_80)

    def test_record_with_other_match_id_refused(self, match_80):
        points = list(match_80.points)
        points[5] = dataclasses.replace(points[5], match_id="elsewhere")
        with pytest.raises(ValidationError, match="carries match_id 'elsewhere'"):
            MatchTimeline(match_80.match_id, points)

    def test_other_timelines_points_refused_under_a_new_match_id(self, match_80):
        with pytest.raises(ValidationError) as exc:
            MatchTimeline("elsewhere", match_80.points, match_80.meta)
        assert str(exc.value) == (f"point carries match_id {match_80.match_id!r} "
                                  "inside timeline 'elsewhere'")
        with pytest.raises(ValidationError, match="carries match_id"):
            dataclasses.replace(match_80, match_id="elsewhere")
        shared = MatchTimeline(match_80.match_id, match_80.points)
        assert shared.server is match_80.server

    @pytest.mark.parametrize("field,value,message", [
        ("rally_count", 2.5, "rally_count cannot be stored as int64: 2.5"),
        ("server", "1", "server cannot be stored as int64: '1'"),
        ("set_no", None, "set_no cannot be stored as int64: None"),
        ("elapsed_s", 2 ** 63, f"elapsed_s cannot be stored as int64: {2 ** 63}"),
        ("p1_ace", 2, "p1_ace cannot be stored as bool: 2"),
        ("p2_unf_err", "0", "p2_unf_err cannot be stored as bool: '0'"),
        ("p1_distance_run", None, "p1_distance_run cannot be stored as float64: None"),
        ("p2_distance_run", "3.5", "p2_distance_run cannot be stored as float64: '3.5'"),
        ("p2_distance_run", 2 ** 53 + 1, f"p2_distance_run cannot be stored as float64: {2 ** 53 + 1}"),
        ("speed_mph", "120", "speed_mph cannot be stored as float64: '120'"),
    ])
    def test_record_value_its_column_would_change_refused(self, match_80, field, value, message):
        points = list(match_80.points)
        points[7] = dataclasses.replace(points[7], **{field: value})
        with pytest.raises(ValidationError) as exc:
            MatchTimeline(match_80.match_id, points)
        assert str(exc.value) == message

    def test_record_values_stored_as_they_are(self, match_80):
        points = list(match_80.points)
        points[3] = dataclasses.replace(points[3], rally_count=np.int64(4), p1_ace=1, p2_ace=0.0,
                                        p1_distance_run=7, speed_mph=math.nan)
        points[4] = dataclasses.replace(points[4], speed_mph=None, p2_distance_run=math.nan)
        tl = MatchTimeline(match_80.match_id, points)
        assert tl.rally_count[3] == 4 and tl.p1_ace[3] and not tl.p2_ace[3]
        assert tl.p1_distance_run[3] == 7.0
        assert np.isnan(tl.speed_mph[3:5]).all() and np.isnan(tl.p2_distance_run[4])

    def test_check_reports_first_bad_record_then_first_bad_pair(self, match_80):
        points = list(match_80.points)
        points[30] = dataclasses.replace(points[30], elapsed_s=0)  # decreases at 30
        points[50] = dataclasses.replace(points[50], server=3)
        with pytest.raises(ValidationError, match="server must be 1 or 2, got 3"):
            MatchTimeline(match_80.match_id, points).check()
        points[50] = match_80.points[50]
        p = points[30]
        with pytest.raises(ValidationError) as exc:
            MatchTimeline(match_80.match_id, points).check()
        assert str(exc.value) == (f"elapsed_s decreases from {points[29].elapsed_s} to 0 "
                                  f"at (set {p.set_no}, game {p.game_no}, point {p.point_no})")
