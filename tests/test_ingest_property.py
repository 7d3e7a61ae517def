"""Property tests of the CSV loader: write then load is the identity, and a
corrupted file loads exactly as the row-by-row reference loader loads it."""

from __future__ import annotations

import csv
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import oracle_load_match_csv  # noqa: E402
from matchkit.ingest import (  # noqa: E402
    IngestError,
    MatchTimeline,
    PointRecord,
    _clock_column,
    load_match_csv,
    parse_elapsed_time,
    write_timeline_csv,
)

# Any text a CSV cell can carry: no lone surrogates (not UTF-8) and no NUL.
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
               max_size=8)
DISTANCE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
# (ace, double fault) of one player on one point: never both.
SERVE_FLAGS = st.sampled_from([(False, False), (True, False), (False, True)])


@st.composite
def timelines(draw, match_id):
    """A valid timeline: keys strictly increase, clocks and counters never fall."""
    points = []
    set_no, game_no, point_no, elapsed = 1, 1, 0, 0
    sets, games = [0, 0], [0, 0]
    for k in range(draw(st.integers(1, 25))):
        step = draw(st.sampled_from(["point", "game", "set"])) if k else "point"
        if step == "set" and sum(sets) < 5:
            set_no, game_no, point_no = set_no + 1, 1, 1
            sets[draw(st.integers(0, 1))] += 1
            games = [0, 0]
        elif step == "game":
            game_no, point_no = game_no + 1, 1
            games[draw(st.integers(0, 1))] += 1
        else:
            point_no += 1
        elapsed += draw(st.integers(0, 10**6))
        (ace1, df1), (ace2, df2) = draw(SERVE_FLAGS), draw(SERVE_FLAGS)
        points.append(PointRecord(
            match_id=match_id, set_no=set_no, game_no=game_no, point_no=point_no,
            elapsed_s=elapsed, server=draw(st.integers(1, 2)),
            point_victor=draw(st.integers(1, 2)), p1_sets=sets[0], p2_sets=sets[1],
            p1_games=games[0], p2_games=games[1], p1_ace=ace1, p2_ace=ace2,
            p1_double_fault=df1, p2_double_fault=df2,
            p1_unf_err=draw(st.booleans()), p2_unf_err=draw(st.booleans()),
            p1_distance_run=draw(DISTANCE), p2_distance_run=draw(DISTANCE),
            rally_count=draw(st.integers(0, 10**12)),
            speed_mph=draw(st.none() | DISTANCE),
        ))
    # The loader keeps only non-empty player names.
    meta = draw(st.dictionaries(st.sampled_from(["player1", "player2"]), TEXT.filter(bool)))
    timeline = MatchTimeline(match_id=match_id, points=tuple(points), meta=meta)
    timeline.check()
    return timeline


@st.composite
def tournaments(draw):
    ids = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    return [draw(timelines(match_id)) for match_id in ids]


@settings(max_examples=150, deadline=None)
@given(tournaments())
def test_write_then_load_is_identity(written):
    buf = io.StringIO()
    write_timeline_csv(written, buf)
    loaded = load_match_csv(io.BytesIO(buf.getvalue().encode("utf-8")))
    expected = sorted(written, key=lambda tl: tl.match_id)
    assert loaded == expected
    assert [tl.meta for tl in loaded] == [tl.meta for tl in expected]


# Row-level corruption of a valid multi-match CSV: the columnar loader must
# agree with the row-by-row reference loader in tests/helpers.py on every
# file, in its timelines or in its error's type, message and row.

# Junk cells, all inside int64: digits are at most 6 long.
JUNK = st.sampled_from(["", " ", "x", "nan", "inf", "-inf", "-1", "0", "1", "2", "3", "1.5",
                        "1e999", "-0", "+1", "1_0", "١", "0:00:99", "0:60:00", "0:00:00",
                        "9:59:59", " 1", "0 ", "\t1\t", "1\x00", "a,b", '"', "1\n"])
SHORT_TEXT = st.text(st.sampled_from("0123456789 .-+:_,\"\nnaifx\t"), max_size=6)
# Columns whose values, swapped between two points of one match, can run backwards.
MONOTONE = ("elapsed_time", "set_no", "game_no", "point_no", "p1_sets", "p2_sets",
            "p1_games", "p2_games")


def _rows(timelines) -> list[list[str]]:
    buf = io.StringIO()
    write_timeline_csv(timelines, buf)
    return list(csv.reader(io.StringIO(buf.getvalue())))


@st.composite
def corrupted_files(draw):
    header, *body = _rows(draw(tournaments()))
    col = {name: k for k, name in enumerate(header)}
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["junk", "pad", "text", "short", "blank", "nonfinite",
                                     "ace_df", "duplicate", "shuffle", "backwards"]))
        rows = [k for k, row in enumerate(body) if len(row) == len(header)]
        if not rows:
            break
        k = draw(st.sampled_from(rows))
        row = body[k]
        if kind in ("junk", "pad", "text"):
            j = draw(st.integers(0, len(header) - 1))
            if kind == "junk":
                row[j] = draw(JUNK)
            elif kind == "pad":
                pad = st.sampled_from(["", " ", "\t", "  "])
                row[j] = draw(pad) + row[j] + draw(pad)
            else:
                row[j] = draw(SHORT_TEXT)
        elif kind == "short":
            del row[draw(st.integers(0, len(row) - 1)):]
        elif kind == "blank":
            body.insert(draw(st.integers(0, len(body))), [])
        elif kind == "nonfinite":
            name = draw(st.sampled_from(["p1_distance_run", "p2_distance_run", "speed_mph"]))
            row[col[name]] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", " inf"]))
        elif kind == "ace_df":
            player = draw(st.sampled_from(["p1", "p2"]))
            row[col[f"{player}_ace"]] = row[col[f"{player}_double_fault"]] = "1"
        elif kind == "duplicate":
            body.insert(draw(st.integers(0, len(body))), list(row))
        elif kind == "shuffle":
            body = draw(st.permutations(body))
        else:
            # Swap one monotone column between two points of the same match.
            i = draw(st.sampled_from([i for i in rows if body[i][0] == row[0]]))
            j = col[draw(st.sampled_from(MONOTONE))]
            row[j], body[i][j] = body[i][j], row[j]
    return _csv_bytes([header, *body])


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def _outcome(load, data):
    try:
        return load(io.BytesIO(data))
    except IngestError as exc:
        return type(exc), str(exc), getattr(exc, "row", None)


@settings(max_examples=200, deadline=None)
@given(data=corrupted_files())
def test_corrupted_file_matches_reference_loader(data):
    got = _outcome(load_match_csv, data)
    expected = _outcome(oracle_load_match_csv, data)
    assert got == expected
    if isinstance(expected, list):
        assert [tl.meta for tl in got] == [tl.meta for tl in expected]


# Columns of clock cells near the H:MM:SS form: most cells share an hour
# width of 0 to 8 digits and have fields up to 59, and some have another
# width, a field up to 99, one odd character put in or swapped in, or none.
ODD_CLOCK_CHARS = st.sampled_from(["\x00", "\u0663", "\uff15", " ", "\t", "\n", ":", "a",
                                   "-", "+", "0", "9"])


@st.composite
def clock_columns(draw):
    def rarely():
        return draw(st.integers(0, 9)) == 0

    width = draw(st.integers(0, 8))
    cells = []
    for _ in range(draw(st.integers(1, 6))):
        digits = draw(st.integers(0, 8)) if rarely() else width
        hours = draw(st.text(st.sampled_from("0123456789"), min_size=digits, max_size=digits))
        minutes, seconds = (draw(st.integers(0, 99 if rarely() else 59)) for _ in range(2))
        cell = f"{hours}:{minutes:02d}:{seconds:02d}"
        if rarely():
            k = draw(st.integers(0, len(cell)))
            cell = cell[:k] + draw(ODD_CLOCK_CHARS) + cell[k + draw(st.integers(0, 1)):]
        cells.append("" if rarely() else cell)
    return tuple(cells)


@settings(max_examples=300, deadline=None)
@given(cells=clock_columns())
def test_clock_column_reads_as_the_cell_parser_or_refuses(cells):
    try:
        column = _clock_column(cells)
    except ValueError:
        return
    assert column.dtype.name == "int64"
    assert column.tolist() == [parse_elapsed_time(c) for c in cells]
