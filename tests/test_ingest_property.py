"""Property test: write_timeline_csv then load_match_csv gives back the same timelines."""

from __future__ import annotations

import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from matchkit.ingest import MatchTimeline, PointRecord, load_match_csv, write_timeline_csv  # noqa: E402

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
