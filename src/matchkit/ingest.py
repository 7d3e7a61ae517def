"""Parsing, validation, and synthesis of point-by-point match timelines."""

from __future__ import annotations

import csv
import io
import itertools
import math
import random
import re
from dataclasses import dataclass, field, fields
from operator import attrgetter

from ._checks import require_finite, require_int

__all__ = [
    "IngestError",
    "SchemaError",
    "ValidationError",
    "TimeFormatError",
    "PointRecord",
    "MatchTimeline",
    "SyntheticSpec",
    "DEFAULT_SCHEMA",
    "parse_elapsed_time",
    "format_elapsed",
    "prefix_counts",
    "load_match_csv",
    "write_timeline_csv",
    "generate_synthetic_match",
]


class IngestError(ValueError):
    """Base class for data-loading failures."""


class SchemaError(IngestError):
    """The CSV header cannot be resolved against the expected schema."""


class ValidationError(IngestError):
    """A row violates a record or timeline invariant.

    ``row`` is the 1-based file line of the offending row (header is line 1),
    or None for timeline-level violations.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(f"row {row}: {message}" if row is not None else message)
        self.row = row


class TimeFormatError(IngestError):
    """An elapsed-time string does not match the H:MM:SS clock format."""


_CLOCK_RE = re.compile(r"^(\d+):(\d{2}):(\d{2})$")


def parse_elapsed_time(text: str) -> int:
    """Parse a clock string ``H:MM:SS`` into total seconds.

    Hours may have any number of digits; minutes and seconds must be
    two-digit values in [0, 59].
    """
    m = _CLOCK_RE.match(text.strip())
    if m is None:
        raise TimeFormatError(f"malformed clock string {text!r}: expected H:MM:SS")
    hours, minutes, seconds = map(int, m.groups())
    if minutes > 59:
        raise TimeFormatError(f"malformed clock string {text!r}: minutes field {minutes} not in [0, 59]")
    if seconds > 59:
        raise TimeFormatError(f"malformed clock string {text!r}: seconds field {seconds} not in [0, 59]")
    return 3600 * hours + 60 * minutes + seconds


def format_elapsed(seconds: int) -> str:
    """Format non-negative seconds as the ``H:MM:SS`` clock string."""
    if seconds < 0:
        raise ValueError(f"seconds must be non-negative, got {seconds}")
    h, rem = divmod(int(seconds), 3600)
    m, s = divmod(rem, 60)
    return f"{h}:{m:02d}:{s:02d}"


def prefix_counts(values, target) -> list[int]:
    """counts[i] = occurrences of `target` in values[:i], for i = 0..len(values).

    Any window [a, b) then holds counts[b] - counts[a] of them, so every
    sliding-window count of a timeline is O(1) after one O(n) pass.
    """
    return list(itertools.accumulate((v == target for v in values), initial=0))


@dataclass(frozen=True)
class PointRecord:
    """One row of point-by-point match data."""

    match_id: str
    set_no: int
    game_no: int
    point_no: int
    elapsed_s: int
    server: int
    point_victor: int
    p1_sets: int
    p2_sets: int
    p1_games: int
    p2_games: int
    p1_ace: bool
    p2_ace: bool
    p1_double_fault: bool
    p2_double_fault: bool
    p1_unf_err: bool
    p2_unf_err: bool
    p1_distance_run: float
    p2_distance_run: float
    rally_count: int
    speed_mph: float | None = None

    def check(self, row: int | None = None) -> None:
        """Raise ValidationError if any per-record invariant is violated."""
        if self.server not in (1, 2):
            raise ValidationError(f"server must be 1 or 2, got {self.server}", row)
        if self.point_victor not in (1, 2):
            raise ValidationError(f"point_victor must be 1 or 2, got {self.point_victor}", row)
        values = vars(self)
        for name in ("set_no", "game_no", "point_no"):
            if values[name] < 1:
                raise ValidationError(f"{name} must be a positive integer, got {values[name]}", row)
        for name in ("elapsed_s", "p1_sets", "p2_sets", "p1_games", "p2_games", "rally_count"):
            if values[name] < 0:
                raise ValidationError(f"{name} must be non-negative, got {values[name]}", row)
        if self.p1_sets + self.p2_sets > 5:
            raise ValidationError(f"p1_sets + p2_sets must be <= 5, got {self.p1_sets + self.p2_sets}", row)
        if self.p1_ace and self.p1_double_fault:
            raise ValidationError("record flags both p1_ace and p1_double_fault", row)
        if self.p2_ace and self.p2_double_fault:
            raise ValidationError("record flags both p2_ace and p2_double_fault", row)
        for name in ("p1_distance_run", "p2_distance_run"):
            if values[name] < 0:
                raise ValidationError(f"{name} must be non-negative, got {values[name]}", row)
        if self.speed_mph is not None and self.speed_mph < 0:
            raise ValidationError(f"speed_mph must be non-negative, got {self.speed_mph}", row)


@dataclass(frozen=True)
class MatchTimeline:
    """All points of one match, strictly ordered by (set_no, game_no, point_no)."""

    match_id: str
    points: tuple[PointRecord, ...]
    meta: dict[str, str] = field(default_factory=dict)

    def check(self) -> None:
        """Raise ValidationError if a record, ordering or counter invariant is violated."""
        if not self.points:
            raise ValidationError(f"match {self.match_id!r} has no points")
        for p in self.points:
            p.check()
        self._check_sequence()

    def _check_sequence(self) -> None:
        """The invariants between consecutive points: ids, order and counters.

        Assumes every record has passed its own check, as the loader's have.
        """
        prev = None
        for p in self.points:
            if p.match_id != self.match_id:
                raise ValidationError(
                    f"point carries match_id {p.match_id!r} inside timeline {self.match_id!r}"
                )
            if prev is not None:
                if (p.set_no, p.game_no, p.point_no) <= (prev.set_no, prev.game_no, prev.point_no):
                    raise ValidationError(
                        f"points not strictly ordered at (set {p.set_no}, game {p.game_no}, point {p.point_no})"
                    )
                if p.elapsed_s < prev.elapsed_s:
                    raise ValidationError(
                        f"elapsed_s decreases from {prev.elapsed_s} to {p.elapsed_s} "
                        f"at (set {p.set_no}, game {p.game_no}, point {p.point_no})"
                    )
                if p.p1_sets < prev.p1_sets or p.p2_sets < prev.p2_sets:
                    raise ValidationError(
                        f"set counters decrease at (set {p.set_no}, game {p.game_no}, point {p.point_no})"
                    )
                # Game counters may reset only when a new set starts.
                if p.set_no == prev.set_no and (p.p1_games < prev.p1_games or p.p2_games < prev.p2_games):
                    raise ValidationError(
                        f"game counters decrease within set {p.set_no} "
                        f"at (game {p.game_no}, point {p.point_no})"
                    )
            prev = p

    def __len__(self) -> int:
        return len(self.points)


# Canonical field -> column name in the Wimbledon-style point-by-point CSV.
DEFAULT_SCHEMA: dict[str, str] = {
    "match_id": "match_id",
    "elapsed_time": "elapsed_time",
    "set_no": "set_no",
    "game_no": "game_no",
    "point_no": "point_no",
    "server": "server",
    "point_victor": "point_victor",
    "p1_sets": "p1_sets",
    "p2_sets": "p2_sets",
    "p1_games": "p1_games",
    "p2_games": "p2_games",
    "p1_ace": "p1_ace",
    "p2_ace": "p2_ace",
    "p1_double_fault": "p1_double_fault",
    "p2_double_fault": "p2_double_fault",
    "p1_unf_err": "p1_unf_err",
    "p2_unf_err": "p2_unf_err",
    "p1_distance_run": "p1_distance_run",
    "p2_distance_run": "p2_distance_run",
    "rally_count": "rally_count",
    "speed_mph": "speed_mph",
}

# Optional player-name columns carried into MatchTimeline.meta.
_META_COLUMNS = ("player1", "player2")

_INT_FIELDS = ("set_no", "game_no", "point_no", "server", "point_victor",
               "p1_sets", "p2_sets", "p1_games", "p2_games", "rally_count")
_BOOL_FIELDS = ("p1_ace", "p2_ace", "p1_double_fault", "p2_double_fault",
                "p1_unf_err", "p2_unf_err")
_FLOAT_FIELDS = ("p1_distance_run", "p2_distance_run")
# PointRecord fields in declaration order, and the canonical column of each.
_RECORD_FIELDS = tuple(f.name for f in fields(PointRecord))
_CELL_FIELDS = tuple("elapsed_time" if f == "elapsed_s" else f for f in _RECORD_FIELDS)
_FLAGS = {"0": False, "1": True}


def _parse_int(value: str, name: str, row: int) -> int:
    try:
        return int(value.strip())
    except ValueError:
        raise ValidationError(f"column {name!r} is not an integer: {value!r}", row) from None


def _parse_bool(value: str, name: str, row: int) -> bool:
    v = value.strip()
    if v == "0":
        return False
    if v == "1":
        return True
    raise ValidationError(f"column {name!r} must be 0 or 1, got {value!r}", row)


def _parse_float(value: str, name: str, row: int) -> float:
    try:
        number = float(value.strip())
    except ValueError:
        raise ValidationError(f"column {name!r} is not a number: {value!r}", row) from None
    if not math.isfinite(number):
        raise ValidationError(f"column {name!r} must be finite, got {value!r}", row)
    return number


def _parse_clock_cell(value: str, row: int) -> int:
    try:
        return parse_elapsed_time(value)
    except TimeFormatError as exc:
        raise ValidationError(str(exc), row) from None


def _parse_row(raw: list[str], idx: dict[str, int], colmap: dict[str, str], row: int) -> tuple:
    """One row's values in record-field order, cell by cell.

    Each cell is stripped and parsed on its own, so the first bad cell, in
    the order clock, integers, flags, distances, speed, names the error.
    """
    values: dict[str, object] = {"match_id": raw[idx["match_id"]]}
    values["elapsed_s"] = _parse_clock_cell(raw[idx["elapsed_time"]], row)
    for f in _INT_FIELDS:
        values[f] = _parse_int(raw[idx[f]], colmap[f], row)
    for f in _BOOL_FIELDS:
        values[f] = _parse_bool(raw[idx[f]], colmap[f], row)
    for f in _FLOAT_FIELDS:
        values[f] = _parse_float(raw[idx[f]], colmap[f], row)
    speed = raw[idx["speed_mph"]].strip()
    values["speed_mph"] = None if speed == "" else _parse_float(speed, colmap["speed_mph"], row)
    return tuple(values[f] for f in _RECORD_FIELDS)


def _record(values: tuple) -> PointRecord:
    """A PointRecord from typed values in field order, not yet checked.

    The frozen ``__init__`` stores each field with its own
    ``object.__setattr__`` call; one ``__dict__`` update stores them all.
    The result is an ordinary PointRecord, so ``==``, ``hash`` and
    ``dataclasses.replace`` work as on one built by keyword.  The caller
    must run ``check()`` on it.
    """
    record = object.__new__(PointRecord)
    record.__dict__.update(zip(_RECORD_FIELDS, values))
    return record


def load_match_csv(source, schema: dict[str, str] | None = None) -> list[MatchTimeline]:
    """Load a point-by-point CSV into one MatchTimeline per match_id.

    ``source`` is a binary or text stream (or a path string) of UTF-8,
    comma-delimited, RFC-4180 CSV with a header row.  ``schema`` maps
    canonical field names to file column names; unmapped fields fall back
    to DEFAULT_SCHEMA.  Extra columns are ignored.  Timelines come back
    sorted by match_id, points ordered by (set_no, game_no, point_no).
    """
    colmap = dict(DEFAULT_SCHEMA)
    if schema:
        unknown = sorted(set(schema) - set(DEFAULT_SCHEMA))
        if unknown:
            raise SchemaError(f"schema maps unknown canonical fields: {', '.join(unknown)}")
        colmap.update(schema)

    if isinstance(source, str):
        with open(source, "rb") as fh:
            return load_match_csv(fh, schema)
    if not isinstance(source.read(0), bytes):
        return _read_timelines(source, colmap)
    text = io.TextIOWrapper(source, encoding="utf-8", newline="")
    try:
        return _read_timelines(text, colmap)
    finally:
        # A wrapper closes its stream when collected; the caller's stays open.
        text.detach()


def _read_timelines(source, colmap: dict[str, str]) -> list[MatchTimeline]:
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file: no header row") from None
    position = {name: i for i, name in enumerate(header)}
    missing = sorted(colmap[f] for f in DEFAULT_SCHEMA if colmap[f] not in position)
    if missing:
        raise SchemaError(f"missing required columns: {', '.join(missing)}")
    idx = {f: position[colmap[f]] for f in DEFAULT_SCHEMA}
    meta_names = [c for c in _META_COLUMNS if c in position]
    meta_pos = [position[c] for c in meta_names]
    (c_id, c_set, c_game, c_point, c_clock, c_server, c_victor, c_s1, c_s2, c_g1, c_g2,
     c_ace1, c_ace2, c_df1, c_df2, c_ue1, c_ue2, c_d1, c_d2, c_rally, c_speed) = (
        idx[f] for f in _CELL_FIELDS)
    flag = _FLAGS
    isfinite = math.isfinite

    # (sort key, record, player cells, file line) per data row
    rows: list[tuple[tuple, PointRecord, list[str], int]] = []
    for lineno, raw in enumerate(reader, start=2):
        if not raw:
            continue
        if len(raw) < len(header):
            raise ValidationError(f"expected {len(header)} fields, got {len(raw)}", lineno)
        # int() and float() skip surrounding whitespace as .strip() would.
        # A cell the builtins refuse (" 1" as a flag, a bad clock, nan) sends
        # the row to _parse_row, which accepts it or raises the exact error.
        try:
            speed = raw[c_speed]
            values = (
                raw[c_id], int(raw[c_set]), int(raw[c_game]), int(raw[c_point]),
                parse_elapsed_time(raw[c_clock]), int(raw[c_server]), int(raw[c_victor]),
                int(raw[c_s1]), int(raw[c_s2]), int(raw[c_g1]), int(raw[c_g2]),
                flag[raw[c_ace1]], flag[raw[c_ace2]], flag[raw[c_df1]], flag[raw[c_df2]],
                flag[raw[c_ue1]], flag[raw[c_ue2]],
                float(raw[c_d1]), float(raw[c_d2]), int(raw[c_rally]),
                float(speed) if speed else None,
            )
            if not (isfinite(values[17]) and isfinite(values[18])
                    and (values[20] is None or isfinite(values[20]))):
                raise ValueError
        except (ValueError, KeyError):
            values = _parse_row(raw, idx, colmap, lineno)
        record = _record(values)
        record.check(lineno)
        rows.append((values[:4], record, [raw[i] for i in meta_pos], lineno))

    if not rows:
        raise SchemaError("empty file: header but no data rows")

    rows.sort(key=lambda r: r[0])
    timelines: list[MatchTimeline] = []
    start = 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or rows[i][1].match_id != rows[start][1].match_id:
            chunk = rows[start:i]
            _check_chunk_order(chunk)
            timeline = MatchTimeline(
                match_id=chunk[0][1].match_id,
                points=tuple(r[1] for r in chunk),
                meta={k: v for k, v in zip(meta_names, chunk[0][2]) if v},
            )
            timeline._check_sequence()  # each record was checked as it was read
            timelines.append(timeline)
            start = i
    return timelines


def _check_chunk_order(chunk: list[tuple[tuple, PointRecord, list[str], int]]) -> None:
    # Duplicate (set, game, point) keys survive the sort; report the file row.
    for (key_a, _, _, _), (key_b, b, _, row_b) in zip(chunk, chunk[1:]):
        if key_a == key_b:
            raise ValidationError(
                f"duplicate point key (set {b.set_no}, game {b.game_no}, point {b.point_no}) "
                f"in match {b.match_id!r}",
                row_b,
            )


def _optional_repr(value: float | None) -> str:
    return "" if value is None else repr(value)


def _cell_format(name: str):
    """The function that turns a value of field `name` into its CSV cell."""
    if name == "elapsed_s":
        return format_elapsed
    if name in _BOOL_FIELDS:
        return {False: "0", True: "1"}.__getitem__
    if name == "speed_mph":
        return _optional_repr
    return repr if name in _FLOAT_FIELDS else str


# (column, value getter, cell format) of each written field after match_id.
_WRITE_COLUMNS = tuple((DEFAULT_SCHEMA[cell], attrgetter(name), _cell_format(name))
                       for name, cell in zip(_RECORD_FIELDS[1:], _CELL_FIELDS[1:]))


def write_timeline_csv(timeline, dest) -> None:
    """Write one timeline (or an iterable of them) back to CSV in the default
    schema (round-trip safe)."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_timeline_csv(timeline, fh)
            return
    timelines = [timeline] if isinstance(timeline, MatchTimeline) else list(timeline)
    writer = csv.writer(dest, lineterminator="\n")
    # csv.writer quotes a cell that holds "\n" but not one that holds "\r",
    # which a reader then takes for a line end: such timelines quote every cell.
    quote_all = csv.writer(dest, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(["match_id", "player1", "player2"] + [c for c, _, _ in _WRITE_COLUMNS])
    for tl in timelines:
        _write_timeline_rows(tl, writer, quote_all)


def _write_timeline_rows(timeline: MatchTimeline, writer, quote_all) -> None:
    # One formatted column at a time; zip stops with the finite match_id column.
    points = timeline.points
    match_ids = [p.match_id for p in points]
    p1 = timeline.meta.get("player1", "")
    p2 = timeline.meta.get("player2", "")
    columns = [match_ids, itertools.repeat(p1), itertools.repeat(p2)]
    columns += [map(fmt, map(get, points)) for _, get, fmt in _WRITE_COLUMNS]
    if "\r" in "".join([p1, p2, *match_ids]):
        writer = quote_all
    writer.writerows(zip(*columns))


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the deterministic synthetic-match generator."""

    n_points: int
    p_serve_win: float = 0.65
    seed: int = 0
    ace_rate: float = 0.08
    double_fault_rate: float = 0.05
    unf_err_rate: float = 0.15
    mean_point_duration_s: float = 40.0
    match_id: str = "synthetic-0001"

    def check(self) -> None:
        require_int(self, "n_points", "seed")
        require_finite(self, "p_serve_win", "ace_rate", "double_fault_rate", "unf_err_rate",
                       "mean_point_duration_s")
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")
        if not 0.0 <= self.p_serve_win <= 1.0:
            raise ValueError(f"p_serve_win must be in [0, 1], got {self.p_serve_win}")
        for name in ("ace_rate", "double_fault_rate", "unf_err_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.mean_point_duration_s <= 0:
            raise ValueError(f"mean_point_duration_s must be positive, got {self.mean_point_duration_s}")
        # a point lasts up to 1.5x the mean, and that duration is made an int
        if not math.isfinite(1.5 * self.mean_point_duration_s):
            raise ValueError("mean_point_duration_s must be under the largest float / 1.5, "
                             f"got {self.mean_point_duration_s}")


def generate_synthetic_match(spec: SyntheticSpec) -> MatchTimeline:
    """Generate a deterministic synthetic match under simplified scoring.

    Simplifications (non-physical, desk-scale test data): a game is first to
    4 points with no deuce, a set is first to 6 games with no tiebreak, best
    of 5 sets.  The server alternates each game.  Score counters record the
    state *before* each point and freeze once a third set is won; points keep
    flowing until n_points is reached.
    """
    spec.check()
    rng = random.Random(spec.seed)

    sets = [0, 0]
    games = [0, 0]
    game_points = [0, 0]
    server = 1
    elapsed = 0
    match_over = False
    points: list[PointRecord] = []

    for k in range(spec.n_points):
        elapsed += max(1, int(round(rng.uniform(0.5, 1.5) * spec.mean_point_duration_s)))
        receiver = 2 if server == 1 else 1
        victor = server if rng.random() < spec.p_serve_win else receiver
        loser = receiver if victor == server else server

        ace = victor == server and rng.random() < spec.ace_rate
        double_fault = victor != server and rng.random() < spec.double_fault_rate
        unf_err = rng.random() < spec.unf_err_rate
        speed = None if rng.random() < 0.03 else round(rng.uniform(90.0, 130.0), 1)

        points.append(PointRecord(
            match_id=spec.match_id,
            set_no=sets[0] + sets[1] + 1,
            game_no=games[0] + games[1] + 1,
            point_no=k + 1,
            elapsed_s=elapsed,
            server=server,
            point_victor=victor,
            p1_sets=sets[0],
            p2_sets=sets[1],
            p1_games=games[0],
            p2_games=games[1],
            p1_ace=ace and server == 1,
            p2_ace=ace and server == 2,
            p1_double_fault=double_fault and server == 1,
            p2_double_fault=double_fault and server == 2,
            p1_unf_err=unf_err and loser == 1,
            p2_unf_err=unf_err and loser == 2,
            p1_distance_run=round(rng.uniform(3.0, 40.0), 3),
            p2_distance_run=round(rng.uniform(3.0, 40.0), 3),
            rally_count=rng.randint(1, 12),
            speed_mph=speed,
        ))

        game_points[victor - 1] += 1
        if max(game_points) >= 4:
            game_winner = 0 if game_points[0] >= 4 else 1
            game_points = [0, 0]
            server = receiver
            if not match_over:
                games[game_winner] += 1
                if games[game_winner] >= 6:
                    sets[game_winner] += 1
                    games = [0, 0]
                    if sets[game_winner] >= 3:
                        match_over = True

    timeline = MatchTimeline(
        match_id=spec.match_id,
        points=tuple(points),
        meta={"player1": "Synthetic P1", "player2": "Synthetic P2"},
    )
    timeline.check()
    return timeline
