"""Parsing, validation, and synthesis of point-by-point match timelines.

A `MatchTimeline` is columnar, after Apache Arrow's columnar format
(https://arrow.apache.org/docs/format/Columnar.html) done in numpy: one
read-only array per `PointRecord` field after `match_id`, under the field's
name.  Counters and `elapsed_s` are int64, the six event flags bool, and the
distances and `speed_mph` float64, with NaN for a missing speed.
`timeline.points` is a lazy row view: its length reads a column, and
indexing, slicing or iterating builds `PointRecord`s.

`load_match_csv` parses a file with `csv.reader` 512 rows at a time,
which bounds the cells held at once.  It transposes a block with
`zip(*rows)` and converts each column with one builtin `map` (`int`,
`float`, a 0/1 lookup) into an array; a clock column of one width is read
from the code points of one fixed-width array.  Of the text cells, only
the match id and player names are kept, each as the one `str` of its
value that the file shares, as Arrow's dictionary encoding keeps one copy
per distinct value.  The record checks of `PointRecord.check` run as
vectorised masks over a block's columns, and the order and counter checks
between consecutive points over the file's columns sorted by match and
point, one column at a time.  A column that the builtin conversion refuses
(a padded flag such as " 1", a bad clock, nan) is converted again cell by
cell with the per-row parsers, which accept what they always did and find
the first bad cell.  The first bad file row, from a
short row, a conversion or a mask, is then read again by the per-row code
(`_parse_row` and `PointRecord.check`, or `_check_pair` for the checks
between points), so every error keeps its message and row number.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import operator
import random
import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from ._checks import check_config, integer, real, setting

__all__ = [
    "IngestError",
    "SchemaError",
    "ValidationError",
    "TimeFormatError",
    "PointRecord",
    "TimelinePoints",
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


def prefix_counts(values, target) -> np.ndarray:
    """counts[i] = occurrences of `target` in values[:i], for i = 0..len(values),
    as an int64 array of len(values) + 1 entries.

    Any window [a, b) then holds counts[b] - counts[a] of them, so every
    sliding-window count of a timeline is O(1) after one O(n) pass.
    """
    hits = np.asarray(values) == target
    counts = np.zeros(hits.size + 1, dtype=np.int64)
    np.cumsum(hits, out=counts[1:])
    return counts


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
            if not values[name] >= 0:  # NaN too
                raise ValidationError(f"{name} must be non-negative, got {values[name]}", row)
        if self.speed_mph is not None and self.speed_mph < 0:
            raise ValidationError(f"speed_mph must be non-negative, got {self.speed_mph}", row)
        for name in ("p1_distance_run", "p2_distance_run", "speed_mph"):
            if values[name] == math.inf:  # -inf is negative, and a file holds neither
                raise ValidationError(f"{name} must be finite, got {values[name]}", row)


_INT_FIELDS = ("set_no", "game_no", "point_no", "server", "point_victor",
               "p1_sets", "p2_sets", "p1_games", "p2_games", "rally_count")
_BOOL_FIELDS = ("p1_ace", "p2_ace", "p1_double_fault", "p2_double_fault",
                "p1_unf_err", "p2_unf_err")
_FLOAT_FIELDS = ("p1_distance_run", "p2_distance_run")
# PointRecord fields in declaration order; a timeline holds one column per
# field after match_id, and speed_mph comes last.
_RECORD_FIELDS = tuple(f.name for f in fields(PointRecord))
_COLUMNS = _RECORD_FIELDS[1:]
_COLUMN_DTYPES = {name: np.bool_ if name in _BOOL_FIELDS
                  else np.float64 if name in _FLOAT_FIELDS or name == "speed_mph"
                  else np.int64 for name in _COLUMNS}
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _record_faults(c) -> np.ndarray:
    """Mask of the rows of columns `c` (by field name) that break an
    invariant of PointRecord.check."""
    bad = (c["server"] != 1) & (c["server"] != 2)
    bad |= (c["point_victor"] != 1) & (c["point_victor"] != 2)
    for name in ("set_no", "game_no", "point_no"):
        bad |= c[name] < 1
    # A NaN speed is missing, so it passes; a NaN distance does not.
    for name in ("elapsed_s", "p1_sets", "p2_sets", "p1_games", "p2_games", "rally_count",
                 "speed_mph"):
        bad |= c[name] < 0
    for name in ("p1_distance_run", "p2_distance_run"):
        bad |= ~(c[name] >= 0)
    for name in ("p1_distance_run", "p2_distance_run", "speed_mph"):
        bad |= c[name] == np.inf
    # Rows with a count past 5 are flagged whatever their sum wraps to.
    bad |= (c["p1_sets"] > 5) | (c["p2_sets"] > 5) | (c["p1_sets"] + c["p2_sets"] > 5)
    bad |= c["p1_ace"] & c["p1_double_fault"]
    bad |= c["p2_ace"] & c["p2_double_fault"]
    return bad


def _sequence_faults(c) -> np.ndarray:
    """Mask over the consecutive row pairs (i, i + 1) of columns `c` that
    break an invariant of `_check_pair`."""
    s, g, p = c["set_no"], c["game_no"], c["point_no"]
    same_set = s[1:] == s[:-1]
    same_game = same_set & (g[1:] == g[:-1])
    bad = (s[1:] < s[:-1]) | (same_set & (g[1:] < g[:-1])) | (same_game & (p[1:] <= p[:-1]))
    for name in ("elapsed_s", "p1_sets", "p2_sets"):
        bad |= c[name][1:] < c[name][:-1]
    g1, g2 = c["p1_games"], c["p2_games"]
    bad |= same_set & ((g1[1:] < g1[:-1]) | (g2[1:] < g2[:-1]))
    return bad


def _check_pair(prev: PointRecord, p: PointRecord) -> None:
    """The invariants between consecutive points: order and counters."""
    where = f"(set {p.set_no}, game {p.game_no}, point {p.point_no})"
    if (p.set_no, p.game_no, p.point_no) <= (prev.set_no, prev.game_no, prev.point_no):
        raise ValidationError(f"points not strictly ordered at {where}")
    if p.elapsed_s < prev.elapsed_s:
        raise ValidationError(f"elapsed_s decreases from {prev.elapsed_s} to {p.elapsed_s} at {where}")
    if p.p1_sets < prev.p1_sets or p.p2_sets < prev.p2_sets:
        raise ValidationError(f"set counters decrease at {where}")
    # Game counters may reset only when a new set starts.
    if p.set_no == prev.set_no and (p.p1_games < prev.p1_games or p.p2_games < prev.p2_games):
        raise ValidationError(
            f"game counters decrease within set {p.set_no} "
            f"at (game {p.game_no}, point {p.point_no})"
        )


def _columns_equal(a: tuple, b: tuple) -> bool:
    # NaN is a missing speed, so two NaNs are equal, as two Nones were.
    return all(np.array_equal(x, y, equal_nan=x.dtype.kind == "f") for x, y in zip(a, b))


class TimelinePoints(Sequence):
    """The rows of a timeline as PointRecords, built on access.

    `len` reads a column's length.  Indexing, iteration and slicing (which
    returns a tuple) build records from the columns, with None for a NaN
    speed.  A view equals another with the same match id and columns, or a
    tuple of equal records.
    """

    __slots__ = ("_match_id", "_columns")

    def __init__(self, match_id: str, columns: tuple[np.ndarray, ...]):
        for column in columns:
            column.flags.writeable = False
        self._match_id = match_id
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._records(index))
        i = operator.index(index)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("point index out of range")
        return next(self._records(slice(i, i + 1)))

    def __iter__(self):
        return self._records(slice(None))

    def _records(self, rows: slice):
        values = [column[rows].tolist() for column in self._columns]
        values[-1] = [None if v != v else v for v in values[-1]]
        return map(PointRecord, itertools.repeat(self._match_id), *values)

    def __eq__(self, other):
        if isinstance(other, TimelinePoints):
            return (self._match_id == other._match_id
                    and _columns_equal(self._columns, other._columns))
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{len(self)} points of match {self._match_id!r}>"


def _same(stored, value) -> bool:
    return stored == value or (stored != stored and value != value)  # NaN is NaN


def _holds(dtype, value) -> bool:
    """Whether a `dtype` array stores `value` as it is."""
    try:
        return _same(np.array(value, dtype).item(), value)
    except (TypeError, ValueError, OverflowError):
        return False


def _record_columns(match_id: str, records: tuple[PointRecord, ...]) -> tuple:
    """One array per column from records that all carry `match_id`; a value
    that its column would change (2.5 in an int column, "1", None) is refused."""
    for p in records:
        if p.match_id != match_id:
            raise ValidationError(
                f"point carries match_id {p.match_id!r} inside timeline {match_id!r}"
            )
    columns = []
    for name in _COLUMNS:
        dtype = _COLUMN_DTYPES[name]
        values = list(map(operator.attrgetter(name), records))
        if name == "speed_mph":
            values = [math.nan if v is None else v for v in values]
        try:
            column = np.array(values, dtype=dtype)
        except (TypeError, ValueError, OverflowError):
            column = None
        # tolist() makes new NaN objects, which the list comparison finds unequal.
        stored = None if column is None else column.tolist()
        if stored != values and not (stored and all(map(_same, stored, values))):
            bad = next((v for v in values if not _holds(dtype, v)), None)
            raise ValidationError(f"{name} cannot be stored as {np.dtype(dtype)}: {bad!r}")
        columns.append(column)
    return tuple(columns)


@dataclass(frozen=True, init=False, eq=False)
class MatchTimeline:
    """All points of one match, strictly ordered by (set_no, game_no, point_no).

    Besides `match_id`, `points` and `meta`, a timeline has one read-only
    numpy array per name in `COLUMNS` (`timeline.server`,
    `timeline.speed_mph`, ...), as the module docstring describes.
    `points` may be PointRecords, each carrying `match_id`, which are
    converted once, or another timeline's `points` (as
    `dataclasses.replace` passes them), whose columns are shared.
    """

    COLUMNS: ClassVar[tuple[str, ...]] = _COLUMNS

    match_id: str
    points: TimelinePoints
    meta: dict[str, str]

    def __init__(self, match_id: str, points, meta: dict[str, str] | None = None):
        if isinstance(points, TimelinePoints):
            if points._match_id != match_id:
                raise ValidationError(
                    f"point carries match_id {points._match_id!r} inside timeline {match_id!r}"
                )
            columns = points._columns
        else:
            columns = _record_columns(match_id, tuple(points))
        for name, column in zip(_COLUMNS, columns):
            object.__setattr__(self, name, column)
        object.__setattr__(self, "match_id", match_id)
        object.__setattr__(self, "points", TimelinePoints(match_id, columns))
        object.__setattr__(self, "meta", {} if meta is None else meta)

    def __eq__(self, other):
        if not isinstance(other, MatchTimeline):
            return NotImplemented
        return (self.match_id == other.match_id and self.meta == other.meta
                and self.points == other.points)

    def check(self) -> None:
        """Raise ValidationError if a record, ordering or counter invariant is violated."""
        if not len(self):
            raise ValidationError(f"match {self.match_id!r} has no points")
        columns = vars(self)
        bad = _record_faults(columns)
        if bad.any():
            self.points[int(bad.argmax())].check()
        bad = _sequence_faults(columns)
        if bad.any():
            i = int(bad.argmax())
            _check_pair(self.points[i], self.points[i + 1])

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

# The canonical CSV column of each timeline column.
_COLUMN_CELLS = tuple("elapsed_time" if f == "elapsed_s" else f for f in _COLUMNS)
_FLAGS = {"0": False, "1": True}
# The canonical strings "0" to "999" and the ints they read as.
_SMALL_INTS = {str(i): i for i in range(1000)}


def _parse_int(value: str, name: str, row: int) -> int:
    try:
        number = int(value.strip())
    except ValueError:
        raise ValidationError(f"column {name!r} is not an integer: {value!r}", row) from None
    if not _INT64_MIN <= number <= _INT64_MAX:
        raise ValidationError(f"column {name!r} does not fit in a 64-bit integer: {value!r}", row)
    return number


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


def _parse_speed(value: str, name: str, row: int) -> float | None:
    speed = value.strip()
    return None if speed == "" else _parse_float(speed, name, row)


def _speed_cell(value: str, name: str, row: int) -> float:
    speed = _parse_speed(value, name, row)
    return math.nan if speed is None else speed


def _parse_clock_cell(value: str, name: str, row: int) -> int:
    try:
        seconds = parse_elapsed_time(value)
    except TimeFormatError as exc:
        raise ValidationError(str(exc), row) from None
    if seconds > _INT64_MAX:
        raise ValidationError(f"column {name!r} does not fit in a 64-bit integer of seconds: "
                              f"{value!r}", row)
    return seconds


def _parse_row(raw: list[str], idx: dict[str, int], colmap: dict[str, str], row: int) -> tuple:
    """One row's values in record-field order, cell by cell.

    Each cell is stripped and parsed on its own, so the first bad cell, in
    the order clock, integers, flags, distances, speed, names the error.
    """
    values: dict[str, object] = {"match_id": raw[idx["match_id"]]}
    values["elapsed_s"] = _parse_clock_cell(raw[idx["elapsed_time"]], colmap["elapsed_time"], row)
    for f in _INT_FIELDS:
        values[f] = _parse_int(raw[idx[f]], colmap[f], row)
    for f in _BOOL_FIELDS:
        values[f] = _parse_bool(raw[idx[f]], colmap[f], row)
    for f in _FLOAT_FIELDS:
        values[f] = _parse_float(raw[idx[f]], colmap[f], row)
    values["speed_mph"] = _parse_speed(raw[idx["speed_mph"]], colmap["speed_mph"], row)
    return tuple(values[f] for f in _RECORD_FIELDS)


# Column-wise conversions: each takes every cell of a column and returns its
# array, or raises if any cell is one that the column's per-row parser
# would refuse or read differently.  np.fromiter raises OverflowError for an
# integer past int64.

def _int_column(cells: tuple[str, ...]) -> np.ndarray:
    # Most cells are canonical small numbers, which a dict lookup reads
    # faster than int(); any other cell sends the whole column to int().
    try:
        return np.fromiter(map(_SMALL_INTS.__getitem__, cells), np.int64, len(cells))
    except KeyError:
        return np.fromiter(map(int, cells), np.int64, len(cells))


def _flag_column(cells: tuple[str, ...]) -> np.ndarray:
    return np.fromiter(map(_FLAGS.__getitem__, cells), np.bool_, len(cells))


# An hour field of at most 6 digits keeps every clock far inside int64.
_MAX_HOUR_DIGITS = 6


def _clock_column(cells: tuple[str, ...]) -> np.ndarray:
    """Seconds of H:MM:SS cells, read from the code points of one
    fixed-width array.  Every cell must have the same width, with ASCII
    digits apart from the two colons, 1 to 6 hour digits, and minutes and
    seconds at most 59; any other column raises ValueError."""
    # The widest cell sets the array's width, so a long one is refused first.
    width = max(map(len, cells), default=0)
    hours = width - 6  # hour digits
    if not 1 <= hours <= _MAX_HOUR_DIGITS:
        raise ValueError("not a column of H:MM:SS clocks of one width")
    # Code points less "0": digits read 0-9 and a colon 10, and anything
    # below "0" (the NUL padding of a shorter cell too) wraps past them.
    codes = np.array(cells, dtype=f"U{width}").view(np.uint32).reshape(len(cells), width)
    digits = codes - np.uint32(ord("0"))
    largest = np.array([9] * hours + [10, 5, 9, 10, 5, 9])
    if (digits > largest).any() or (digits[:, [hours, hours + 3]] != 10).any():
        raise ValueError("not a column of H:MM:SS clocks of one width")
    # Seconds per unit of each position: every product stays below 2**32.
    seconds = [3600 * 10 ** k for k in range(hours - 1, -1, -1)] + [0, 600, 60, 0, 10, 1]
    return (digits * np.array(seconds, dtype=np.uint32)).sum(axis=1, dtype=np.int64)


def _float_column(cells: tuple[str, ...]) -> np.ndarray:
    column = np.fromiter(map(float, cells), np.float64, len(cells))
    if not np.isfinite(column).all():
        raise ValueError("non-finite cell")
    return column


def _speed_column(cells: tuple[str, ...]) -> np.ndarray:
    # "".zfill(1) is "0", so an empty cell converts; it becomes NaN below.
    column = _float_column(tuple(map(str.zfill, cells, itertools.repeat(1))))
    if "" in cells:
        column[np.fromiter(map(operator.not_, cells), np.bool_, len(cells))] = np.nan
    return column


# timeline column -> (column-wise conversion, per-cell parser)
_CONVERTERS = {
    "elapsed_s": (_clock_column, _parse_clock_cell),
    **{f: (_int_column, _parse_int) for f in _INT_FIELDS},
    **{f: (_flag_column, _parse_bool) for f in _BOOL_FIELDS},
    **{f: (_float_column, _parse_float) for f in _FLOAT_FIELDS},
    "speed_mph": (_speed_column, _speed_cell),
}


def _convert(field: str, cells: tuple[str, ...], name: str) -> tuple[np.ndarray, int]:
    """(array, n_ok): the column of `field` from its CSV column `name`, and
    the number of leading cells its per-cell parser accepts.

    When the column-wise conversion refuses the column, the per-cell parser
    converts it again up to its first bad cell, which it may not find: it
    accepts padded flags, for one.
    """
    fast, parse = _CONVERTERS[field]
    try:
        return fast(cells), len(cells)
    except (ValueError, KeyError, OverflowError):
        pass
    values = []
    try:
        for value in cells:
            values.append(parse(value, name, 0))
    except ValueError:  # ValidationError, or int()'s digit limit in a clock
        pass
    return np.array(values, dtype=_COLUMN_DTYPES[field]), len(values)


def load_match_csv(source, schema: dict[str, str] | None = None) -> list[MatchTimeline]:
    """Load a point-by-point CSV into one MatchTimeline per match_id.

    ``source`` is a binary or text stream (or a path string) of UTF-8,
    comma-delimited, RFC-4180 CSV with a header row.  ``schema`` maps
    canonical field names to file column names; unmapped fields fall back
    to DEFAULT_SCHEMA.  Extra columns are ignored.  Timelines come back
    sorted by match_id, points ordered by (set_no, game_no, point_no).
    An integer cell, or a clock in seconds, must fit in int64.
    """
    colmap = dict(DEFAULT_SCHEMA)
    if schema is not None:
        if not isinstance(schema, dict):
            raise SchemaError(f"schema must be a dict of field to column name, got {schema!r}")
        unknown = sorted(map(str, set(schema) - set(DEFAULT_SCHEMA)))
        if unknown:
            raise SchemaError(f"schema maps unknown canonical fields: {', '.join(unknown)}")
        for field, column in schema.items():
            if not isinstance(column, str):
                raise SchemaError(f"schema maps {field!r} to {column!r}, not a column name")
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


# Data rows converted at a time: bounds the CSV cells held at once.
_BLOCK_ROWS = 512


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
    # The text cells kept: match ids and player names.
    kept = {c: position[c] for c in _META_COLUMNS if c in position}
    kept["match_id"] = idx["match_id"]

    # Blocks are read in file order, and each raises the error of its first
    # bad row, so the first bad row of the file names the error.  A block
    # keeps its arrays, file rows and match id and player cells, each cell
    # the one str of its value in `shared`, not the row's own copy.
    blocks = []
    shared: dict[str, str] = {}
    line = 2  # file row of the block's first row
    for rows in iter(lambda: list(itertools.islice(reader, _BLOCK_ROWS)), []):
        lines = range(line, line + len(rows))
        line += len(rows)
        if not all(rows):  # csv.reader gives [] for a blank line
            lines = [n for n, raw in zip(lines, rows) if raw]
            rows = list(filter(None, rows))
            if not rows:
                continue
        columns, cells = _read_columns(rows, lines, len(header), idx, colmap)
        text = {c: tuple(map(shared.setdefault, cells[k], cells[k])) for c, k in kept.items()}
        blocks.append((columns, lines, text))
        del rows, cells  # before the next block's rows are read
    if not blocks:
        raise SchemaError("empty file: header but no data rows")
    # Each block's arrays are dropped as they are joined.
    columns = {f: np.concatenate([b[0].pop(f) for b in blocks]) for f in _COLUMNS}
    lines = np.concatenate([b[1] for b in blocks])
    players = {c: tuple(itertools.chain.from_iterable(b[2][c] for b in blocks)) for c in kept}
    ids = players.pop("match_id")

    # Group by match id as Python strings ("a" and "a\x00" differ), then sort
    # stably by (match, set, game, point): equal keys keep their file order.
    names = sorted(set(ids))
    codes = dict(zip(names, itertools.count()))
    match = np.fromiter(map(codes.__getitem__, ids), np.int64, len(ids))
    keys = [columns["point_no"], columns["game_no"], columns["set_no"]]
    if len(names) > 1:
        keys.append(match)
    order = np.lexsort(keys)
    # Column by column, so that one column at a time is held twice.
    del keys
    match = match[order]
    for field, column in columns.items():
        columns[field] = column[order]

    # Checks between consecutive points of one match.  The first match with
    # a fault reports its first duplicate key, or else its first fault.
    same = match[1:] == match[:-1]
    bad = same & _sequence_faults(columns)
    if bad.any():
        first = int(bad.argmax())
        keys_equal = same & (match[1:] == match[first + 1])
        for name in ("set_no", "game_no", "point_no"):
            keys_equal &= columns[name][1:] == columns[name][:-1]
        view = TimelinePoints(names[match[first + 1]], tuple(columns[f] for f in _COLUMNS))
        if keys_equal.any():
            i = int(keys_equal.argmax()) + 1
            b = view[i]
            raise ValidationError(
                f"duplicate point key (set {b.set_no}, game {b.game_no}, point {b.point_no}) "
                f"in match {b.match_id!r}",
                int(lines[order[i]]),
            )
        _check_pair(view[first], view[first + 1])
        raise AssertionError("a column-wise order check failed but the pair check passes")

    starts = [0, *(np.flatnonzero(~same) + 1).tolist(), len(match)]
    timelines = []
    for a, b in zip(starts, starts[1:]):
        match_id = names[match[a]]
        meta = {c: column[order[a]] for c, column in players.items()}
        points = TimelinePoints(match_id, tuple(columns[f][a:b] for f in _COLUMNS))
        timelines.append(MatchTimeline(match_id, points, {c: v for c, v in meta.items() if v}))
    return timelines


def _read_columns(rows: list[list[str]], lines, width: int, idx: dict[str, int],
                  colmap: dict[str, str]):
    """(columns by field, cells by file column) of data rows whose every
    record passes PointRecord.check; else the error of the first bad row."""

    def fail(k: int):
        """Raise the error of rows[k], which a column-wise check refused."""
        raw = rows[k]
        if len(raw) < width:
            raise ValidationError(f"expected {width} fields, got {len(raw)}", lines[k])
        PointRecord(*_parse_row(raw, idx, colmap, lines[k])).check(lines[k])
        raise AssertionError(f"row {lines[k]} failed a column-wise check but passes the row check")

    # Rows before the first short or badly converted one are checked
    # column-wise; the first row to fail any check names the error.
    usable = len(rows)
    if min(map(len, rows)) < width:
        usable = next(k for k, raw in enumerate(rows) if len(raw) < width)
        if not usable:
            fail(0)
    cells = list(zip(*rows[:usable]))
    columns = {}
    for field, cell in zip(_COLUMNS, _COLUMN_CELLS):
        columns[field], n_ok = _convert(field, cells[idx[cell]], colmap[cell])
        usable = min(usable, n_ok)
    columns = {field: column[:usable] for field, column in columns.items()}
    bad = _record_faults(columns)
    if bad.any():
        fail(int(bad.argmax()))
    if usable < len(rows):
        fail(usable)
    return columns, cells


def _optional_repr(value: float) -> str:
    return "" if value != value else repr(value)  # NaN is a missing speed


def _cell_format(name: str):
    """The function that turns a value of field `name` into its CSV cell."""
    if name == "elapsed_s":
        return format_elapsed
    if name in _BOOL_FIELDS:
        return {False: "0", True: "1"}.__getitem__
    if name == "speed_mph":
        return _optional_repr
    return repr if name in _FLOAT_FIELDS else str


# (column, field, cell format) of each written field after match_id.
_WRITE_COLUMNS = tuple((DEFAULT_SCHEMA[cell], name, _cell_format(name))
                       for name, cell in zip(_COLUMNS, _COLUMN_CELLS))


@contextlib.contextmanager
def _text_dest(dest):
    """The text stream a writer writes to: `dest` itself, or the file at path
    `dest` opened as UTF-8 with no newline translation, closed afterwards."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield dest


def write_timeline_csv(timeline, dest) -> None:
    """Write one timeline (or an iterable of them) back to CSV in the default
    schema (round-trip safe)."""
    timelines = [timeline] if isinstance(timeline, MatchTimeline) else list(timeline)
    with _text_dest(dest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # csv.writer quotes a cell that holds "\n" but not one that holds "\r",
        # which a reader then takes for a line end: such timelines quote every cell.
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["match_id", "player1", "player2"] + [c for c, _, _ in _WRITE_COLUMNS])
        for tl in timelines:
            _write_timeline_rows(tl, writer, quote_all)


def _write_timeline_rows(timeline: MatchTimeline, writer, quote_all) -> None:
    # One formatted column at a time, from Python scalars: numpy 2 scalars
    # repr as np.float64(...).
    n = len(timeline)
    p1 = timeline.meta.get("player1", "")
    p2 = timeline.meta.get("player2", "")
    columns = [itertools.repeat(value, n) for value in (timeline.match_id, p1, p2)]
    columns += [map(fmt, getattr(timeline, name).tolist()) for _, name, fmt in _WRITE_COLUMNS]
    if "\r" in "".join([p1, p2, timeline.match_id]):
        writer = quote_all
    writer.writerows(zip(*columns))


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the deterministic synthetic-match generator."""

    n_points: int = integer(ge=1)
    p_serve_win: float = real(0.65, ge=0, le=1)
    seed: int = integer(0, ge=0)  # random.Random(-7) draws what random.Random(7) does
    ace_rate: float = real(0.08, ge=0, le=1)
    double_fault_rate: float = real(0.05, ge=0, le=1)
    unf_err_rate: float = real(0.15, ge=0, le=1)
    # A point lasts up to 1.5x the mean and is made an int, so 1.5x must be finite.
    mean_point_duration_s: float = real(40.0, gt=0, le=math.nextafter(sys.float_info.max / 1.5, 0))
    match_id: str = setting(str, "synthetic-0001")

    check = check_config


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
