"""The scoring writers format each row with one format string; their bytes
must equal those of csv.writer over the repr of every float."""

from __future__ import annotations

import csv
import dataclasses
import io

import pytest

from matchkit.dbwp import DbwpParams, DbwpSeries, write_dbwp_csv
from matchkit.momentum import MomentumConfig, MomentumSeries, write_momentum_csv
from matchkit.winjud import WinjudParams, WinjudSeries, write_winjud_csv

FLOATS = (-0.0, 0.0, 1e-300, 5e-324, float("inf"), float("-inf"), float("nan"),
          0.1 + 0.2, 1 / 3, -2 / 3, 1.7976931348623157e308, 123456789.12345679, 2.5, -1.0)


def _csv_form(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _floats(shift):
    return tuple(FLOATS[(k + shift) % len(FLOATS)] for k in range(len(FLOATS)))


INDICES = tuple(range(3, 3 + len(FLOATS)))
ELAPSED = tuple(range(0, 40 * len(FLOATS), 40))


def _winjud():
    a, b = _floats(0), _floats(5)
    series = WinjudSeries(INDICES, ELAPSED, a, b, WinjudParams())
    rows = []
    for i, t, p1, p2 in zip(INDICES, ELAPSED, a, b):
        rows += [[i, t, 1, repr(p1)], [i, t, 2, repr(p2)]]
    return series, write_winjud_csv, _csv_form(["point_index", "elapsed_s", "player", "score"], rows)


def _momentum():
    a, b = _floats(3), _floats(8)
    series = MomentumSeries(INDICES, ELAPSED, a, b, MomentumConfig())
    rows = [[i, t, repr(s), repr(m)] for i, t, s, m in zip(INDICES, ELAPSED, a, b)]
    return series, write_momentum_csv, _csv_form(
        ["point_index", "elapsed_s", "strategic", "psychological"], rows)


def _dbwp():
    a, b = _floats(1), _floats(9)
    series = DbwpSeries(INDICES, ELAPSED, a, b, DbwpParams())
    rows = [[i, t, repr(r), repr(d)] for i, t, r, d in zip(INDICES, ELAPSED, a, b)]
    return series, write_dbwp_csv, _csv_form(["point_index", "elapsed_s", "win_rate", "dbwp"], rows)


@pytest.mark.parametrize("make", [_winjud, _momentum, _dbwp], ids=["winjud", "momentum", "dbwp"])
def test_bytes_equal_the_csv_writer_form(make, tmp_path):
    series, write, expected = make()
    buf = io.StringIO()
    write(series, buf)
    assert buf.getvalue() == expected
    path = tmp_path / "out.csv"
    write(series, str(path))
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("make", [_winjud, _momentum, _dbwp], ids=["winjud", "momentum", "dbwp"])
def test_empty_series_writes_only_the_header(make):
    series, write, expected = make()
    empty = dataclasses.replace(series, **{f.name: () for f in dataclasses.fields(series)
                                           if isinstance(getattr(series, f.name), tuple)})
    buf = io.StringIO()
    write(empty, buf)
    assert buf.getvalue() == expected.split("\n", 1)[0] + "\n"
