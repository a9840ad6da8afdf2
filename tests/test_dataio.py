"""Tests for CSV ingestion, cleaning, scaling, splitting, and persistence."""

import csv
import io
import logging
import re
import tracemalloc
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcflow import dataio
from pcflow.errors import (
    DataError,
    InsufficientDataError,
    ParseError,
    PcflowError,
    ScalingError,
    SchemaError,
    UsageError,
)


def write_csv(path, rows, header="time,value"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def day_rows(day, period_length=96, value=1.0, capacity=None):
    """CSV rows for one full calendar day on the nominal grid."""
    interval = (24 * 60) // period_length
    out = []
    for i in range(period_length):
        minutes = i * interval
        stamp = f"{day}T{minutes // 60:02d}:{minutes % 60:02d}:00"
        fields = [stamp, repr(value)]
        if capacity is not None:
            fields.append(repr(capacity))
        out.append(",".join(fields))
    return out


# load_csv ---------------------------------------------------------------


def test_load_csv_four_lines(tmp_path):
    rows = [
        "2013-01-01T00:00:00,1.0",
        "2013-01-01T00:15:00,2.0",
        "2013-01-01T00:30:00,3.0",
        "2013-01-01T00:45:00,4.0",
    ]
    series = dataio.load_csv(write_csv(tmp_path / "a.csv", rows))
    assert len(series) == 4
    assert series.values.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert series.capacity is None


def test_load_csv_empty_cell_becomes_missing(tmp_path):
    rows = ["2013-01-01T00:00:00,1.0", "2013-01-01T00:15:00,", "2013-01-01T00:30:00,3.0"]
    series = dataio.load_csv(write_csv(tmp_path / "a.csv", rows))
    assert np.isnan(series.values[1])
    assert np.isfinite(series.values[[0, 2]]).all()


@pytest.mark.parametrize("marker", ["NaN", "nan", "null", "NA", "None"])
def test_load_csv_missing_spellings(tmp_path, marker):
    rows = ["2013-01-01T00:00:00,1.0", f"2013-01-01T00:15:00,{marker}"]
    series = dataio.load_csv(write_csv(tmp_path / "a.csv", rows))
    assert np.isnan(series.values[1])


def test_load_csv_out_of_order_timestamps(tmp_path):
    rows = ["2013-01-01T00:15:00,1.0", "2013-01-01T00:00:00,2.0"]
    with pytest.raises(DataError, match="not increasing"):
        dataio.load_csv(write_csv(tmp_path / "a.csv", rows))


def test_load_csv_malformed_timestamp_names_line(tmp_path):
    rows = ["2013-01-01T00:00:00,1.0", "not-a-time,2.0"]
    with pytest.raises(ParseError, match="line 3"):
        dataio.load_csv(write_csv(tmp_path / "a.csv", rows))


def test_load_csv_missing_column_is_schema_error(tmp_path):
    path = write_csv(tmp_path / "a.csv", ["2013-01-01T00:00:00,1.0"], header="when,value")
    with pytest.raises(SchemaError, match="'time'"):
        dataio.load_csv(path)


def test_load_csv_capacity_column(tmp_path):
    rows = ["2013-01-01T00:00:00,50.0,200.0"]
    path = write_csv(tmp_path / "a.csv", rows, header="time,value,cap")
    series = dataio.load_csv(path, capacity_col="cap")
    assert series.capacity.tolist() == [200.0]


def test_load_csv_offsets_become_utc_without_warning(tmp_path):
    rows = ["2013-01-01T01:00:00+01:00,1.0", "2013-01-01T00:15:00Z,2.0",
            "2012-12-31T19:00:00-05:30,3.0", "2013-01-01 00:45:00,4.0"]
    path = write_csv(tmp_path / "a.csv", rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = dataio.load_csv(path)
    expected = ["2013-01-01T00:00:00", "2013-01-01T00:15:00",
                "2013-01-01T00:30:00", "2013-01-01T00:45:00"]
    assert series.timestamps.tolist() == np.array(expected, "datetime64[s]").tolist()


@pytest.mark.parametrize("cell", ["2019", "today", "NaT", "", "0000-01-01T00:00:00",
                                  "2013-02-29T00:00:00", "0001-01-01T00:00:00+01:00",
                                  "0001-01-01T00:59:59.999999+01:00",
                                  "9999-12-31T23:00:00-01:00"])
def test_load_csv_rejects_what_fromisoformat_rejects(tmp_path, cell):
    # numpy's datetime64 parser reads the first five; in UTC the last three are
    # out of datetime's range
    rows = ["2012-01-01T00:00:00,1.0", f"{cell},2.0"]
    with pytest.raises(ParseError, match=r"line 3: malformed timestamp"):
        dataio.load_csv(write_csv(tmp_path / "a.csv", rows))


def test_load_csv_cell_too_large_is_parse_error(tmp_path):
    rows = ["2013-01-01T00:00:00,1.0", "2013-01-01T00:15:00," + "1" * 200_000]
    with pytest.raises(ParseError, match="field larger than field limit"):
        dataio.load_csv(write_csv(tmp_path / "a.csv", rows))


@pytest.mark.parametrize("row, message", [
    ("2013-01-01T00:15:00,x", "line 3: malformed value 'x'"),
    ("2013-01-01T00:15:00", "line 3: expected 2 fields, got 1"),
])
def test_load_csv_errors_name_the_file(tmp_path, row, message):
    path = write_csv(tmp_path / "a.csv", ["2013-01-01T00:00:00,1.0", row])
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
        dataio.load_csv(path)


def test_load_csv_repeated_local_hour_names_line_and_stamps(tmp_path):
    # naive local stamps repeat an hour at the autumn daylight-saving switch
    stamps = ["02:00", "02:15", "02:30", "02:45", "02:00"]
    path = write_csv(tmp_path / "a.csv", [f"2013-10-27T{t}:00,1.0" for t in stamps])
    message = (f"{path}: line 6: timestamps not increasing: "
               "2013-10-27T02:00:00 after 2013-10-27T02:45:00")
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        dataio.load_csv(path)


def reference_timestamp(text, line_no):
    """A timestamp as numpy converts the datetime load_csv reads from the cell."""
    dataio._parse_timestamp(text, line_no)  # load_csv's accepted spellings and errors
    stamp = datetime.fromisoformat(text.strip())
    if stamp.tzinfo is not None:
        stamp = stamp.astimezone(timezone.utc).replace(tzinfo=None)
    return np.datetime64(stamp, "s")


def reference_load_csv(path, time_col="time", value_col="value", capacity_col=None):
    """The per-row loop that load_csv replaced, kept as its oracle.

    It shares load_csv's cell parsers, which define the accepted spellings
    and the error messages. Every error names the file.
    """
    try:
        return reference_rows(path, time_col, value_col, capacity_col)
    except PcflowError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def reference_rows(path, time_col, value_col, capacity_col):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file") from None
        header = [h.strip() for h in header]
        columns = {}
        for name in (time_col, value_col) + ((capacity_col,) if capacity_col else ()):
            if name not in header:
                raise SchemaError(f"column {name!r} not found in header {header}")
            columns[name] = header.index(name)

        line_nos, timestamps, values, capacities = [], [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < len(header):
                raise ParseError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
            line_nos.append(line_no)
            timestamps.append(reference_timestamp(row[columns[time_col]], line_no))
            values.append(dataio._parse_value(row[columns[value_col]], line_no, "value"))
            if capacity_col:
                capacities.append(
                    dataio._parse_value(row[columns[capacity_col]], line_no, "capacity"))

    if not timestamps:
        raise DataError("no data rows")
    ts = np.array(timestamps, dtype="datetime64[s]")
    for i in range(1, len(ts)):
        if ts[i] <= ts[i - 1]:
            raise DataError(f"line {line_nos[i]}: timestamps not increasing: "
                            f"{ts[i]} after {ts[i - 1]}")
    return dataio.RawSeries(
        timestamps=ts,
        values=np.array(values),
        capacity=np.array(capacities) if capacity_col else None,
    )


def outcome(load, path, capacity_col):
    """The bytes of every array load returns, or its exception class and message."""
    try:
        series = load(path, capacity_col=capacity_col)
    except PcflowError as exc:
        return type(exc), str(exc)
    capacity = None if series.capacity is None else series.capacity.tobytes()
    return series.timestamps.tobytes(), series.values.tobytes(), capacity


def assert_loads_like_reference(path, capacity_col=None):
    expected = outcome(reference_load_csv, path, capacity_col)
    assert outcome(dataio.load_csv, path, capacity_col) == expected
    return expected


START = datetime(2019, 3, 30, 22, 0)
STAMP_SPELLINGS = {
    "canonical": lambda t: t.isoformat(),
    "space": lambda t: t.isoformat(sep=" "),
    "padded": lambda t: f" {t.isoformat()}\t",
    "zulu": lambda t: t.isoformat() + "Z",
    "offset": lambda t: (t + timedelta(hours=2)).isoformat() + "+02:00",
    "negative offset": lambda t: (t - timedelta(hours=5, minutes=30)).isoformat() + "-05:30",
    "basic": lambda t: t.strftime("%Y%m%dT%H%M%S"),
    "fraction": lambda t: t.isoformat() + ".250",
    "minutes": lambda t: t.isoformat(timespec="minutes"),
    "date": lambda t: t.date().isoformat(),
    "lower t": lambda t: t.isoformat(sep="t"),
    "year": lambda t: str(t.year),
    "today": lambda t: "today",
    "nat": lambda t: "NaT",
    "empty": lambda t: "",
    "year zero": lambda t: t.replace(year=1).isoformat().replace("0001", "0000", 1),
    "nul": lambda t: t.isoformat() + "\0",
    "two nuls": lambda t: t.isoformat() + "\0\0",
    # in increasing order only on the first or last row
    "before 1970": lambda t: "1969-12-31T23:59:59.5",  # seconds are floored
    "first second": lambda t: "0001-01-01T00:00:00",
    "before year one": lambda t: "0001-01-01T00:30:00+01:00",
    "last second": lambda t: "9999-12-31T23:59:59.999999",
}
NUMBER_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", " ", "nan", "NaN", " NAN ", "null", "NULL", "na", "NA", "None",
                     "none", "-nan", "inf", "-Infinity", " 7.5 ", "1_000", "1e500", "+.5"]),
    st.sampled_from(["abc", "1.0.0", "1e", "--1", "0x10", "1d0", "nan(1)", "1\0", "n/a"]),
)
ROW_EDITS = st.one_of(
    st.tuples(st.just("stamp"), st.sampled_from(sorted(STAMP_SPELLINGS))),
    st.tuples(st.sampled_from(["value", "capacity"]), NUMBER_CELLS),
    st.tuples(st.just("row"), st.sampled_from(["", ",", " , ,", "\t", "short", "extra",
                                              "repeat"])),
)


def render_rows(n_rows, with_capacity, edits):
    """n_rows good rows 15 minutes apart, with each edit applied to one row."""
    rows = [[(START + timedelta(minutes=15 * i)).isoformat(), repr(0.5 * i), "40.0"]
            [: 3 if with_capacity else 2] for i in range(n_rows)]
    for at, (kind, what) in edits:
        row = rows[at % n_rows]
        if kind == "stamp":
            row[0] = STAMP_SPELLINGS[what](START + timedelta(minutes=15 * (at % n_rows)))
        elif kind in ("value", "capacity"):
            column = 1 if kind == "value" else 2
            if column < len(row):  # an earlier edit may have shortened the row
                row[column] = what
        elif what == "short":
            del row[1:]
        elif what == "extra":
            row.append("ignored")
        elif what == "repeat":
            row[0] = START.isoformat()
        else:
            row[:] = [what]
    return [",".join(row) for row in rows]


@settings(max_examples=200, deadline=None)
@given(
    n_rows=st.integers(1, 30),
    with_capacity=st.booleans(),
    edits=st.lists(st.tuples(st.integers(0, 10**6), ROW_EDITS), max_size=4),
    block=st.sampled_from([1, 2, 3, 7, dataio.BLOCK]),
)
@example(n_rows=2, with_capacity=False, edits=[(0, ("stamp", "before 1970"))], block=2)
@example(n_rows=2, with_capacity=False, block=2,
         edits=[(0, ("stamp", "first second")), (1, ("stamp", "last second"))])
def test_load_csv_matches_per_row_reference(tmp_path_factory, n_rows, with_capacity, edits,
                                            block):
    rows = render_rows(n_rows, with_capacity, edits)
    header = "time,value,capacity" if with_capacity else "time,value"
    path = write_csv(tmp_path_factory.mktemp("csv") / "a.csv", rows, header=header)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "BLOCK", block)
        assert_loads_like_reference(path, "capacity" if with_capacity else None)


@pytest.mark.parametrize("edits, error", [
    ([], None),
    ([(50, ("value", "abc"))], "line +52: malformed value 'abc'"),
    ([(90, ("stamp", "zulu")), (95, ("capacity", "NULL"))], None),
    ([(80, ("row", "short")), (70, ("capacity", "x")), (60, ("stamp", "basic"))],
     "line +72: malformed capacity 'x'"),
    ([(80, ("row", "short")), (85, ("stamp", "year"))], "line +82: expected 3 fields, got 1"),
    ([(20, ("stamp", "year")), (20, ("value", "1.0.0"))], "line +22: malformed timestamp"),
    ([(40, ("row", "repeat"))], "timestamps not increasing"),
])
def test_load_csv_matches_reference_past_first_block(tmp_path, edits, error):
    # every edit lands in the second block; "at" counts from its first row,
    # and "line +k" is line BLOCK + k (the header is line 1)
    n_rows = dataio.BLOCK + 100
    edits = [(dataio.BLOCK + at, edit) for at, edit in edits]
    path = write_csv(tmp_path / "a.csv", render_rows(n_rows, True, edits),
                     header="time,value,capacity")
    result = assert_loads_like_reference(path, "capacity")
    if error is None:
        assert len(result[1]) == 8 * n_rows
    else:
        expected = re.sub(r"line \+(\d+)", lambda m: f"line {dataio.BLOCK + int(m[1])}",
                          error)
        assert expected in result[1]


def timestamps_outcome(parse, cells, line_nos):
    """The bytes of the seconds parse returns, or its ParseError message."""
    try:
        return np.asarray(parse(cells, line_nos), dtype=np.int64).tobytes()
    except ParseError as exc:
        return str(exc)


def timestamps_cell_by_cell(cells, line_nos):
    return list(map(dataio._parse_timestamp, cells, line_nos))


def timestamps_by_block(cells, line_nos):
    """The seconds _parse_block reads from a one-column block of the cells."""
    return dataio._parse_block([[cell] for cell in cells], np.array(line_nos), 1, [0])[0]


@pytest.mark.parametrize("spelling", sorted(STAMP_SPELLINGS))
def test_parse_timestamps_matches_cell_by_cell(spelling):
    stamps = [START + timedelta(minutes=15 * i) for i in range(6)]
    spell = STAMP_SPELLINGS[spelling]
    naive, aware = STAMP_SPELLINGS["canonical"], STAMP_SPELLINGS["offset"]
    blocks = {
        "one spelling": [spell(t) for t in stamps],
        "with naive": [spell(t) if i % 2 else naive(t) for i, t in enumerate(stamps)],
        "with aware": [spell(t) if i % 2 else aware(t) for i, t in enumerate(stamps)],
        "last cell only": [naive(t) for t in stamps[:-1]] + [spell(stamps[-1])],
    }
    line_nos = list(range(2, 2 + len(stamps)))
    for name, cells in blocks.items():
        expected = timestamps_outcome(timestamps_cell_by_cell, cells, line_nos)
        assert timestamps_outcome(timestamps_by_block, cells, line_nos) == expected, name
        if isinstance(expected, bytes):  # a column without a fault converts at once
            assert dataio._parse_timestamps(cells).tobytes() == expected, name
        else:
            with pytest.raises((ValueError, OverflowError)):
                dataio._parse_timestamps(cells)


def test_parse_timestamps_mixes_naive_and_aware_stamps():
    cells = ["1970-01-01T00:00:00", "1970-01-01T01:00:01+01:00", "1970-01-01T00:00:02Z",
             " 1969-12-31T23:59:59.5 ", "1969-12-31T18:59:58-05:00"]
    seconds = dataio._parse_timestamps(cells)
    assert seconds.dtype == np.int64
    assert seconds.tolist() == [0, 1, 2, -1, -2]


@pytest.mark.parametrize("cell", ["today", "2013-02-29T00:00:00", "0001-01-01T00:30:00+01:00"])
def test_parse_timestamps_names_a_fault_in_the_last_cell(cell):
    cells = ["2013-01-01T00:00:00Z", "2013-01-01T00:15:00", cell]
    with pytest.raises((ValueError, OverflowError)):
        dataio._parse_timestamps(cells)
    with pytest.raises(ParseError, match=rf"^line 9: malformed timestamp {re.escape(repr(cell))}$"):
        timestamps_by_block(cells, [7, 8, 9])


def test_load_csv_memory_stays_bounded(tmp_path):
    # reading the whole file at once costs about 640 B per row, ~190 MB here
    n_rows = 300_000
    stamps = np.datetime_as_string(
        np.datetime64("2013-01-01T00:00:00") + np.arange(n_rows) * np.timedelta64(15, "m"))
    values = np.char.mod("%.4f", np.random.default_rng(0).uniform(0, 40, n_rows))
    lines = np.char.add(np.char.add(np.char.add(stamps, ","), values), ",40.0\n")
    path = tmp_path / "big.csv"
    path.write_text("time,value,capacity\n" + "".join(lines.tolist()), encoding="utf-8")
    tracemalloc.start()
    try:
        series = dataio.load_csv(path, capacity_col="capacity")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == n_rows
    assert peak < 30e6, peak


# clean_and_slice --------------------------------------------------------


def test_slice_three_complete_days(tmp_path):
    rows = day_rows("2013-01-01") + day_rows("2013-01-02") + day_rows("2013-01-03")
    series = dataio.load_csv(write_csv(tmp_path / "a.csv", rows))
    scenario_set = dataio.clean_and_slice(series, 96)
    assert scenario_set.data.shape == (3, 96)
    assert scenario_set.interval_minutes == 15


def test_slice_drops_day_with_missing_value(tmp_path):
    rows = day_rows("2013-01-01") + day_rows("2013-01-02") + day_rows("2013-01-03")
    rows[96 + 10] = rows[96 + 10].rsplit(",", 1)[0] + ",nan"  # poke a hole in day 2
    series = dataio.load_csv(write_csv(tmp_path / "a.csv", rows))
    scenario_set = dataio.clean_and_slice(series, 96)
    assert scenario_set.n_scenarios == 2


def test_slice_drops_off_grid_day(tmp_path):
    rows = day_rows("2013-01-01") + day_rows("2013-01-02") + day_rows("2013-01-03")
    # DST-style irregularity: shift one sample off the quarter-hour grid
    rows[96 + 10] = rows[96 + 10].replace(":30:00", ":31:00")
    series = dataio.load_csv(write_csv(tmp_path / "a.csv", rows))
    assert dataio.clean_and_slice(series, 96).n_scenarios == 2


def test_slice_single_day_insufficient(tmp_path):
    series = dataio.load_csv(write_csv(tmp_path / "a.csv", day_rows("2013-01-01")))
    with pytest.raises(InsufficientDataError):
        dataio.clean_and_slice(series, 96)


def test_slice_preserves_values_bit_exactly(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.uniform(0, 100, 2 * 96)
    rows = []
    for day, chunk in zip(("2013-01-01", "2013-01-02"), vals.reshape(2, 96)):
        rows += [
            r.rsplit(",", 1)[0] + "," + repr(float(v))
            for r, v in zip(day_rows(day), chunk)
        ]
    series = dataio.load_csv(write_csv(tmp_path / "a.csv", rows))
    scenario_set = dataio.clean_and_slice(series, 96)
    assert np.array_equal(scenario_set.data.ravel(), vals)


def reference_clean_and_slice(series, period_length):
    """The per-day loop that clean_and_slice replaced, kept as its oracle."""
    if period_length < 2:
        raise UsageError("period_length must be >= 2")
    if (24 * 60) % period_length != 0:
        raise UsageError(f"period_length {period_length} does not divide a whole day")
    interval = (24 * 60) // period_length

    ts = series.timestamps
    days = ts.astype("datetime64[D]")
    offsets = (ts - days) / np.timedelta64(1, "m")
    expected = np.arange(period_length) * float(interval)

    rows, indices = [], []
    dropped = 0
    unique_days = np.unique(days)
    for day in unique_days:
        idx = np.nonzero(days == day)[0]
        ok = (
            len(idx) == period_length
            and np.array_equal(offsets[idx], expected)
            and np.all(np.isfinite(series.values[idx]))
        )
        if ok:
            rows.append(series.values[idx])
            indices.append(idx)
        else:
            dropped += 1
    if dropped:
        dataio.logger.info("dropped %d of %d days (missing values or irregular grid)",
                           dropped, len(unique_days))
    if len(rows) < 2:
        raise InsufficientDataError(
            f"only {len(rows)} complete days survive cleaning; need at least 2"
        )
    return dataio.ScenarioSet(
        data=np.array(rows),
        period_length=period_length,
        interval_minutes=interval,
        source_index=np.array(indices),
    )


def slice_outcome(slice_fn, series, period_length):
    """The data and index bytes and the log lines of slice_fn, or its exception."""
    handler = logging.Handler()
    records = []
    handler.emit = records.append
    level = dataio.logger.level
    dataio.logger.addHandler(handler)
    dataio.logger.setLevel(logging.INFO)
    try:
        result = slice_fn(series, period_length)
    except PcflowError as exc:
        return type(exc), str(exc)
    finally:
        dataio.logger.removeHandler(handler)
        dataio.logger.setLevel(level)
    messages = [record.getMessage() for record in records]
    return (result.data.tobytes(), result.source_index.tobytes(),
            result.source_index.dtype, messages)


# how one day of the generated series departs from the full grid
DAY_KINDS = ["full", "full", "full", "absent", "head", "tail", "hole", "off grid",
             "extra sample", "missing value", "infinite value"]


@settings(max_examples=150, deadline=None)
@given(
    period_length=st.sampled_from([2, 4, 24]),
    days=st.lists(st.tuples(st.sampled_from(DAY_KINDS), st.integers(0, 10**6)),
                  min_size=1, max_size=8),
    first_day=st.sampled_from(["1969-12-30", "2013-03-30", "2019-12-31"]),
)
def test_clean_and_slice_matches_per_day_reference(period_length, days, first_day):
    interval = (24 * 60) // period_length
    stamps, values = [], []
    for d, (kind, pick) in enumerate(days):
        day = np.datetime64(first_day, "m") + np.timedelta64(d, "D")
        minutes = list(range(0, 24 * 60, interval))
        day_values = [float(d * 100 + i) for i in range(period_length)]
        at = pick % period_length
        if kind == "absent":
            continue
        if kind == "head":
            minutes, day_values = minutes[: at + 1], day_values[: at + 1]
        elif kind == "tail":
            minutes, day_values = minutes[at:], day_values[at:]
        elif kind == "hole":
            del minutes[at], day_values[at]
        elif kind == "off grid":
            minutes[at] += 1
        elif kind == "extra sample":
            minutes.insert(at + 1, minutes[at] + 1)
            day_values.insert(at + 1, 0.5)
        elif kind == "missing value":
            day_values[at] = np.nan
        elif kind == "infinite value":
            day_values[at] = -np.inf
        stamps += [day + np.timedelta64(m, "m") for m in minutes]
        values += day_values
    if not stamps:
        return
    series = dataio.RawSeries(timestamps=np.array(stamps, "datetime64[s]"),
                              values=np.array(values))
    assert (slice_outcome(dataio.clean_and_slice, series, period_length)
            == slice_outcome(reference_clean_and_slice, series, period_length))


def test_slice_rejects_bad_period_length():
    series = dataio.RawSeries(
        timestamps=np.array(["2013-01-01T00:00:00"], dtype="datetime64[s]"),
        values=np.array([1.0]),
    )
    with pytest.raises(UsageError):
        dataio.clean_and_slice(series, 7)  # does not divide 1440


# scale / unscale --------------------------------------------------------


def make_set(data, **kwargs):
    data = np.asarray(data, dtype=float)
    defaults = dict(period_length=data.shape[1], interval_minutes=(24 * 60) // data.shape[1])
    defaults.update(kwargs)
    return dataio.ScenarioSet(data=data, **defaults)


def test_capacity_factor_scaling(tmp_path):
    rows = day_rows("2013-01-01", period_length=24, value=50.0, capacity=200.0)
    rows += day_rows("2013-01-02", period_length=24, value=100.0, capacity=200.0)
    path = write_csv(tmp_path / "a.csv", rows, header="time,value,cap")
    series = dataio.load_csv(path, capacity_col="cap")
    scenario_set = dataio.clean_and_slice(series, 24)
    scaled = dataio.scale(scenario_set, "capacity_factor", capacity=series.capacity)
    assert scaled.data[0, 0] == 0.25
    assert scaled.data[1, 0] == 0.5
    assert scaled.scaling == "capacity_factor"
    back = dataio.unscale(scaled, capacity=series.capacity)
    assert np.array_equal(back.data, scenario_set.data) and back.scaling == "none"


def test_minmax_scaling_hand_value():
    scenario_set = make_set([[10.0, 35.0], [60.0, 20.0]])
    scaled = dataio.scale(scenario_set, "minmax")
    assert scaled.data[0, 1] == 0.5
    assert scaled.scale_min == 10.0 and scaled.scale_max == 60.0


def test_minmax_degenerate_range():
    scenario_set = make_set([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ScalingError, match="degenerate"):
        dataio.scale(scenario_set, "minmax")


def test_zero_capacity_rejected(tmp_path):
    rows = day_rows("2013-01-01", period_length=24, value=5.0, capacity=0.0)
    rows += day_rows("2013-01-02", period_length=24, value=5.0, capacity=100.0)
    path = write_csv(tmp_path / "a.csv", rows, header="time,value,cap")
    series = dataio.load_csv(path, capacity_col="cap")
    scenario_set = dataio.clean_and_slice(series, 24)
    with pytest.raises(ScalingError, match="capacity"):
        dataio.scale(scenario_set, "capacity_factor", capacity=series.capacity)


def test_tiny_capacity_overflow_names_the_capacity(tmp_path):
    rows = day_rows("2013-01-01", period_length=24, value=5.0, capacity=2.2250738585072014e-308)
    rows += day_rows("2013-01-02", period_length=24, value=5.0, capacity=100.0)
    path = write_csv(tmp_path / "a.csv", rows, header="time,value,cap")
    series = dataio.load_csv(path, capacity_col="cap")
    scenario_set = dataio.clean_and_slice(series, 24)
    with pytest.raises(ScalingError, match=r"capacity 2\.2250738585072014e-308 is too small"):
        dataio.scale(scenario_set, "capacity_factor", capacity=series.capacity)


def test_minmax_roundtrip():
    rng = np.random.default_rng(1)
    scenario_set = make_set(rng.uniform(-5, 17, (6, 24)))
    scaled = dataio.scale(scenario_set, "minmax")
    back = dataio.unscale(scaled)
    assert np.allclose(back.data, scenario_set.data, rtol=1e-9)
    assert back.scaling == "none"


def test_unscale_returns_an_unscaled_set_unchanged():
    scenario_set = make_set([[10.0, 35.0], [60.0, 20.0]])
    assert dataio.unscale(scenario_set) is scenario_set


def test_scaled_set_invariant_enforced(tmp_path):
    # scale is the one place a value must lie in [0, 1]; it names the value's place
    rows = day_rows("2013-01-01", period_length=24, value=5.0, capacity=10.0)
    rows += day_rows("2013-01-02", period_length=24, value=5.0, capacity=10.0)
    rows[24 + 3] = rows[24 + 3].replace(",5.0,", ",15.0,")
    path = write_csv(tmp_path / "a.csv", rows, header="time,value,cap")
    series = dataio.load_csv(path, capacity_col="cap")
    scenario_set = dataio.clean_and_slice(series, 24)
    with pytest.raises(ScalingError, match=r"^scenario 1, step 3: capacity factor 1\.5 "
                                           r"lies outside \[0, 1\]$"):
        dataio.scale(scenario_set, "capacity_factor", capacity=series.capacity)


@pytest.mark.parametrize("units", [{"scaling": "minmax", "scale_min": 2.0, "scale_max": 9.0},
                                   {"scaling": "capacity_factor"}])
def test_scaled_set_may_leave_the_unit_interval(tmp_path, units):
    # a flow's samples do: the set keeps its model's units all the same
    scenario_set = make_set([[-0.5, 1.5], [0.2, 0.3]], **units)
    path = tmp_path / "s.csv"
    dataio.save_scenarios(scenario_set, path)
    back = dataio.load_scenarios(path)
    assert np.array_equal(back.data, scenario_set.data)
    assert [getattr(back, key) for key in dataio.PROVENANCE] == [
        getattr(scenario_set, key) for key in dataio.PROVENANCE]


def test_minmax_range_too_wide_for_float64():
    scenario_set = make_set([[-1e308, 1.0], [2.0, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScalingError, match=r"range \[-1e\+308, 1e\+308\] is too wide"):
            dataio.scale(scenario_set, "minmax")


@pytest.mark.parametrize("scaling, mode, capacity, keep_index, match", [
    ("none", "log", None, True, "unknown scaling mode 'log'"),
    ("capacity_factor", "minmax", None, True, r"set is already scaled \(capacity_factor\)"),
    ("none", "capacity_factor", None, True, "capacity_factor scaling requires a capacity series"),
    ("none", "capacity_factor", 1.0, False, "carries no source indices for capacity lookup"),
])
def test_scale_usage_errors(scaling, mode, capacity, keep_index, match):
    scenario_set = make_set([[0.2, 0.4], [0.6, 0.8]], scaling=scaling,
                            source_index=np.arange(4).reshape(2, 2) if keep_index else None)
    if capacity is not None:
        capacity = np.full(4, capacity)
    with pytest.raises(UsageError, match=match):
        dataio.scale(scenario_set, mode, capacity=capacity)


@pytest.mark.parametrize("capacity, keep_index, match", [
    (None, True, "inverting capacity_factor scaling requires the capacity series"),
    (1.0, False, "carries no source indices for capacity lookup"),
])
def test_unscale_usage_errors(capacity, keep_index, match):
    scenario_set = make_set([[0.2, 0.4], [0.6, 0.8]], scaling="capacity_factor",
                            source_index=np.arange(4).reshape(2, 2) if keep_index else None)
    if capacity is not None:
        capacity = np.full(4, capacity)
    with pytest.raises(UsageError, match=match):
        dataio.unscale(scenario_set, capacity=capacity)


@pytest.mark.parametrize("kwargs, match", [
    ({"scaling": "minmax"}, "minmax scaling needs finite scale_min < scale_max, got None"),
    ({"scaling": "minmax", "scale_min": 5.0, "scale_max": 1.0}, "got 5.0 and 1.0"),
    ({"interval_minutes": 15.5}, "interval_minutes must be an integer, got 15.5"),
    ({"period_length": 2.0}, "period_length must be an integer, got 2.0"),
    ({"scale_min": 1.0}, "scale_min and scale_max must be given together, got 1.0 and None"),
    ({"interval_minutes": "15"}, "interval_minutes must be an integer, got '15'"),
    ({"interval_minutes": None}, "interval_minutes must be an integer, got None"),
])
def test_scenario_set_rejects_provenance_load_scenarios_rejects(kwargs, match):
    # save_scenarios would write a .meta file that load_scenarios rejects
    with pytest.raises(DataError, match=match):
        make_set([[0.0, 1.0], [0.2, 0.3]], **kwargs)


def test_scenario_set_rejects_a_bool_period_length():
    # True == 1 matches one-column rows, but the .meta file would read "period_length=True"
    with pytest.raises(DataError, match="period_length must be an integer, got True"):
        make_set([[0.1], [0.2]], period_length=True)


# split ------------------------------------------------------------------


def test_split_cardinality():
    scenario_set = make_set(np.arange(20.0).reshape(10, 2))
    train, val = dataio.split(scenario_set, 0.2, seed=0)
    assert train.n_scenarios == 8 and val.n_scenarios == 2
    merged = np.vstack([train.data, val.data])
    # every input row appears exactly once across the two outputs
    assert sorted(map(tuple, merged)) == sorted(map(tuple, scenario_set.data))


def test_split_paper_sizes():
    scenario_set = make_set(np.zeros((1096, 2)) + np.arange(1096)[:, None])
    train, val = dataio.split(scenario_set, 0.2, seed=3)
    assert (train.n_scenarios, val.n_scenarios) == (877, 219)


def test_split_deterministic():
    scenario_set = make_set(np.random.default_rng(2).normal(size=(50, 4)))
    a = dataio.split(scenario_set, 0.3, seed=11)
    b = dataio.split(scenario_set, 0.3, seed=11)
    assert np.array_equal(a[0].data, b[0].data)
    assert np.array_equal(a[1].data, b[1].data)


def test_split_bad_fraction():
    scenario_set = make_set(np.zeros((10, 2)))
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(UsageError):
            dataio.split(scenario_set, bad, seed=0)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_split_rejects_a_one_row_validation_set(n):
    scenario_set = make_set(np.arange(2.0 * n).reshape(n, 2))
    message = f"validation_fraction 0.2 selects 1 rows from N={n}; validation needs at least 2"
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        dataio.split(scenario_set, 0.2, seed=0)


def test_split_rejects_a_one_row_training_set():
    scenario_set = make_set(np.arange(6.0).reshape(3, 2))
    # 0.9 of 3 rows is 2 validation rows, leaving 1 for training
    with pytest.raises(InsufficientDataError,
                       match="^split would leave fewer than 2 training scenarios$"):
        dataio.split(scenario_set, 0.9, seed=0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=60),
    frac=st.floats(min_value=0.05, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_split_partitions_exactly(n, frac, seed):
    scenario_set = make_set(np.arange(2.0 * n).reshape(n, 2))
    try:
        train, val = dataio.split(scenario_set, frac, seed)
    except (UsageError, InsufficientDataError):
        return
    assert train.n_scenarios + val.n_scenarios == n
    merged = np.vstack([train.data, val.data])
    assert sorted(map(tuple, merged)) == sorted(map(tuple, scenario_set.data))


# persistence ------------------------------------------------------------


@pytest.mark.parametrize("integer, real", [(int, float), (np.int64, np.float64)],
                         ids=["python", "numpy"])
@pytest.mark.parametrize("scaling, bounds, meta", [
    ("minmax", (2.0, 9.5), "period_length=24\ninterval_minutes=60\nscaling=minmax\n"
                           "min=2.0\nmax=9.5\n"),
    ("none", (None, None), "period_length=24\ninterval_minutes=60\nscaling=none\n"),
    ("capacity_factor", (None, None),
     "period_length=24\ninterval_minutes=60\nscaling=capacity_factor\n"),
    ("none", (-0.1, 1 / 3), "period_length=24\ninterval_minutes=60\nscaling=none\n"
                            "min=-0.1\nmax=0.3333333333333333\n"),
], ids=["minmax", "none", "capacity_factor", "none_with_bounds"])
def test_save_load_roundtrip(tmp_path, scaling, bounds, meta, integer, real):
    rng = np.random.default_rng(4)
    scale_min, scale_max = (None if b is None else real(b) for b in bounds)
    scenario_set = dataio.ScenarioSet(rng.uniform(size=(5, 24)), period_length=integer(24),
                                      interval_minutes=integer(60), scaling=scaling,
                                      scale_min=scale_min, scale_max=scale_max)
    path = tmp_path / "scen.csv"
    dataio.save_scenarios(scenario_set, path)
    assert (tmp_path / "scen.csv.meta").read_bytes() == meta.encode()
    back = dataio.load_scenarios(path)
    assert np.array_equal(back.data, scenario_set.data)
    assert back.period_length == 24
    assert back.scaling == scaling
    assert (back.scale_min, back.scale_max) == bounds
    # the reader's values are Python's, whatever the writer was given
    assert type(back.period_length) is type(back.interval_minutes) is int
    assert all(type(b) is float for b in (back.scale_min, back.scale_max) if b is not None)


def test_save_with_comment_header(tmp_path):
    scenario_set = make_set(np.zeros((2, 4)))
    path = tmp_path / "scen.csv"
    dataio.save_scenarios(scenario_set, path, header_comment="hello")
    assert path.read_text().startswith("# hello\n")
    assert dataio.load_scenarios(path).n_scenarios == 2


@pytest.mark.parametrize("comment, lines", [
    ("run 7\nseed 3", ["# run 7", "# seed 3"]),
    ("run 7\rseed 3", ["# run 7", "# seed 3"]),
    ("run 7\r\nseed 3\n", ["# run 7", "# seed 3"]),
    ("run 7\n\nseed 3", ["# run 7", "# ", "# seed 3"]),
])
def test_save_writes_each_comment_line_as_a_comment(tmp_path, comment, lines):
    scenario_set = make_set(np.arange(8.0).reshape(2, 4))
    path = tmp_path / "scen.csv"
    dataio.save_scenarios(scenario_set, path, header_comment=comment)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read().split("\n")[:len(lines)] == lines
    assert dataio.load_scenarios(path).data.tobytes() == scenario_set.data.tobytes()


def test_save_writes_the_repr_of_every_value_across_blocks(tmp_path):
    # zeros of both signs, subnormals and large values, in the first and the last block
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e16, -2.5, 0.1, 1 / 3]
    data = np.random.default_rng(8).normal(scale=1e3, size=(2 * dataio.BLOCK + 1, 3))
    data.flat[:len(special)] = special
    data.flat[-len(special):] = special
    path = tmp_path / "scen.csv"
    dataio.save_scenarios(make_set(data), path)
    expected = "".join(",".join(map(repr, row)) + "\n" for row in data.tolist())
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == expected
    assert dataio.load_scenarios(path).data.tobytes() == data.tobytes()


def test_save_memory_does_not_grow_with_the_set(tmp_path):
    scenario_set = make_set(np.random.default_rng(9).uniform(size=(4096, 96)))
    path = tmp_path / "scen.csv"
    tracemalloc.start()
    try:
        dataio.save_scenarios(scenario_set, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one Python float per value would be about 4x the array
    assert peak < scenario_set.data.nbytes, peak


def test_write_table_writes_the_header_then_reprs_row_by_row():
    fh = io.StringIO()
    dataio.write_table(fh, {"minute": np.array([0, 15]), "mean": [0.1 + 0.2, float("nan")],
                            "count": range(2)})
    assert fh.getvalue() == "minute,mean,count\n0,0.30000000000000004,0\n15,nan,1\n"


def test_write_table_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError):
        dataio.write_table(io.StringIO(), {"a": [1.0, 2.0], "b": [1.0]})


def write_scenario_files(tmp_path, rows, meta):
    path = tmp_path / "scen.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "scen.csv.meta").write_text("\n".join(meta) + "\n", encoding="utf-8")
    return path


GOOD_META = ["period_length=2", "interval_minutes=720", "scaling=none"]


@pytest.mark.parametrize("rows, match", [
    (["0.1,0.2", "0.3", "0.5,0.6"], r"scen\.csv: line 2: expected 2 fields, got 1"),
    (["0.1,0.2", "0.3,0.4", "0.5,abc"], r"scen\.csv: line 3: .*'abc'"),
    (["0.1,0.2", "0.3,,0.4"], r"scen\.csv: line 2: "),
])
def test_load_scenarios_bad_row_is_parse_error(tmp_path, rows, match):
    path = write_scenario_files(tmp_path, rows, GOOD_META)
    with pytest.raises(ParseError, match=match):
        dataio.load_scenarios(path)


@pytest.mark.parametrize("meta, error, match", [
    (["interval_minutes=720"], SchemaError, "missing key 'period_length'"),
    (["period_length=2"], SchemaError, "missing key 'interval_minutes'"),
    (GOOD_META[:2] + ["scaling=minmax", "min=0.0"], DataError,
     "minmax scaling needs finite scale_min < scale_max, got 0.0 and None"),
    (["period_length=two", "interval_minutes=720"], ParseError, "meta: line 1: .*period_length"),
    (GOOD_META + ["min=low", "max=1.0"], ParseError, "meta: line 4: malformed min 'low'"),
    (GOOD_META[:2] + ["scaling=log"], DataError, "meta: line 3: unknown scaling"),
    (["period_length=2", "interval_minutes=0"], DataError, "interval_minutes"),
    *[(GOOD_META[:2] + ["scaling=minmax", f"min={low}", f"max={high}"], DataError,
       r"scen\.csv\.meta: minmax scaling needs finite scale_min < scale_max")
      for low, high in [("nan", "inf"), ("3.0", "1.0"), ("0.5", "0.5"), ("-inf", "1.0")]],
])
def test_load_scenarios_bad_meta(tmp_path, meta, error, match):
    path = write_scenario_files(tmp_path, ["0.1,0.2", "0.3,0.4"], meta)
    with pytest.raises(error, match=match):
        dataio.load_scenarios(path)


def test_scenario_set_is_readonly():
    scenario_set = make_set(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        scenario_set.data[0, 0] = 1.0


def reference_read_rows(path):
    """The line loop that load_scenarios replaced with a bulk parse, kept as its oracle."""
    rows = []
    width = None
    with open(path, encoding="utf-8-sig") as fh:  # skips a leading byte-order mark
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = list(map(float, line.split(",")))
            except ValueError as exc:
                raise ParseError(f"line {line_no}: {exc}") from None
            if len(row) != width:
                if rows:
                    raise ParseError(f"line {line_no}: expected {width} fields, got {len(row)}")
                width = len(row)
            rows.append(row)
    return np.array(rows)


def rows_outcome(read, path):
    """Shape, dtype and bytes of what read returns, or its exception class and message."""
    try:
        rows = read(path)
    except (PcflowError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        return type(exc), str(exc)
    return rows.shape, rows.dtype, rows.tobytes()


def assert_reads_like_reference(tmp_path, text, width):
    """load_scenarios reads text as the line loop does, rows and the set built from them."""
    path = tmp_path / "scen.csv"
    # surrogateescape writes "\udcff" as the raw byte 0xff, which is not UTF-8
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    (tmp_path / "scen.csv.meta").write_text(
        f"period_length={width}\ninterval_minutes=1\nscaling=none\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = rows_outcome(dataio._read_rows, path)
    assert not caught  # numpy's "input contained no data" is not printed
    assert got == rows_outcome(reference_read_rows, path)

    def reference_load(path):
        try:
            return dataio.ScenarioSet(data=reference_read_rows(path), period_length=width,
                                      interval_minutes=1).data
        except (DataError, ParseError) as exc:
            raise type(exc)(f"{path}: {exc}") from None
        except UnicodeDecodeError:
            data = path.read_bytes()
            bad = data.index(b"\xff")  # the only byte of the drawn texts that is not UTF-8
            lines = re.split(rb"\r\n|\r|\n", data[:bad])
            # a fault in the lines before the bad one is reported first
            head = path.with_name("head.csv")
            head.write_bytes(data[:bad - len(lines[-1])])
            try:
                reference_read_rows(head)
            except ParseError as exc:
                raise ParseError(f"{path}: {exc}") from None
            raise ParseError(f"{path}: line {len(lines)}: not utf-8 (byte 0xff)") from None

    def load(path):
        return dataio.load_scenarios(path).data

    assert rows_outcome(load, path) == rows_outcome(reference_load, path)


# spellings float() and numpy's parser may read differently, or not at all
ODD_CELLS = ["", " ", "\t", "\u3000", "nan", "-nan", "NaN", "inf", "-Infinity", "1e400",
             "-1e400", " 7.5 ", "\xa07.5\x85", "+.5", "5.", "-0", "1_0", "1__0", "\u0661",
             "\u0661.5", "0x1p3", "0x10", "1\0", "\0", "1 \0", "1#2", "1 # x", "#", "1e", "1d0",
             "nan(1)", "--1", "abc", "1j", "\ufeff1", "\udcff"]
ROW_CELL = st.one_of(st.floats().map(repr), st.sampled_from(ODD_CELLS))
SPECIAL_LINES = st.sampled_from(["", " ", " \t ", "\u3000", "# generated", "  # indented",
                                 "#", "1.0 # note", "\0", "\x0c"])


@st.composite
def scenario_texts(draw):
    """A width and a scenario CSV text: mostly full rows, some odd cells and lines."""
    width = draw(st.integers(1, 4))
    good = st.lists(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    min_size=width, max_size=width)
    odd = st.lists(ROW_CELL, min_size=width, max_size=width)
    ragged = st.lists(ROW_CELL, min_size=1, max_size=width + 2)
    rows = st.one_of(good, good, good, odd, ragged).map(",".join)
    lines = draw(st.lists(st.one_of(rows, rows, rows, SPECIAL_LINES), max_size=8))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = draw(st.sampled_from(["", newline, newline + newline]))
    return width, newline.join(lines) + end


@settings(max_examples=300, deadline=None)
@given(file=scenario_texts())
def test_load_scenarios_matches_line_loop(tmp_path_factory, file):
    width, text = file
    assert_reads_like_reference(tmp_path_factory.mktemp("scen"), text, width)


@pytest.mark.parametrize("text, width", [
    ("# generated\n0.5,0.25\n  # indented\n0.75,1.0\n", 2),  # comment lines
    ("0.5,0.25 # note\n0.75,1.0\n", 2),  # a "#" inside a line
    ("0.5,0.25\n\n0.75,1.0\n\n", 2),  # blank lines
    ("0.5,0.25\n \t \n0.75,1.0\n", 2),  # a whitespace-only line
    ("0.5,0.25\r\n0.75,1.0\r\n", 2),  # CRLF
    ("0.5,0.25\r0.75,1.0\r", 2),  # CR
    ("0.5,0.25\n0.75,1.0\0\n", 2),  # NUL
    ("0.5,0.25\n0.75,1_0\n", 2),  # underscore
    ("0.5,0.25\n0.75,\u0661\n", 2),  # Arabic-Indic digit one
    ("0.5,0.25\n0.75,0x1p3\n", 2),  # hex float
    ("0.5,nan\n0.75,inf\n", 2),
    ("0.5,0.25\n0.75,1e400\n", 2),
    ("0.5,0.25,\n0.75,1.0,\n", 2),  # trailing comma
    ("0.5,0.25\n0.75\n", 2),  # ragged row
    ("0.5,0.25,0.125\n0.75,1.0\n", 2),
    ("0.5,0.25\n", 2),  # a single row
    ("0.5\n0.25\n0.75\n", 1),  # a single column
    ("", 2),  # an empty file
    ("# generated\n# nothing else\n", 2),  # comments only
    ("0.5,0.25\n0.75,\udcff\n", 2),  # not UTF-8
    ("0.5,x\n0.75,\udcff\n", 2),  # a malformed row before a byte that is not UTF-8
    ("\ufeff0.5,0.25\n0.75,1.0\n", 2),  # a leading byte-order mark
    ("0.5,0.25\n\ufeff0.75,1.0\n", 2),  # U+FEFF inside the file
    ("0.5,0.25\n# later\n0.75,1.0\n", 2),  # a comment after the first data row
    ("\ufeff# generated\n0.5,0.25\n0.75,1.0\n", 2),  # a byte-order mark, then a comment
    ("# a\r\n# b\r\n# c\r\n0.5,0.25\r\n0.75,1.0\r\n", 2),  # leading comments, CRLF
    ("# a\r# b\r# c\r0.5,0.25\r0.75,1.0\r", 2),  # leading comments, CR
    ("\n# generated\n0.5,0.25\n0.75,1.0\n", 2),  # a blank line before a leading comment
])
def test_load_scenarios_matches_line_loop_on_named_inputs(tmp_path, text, width):
    assert_reads_like_reference(tmp_path, text, width)


@pytest.mark.parametrize("text", [
    "# a\n#\n  # indented\n0.5,0.25\n0.75,1.0\n",
    "\ufeff# generated\n0.5,0.25\n0.75,1.0\n",
    "# a\r\n# b\r\n# c\r\n0.5,0.25\r\n0.75,1.0\r\n",
    "# a\r# b\r# c\r0.5,0.25\r0.75,1.0\r",
])
def test_load_scenarios_skips_leading_comments_in_bulk(tmp_path, monkeypatch, text):
    path = tmp_path / "scen.csv"
    path.write_text(text, encoding="utf-8", newline="")

    def line_loop(fh):
        raise AssertionError("leading comment lines fell back to the line loop")

    monkeypatch.setattr(dataio, "_read_rows_by_line", line_loop)
    assert dataio._read_rows(path).tolist() == [[0.5, 0.25], [0.75, 1.0]]


@pytest.mark.parametrize("comment", [None, "generated 2026-01-01T00:00:00+00:00",
                                     "generated 2026-01-01T00:00:00+00:00\nseed 7\n\nmode fsnf"])
def test_load_scenarios_reads_saved_files_in_bulk(tmp_path, monkeypatch, comment):
    data = np.random.default_rng(5).uniform(size=(40, 24))
    data[:, :6] = 0.0
    scenario_set = make_set(data, scaling="minmax", scale_min=0.0, scale_max=3.5)
    path = tmp_path / "scen.csv"
    dataio.save_scenarios(scenario_set, path, header_comment=comment)

    def line_loop(path):
        raise AssertionError("a saved file fell back to the line loop")

    monkeypatch.setattr(dataio, "_read_rows_by_line", line_loop)
    assert dataio.load_scenarios(path).data.tobytes() == data.tobytes()

