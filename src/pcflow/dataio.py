"""Ingestion of raw univariate time series into fixed-length scenario sets.

A scenario is one calendar day of values, viewed as a vector. Days with
missing values or an irregular sampling grid (e.g. DST switch days) are
dropped as a whole.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import numbers
import os
import struct
import sys
import threading
import warnings
from contextlib import ExitStack, contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from datetime import datetime, timedelta, timezone
from functools import partial
from itertools import chain, compress, islice, repeat
from operator import attrgetter, itemgetter, sub

import numpy as np

from .errors import (
    DataError,
    InsufficientDataError,
    ParseError,
    PcflowError,
    ScalingError,
    SchemaError,
    UsageError,
)

logger = logging.getLogger(__name__)

MISSING_MARKERS = {"", "nan", "null", "na", "none"}

SCALING_MODES = ("none", "capacity_factor", "minmax")
# the fields that say what a set's values mean; a model keeps its training set's
PROVENANCE = ("interval_minutes", "scaling", "scale_min", "scale_max")
# a scenario CSV's .meta sidecar: each key, in the order written, with the
# ScenarioSet field it holds and the type its text converts to and from
SIDECAR = (("period_length", "period_length", int),
           ("interval_minutes", "interval_minutes", int),
           ("scaling", "scaling", str),
           ("min", "scale_min", float),
           ("max", "scale_max", float))

# a scenario CSV's binary twin, <file>.f64: this magic, the shape as two
# little-endian u64, a SHA-256 of the CSV's bytes followed by every other byte
# of the twin, then the rows as little-endian float64
TWIN_MAGIC = b"pcflowf8"
_TWIN_SHAPE = struct.Struct("<QQ")
_TWIN_HEAD = len(TWIN_MAGIC) + _TWIN_SHAPE.size + 32

# a capacity factor may exceed [0, 1] by at most this much
SCALE_TOL = 1e-9

# load_csv parses the raw CSV, and save_scenarios formats a set, this many
# rows at a time. A block's row lists are freed before CPython's cyclic GC
# counts 700 new container objects, so reading a 105k-row file runs 1
# collection instead of 142 at 8192 rows
BLOCK = 512
# evaluate_sets runs part of its work on a second thread, and save_scenarios
# and load_csv hand the second half of theirs to a forked child, once the work
# covers this many values; below it a second thread or process costs more than
# it saves
SECOND_CPU_MIN_VALUES = 1 << 15
# load_csv's child writes, and the parent reads, these columns one after
# another: line numbers, seconds since 1970, values and, if read, capacity
_CHILD_COLUMNS = ("<i8", "<i8", "<f8", "<f8")
# load_csv counts the seconds of each timestamp from here, as datetime64 does
_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)


@dataclass(frozen=True)
class RawSeries:
    """Uniformly sampled series; missing values are stored as NaN."""

    timestamps: np.ndarray  # datetime64[s], strictly increasing
    values: np.ndarray  # float64, NaN marks missing
    capacity: np.ndarray | None = None  # installed capacity per timestamp
    # the file line of each timestamp, kept so an error can name it
    line_nos: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[s]")
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        if ts.ndim != 1 or vals.shape != ts.shape:
            raise DataError("timestamps and values must be 1-D and equally long")
        if len(ts) >= 2 and not (increasing := ts[1:] > ts[:-1]).all():
            i = int(np.argmin(increasing)) + 1
            where = "" if self.line_nos is None else f"line {self.line_nos[i]}: "
            raise DataError(f"{where}timestamps not increasing: {ts[i]} after {ts[i - 1]}")
        if self.capacity is not None:
            cap = np.asarray(self.capacity, dtype=float)
            object.__setattr__(self, "capacity", cap)
            if cap.shape != ts.shape:
                raise DataError("capacity must have the same length as timestamps")

    def __len__(self):
        return len(self.timestamps)


@dataclass(frozen=True)
class ScenarioSet:
    """N scenarios of D steps each, plus scaling provenance.

    Immutable after construction; the data array is marked read-only so the
    set can be shared across threads.
    """

    data: np.ndarray  # (N, D)
    period_length: int
    interval_minutes: int
    scaling: str = "none"
    scale_min: float | None = None
    scale_max: float | None = None
    # indices into the source RawSeries, kept so capacity-factor scaling can
    # look up the per-timestamp capacity; not persisted
    source_index: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=float)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        if data.ndim != 2:
            raise DataError("scenario data must be a 2-D matrix")
        n, d = data.shape
        if d != self.period_length:
            raise DataError(f"rows have {d} entries, expected {self.period_length}")
        if d == 0:  # written as blank lines, which no reader takes for rows
            raise DataError("scenario rows must have at least one entry")
        if n < 2:
            raise InsufficientDataError(f"need at least 2 scenarios, got {n}")
        if not np.all(np.isfinite(data)):
            raise DataError("scenario data contains missing or non-finite values")
        # the rules load_scenarios applies, so save_scenarios writes a readable file
        if isinstance(self.period_length, bool) or not isinstance(self.period_length,
                                                                  numbers.Integral):
            raise DataError(f"period_length must be an integer, got {self.period_length!r}")
        if fault := provenance_fault(self.interval_minutes, self.scaling,
                                     self.scale_min, self.scale_max):
            raise DataError(fault[1])

    @property
    def n_scenarios(self):
        return self.data.shape[0]


def provenance_fault(interval_minutes, scaling, scale_min, scale_max):
    """The first rule these provenance fields break, as (key, message), or None; ``key`` names
    the field at fault, or is None for the scale bounds. ScenarioSet, FlowModel, the .meta
    reader and load_model share this one statement, so no writer makes a file its reader rejects."""
    if isinstance(interval_minutes, bool) or not isinstance(interval_minutes, numbers.Integral):
        return "interval_minutes", f"interval_minutes must be an integer, got {interval_minutes!r}"
    if not 1 <= interval_minutes <= 24 * 60:
        return "interval_minutes", f"interval_minutes must lie in [1, 1440], got {interval_minutes}"
    if scaling not in SCALING_MODES:
        return "scaling", f"unknown scaling mode {scaling!r}"
    bounds = (scale_min, scale_max)
    got = f"got {scale_min!r} and {scale_max!r}"
    if scaling == "minmax" and not (all(isinstance(b, numbers.Real) for b in bounds)
                                    and -math.inf < scale_min < scale_max < math.inf):
        return None, f"minmax scaling needs finite scale_min < scale_max, {got}"
    if (scale_min is None) != (scale_max is None):
        return None, f"scale_min and scale_max must be given together, {got}"
    # NaN is no bound: a .pcf file holds an absent bound as NaN
    if not all(b is None or isinstance(b, numbers.Real) and b == b for b in bounds):
        return None, f"scale_min and scale_max must be numbers other than NaN, {got}"
    return None


def _cpu_count():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def use_second_cpu(n_values):
    """Whether work over ``n_values`` values runs partly on a second CPU: it
    covers at least SECOND_CPU_MIN_VALUES values and the process may run on
    more than one CPU."""
    return n_values >= SECOND_CPU_MIN_VALUES and _cpu_count() > 1


def _may_fork(n_values):
    """Whether work over ``n_values`` values may give its second half to a
    forked child: use_second_cpu says so, on Linux, with no other thread."""
    # os.sendfile appends one file to another only on Linux; fork is unsafe with threads
    return use_second_cpu(n_values) and sys.platform == "linux" and threading.active_count() == 1


@contextmanager
def _second_half_in_child(work):
    """Run ``work(fd)`` in a forked child, fd an unnamed temporary file, while
    the caller does the first half of the work.

    Yields ``result``: ``result()`` reaps the child and returns fd if the
    child exited with 0. Otherwise, and when ``work`` is None or the
    temporary file or the fork fails, it returns None, and the caller does
    the second half itself. An exception raised inside, KeyboardInterrupt
    included, kills the child and reaps it before it propagates.
    """
    if work is None:
        yield lambda: None
        return
    import signal  # only a forked child needs these, so importing pcflow does not
    import tempfile

    pid = None
    with ExitStack() as files:
        try:
            fd = files.enter_context(tempfile.TemporaryFile()).fileno()
            pid = os.fork()
        except OSError:  # no file or no child: the caller does the second half
            pass
        if pid == 0:  # the child leaves only here, never through its caller's frames
            code = 1
            try:
                work(fd)
                code = 0
            finally:
                os._exit(code)
        reaped = pid is None

        def result():
            nonlocal reaped
            if reaped:
                return None
            status = os.waitpid(pid, 0)[1]
            reaped = True
            return None if os.waitstatus_to_exitcode(status) else fd

        try:
            yield result
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def as_rows(data):
    """The data matrix of a ScenarioSet, or an array-like as a float array."""
    return data.data if isinstance(data, ScenarioSet) else np.asarray(data, dtype=float)


def open_output(path, header_comment=None):
    """Open a UTF-8 text file for writing; each line of a header comment becomes a ``# `` line."""
    fh = open(path, "w", encoding="utf-8")
    if header_comment:
        fh.writelines(f"# {line}\n" for line in header_comment.splitlines())
    return fh


def write_rows(fh, rows):
    """Write each row as one line of the comma-joined reprs of its entries."""
    for row in rows:
        fh.write(",".join(map(repr, row)) + "\n")


def write_table(fh, columns):
    """Write the header names of ``columns`` (header -> equal-length values), then one line per row."""
    fh.write(",".join(columns) + "\n")
    # tolist() keeps an integer column ints and gives each float its shortest round-trip repr
    write_rows(fh, zip(*(np.asarray(column).tolist() for column in columns.values()), strict=True))


@contextmanager
def reading(path, parse=None):
    """Prefix each input fault raised inside with ``"{path}: "``; bytes not UTF-8 name their line.

    Text I/O decodes in chunks, so a bad byte can stop a reader before it
    parses the lines ahead of it. ``parse``, the reader's row check over a
    text stream, then reads the lines before the bad one, and a fault it
    finds there is raised in place of the bad byte.
    """
    try:
        yield
    except PcflowError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except UnicodeDecodeError:
        with open(path, "rb") as fh:  # find the line in the bytes
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # \r, \n and \r\n end a line; the last one holds the bad byte
            lines = (data[:exc.start] + b"x").splitlines(keepends=True)
            if parse is not None and len(lines) > 1:
                with reading(path):
                    parse(io.StringIO(b"".join(lines[:-1]).decode("utf-8-sig"), newline=""))
            raise ParseError(f"{path}: line {len(lines)}: not utf-8 "
                             f"(byte {data[exc.start]:#04x})") from None
        raise  # the bytes decode now; keep the original error


def _naive_utc(stamp):
    """An aware stamp converted to naive UTC; a naive one as it is."""
    if stamp.tzinfo is None:
        return stamp
    return stamp.astimezone(timezone.utc).replace(tzinfo=None)


def _parse_timestamp(text, line_no):
    """Whole seconds since 1970, floored; an aware stamp is converted to UTC."""
    try:
        stamp = _naive_utc(datetime.fromisoformat(text.strip()))
    except (ValueError, OverflowError):
        raise ParseError(f"line {line_no}: malformed timestamp {text!r}") from None
    return (stamp - _EPOCH) // _SECOND


def _parse_timestamps(cells):
    """_parse_timestamp of every cell, by C-level maps.

    A timedelta keeps 0 <= seconds < 86400 and microseconds >= 0, so
    days * 86400 + seconds is the floored count.
    """
    stamps = list(map(datetime.fromisoformat, map(str.strip, cells)))
    if list(map(attrgetter("tzinfo"), stamps)).count(None) < len(stamps):  # some are aware
        stamps = list(map(_naive_utc, stamps))
    deltas = list(map(sub, stamps, repeat(_EPOCH)))
    days = np.fromiter(map(attrgetter("days"), deltas), np.int64, len(deltas))
    seconds = np.fromiter(map(attrgetter("seconds"), deltas), np.int64, len(deltas))
    return days * 86400 + seconds


def _to_float(text):
    """float() of a cell; a missing marker becomes NaN."""
    return math.nan if text.strip().lower() in MISSING_MARKERS else float(text)


def _parse_value(text, line_no, what):
    try:
        return _to_float(text)
    except ValueError:
        raise ParseError(f"line {line_no}: malformed {what} {text.strip()!r}") from None


def _parse_values(cells):
    """_to_float of every cell; float() alone reads all but missing markers."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return np.fromiter(map(_to_float, cells), float, len(cells))


def _parse_columns(rows, width, picks):
    """One array per picked column of the rows, each column parsed at once."""
    if min(map(len, rows)) < width:
        raise IndexError("short row")
    cells = [list(map(itemgetter(i), rows)) for i in picks]
    return [_parse_timestamps(cells[0]), *map(_parse_values, cells[1:])]


def _parse_block(rows, line_nos, width, picks):
    """Parse non-blank rows into one array per picked column.

    Each column is parsed at once. On a fault the rows are checked again one
    by one, width first and then each picked cell, so the fault raised is
    the first in file order and names its line.
    """
    try:
        return _parse_columns(rows, width, picks)
    except (IndexError, ValueError, OverflowError):
        for line_no, row in zip(line_nos.tolist(), rows):
            if len(row) < width:
                raise ParseError(f"line {line_no}: expected {width} fields, "
                                 f"got {len(row)}") from None
            _parse_timestamp(row[picks[0]], line_no)
            for i, what in zip(picks[1:], ("value", "capacity")):
                _parse_value(row[i], line_no, what)
        raise


def _read_blocks(reader, width, picks, cut):
    """First line numbers and parsed columns of the non-blank rows, ``BLOCK`` at a time.

    When a block's rows took as many lines as there are rows, each filled
    one. Otherwise a row spans one line more than the line ends its cells
    hold. A blank row fails the parse of its whole block, as its time cell
    is empty or missing, so only such a block is parsed again without its
    blank rows. A row the strict reader rejects is reported after the rows
    before it are parsed, so the first fault in the file is the one raised,
    naming the line its row starts on.
    """
    end = reader.line_num  # the last line of the last row read
    fault = None
    while not fault:
        rows = []
        try:
            rows.extend(islice(reader, BLOCK))  # keeps the rows read before a fault
        except csv.Error as exc:
            fault = exc
        if not rows:
            break
        spans = np.ones(len(rows), np.int64)
        if reader.line_num - end != len(rows):  # a cell spans lines, or a row was rejected
            # a comma keeps a \r ending one cell and a \n starting the next apart
            spans += [_line_ends(cells, len(cells)) for cells in map(",".join, rows)]
        lines = end + 1 + np.cumsum(spans) - spans
        end += int(spans.sum())
        try:
            columns = _parse_columns(rows, width, picks)
        except (IndexError, ValueError, OverflowError):  # a blank row, or a fault
            nonblank = np.fromiter(map(bool, map(str.strip, map("".join, rows))), bool, len(rows))
            rows, lines = list(compress(rows, nonblank)), lines[nonblank]
            if not rows:
                continue
            columns = _parse_block(rows, lines, width, picks)
        yield [lines, *columns]
    if fault and (error := _strict_fault(fault, end + 1, cut)):
        raise error


def _strict_fault(exc, line, cut):
    """The ParseError for a row the strict csv reader rejects, starting on line; None
    for a quoted cell still open where a ``cut`` stream ends, as it holds the bad byte."""
    # csv's message for a quoted cell still open at the end of the stream
    if not (cut and str(exc) == "unexpected end of data"):
        return ParseError(f"line {line}: {exc}")
    return None


def _read_series(fh, time_col, value_col, capacity_col, cut=False, path=None):
    """The RawSeries of a raw CSV's text stream, or None if it holds no data rows.

    ``cut`` says the stream ends where a byte that is not UTF-8 begins.
    ``path``, the stream's file, lets a forked child parse the lines after
    ``_middle_line`` while this process parses those before it. If the child
    does not exit with 0, this process reads the rest of the stream itself,
    so the result and every error are those of the serial path.
    """
    middle = None if path is None else _middle_line(path)
    from_child = []  # the second half's columns, when the child parsed them

    def second_half():  # what the reader reads after the first half's lines
        if (fd := child()) is None:
            yield from fh
        elif columns := _read_columns(fd, len(picks) + 1):
            from_child.append(columns)

    reader = csv.reader(chain(islice(fh, middle[1]), second_half()) if middle else fh,
                        strict=True)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        if error := _strict_fault(exc, 1, cut):
            raise error from None
        return None
    if header is None:
        raise SchemaError("empty file")
    header = [h.strip() for h in header]
    picks = []
    for name in (time_col, value_col) + ((capacity_col,) if capacity_col else ()):
        if name not in header:
            raise SchemaError(f"column {name!r} not found in header {header}")
        picks.append(header.index(name))
    work = partial(_parse_into, path, *middle, len(header), picks) if middle else None
    with _second_half_in_child(work) as child:
        blocks = list(_read_blocks(reader, len(header), picks, cut))
    blocks += from_child
    if not blocks:
        return None
    line_nos, stamps, values, *capacity = map(np.concatenate, zip(*blocks))
    return RawSeries(timestamps=stamps.view("datetime64[s]"), values=values,
                     capacity=capacity[0] if capacity else None, line_nos=line_nos)


def _line_ends(data, end):
    """The line ends in ``data[:end]``, bytes or str, as a text stream counts them:
    \\r, \\n and \\r\\n each end one line. No \\r\\n may straddle ``end``."""
    lf, cr = ("\n", "\r") if isinstance(data, str) else (b"\n", b"\r")
    if data.find(cr, 0, end) < 0:
        return data.count(lf, 0, end)
    return data.count(lf, 0, end) + data.count(cr, 0, end) - data.count(cr + lf, 0, end)


def _middle_line(path):
    """``(start, lines)``: the byte just past the last \\n before the middle of
    the raw CSV at path, and the lines a text stream reads before it.

    None when the file is too small for ``_may_fork``, counting one value per
    16 bytes, when no \\n ends a line before the middle, and when the file
    holds a quote: a quoted cell may hold a line end, so a row may span it.
    """
    size = os.stat(path).st_size
    if not _may_fork(size // 16):
        return None
    start = lines = 0
    found = None
    with open(path, "rb") as raw:
        # each chunk ends a line, so no \r\n pair straddles two chunks
        while chunk := raw.read(1 << 20) + raw.readline():
            if b'"' in chunk:
                return None
            if found is None and start + len(chunk) > size // 2:
                end = chunk.rfind(b"\n", 0, size // 2 - start) + 1
                found = start + end, lines + _line_ends(chunk, end)
            elif found is None:
                lines += _line_ends(chunk, len(chunk))
            start += len(chunk)
    return found if found and found[1] else None


def _parse_into(path, start, lines, width, picks, fd):
    """Parse the raw CSV at path from byte ``start``, which follows ``lines``
    lines, and write the ``_CHILD_COLUMNS`` of its non-blank rows to fd."""
    with open(path, newline="", encoding="utf-8") as fh:
        fh.buffer.seek(start)  # nothing is decoded yet
        blocks = list(_read_blocks(csv.reader(fh, strict=True), width, picks, False))
    columns = [np.concatenate(column) for column in zip(*blocks)]
    if columns:
        columns[0] += lines
    with open(fd, "wb", closefd=False) as out:
        for column, kind in zip(columns, _CHILD_COLUMNS):
            out.write(column.astype(kind, copy=False))


def _read_columns(fd, n_columns):
    """The columns ``_parse_into`` wrote to fd, or [] if it found no rows."""
    with open(fd, "rb", closefd=False) as fh:
        fh.seek(0)
        data = fh.read()
    n = len(data) // (8 * n_columns)
    if not n:
        return []
    return [np.frombuffer(data, kind, n, 8 * n * i)
            for i, kind in enumerate(_CHILD_COLUMNS[:n_columns])]


def load_csv(path, time_col="time", value_col="value", capacity_col=None):
    """Read a UTF-8 CSV with a header row into a RawSeries; a byte-order mark is skipped.

    Empty cells and the usual NaN spellings become missing markers. Rows
    are parsed ``BLOCK`` at a time, so memory stays bounded. Every
    error names the file. A large file without quotes is parsed on two
    CPUs, a forked child taking the lines after its middle; the series and
    every error are those of the one-process parse.
    """
    parse = partial(_read_series, time_col=time_col, value_col=value_col,
                    capacity_col=capacity_col)
    with reading(path, partial(parse, cut=True)), \
            open(path, newline="", encoding="utf-8-sig") as fh:
        series = parse(fh, path=path)
        if series is None:
            raise DataError("no data rows")
        return series


def check_period_length(period_length):
    """Raise UsageError unless period_length cuts a day into at least 2 equal steps."""
    if period_length < 2:
        raise UsageError("period_length must be >= 2")
    if (24 * 60) % period_length != 0:
        raise UsageError(f"period_length {period_length} does not divide a whole day")


def clean_and_slice(series: RawSeries, period_length: int) -> ScenarioSet:
    """Cut the series into calendar-day windows of ``period_length`` steps.

    A day survives only if it has exactly ``period_length`` samples sitting
    on the nominal midnight-aligned grid and none of them is missing.
    """
    check_period_length(period_length)
    interval = (24 * 60) // period_length

    ts = series.timestamps
    days = ts.astype("datetime64[D]")
    offsets = (ts - days) / np.timedelta64(1, "m")
    expected = np.arange(period_length) * float(interval)

    # timestamps increase strictly, so each day's rows are contiguous, and a
    # day starts wherever the day changes
    new_day = np.ones(len(days), bool)
    new_day[1:] = days[1:] != days[:-1]
    starts = np.flatnonzero(new_day)
    counts = np.diff(starts, append=len(days))
    index = starts[counts == period_length, None] + np.arange(period_length)
    ok = np.all(offsets[index] == expected, axis=1) & np.all(
        np.isfinite(series.values[index]), axis=1)
    index = index[ok]
    dropped = len(starts) - len(index)
    if dropped:
        logger.info("dropped %d of %d days (missing values or irregular grid)", dropped, len(starts))
    if len(index) < 2:
        raise InsufficientDataError(
            f"only {len(index)} complete days survive cleaning; need at least 2"
        )
    return ScenarioSet(
        data=series.values[index],
        period_length=period_length,
        interval_minutes=interval,
        source_index=index,
    )


def scale(scenario_set: ScenarioSet, mode: str, capacity=None) -> ScenarioSet:
    """Scale raw values to [0, 1] and record the provenance; only here must they lie in it."""
    if mode not in SCALING_MODES:
        raise UsageError(f"unknown scaling mode {mode!r}")
    if scenario_set.scaling != "none":
        raise UsageError(f"set is already scaled ({scenario_set.scaling})")
    if mode == "none":
        return scenario_set

    data = scenario_set.data
    if mode == "capacity_factor":
        if capacity is None:
            raise UsageError("capacity_factor scaling requires a capacity series")
        if scenario_set.source_index is None:
            raise UsageError("scenario set carries no source indices for capacity lookup")
        capacity = np.asarray(capacity, dtype=float)
        cap = capacity[scenario_set.source_index]
        bad = ~(np.isfinite(cap) & (cap > 0))
        if bad.any():
            row, step = np.argwhere(bad)[0]
            raise ScalingError(f"scenario {row}, step {step}: capacity "
                               f"{float(cap[row, step])!r} is not finite and positive")
        with np.errstate(over="ignore"):  # the check below names the capacity
            scaled = data / cap
        overflow = ~np.isfinite(scaled)
        if overflow.any():
            raise ScalingError(f"capacity {float(cap[overflow][0])!r} is too small: "
                               "the capacity factor overflows float64")
        outside = (scaled < -SCALE_TOL) | (scaled > 1.0 + SCALE_TOL)
        if outside.any():
            row, step = np.argwhere(outside)[0]
            raise ScalingError(f"scenario {row}, step {step}: capacity factor "
                               f"{float(scaled[row, step])!r} lies outside [0, 1]")
        return replace(scenario_set, data=scaled, scaling="capacity_factor")

    # lies in [0, 1] by construction: rounding keeps data - lo <= hi - lo
    lo, hi = float(data.min()), float(data.max())
    if hi <= lo:
        raise ScalingError("degenerate range: min equals max under minmax scaling")
    width = hi - lo  # Python floats overflow to inf without a warning
    if not math.isfinite(width):
        raise ScalingError(f"range [{lo!r}, {hi!r}] is too wide: "
                           "its width overflows float64 under minmax scaling")
    scaled = (data - lo) / width
    return replace(scenario_set, data=scaled, scaling="minmax", scale_min=lo, scale_max=hi)


def unscale(scenario_set: ScenarioSet, capacity=None) -> ScenarioSet:
    """Invert the recorded scaling, returning values in original units."""
    if scenario_set.scaling == "none":
        return scenario_set
    if scenario_set.scaling == "minmax":
        lo, hi = scenario_set.scale_min, scenario_set.scale_max
        raw = scenario_set.data * (hi - lo) + lo
        return replace(scenario_set, data=raw, scaling="none", scale_min=None, scale_max=None)
    # capacity_factor
    if capacity is None:
        raise UsageError("inverting capacity_factor scaling requires the capacity series")
    if scenario_set.source_index is None:
        raise UsageError("scenario set carries no source indices for capacity lookup")
    cap = np.asarray(capacity, dtype=float)[scenario_set.source_index]
    return replace(scenario_set, data=scenario_set.data * cap, scaling="none")


def check_validation_fraction(validation_fraction):
    """Raise UsageError unless the fraction lies in (0, 1)."""
    if not 0.0 < validation_fraction < 1.0:
        raise UsageError("validation_fraction must lie in (0, 1)")


def split(scenario_set: ScenarioSet, validation_fraction: float, seed: int):
    """Deterministic random split into (train, validation) by scenario.

    The validation size is the floor of fraction * N, so train + validation
    always partition the input rows exactly.
    """
    check_validation_fraction(validation_fraction)
    n = scenario_set.n_scenarios
    n_val = int(math.floor(validation_fraction * n))
    if n_val < 2:
        raise UsageError(f"validation_fraction {validation_fraction} selects {n_val} rows "
                         f"from N={n}; validation needs at least 2")
    if n - n_val < 2:
        raise InsufficientDataError("split would leave fewer than 2 training scenarios")

    perm = np.random.default_rng(seed).permutation(n)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])

    def _take(idx):
        src = scenario_set.source_index
        return replace(
            scenario_set,
            data=scenario_set.data[idx],
            source_index=src[idx] if src is not None else None,
        )

    return _take(train_idx), _take(val_idx)


def save_scenarios(scenario_set: ScenarioSet, path, header_comment=None):
    """Write one scenario per row, each ``SIDECAR`` field that is not None to
    ``<path>.meta``, and then the rows' binary twin to ``<path>.f64``.

    The rows are formatted ``BLOCK`` at a time, so the Python floats alive at
    once do not grow with the set. When ``use_second_cpu`` says so for the
    set's size, on Linux and with no other thread running, a forked child
    formats the second half of the rows while this process writes the first,
    and its text is appended at the file descriptor level. If the child
    cannot start or does not exit with 0, this process writes that half
    itself, so the bytes, results and errors are those of the serial path.
    The twin is streamed from the set's own array, without a copy.
    """
    data = scenario_set.data
    half = len(data) // 2
    work = partial(_write_rows_into, data[half:]) if _may_fork(data.size) else None
    with open_output(path, header_comment) as fh, _second_half_in_child(work) as child:
        _write_blocks(fh, data[:half])
        if (fd := child()) is None:
            _write_blocks(fh, data[half:])
        else:  # append the child's text at the file descriptor level
            fh.flush()
            offset = 0
            while sent := os.sendfile(fh.fileno(), fd, offset, 1 << 30):
                offset += sent
    with open(f"{path}.meta", "w", encoding="utf-8") as fh:
        for key, name, kind in SIDECAR:
            if (value := getattr(scenario_set, name)) is not None:
                fh.write(f"{key}={kind(value)}\n")  # a NumPy scalar as its Python value
    rows = data.astype("<f8", copy=False)
    head = TWIN_MAGIC + _TWIN_SHAPE.pack(*rows.shape)
    digest = _csv_digest(path)
    digest.update(head)
    digest.update(rows)
    with open(f"{path}.f64", "wb") as fh:
        fh.write(head + digest.digest())
        fh.write(rows)


def _write_blocks(fh, data):
    """write_rows of the data's rows, ``BLOCK`` at a time."""
    for start in range(0, len(data), BLOCK):
        write_rows(fh, data[start:start + BLOCK].tolist())


def _write_rows_into(data, fd):
    """_write_blocks of data's rows into the file open at fd, as UTF-8 text."""
    with open(fd, "w", encoding="utf-8", closefd=False) as out:
        _write_blocks(out, data)


def _csv_digest(path):
    """A SHA-256 object fed the bytes of the file at path."""
    import hashlib  # only a twin needs it, so importing pcflow does not

    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256")


def _read_twin(path):
    """The rows held in ``<path>.f64``, or None unless the twin is whole and current.

    Whole: the file is exactly as long as its header declares, checked
    before the payload is read, so memory stays bounded by the file's size.
    Current: its digest matches the CSV at path. Any fault, a missing CSV
    included, gives None, and the caller reads the CSV as text.
    """
    try:
        with open(f"{path}.f64", "rb") as fh:
            head = fh.read(_TWIN_HEAD)
            if len(head) != _TWIN_HEAD or not head.startswith(TWIN_MAGIC):
                return None
            shape = _TWIN_SHAPE.unpack_from(head, len(TWIN_MAGIC))
            size = 8 * shape[0] * shape[1]
            # an empty twin is ignored: the text path rejects a file without data rows
            if not size or _TWIN_HEAD + size != os.fstat(fh.fileno()).st_size:
                return None
            rows = np.empty(shape, "<f8")
            if fh.readinto(rows) != size:
                return None
        digest = _csv_digest(path)
    except OSError:
        return None
    digest.update(head[:-32])
    digest.update(rows)
    return rows if digest.digest() == head[-32:] else None


def _read_rows_by_line(fh):
    """Parse a scenario CSV's text stream line by line; every fault names its line."""
    rows = []
    width = None
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


def _read_rows(path):
    """The data rows of a scenario CSV, as _read_rows_by_line reads them.

    numpy's C parser reads the file after its leading comment lines. It
    rejects every spelling float() reads differently (``1_0``, non-ASCII
    digits, NUL, a ``#`` past the leading comment lines, a blank line
    holding whitespace) and every ragged row. Whatever it rejects, and a
    file it finds empty, is read again line by line, so each fault keeps
    its class, message and line.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            header = 0
            for line in fh:
                if not line.strip().startswith("#"):
                    break
                header += 1
            fh.seek(0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # "input contained no data"
                rows = np.loadtxt(fh, delimiter=",", comments=None, skiprows=header, ndmin=2)
            if rows.size:
                return rows
        except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
            pass
        fh.seek(0)
        return _read_rows_by_line(fh)


def _read_meta(fh):
    """A .meta text stream's values by key, each SIDECAR key's converted, and each key's line."""
    convert = {key: kind for key, _, kind in SIDECAR}
    meta = {}
    key_lines = {}
    for line_no, line in enumerate(fh, start=1):
        key, _, val = (part.strip() for part in line.partition("="))
        key_lines[key] = line_no
        try:
            meta[key] = convert.get(key, str)(val)
        except ValueError:
            raise ParseError(f"line {line_no}: malformed {key} {val!r}") from None
    return meta, key_lines


def load_scenarios(path) -> ScenarioSet:
    """Read a scenario CSV and its sidecar metadata file.

    The rows come from the binary twin ``<path>.f64`` that save_scenarios
    wrote, when the twin's size is the one its header declares and its
    digest matches the CSV's bytes; the CSV then holds exactly these rows.
    Otherwise, the twin missing, short, long, foreign or stale, they are
    parsed from the CSV, so every result and error is the text's.

    Keys outside ``SIDECAR`` are ignored; an absent key leaves its field at
    the ScenarioSet default. Malformed lines raise ParseError with the line
    number, a file without data rows DataError, a missing key without a
    default SchemaError, and provenance that ``provenance_fault`` rejects
    DataError. Every error names the file it blames.
    """
    data = _read_twin(path)
    if data is None:
        with reading(path, _read_rows_by_line):
            data = _read_rows(path)
            if not len(data):
                raise DataError("no data rows")
    meta_path = f"{path}.meta"
    with reading(meta_path, _read_meta), open(meta_path, encoding="utf-8-sig") as fh:
        meta, key_lines = _read_meta(fh)
        defaults = {f.name: f.default for f in fields(ScenarioSet)}
        values, lines = {}, {}  # by field
        for key, name, _ in SIDECAR:
            if key not in meta and defaults[name] is MISSING:
                raise SchemaError(f"missing key {key!r}")
            values[name], lines[name] = meta.get(key, defaults[name]), key_lines.get(key)
        if fault := provenance_fault(**{name: values[name] for name in PROVENANCE}):
            name, message = fault
            raise DataError(f"line {lines[name]}: {message}" if name else message)
    with reading(path):  # the constructor's checks; eval reads two files
        return ScenarioSet(data=data, **values)
