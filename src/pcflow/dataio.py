"""Ingestion of raw univariate time series into fixed-length scenario sets.

A scenario is one calendar day of values, viewed as a vector. Days with
missing values or an irregular sampling grid (e.g. DST switch days) are
dropped as a whole.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, replace
from datetime import datetime

import numpy as np

from .errors import (
    DataError,
    InsufficientDataError,
    ParseError,
    ScalingError,
    SchemaError,
    UsageError,
)

logger = logging.getLogger(__name__)

MISSING_MARKERS = {"", "nan", "null", "na", "none"}

SCALING_MODES = ("none", "capacity_factor", "minmax")

# entries of a scaled set may exceed [0, 1] by at most this much
SCALE_TOL = 1e-9


@dataclass(frozen=True)
class RawSeries:
    """Uniformly sampled series; missing values are stored as NaN."""

    timestamps: np.ndarray  # datetime64[s], strictly increasing
    values: np.ndarray  # float64, NaN marks missing
    capacity: np.ndarray | None = None  # installed capacity per timestamp

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[s]")
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        if ts.ndim != 1 or vals.shape != ts.shape:
            raise DataError("timestamps and values must be 1-D and equally long")
        if len(ts) >= 2 and not np.all(ts[1:] > ts[:-1]):
            raise DataError("timestamps not increasing")
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
        if n < 2:
            raise InsufficientDataError(f"need at least 2 scenarios, got {n}")
        if not np.all(np.isfinite(data)):
            raise DataError("scenario data contains missing or non-finite values")
        if self.scaling not in SCALING_MODES:
            raise UsageError(f"unknown scaling mode {self.scaling!r}")
        if not 1 <= self.interval_minutes <= 24 * 60:
            raise DataError(f"interval_minutes must lie in [1, 1440], got {self.interval_minutes}")
        if self.scaling in ("capacity_factor", "minmax"):
            if data.min() < -SCALE_TOL or data.max() > 1.0 + SCALE_TOL:
                raise DataError("scaled entries must lie in [0, 1]")

    @property
    def n_scenarios(self):
        return self.data.shape[0]


def _parse_timestamp(text, line_no):
    try:
        return np.datetime64(datetime.fromisoformat(text.strip()), "s")
    except ValueError:
        raise ParseError(f"line {line_no}: malformed timestamp {text!r}") from None


def _parse_value(text, line_no, what):
    text = text.strip()
    if text.lower() in MISSING_MARKERS:
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"line {line_no}: malformed {what} {text!r}") from None


def load_csv(path, time_col="time", value_col="value", capacity_col=None):
    """Read a UTF-8 CSV with a header row into a RawSeries.

    Empty cells and the usual NaN spellings become missing markers.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        columns = {}
        for name in (time_col, value_col) + ((capacity_col,) if capacity_col else ()):
            if name not in header:
                raise SchemaError(f"{path}: column {name!r} not found in header {header}")
            columns[name] = header.index(name)

        timestamps, values, capacities = [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < len(header):
                raise ParseError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
            timestamps.append(_parse_timestamp(row[columns[time_col]], line_no))
            values.append(_parse_value(row[columns[value_col]], line_no, "value"))
            if capacity_col:
                capacities.append(_parse_value(row[columns[capacity_col]], line_no, "capacity"))

    if not timestamps:
        raise DataError(f"{path}: no data rows")
    ts = np.array(timestamps, dtype="datetime64[s]")
    if len(ts) >= 2 and not np.all(ts[1:] > ts[:-1]):
        raise DataError("timestamps not increasing")
    return RawSeries(
        timestamps=ts,
        values=np.array(values),
        capacity=np.array(capacities) if capacity_col else None,
    )


def clean_and_slice(series: RawSeries, period_length: int) -> ScenarioSet:
    """Cut the series into calendar-day windows of ``period_length`` steps.

    A day survives only if it has exactly ``period_length`` samples sitting
    on the nominal midnight-aligned grid and none of them is missing.
    """
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
        logger.info("dropped %d of %d days (missing values or irregular grid)", dropped, len(unique_days))
    if len(rows) < 2:
        raise InsufficientDataError(
            f"only {len(rows)} complete days survive cleaning; need at least 2"
        )
    return ScenarioSet(
        data=np.array(rows),
        period_length=period_length,
        interval_minutes=interval,
        source_index=np.array(indices),
    )


def scale(scenario_set: ScenarioSet, mode: str, capacity=None) -> ScenarioSet:
    """Scale raw values to [0, 1] and record the provenance for inversion."""
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
        if np.any(~np.isfinite(cap)) or np.any(cap <= 0):
            raise ScalingError("capacity must be positive at every used timestamp")
        scaled = data / cap
        return replace(scenario_set, data=scaled, scaling="capacity_factor")

    lo, hi = float(data.min()), float(data.max())
    if hi <= lo:
        raise ScalingError("degenerate range: min equals max under minmax scaling")
    scaled = (data - lo) / (hi - lo)
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


def split(scenario_set: ScenarioSet, validation_fraction: float, seed: int):
    """Deterministic random split into (train, validation) by scenario.

    The validation size is the floor of fraction * N, so train + validation
    always partition the input rows exactly.
    """
    if not 0.0 < validation_fraction < 1.0:
        raise UsageError("validation_fraction must lie in (0, 1)")
    n = scenario_set.n_scenarios
    n_val = int(math.floor(validation_fraction * n))
    if n_val < 1:
        raise UsageError(f"validation_fraction {validation_fraction} selects no rows from N={n}")
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
    """Write one scenario per row plus a sidecar ``<path>.meta`` text file."""
    with open(path, "w", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        for row in scenario_set.data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    meta = {
        "period_length": scenario_set.period_length,
        "interval_minutes": scenario_set.interval_minutes,
        "scaling": scenario_set.scaling,
    }
    if scenario_set.scale_min is not None:
        meta["min"] = repr(scenario_set.scale_min)
        meta["max"] = repr(scenario_set.scale_max)
    with open(f"{path}.meta", "w", encoding="utf-8") as fh:
        for key, val in meta.items():
            fh.write(f"{key}={val}\n")


def load_scenarios(path) -> ScenarioSet:
    """Read a scenario CSV and its sidecar metadata file.

    Malformed lines raise ParseError with the line number, and a sidecar
    missing period_length or interval_minutes raises SchemaError.
    """
    rows = []
    width = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = list(map(float, line.split(",")))
            except ValueError as exc:
                raise ParseError(f"{path}: line {line_no}: {exc}") from None
            if len(row) != width:
                if rows:
                    raise ParseError(f"{path}: line {line_no}: expected {width} fields, "
                                     f"got {len(row)}")
                width = len(row)
            rows.append(row)
    meta_path = f"{path}.meta"
    convert = {"period_length": int, "interval_minutes": int, "min": float, "max": float}
    meta = {}
    with open(meta_path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            key, _, val = (part.strip() for part in line.partition("="))
            try:
                meta[key] = convert.get(key, str)(val)
            except ValueError:
                raise ParseError(f"{meta_path}: line {line_no}: malformed {key} {val!r}") from None
    for key in ("period_length", "interval_minutes"):
        if key not in meta:
            raise SchemaError(f"{meta_path}: missing key {key!r}")
    if meta.get("scaling") == "minmax" and not {"min", "max"} <= meta.keys():
        raise SchemaError(f"{meta_path}: minmax scaling needs both 'min' and 'max'")
    return ScenarioSet(
        data=np.array(rows),
        period_length=meta["period_length"],
        interval_minutes=meta["interval_minutes"],
        scaling=meta.get("scaling", "none"),
        scale_min=meta.get("min"),
        scale_max=meta.get("max"),
    )
