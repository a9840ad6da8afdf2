"""Tests for CSV ingestion, cleaning, scaling, splitting, and persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcflow import dataio
from pcflow.errors import (
    DataError,
    InsufficientDataError,
    ParseError,
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


def test_minmax_roundtrip():
    rng = np.random.default_rng(1)
    scenario_set = make_set(rng.uniform(-5, 17, (6, 24)))
    scaled = dataio.scale(scenario_set, "minmax")
    back = dataio.unscale(scaled)
    assert np.allclose(back.data, scenario_set.data, rtol=1e-9)
    assert back.scaling == "none"


def test_scaled_set_invariant_enforced():
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        make_set([[0.0, 1.5], [0.2, 0.3]], scaling="minmax")


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


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    scenario_set = make_set(rng.uniform(size=(5, 24)), scaling="minmax",
                            scale_min=2.0, scale_max=9.5)
    path = tmp_path / "scen.csv"
    dataio.save_scenarios(scenario_set, path)
    back = dataio.load_scenarios(path)
    assert np.array_equal(back.data, scenario_set.data)
    assert back.period_length == 24
    assert back.scaling == "minmax"
    assert (back.scale_min, back.scale_max) == (2.0, 9.5)


def test_save_with_comment_header(tmp_path):
    scenario_set = make_set(np.zeros((2, 4)))
    path = tmp_path / "scen.csv"
    dataio.save_scenarios(scenario_set, path, header_comment="hello")
    assert path.read_text().startswith("# hello\n")
    assert dataio.load_scenarios(path).n_scenarios == 2


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
    (GOOD_META[:2] + ["scaling=minmax", "min=0.0"], SchemaError, "both 'min' and 'max'"),
    (["period_length=two", "interval_minutes=720"], ParseError, "meta: line 1: .*period_length"),
    (GOOD_META + ["min=low", "max=1.0"], ParseError, "meta: line 4: malformed min 'low'"),
    (GOOD_META[:2] + ["scaling=log"], UsageError, "scaling"),
    (["period_length=2", "interval_minutes=0"], DataError, "interval_minutes"),
])
def test_load_scenarios_bad_meta(tmp_path, meta, error, match):
    path = write_scenario_files(tmp_path, ["0.1,0.2", "0.3,0.4"], meta)
    with pytest.raises(error, match=match):
        dataio.load_scenarios(path)


def test_scenario_set_is_readonly():
    scenario_set = make_set(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        scenario_set.data[0, 0] = 1.0
