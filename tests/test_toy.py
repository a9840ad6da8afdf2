"""Tests for the synthetic toy datasets and the distance-to-curve oracle."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from pcflow import pca, toy
from pcflow.errors import UsageError


def test_curve_points_are_deterministic():
    t = np.linspace(0, 1, 11)
    assert np.array_equal(toy.curve_point(t), toy.curve_point(t))


def test_curve_endpoints():
    ends = toy.curve_point(np.array([0.0, 1.0]))
    assert np.allclose(ends[0], [0.0, 0.0], atol=1e-12)
    assert np.allclose(ends[1], [toy.CURVE_SCALE, toy.CURVE_SCALE], atol=1e-9)


def test_curve_stays_near_diagonal():
    # the ripple deviates from the diagonal by at most its absolute amplitude
    pts = toy.curve_point(np.linspace(0, 1, 2000))
    deviation = np.abs(pts[:, 1] - pts[:, 0])
    assert deviation.max() <= toy.CURVE_SCALE * toy.CURVE_RIPPLE + 1e-9


def test_curve_is_near_rank_one():
    # cev of one component stays above the 0.99 truncation default
    data = toy.make_curve1d(4000, seed=0)
    dec = pca.fit(data)
    assert dec.variances[0] / dec.variances.sum() > 0.99
    assert pca.truncate(dec, cev_threshold=0.99).n_components == 1


def test_make_curve1d_deterministic_and_on_curve():
    a = toy.make_curve1d(500, seed=1)
    b = toy.make_curve1d(500, seed=1)
    assert np.array_equal(a, b)
    assert toy.distance_to_curve(a).max() <= 2e-3  # discretization resolution


def test_make_kite2d_inside_hull():
    pts = toy.make_kite2d(2000, seed=2)
    # inside the kite iff |x|/1.2 + y/1.8 <= 1 above and |x|/1.2 - y/2.2 <= 1 below
    x, y = pts[:, 0], pts[:, 1]
    upper = np.abs(x) / 1.2 + np.maximum(y, 0) / 1.8
    lower = np.abs(x) / 1.2 + np.maximum(-y, 0) / 2.2
    assert np.maximum(upper, lower).max() <= 1.0 + 1e-9


def test_make_kite2d_covers_all_quadrants():
    pts = toy.make_kite2d(2000, seed=3)
    for sx in (-1, 1):
        for sy in (-1, 1):
            assert np.any((np.sign(pts[:, 0]) == sx) & (np.sign(pts[:, 1]) == sy))


@pytest.mark.parametrize("n, seed, digest", [
    (1, 0, "ff0b44447e224b7e85368621446f446bf6661b00ebd2ab07c1ace32446a14d72"),
    (7, 3, "9e105d13a5e4006090f931eb2d45f375591fd7fd3d3bcddc136e999b70654199"),
    (1000, 42, "e84d31c41b5cc3b7a6c77897e8985a0efa9bd4a58bd559156dd4a48175216908"),
])
def test_make_kite2d_bytes_are_pinned(n, seed, digest):
    # make_kite2d's random draws and arithmetic are fixed to the bit
    points = np.ascontiguousarray(toy.make_kite2d(n, seed), dtype="<f8")
    assert hashlib.sha256(points.tobytes()).hexdigest() == digest


def test_make_toy_set_metadata():
    scenario_set = toy.make_toy_set("curve1d", 100, seed=4)
    assert scenario_set.period_length == 2
    assert scenario_set.interval_minutes == 720
    with pytest.raises(UsageError):
        toy.make_toy_set("circle", 100, seed=4)


def test_distance_to_curve_zero_on_curve():
    pts = toy.curve_point(np.linspace(0.05, 0.95, 50))
    assert toy.distance_to_curve(pts).max() <= 2e-3


def test_distance_to_curve_offset_point():
    base = toy.curve_point(np.array([0.5]))
    shifted = base + np.array([[0.0, 0.2]])
    d = toy.distance_to_curve(shifted)[0]
    assert 0.05 < d <= 0.2 + 1e-9


def dense_distance_to_curve(points):
    """The whole points x curve-points difference array at once."""
    curve = toy.curve_point(np.linspace(0.0, 1.0, toy.CURVE_DISCRETIZATION))
    diffs = points[:, None, :] - curve[None, :, :]
    with np.errstate(over="ignore"):
        return np.sqrt((diffs ** 2).sum(axis=-1)).min(axis=1)


def test_distance_to_curve_equals_dense_formula():
    rng = np.random.default_rng(7)
    points = toy.make_curve1d(2 * toy.DISTANCE_BLOCK + 5, seed=7)
    points += rng.normal(0.0, 0.1, points.shape)
    points[:3] = [[1e200, 0.0], [-3.0, 1e160], [0.0, 0.0]]  # two at distance inf
    got = toy.distance_to_curve(points)
    assert np.isinf(got[:2]).all()
    assert got.tobytes() == dense_distance_to_curve(points).tobytes()
    assert toy.distance_to_curve(np.empty((0, 2))).shape == (0,)


def test_distance_to_curve_memory_stays_bounded():
    points = toy.make_curve1d(2000, seed=8)
    tracemalloc.start()
    try:
        toy.distance_to_curve(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense (2000, 4000, 2) difference array alone is 128 MB
    assert peak < 20e6, peak


def test_fraction_on_curve():
    on = toy.curve_point(np.linspace(0.1, 0.9, 10))
    off = on + np.array([[0.0, 1.0]])
    assert toy.fraction_on_curve(on) == 1.0
    assert toy.fraction_on_curve(off) == 0.0
    assert toy.fraction_on_curve(np.vstack([on, off])) == 0.5


def test_make_pv_like_night_columns_exactly_zero():
    scenario_set = toy.make_pv_like(200, seed=5)
    data = scenario_set.data
    assert data.shape == (200, 24)
    assert np.all(data[:, :6] == 0.0)
    assert np.all(data[:, -6:] == 0.0)
    assert np.all((data >= 0.0) & (data <= 1.0))
    assert data[:, 6:18].max() > 0.5  # daytime actually carries signal


def test_make_pv_like_low_rank():
    scenario_set = toy.make_pv_like(500, seed=6)
    dec = pca.fit(scenario_set)
    # three generating factors dominate the spectrum
    assert dec.variances[:3].sum() / dec.variances.sum() > 0.99
