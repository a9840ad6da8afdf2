"""Synthetic 2-D datasets demonstrating manifold effects on flows.

``curve1d`` is a one-dimensional distribution embedded in the plane: a
uniform parameter mapped through a fixed arc along the plane's diagonal
with a small high-frequency ripple. The arc stays within a few hundredths
of its own principal line (so a PCA-reduced model can represent it), the
ripple is too fine for the default conditioner networks to resolve (so a
full-space flow smears visibly around the arc), and the parameterization
speeds up near the ends, thinning the density there. ``kite2d`` fills a
two-dimensional kite-shaped region uniformly.
"""

from __future__ import annotations

import numpy as np

from .dataio import ScenarioSet
from .errors import UsageError

# Arc shape: overall size, ripple around the diagonal (amplitude is
# relative to the unit diagonal; CURVE_SCALE * CURVE_RIPPLE is the
# absolute deviation), and strength of the end-of-range speed-up.
CURVE_SCALE = 3.0
CURVE_RIPPLE = 0.0133
CURVE_RIPPLE_CYCLES = 12.0
CURVE_TAPER = 0.95

# distance_to_curve measures against this many evenly spaced curve points
CURVE_DISCRETIZATION = 4000
# fraction_on_curve counts the points within this distance of the curve
ON_CURVE_TOLERANCE = 0.05

KITE_VERTICES = np.array([
    [0.0, 1.8],
    [1.2, 0.0],
    [0.0, -2.2],
    [-1.2, 0.0],
])


def curve_point(t):
    """Map curve parameters in [0, 1] to points on the fixed planar arc."""
    t = np.asarray(t, dtype=float)
    x1 = t + CURVE_TAPER * np.sin(2.0 * np.pi * t) / (2.0 * np.pi)
    x2 = x1 + CURVE_RIPPLE * np.sin(2.0 * np.pi * CURVE_RIPPLE_CYCLES * x1)
    return CURVE_SCALE * np.stack([x1, x2], axis=-1)


def make_curve1d(n, seed):
    """n samples of the uniform-parameter distribution on the arc."""
    rng = np.random.default_rng(seed)
    return curve_point(rng.uniform(0.0, 1.0, size=n))


def make_kite2d(n, seed):
    """n uniform samples from the filled kite."""
    rng = np.random.default_rng(seed)
    center = np.zeros(2)
    triangles = [
        (center, KITE_VERTICES[i], KITE_VERTICES[(i + 1) % 4]) for i in range(4)
    ]
    areas = np.array([
        0.5 * abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
        for a, b, c in triangles
    ])
    choice = rng.choice(4, size=n, p=areas / areas.sum())
    u = rng.uniform(size=(n, 2))
    # fold the unit square onto the unit triangle
    flip = u.sum(axis=1) > 1.0
    u[flip] = 1.0 - u[flip]
    points = np.empty((n, 2))
    for i in range(4):
        mask = choice == i
        a, b, c = triangles[i]
        points[mask] = a + u[mask, :1] * (b - a) + u[mask, 1:] * (c - a)
    return points


def make_pv_like(n, seed, period_length=24, night_hours=6):
    """n daily solar-generation-like scenarios with exactly zero nights.

    Daytime columns mix a bell-shaped base profile with a skew mode and a
    cloudiness mode (rank-3 data); columns within ``night_hours`` of
    midnight on either side are exactly 0.0, as in measured PV output.
    Values are hourly-style capacity factors in [0, 1].
    """
    rng = np.random.default_rng(seed)
    hours = np.arange(period_length)
    day = (hours >= night_hours) & (hours < period_length - night_hours)
    phase = (hours[day] - night_hours + 0.5) / (period_length - 2 * night_hours)
    bell = np.sin(np.pi * phase)
    skew = bell * np.cos(np.pi * phase)
    cloud = bell * np.cos(3.0 * np.pi * phase)

    amplitude = rng.uniform(0.3, 1.0, size=(n, 1))
    skew_coef = rng.normal(0.0, 0.12, size=(n, 1))
    cloud_coef = rng.normal(0.0, 0.08, size=(n, 1))
    profiles = amplitude * bell + skew_coef * skew + cloud_coef * cloud
    data = np.zeros((n, period_length))
    data[:, day] = np.clip(profiles, 0.0, 1.0)
    return ScenarioSet(data=data, period_length=period_length,
                       interval_minutes=(24 * 60) // period_length,
                       scaling="none")


def make_toy_set(shape, n, seed) -> ScenarioSet:
    if n < 2:  # a ScenarioSet holds at least two scenarios
        raise UsageError(f"n must be >= 2 to draw a scenario set, got {n}")
    if shape == "curve1d":
        data = make_curve1d(n, seed)
    elif shape == "kite2d":
        data = make_kite2d(n, seed)
    else:
        raise UsageError(f"unknown toy shape {shape!r}")
    # 2-dimensional "scenarios": two half-day steps
    return ScenarioSet(data=data, period_length=2, interval_minutes=720)


def distance_to_curve(points):
    """Distance from each point to a dense discretization of the arc.

    A point further than about 1e154 from the arc is at distance inf.
    """
    curve = curve_point(np.linspace(0.0, 1.0, CURVE_DISCRETIZATION))
    points = np.asarray(points, dtype=float)
    diffs = points[:, None, :] - curve[None, :, :]
    with np.errstate(over="ignore"):
        return np.sqrt((diffs ** 2).sum(axis=-1)).min(axis=1)


def fraction_on_curve(points):
    """Fraction of points within ON_CURVE_TOLERANCE of the arc."""
    return float(np.mean(distance_to_curve(points) <= ON_CURVE_TOLERANCE))
