"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed writes the
same bytes. The program under test only ever sees the files written here.
"""

from __future__ import annotations

import hashlib

import numpy as np

STEPS_PER_DAY = 96  # 15-minute resolution
GAP_DAYS = 6  # days with a missing value or row, which prepare must drop
START = np.datetime64("2019-01-01T00:00:00", "s")


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def pv_raw_csv(path, n_days, seed):
    """Raw 15-minute PV output with a capacity column.

    Nights are exactly zero, the day length follows the season, the
    installed capacity grows in a few steps, and ``GAP_DAYS`` days carry an
    empty cell, a ``NaN`` cell or a missing row, so ``prepare`` drops them.
    Returns the shape record of the file.
    """
    rng = np.random.default_rng(seed)
    day = np.arange(n_days)[:, None]
    hour = np.arange(STEPS_PER_DAY)[None, :] * (24.0 / STEPS_PER_DAY)
    season = np.cos(2.0 * np.pi * (day - 172) / 365.0)
    day_length = 12.0 + 4.0 * season
    sunrise = 12.5 - day_length / 2.0
    phase = (hour - sunrise) / day_length
    up = (phase > 0.0) & (phase < 1.0)
    bell = np.where(up, np.sin(np.pi * np.clip(phase, 0.0, 1.0)), 0.0) ** 1.3
    peak = 0.62 + 0.2 * season
    clearness = rng.beta(2.5, 1.2, size=(n_days, 1))
    # slow intra-day cloud passages: a smoothed random walk per day
    walk = np.cumsum(rng.normal(0.0, 0.08, size=(n_days, STEPS_PER_DAY)), axis=1)
    walk -= walk.mean(axis=1, keepdims=True)
    cloud = np.clip(clearness * (1.0 + walk * (1.0 - clearness)), 0.02, 1.0)
    factor = np.clip(peak * bell * cloud, 0.0, 0.97)

    n_steps = n_days * STEPS_PER_DAY
    step_index = np.arange(n_steps)
    install_days = np.sort(rng.integers(0, n_days, size=4))
    capacity = 40.0 + 5.0 * np.searchsorted(install_days, step_index // STEPS_PER_DAY,
                                             side="right")
    value = np.round(capacity * factor.ravel(), 4)

    text_value = np.char.mod("%.4f", value).astype(object)
    text_capacity = np.char.mod("%.1f", capacity).astype(object)
    keep = np.ones(n_steps, dtype=bool)
    gap_days = rng.choice(n_days, size=GAP_DAYS, replace=False)
    for k, gap in enumerate(gap_days):
        row = gap * STEPS_PER_DAY + STEPS_PER_DAY // 2 + int(rng.integers(-8, 8))
        if k % 3 == 0:
            text_value[row] = ""
        elif k % 3 == 1:
            text_value[row] = "NaN"
        else:
            keep[row] = False
    stamps = np.datetime_as_string(START + step_index * np.timedelta64(15, "m"), unit="s")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,value,capacity\n")
        fh.writelines(f"{t},{v},{c}\n" for t, v, c, k in
                      zip(stamps, text_value, text_capacity, keep) if k)
    return {"rows": int(keep.sum()), "days": n_days, "gap_days": GAP_DAYS,
            "sha256": sha256(path)}


def curve_raw_csv(path, n, seed):
    """The 2-D ``curve1d`` toy as a raw series with two steps per day.

    ``prepare --period-length 2 --scaling none`` turns it back into the
    n x 2 toy set, so the toy runs through the same CLI stages as the PV
    data. Returns the shape record of the file.
    """
    from pcflow import toy

    points = toy.make_curve1d(n, seed)
    stamps = np.datetime_as_string(START + np.arange(2 * n) * np.timedelta64(12, "h"), unit="s")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,value\n")
        fh.writelines(f"{t},{v!r}\n" for t, v in zip(stamps, points.ravel().tolist()))
    return {"rows": 2 * n, "days": n, "sha256": sha256(path)}
