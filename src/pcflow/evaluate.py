"""Statistical comparison of generated and historical scenario sets.

Covers a Gaussian kernel density estimate of the pooled values, a
two-sample Kolmogorov-Smirnov test, a Welch power spectral density, the
cumulative-explained-variance table, and per-time-step marginal moments.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import pca as pca_mod
from .dataio import SIDECAR, ScenarioSet, open_output, use_second_cpu, write_table
from .errors import DataError, NumericError, UsageError

KDE_GRID_POINTS = 512
# kde_pdf sums over blocks of this many grid points at a time
KDE_BLOCK = 8
# kde_pdf leaves out kernel terms whose sum is below this fraction of the
# terms it keeps at the same grid point
KDE_REL_TOL = 2.0 ** -52
# no KDE window reaches further than this many bandwidths: beyond
# exp(-0.5 * 38.6**2) every term underflows to exactly 0.0 in float64
KDE_CUTOFF = 40.0
CEV_THRESHOLDS = (0.99, 0.999, 0.9999, 1.0)
# the Kolmogorov series stop after this many terms, or at a term below KS_TOL
KS_MAX_TERMS = 100
KS_TOL = 1e-12
# evaluate_sets tabulates the marginals over clock minutes 0 to 240, both included
MARGINAL_WINDOW = (0, 240)


# kernel density estimation ---------------------------------------------------

def _kde_samples(samples):
    """The samples as a flat float array of at least 2 finite values, or a DataError."""
    samples = np.asarray(samples, dtype=float).ravel()
    if len(samples) < 2:
        raise DataError("KDE needs at least 2 samples")
    if not np.all(np.isfinite(samples)):
        raise DataError("KDE samples must be finite")
    return samples


def silverman_bandwidth(samples):
    """h = 0.9 * min(std, IQR/1.34) * n^(-1/5).

    When the middle half of the sorted values is one value, as when more
    than 75% of PV values are night-time zeros, the IQR is 0 and the std
    alone sets the spread, as in R's ``bw.nrd0``; only a constant sample
    (whose std may round to a tiny positive value) is degenerate.
    """
    samples = _kde_samples(samples)
    n = len(samples)
    # data near the float64 limit overflows here; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        std = samples.std()
        q75, q25 = np.percentile(samples, [75, 25])
        iqr = q75 - q25
    if not (math.isfinite(std) and math.isfinite(iqr)):
        raise NumericError("the spread of the values overflows float64: rescale the data")
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    if spread <= 0 or samples.min() == samples.max():
        raise DataError("degenerate sample (zero spread): give a bandwidth explicitly")
    return 0.9 * spread * n ** (-0.2)


def _bandwidth(bandwidth, samples):
    """The given bandwidth, checked, or Silverman's for the samples."""
    if bandwidth is None:
        return silverman_bandwidth(samples)
    if not (bandwidth > 0 and math.isfinite(bandwidth)):  # also rejects NaN
        raise UsageError(f"bandwidth must be finite and positive, got {bandwidth!r}")
    return bandwidth


def kde_pdf(samples, grid, bandwidth=None):
    """Gaussian-kernel density estimate of the samples at the grid points.

    Within 2^-52 relative of the full sum at every grid point, apart from
    the rounding of the summation, and exactly 0.0 where the full sum
    underflows to 0.0. Repeated sample values are
    summed once with their counts. In bandwidth units, let delta be the
    distance from a grid point to its nearest sample and n the sample
    count; the point sees only the sorted values within
    r = min(sqrt(delta^2 + 2 ln(n / KDE_REL_TOL)), KDE_CUTOFF) of it.
    Below the cap, each of the at most n terms left out is under
    exp(-r^2 / 2) = (KDE_REL_TOL / n) exp(-delta^2 / 2), and the nearest
    term exp(-delta^2 / 2) is kept, so the mass left out is below
    KDE_REL_TOL times the mass kept. At the cap every term left out
    underflows to exactly 0.0, so a point is 0.0 exactly when its nearest
    term is. Inside the data r is about 10 bandwidths. Each block of
    KDE_BLOCK grid points sums over the union of its points' windows, in
    scratch allocated once for the widest block, so memory stays bounded by
    KDE_BLOCK times the number of distinct values, however long the grid.
    """
    samples = _kde_samples(samples)
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise DataError("KDE grid points must be finite")
    bandwidth = _bandwidth(bandwidth, samples)
    values, counts = np.unique(samples, return_counts=True)
    counts = counts.astype(float)
    # with a tiny bandwidth, distances in bandwidth units overflow to inf,
    # which the cap absorbs, and the kernel of such a term is exactly 0.0
    with np.errstate(over="ignore"):
        right = np.minimum(np.searchsorted(values, grid), len(values) - 1)
        left = np.maximum(right - 1, 0)
        delta = np.minimum(np.abs(grid - values[left]), np.abs(grid - values[right])) / bandwidth
        radius = np.minimum(np.sqrt(delta * delta + 2.0 * math.log(len(samples) / KDE_REL_TOL)),
                            KDE_CUTOFF)
        reach = radius * bandwidth
        lo = np.searchsorted(values, grid - reach, side="left")
        hi = np.searchsorted(values, grid + reach, side="right")
        starts = range(0, len(grid), KDE_BLOCK)
        lo = np.minimum.reduceat(lo, starts)
        hi = np.maximum.reduceat(hi, starts)
        scratch = np.empty(KDE_BLOCK * (hi - lo).max(initial=0))  # reused by every block
        density = np.empty(len(grid))
        for start, first, stop in zip(starts, lo, hi):
            block = slice(start, start + KDE_BLOCK)
            shape = (len(grid[block]), stop - first)
            z = scratch[:shape[0] * shape[1]].reshape(shape)
            np.subtract(grid[block, None], values[first:stop], out=z)
            np.divide(z, bandwidth, out=z)
            # (z * z) * -0.5 in place equals (-0.5 * z) * z, since halving is
            # exact, except where z * z underflows or overflows; there the
            # exponentials of both are 1.0 or 0.0 alike
            np.multiply(z, z, out=z)
            np.multiply(z, -0.5, out=z)
            np.exp(z, out=z)
            density[block] = z @ counts[first:stop]
    with np.errstate(over="ignore"):  # the check below names the bandwidth
        density /= len(samples) * bandwidth * math.sqrt(2.0 * math.pi)
    if not np.all(np.isfinite(density)):
        raise NumericError(f"bandwidth {bandwidth!r} is too small: the density overflows float64")
    return density


def kde_grid(samples, bandwidth=None):
    """KDE_GRID_POINTS evenly spaced points spanning [min - 3h, max + 3h]."""
    samples = _kde_samples(samples)
    lo, hi = float(samples.min()), float(samples.max())
    if not math.isfinite(hi - lo):  # Python floats overflow to inf without a warning
        raise NumericError(f"the values span [{lo!r}, {hi!r}], whose width overflows float64: "
                           "rescale the data")
    bandwidth = _bandwidth(bandwidth, samples)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the bandwidth
        grid = np.linspace(lo - 3 * bandwidth, hi + 3 * bandwidth, KDE_GRID_POINTS)
    if not np.all(np.isfinite(grid)):
        raise NumericError(f"bandwidth {bandwidth!r} is too large: "
                           "the KDE grid overflows float64")
    return grid


# Kolmogorov-Smirnov -----------------------------------------------------------

def _tie_run_ends(pooled):
    """Mask of the sorted pooled values that end a run of equal values."""
    return np.append(pooled[1:] != pooled[:-1], True)


def ks_statistic(a, b):
    """Supremum gap between the two empirical CDFs.

    One stable merge of the two sorted samples gives, at the end of each run
    of equal pooled values, the exact count of each sample at or below it.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if len(a) == 0 or len(b) == 0:
        raise DataError("KS test needs non-empty samples")
    pooled = np.concatenate([a, b])
    if not np.all(np.isfinite(pooled)):
        raise DataError("KS samples must be finite")
    pooled[:len(a)].sort()
    pooled[len(a):].sort()
    order = pooled.argsort(kind="stable")  # timsort: one merge of the two sorted runs
    ends = _tie_run_ends(pooled[order])
    count_a = np.cumsum(order < len(a))[ends]
    count_b = np.flatnonzero(ends) + 1 - count_a
    return float(np.max(np.abs(count_a / len(a) - count_b / len(b))))


def kolmogorov_survival(lam):
    """Kolmogorov survival function Q(lambda), clipped to [0, 1].

    For lambda >= 1 the alternating series
    Q = 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lambda^2) converges in a few
    terms. Below 1 it converges ever more slowly and its truncation is
    wrong near 0, so there the dual theta series
    Q = 1 - sqrt(2 pi) / lambda sum_{k>=1} exp(-(2k-1)^2 pi^2 / (8 lambda^2))
    is used (Marsaglia, Tsang & Wang 2003, J. Stat. Softw. 8(18)).
    """
    if lam <= 0:
        return 1.0
    if lam < 1.0:
        scale = math.sqrt(2.0 * math.pi) / lam
        total = 1.0
        for k in range(1, KS_MAX_TERMS + 1):
            term = scale * math.exp(-(2 * k - 1) ** 2 * math.pi ** 2 / (8.0 * lam * lam))
            total -= term
            if term < KS_TOL:
                break
    else:
        total = 0.0
        for k in range(1, KS_MAX_TERMS + 1):
            term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
            total += term
            if abs(term) < KS_TOL:
                break
    return min(max(total, 0.0), 1.0)


def ks_exact_p_value(a, b, statistic):
    """Exact permutation p-value by lattice-path counting, ties included.

    Counts the monotone paths through the merged sample order whose ECDF gap
    stays below the observed statistic at every point where the gap is
    observed: the end of each run of equal pooled values (Schröer &
    Trenkler 1995, Comput. Stat. Data Anal. 20(2)). Every path is equally
    likely under the permutation null. Untied samples are checked at every
    step.
    """
    n_a, n_b = len(a), len(b)
    # checked[k]: the gap after the first k merged values is observed
    checked = np.append(False, _tie_run_ends(np.sort(np.concatenate([a, b]))))
    ways = np.zeros((n_a + 1, n_b + 1))
    ways[0, 0] = 1.0
    for i in range(n_a + 1):
        for j in range(n_b + 1):
            if i == 0 and j == 0:
                continue
            if checked[i + j] and abs(i / n_a - j / n_b) >= statistic - 1e-12:
                continue
            ways[i, j] = (ways[i - 1, j] if i else 0.0) + (ways[i, j - 1] if j else 0.0)
    return float(1.0 - ways[n_a, n_b] / math.comb(n_a + n_b, n_a))


KS_EXACT_MAX_N = 100


def ks_two_sample(a, b):
    """Two-sample KS statistic and p-value.

    Samples of total size <= KS_EXACT_MAX_N, tied or not, get the exact
    permutation p-value; otherwise the Kolmogorov limiting distribution is
    evaluated at the effective sample size n_a n_b / (n_a + n_b).
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    stat = ks_statistic(a, b)
    if len(a) + len(b) <= KS_EXACT_MAX_N:
        return stat, ks_exact_p_value(a, b, stat)
    n_eff = len(a) * len(b) / (len(a) + len(b))
    return stat, kolmogorov_survival(math.sqrt(n_eff) * stat)


# Welch power spectral density -------------------------------------------------

def _window(name, length):
    if name == "hann":
        n = np.arange(length)
        return 0.5 - 0.5 * np.cos(2.0 * math.pi * n / length)
    if name in ("rect", "rectangular", "boxcar"):
        return np.ones(length)
    raise UsageError(f"unknown window {name!r}")


def periodogram(signal, sample_rate, window=None):
    """One-sided periodogram normalized by window energy and sample rate.

    Works along the last axis, so a stack of segments is transformed in one
    batched call.
    """
    signal = np.asarray(signal, dtype=float)
    n = signal.shape[-1]
    if window is None:
        window = np.ones(n)
    spectrum = np.fft.rfft(signal * window, axis=-1)
    with np.errstate(over="ignore"):  # welch_psd reports an overflow
        power = np.abs(spectrum) ** 2 / (sample_rate * np.sum(window ** 2))
        power[..., 1:] *= 2.0
    if n % 2 == 0:
        power[..., -1] /= 2.0  # Nyquist bin is not duplicated
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    return freqs, power


def _segment_length(d, segment_length):
    """The Welch segment length for rows of d steps; half a row by default."""
    if segment_length is None:
        if d < 2:
            raise DataError(f"a Welch PSD needs rows of at least 2 steps, got {d}")
        segment_length = max(d // 2, 2)
    if not 2 <= segment_length <= d:
        raise UsageError(f"segment_length must lie in [2, {d}], got {segment_length}")
    return segment_length


def welch_psd(scenario_set: ScenarioSet, segment_length=None, overlap_fraction=0.5,
              window="hann"):
    """Mean Welch PSD over all scenarios, frequencies in cycles per hour.

    ``window`` names the taper: "hann", or "rect" (also "rectangular",
    "boxcar").
    """
    data = scenario_set.data
    segment_length = _segment_length(data.shape[1], segment_length)
    if not 0.0 <= overlap_fraction <= 0.9:
        raise UsageError("overlap_fraction must lie in [0, 0.9]")
    step = max(int(round(segment_length * (1.0 - overlap_fraction))), 1)
    win = _window(window, segment_length)
    sample_rate = 60.0 / scenario_set.interval_minutes  # samples per hour

    # (rows, segments, segment_length) view of every segment of every row
    segments = np.lib.stride_tricks.sliding_window_view(data, segment_length, axis=1)[:, ::step]
    freqs, power = periodogram(segments, sample_rate, win)
    with np.errstate(over="ignore"):
        power = power.mean(axis=(0, 1))
    if not np.all(np.isfinite(power)):
        raise NumericError("power spectrum overflows float64: rescale the data")
    return freqs, power


# component counts and marginals -----------------------------------------------

def cev_report(pca_map):
    """Component count needed for each threshold in CEV_THRESHOLDS."""
    return {t: pca_mod.truncate(pca_map, cev_threshold=t).n_components for t in CEV_THRESHOLDS}


def marginal_stats(scenario_set: ScenarioSet, start_minute=0, end_minute=None):
    """Column-wise mean and unbiased variance over a clock-time window.

    The window is inclusive on both ends; ``end_minute`` defaults to the end
    of the day.
    """
    interval = scenario_set.interval_minutes
    d = scenario_set.period_length
    if end_minute is None:
        end_minute = (d - 1) * interval
    if not 0 <= start_minute <= end_minute < 24 * 60:
        raise UsageError("clock window must lie within the day")
    minutes = np.arange(d) * interval
    cols = np.nonzero((minutes >= start_minute) & (minutes <= end_minute))[0]
    if len(cols) == 0:
        raise UsageError("clock window selects no time steps")
    block = scenario_set.data[:, cols]
    with np.errstate(over="ignore"):  # welch_psd or PCA reports an overflow
        return minutes[cols], block.mean(axis=0), block.var(axis=0, ddof=1)


# report -----------------------------------------------------------------------

@dataclass
class EvalReport:
    tables: dict  # header-row CSV file name -> {column header: values}, in column order
    ks_statistic: float
    ks_p_value: float
    options: dict


def _alongside(main, side, threaded):
    """``(main(), side())``, with ``side`` on a second thread if ``threaded``.

    The thread runs in a copy of the caller's context, so it sees the caller's
    ``np.errstate``, and is joined before this returns or raises. An error of
    ``main`` wins over one of ``side``, as when ``main`` runs first.
    """
    if not threaded:
        return main(), side()
    outcome = []

    def run_side():
        try:
            outcome.append(side())
        except BaseException as exc:  # raised again in the caller
            outcome.append(exc)

    thread = threading.Thread(target=contextvars.copy_context().run, args=(run_side,),
                              name="pcflow-eval")
    thread.start()
    try:
        first = main()
    finally:
        thread.join()
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return first, outcome[0]


def evaluate_sets(historical: ScenarioSet, generated: ScenarioSet,
                  bandwidth=None, segment_length=None, overlap_fraction=0.5,
                  window="hann") -> EvalReport:
    """Run the full comparison suite on two scenario sets.

    When ``dataio.use_second_cpu`` says so for the two pools' size, the KS
    test and then the generated pool's KDE run on a second thread while this
    one runs the rest, ending with the historical pool's KDE. The report is
    the same either way, and so is the error: KS cannot fail on two scenario
    sets' pools, and the generated pool's KDE comes last in the serial order,
    so this thread's error is raised first, else the second thread's.
    """
    for _, name, _ in SIDECAR:  # both sets in the same units
        a, b = getattr(historical, name), getattr(generated, name)
        if a != b:
            raise UsageError(f"sets must have equal {name}, got {a!r} and {b!r}")
    hist_pool = historical.data.ravel()
    gen_pool = generated.data.ravel()

    h = _bandwidth(bandwidth, hist_pool)
    grid = kde_grid(np.concatenate([hist_pool, gen_pool]), h)

    def the_rest():
        segment = _segment_length(historical.period_length, segment_length)
        freqs, psd_hist = welch_psd(historical, segment, overlap_fraction, window)
        _, psd_gen = welch_psd(generated, segment, overlap_fraction, window)
        minutes, m_hist, v_hist = marginal_stats(historical, *MARGINAL_WINDOW)
        _, m_gen, v_gen = marginal_stats(generated, *MARGINAL_WINDOW)
        cev = cev_report(pca_mod.fit(historical))
        return segment, kde_pdf(hist_pool, grid, h), {
            "psd.csv": {"frequency_per_hour": freqs, "power_historical": psd_hist,
                        "power_generated": psd_gen},
            "cev.csv": {"threshold": list(cev), "components": list(cev.values())},
            "marginals.csv": {"minute": minutes, "mean_historical": m_hist,
                              "var_historical": v_hist, "mean_generated": m_gen,
                              "var_generated": v_gen},
        }

    threaded = use_second_cpu(hist_pool.size + gen_pool.size)
    (segment_length, density_hist, tables), ((stat, p_value), density_gen) = _alongside(
        the_rest, lambda: (ks_two_sample(hist_pool, gen_pool), kde_pdf(gen_pool, grid, h)),
        threaded)

    return EvalReport(
        tables={
            "kde.csv": {"value": grid, "density_historical": density_hist,
                        "density_generated": density_gen},
            **tables,
        },
        ks_statistic=stat,
        ks_p_value=p_value,
        options={
            "kde_bandwidth": h,
            "welch_window": window,
            "welch_overlap": overlap_fraction,
            "welch_segment_length": segment_length,
            "welch_detrend": "none",
            "ks_pooling": "all time steps of all scenarios flattened",
        },
    )


def write_report(report: EvalReport, out_dir, header_comment=None):
    """Emit the report's tables as CSV files, the KS test, and a human-readable summary."""
    os.makedirs(out_dir, exist_ok=True)

    def _open(name):
        return open_output(os.path.join(out_dir, name), header_comment)

    for name, columns in report.tables.items():
        with _open(name) as fh:
            write_table(fh, columns)
    with _open("ks.txt") as fh:
        fh.write(f"statistic={report.ks_statistic!r}\n")
        fh.write(f"p_value={report.ks_p_value!r}\n")
    with _open("summary.txt") as fh:
        fh.write("scenario evaluation summary\n")
        fh.write("===========================\n")
        for key, val in report.options.items():
            fh.write(f"{key}: {val}\n")
        fh.write(f"KS statistic: {report.ks_statistic:.6g}\n")
        fh.write(f"KS p-value: {report.ks_p_value:.6g}\n")
        cev_rows = zip(*report.tables["cev.csv"].values())  # a CEV level and its count
        fh.write("CEV components (historical): "
                 + ", ".join(f"{t:g} -> {m}" for t, m in cev_rows) + "\n")
