"""Tests for KDE, KS test, Welch PSD, CEV report, and marginal statistics."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcflow import dataio, evaluate, pca
from pcflow.errors import DataError, NumericError, UsageError


def make_set(data, interval_minutes=None):
    data = np.asarray(data, dtype=float)
    if interval_minutes is None:
        interval_minutes = (24 * 60) // data.shape[1]
    return dataio.ScenarioSet(data=data, period_length=data.shape[1],
                              interval_minutes=interval_minutes)


# KDE --------------------------------------------------------------------


def test_kde_two_identical_points_hand_value():
    dens = evaluate.kde_pdf([0.0, 0.0], np.array([0.0]), bandwidth=1.0)
    assert dens[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-6)


def test_kde_two_point_hand_value():
    dens = evaluate.kde_pdf([-1.0, 1.0], np.array([0.0]), bandwidth=1.0)
    assert dens[0] == pytest.approx(math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-6)


def test_kde_integrates_to_one():
    rng = np.random.default_rng(0)
    samples = rng.normal(3.0, 2.0, 500)
    grid = evaluate.kde_grid(samples)
    dens = evaluate.kde_pdf(samples, grid)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)


def test_kde_single_sample_rejected():
    with pytest.raises(DataError):
        evaluate.kde_pdf([1.0], np.array([0.0]), bandwidth=1.0)


def test_kde_degenerate_sample_needs_bandwidth():
    with pytest.raises(DataError, match="bandwidth"):
        evaluate.kde_pdf([2.0, 2.0, 2.0], np.array([0.0]))


def test_kde_rejects_bad_bandwidth():
    for bandwidth in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(UsageError, match="bandwidth"):
            evaluate.kde_pdf([0.0, 1.0], np.array([0.0]), bandwidth=bandwidth)


def test_kde_rejects_non_finite_samples_and_grid():
    for samples, grid in (([0.0, float("nan"), 1.0], [0.0]),
                          ([0.0, float("inf"), 1.0], [0.0]),
                          ([0.0, 1.0], [0.0, float("nan")]),
                          ([0.0, 1.0], [float("nan")] * 9)):
        for bandwidth in (None, 1.0):
            with pytest.raises(DataError, match="finite"):
                evaluate.kde_pdf(samples, np.array(grid), bandwidth=bandwidth)


def test_silverman_formula():
    rng = np.random.default_rng(1)
    samples = rng.normal(size=200)
    q75, q25 = np.percentile(samples, [75, 25])
    want = 0.9 * min(samples.std(), (q75 - q25) / 1.34) * 200 ** -0.2
    assert evaluate.silverman_bandwidth(samples) == pytest.approx(want)


def test_silverman_falls_back_to_std_when_iqr_is_zero():
    # 200 days of 96 steps with sun in 20 of them: 79% of the values are exact zeros
    days = np.zeros((200, 96))
    days[:, 38:58] = np.random.default_rng(11).uniform(0.0, 0.4, (200, 20))
    samples = days.ravel()
    q75, q25 = np.percentile(samples, [75, 25])
    assert q75 == q25 == 0.0
    want = 0.9 * samples.std() * samples.size ** -0.2
    assert evaluate.silverman_bandwidth(samples) == want > 0
    with pytest.raises(DataError, match="zero spread"):
        evaluate.silverman_bandwidth(np.full(50, 0.3))


def dense_kde(samples, grid, bandwidth):
    """The dense grid x samples kernel sum that kde_pdf must reproduce."""
    z = (grid[:, None] - samples[None, :]) / bandwidth
    kernels = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return kernels.mean(axis=1) / bandwidth


def test_kde_matches_dense_formula():
    rng = np.random.default_rng(10)
    # half exact zeros, like PV nights, and the rest in (0, 1)
    samples = np.concatenate([np.zeros(1500), rng.beta(2.0, 3.0, 1500)])
    rng.shuffle(samples)
    h = evaluate.silverman_bandwidth(samples)
    # 513 points span several blocks; the last four lie 30, 41, 50 and
    # 45 bandwidths from the nearest sample
    grid = np.concatenate([np.linspace(-0.2, 1.2, 513),
                           [-30 * h, -41 * h, -50 * h, samples.max() + 45 * h]])
    for g in (grid, grid[::-1], rng.permutation(grid)):
        got = evaluate.kde_pdf(samples, g, h)
        want = dense_kde(samples, g, h)
        positive = want > 0
        assert np.sum(~positive) == 3
        assert np.all(np.abs(got[positive] - want[positive]) <= 1e-12 * want[positive])
        assert np.all(got[~positive] == 0.0)


def test_kde_memory_stays_bounded():
    rng = np.random.default_rng(11)
    samples = np.concatenate([np.zeros(100_000), rng.random(100_000)])
    grid = np.linspace(-0.1, 1.1, 512)
    tracemalloc.start()
    try:
        evaluate.kde_pdf(samples, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense_bytes = 8 * grid.size * samples.size
    assert peak < dense_bytes / 20


def kde_without_warnings(samples, grid, bandwidth):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return evaluate.kde_pdf(samples, grid, bandwidth)


def assert_matches_dense(got, samples, grid, bandwidth):
    with np.errstate(over="ignore"):
        want = dense_kde(samples, grid, bandwidth)
    positive = want > 0
    assert np.array_equal(got > 0, positive)
    assert np.all(got[~positive] == 0.0)
    assert np.all(np.abs(got[positive] - want[positive]) <= 1e-12 * want[positive])


# In bandwidth units: a heavy cluster of identical values at 0 (exact zeros
# when the offset is 0), a spread cluster, and lone values 5 to 35 out.
KDE_CASE = st.fixed_dictionaries({
    "cluster": st.integers(2, 2000),
    "spread": st.lists(st.floats(-3.0, 3.0), max_size=50),
    "lone": st.lists(st.floats(5.0, 35.0).flatmap(lambda d: st.sampled_from([d, -d])),
                     max_size=3),
    "in_span": st.lists(st.floats(0.0, 1.0), max_size=20),
    # distances past the outermost value, on both sides of the band where the
    # kernel terms are subnormal
    "outside": st.lists(st.one_of(st.floats(0.0, 37.0), st.floats(38.61, 80.0))
                        .flatmap(lambda d: st.sampled_from([d, -d])), max_size=8),
    "bandwidth": st.floats(-300.0, 3.0).map(lambda e: 10.0 ** e),
    "offset": st.sampled_from([0.0, 1.0, -3.5]),
    "order": st.randoms(use_true_random=False),
})


@settings(max_examples=100, deadline=None)
@given(case=KDE_CASE)
def test_kde_within_bound_of_dense_formula(case):
    units = np.concatenate([np.zeros(case["cluster"]), case["spread"], case["lone"]])
    lo, hi = units.min(), units.max()
    outside = np.array(case["outside"])
    grid_units = np.concatenate([units[:10], lo + (hi - lo) * np.array(case["in_span"]),
                                 np.where(outside < 0, lo + outside, hi + outside)])
    case["order"].shuffle(grid_units)
    h = case["bandwidth"]
    samples = case["offset"] + h * units
    grid = case["offset"] + h * grid_units
    # Nearer than 37 bandwidths the nearest kernel term is a normal float;
    # past 38.61 every term underflows to 0.0. In between the terms are
    # subnormal, with too few bits for a 1e-12 comparison, so points whose
    # rounded distance falls there are left out.
    delta = np.min(np.abs(grid[:, None] - samples[None, :]), axis=1) / h
    grid = grid[(delta < 37.0) | (delta > 38.61)]
    assert_matches_dense(kde_without_warnings(samples, grid, h), samples, grid, h)


def test_kde_lone_sample_shields_far_cluster():
    # the grid point at 0 sees the lone sample 3 bandwidths away; its window
    # reaches sqrt(9 + 2 ln(n / 2^-52)) = 10.2 bandwidths, and those of the
    # points at -1 and -2 (in the same block) reach less far, so the 10^5
    # values at 10.5 bandwidths, nearly all of the samples, fall outside
    h = 0.01
    samples = np.concatenate([[3.0 * h], np.full(100_000, 10.5 * h)])
    grid = np.array([0.0, -h, -2.0 * h])
    assert_matches_dense(kde_without_warnings(samples, grid, h), samples, grid, h)


def test_kde_tiny_bandwidth_does_not_overflow_noisily():
    # distances of order 1 are ~1e300 bandwidths: their terms are exactly 0.0
    samples = np.array([0.0, 0.0, 0.5, 1.0])
    grid = np.linspace(-0.5, 1.5, 17)
    h = 1e-300
    assert_matches_dense(kde_without_warnings(samples, grid, h), samples, grid, h)


# KS test ----------------------------------------------------------------


def brute_force_ks(a, b):
    """Enumerate ECDF gaps at every sample point."""
    best = 0.0
    for t in np.concatenate([a, b]):
        gap = abs(np.mean(a <= t) - np.mean(b <= t))
        best = max(best, gap)
    return best


def test_ks_identical_samples():
    stat, p = evaluate.ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert stat == 0.0
    assert p == 1.0


def test_ks_disjoint_supports():
    stat, _ = evaluate.ks_two_sample([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert stat == 1.0


def test_ks_hand_example():
    stat, _ = evaluate.ks_two_sample([1.0, 2.0], [1.5, 2.5])
    assert stat == 0.5


def test_ks_matches_brute_force_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(200):
        na, nb = rng.integers(1, 12, size=2)
        a = np.round(rng.normal(size=na), 1)  # coarse values force ties
        b = np.round(rng.normal(size=nb), 1)
        stat, _ = evaluate.ks_two_sample(a, b)
        assert stat == pytest.approx(brute_force_ks(a, b), abs=1e-12)


def permutation_p_value(a, b):
    """Exact p-value: all splits of the pooled sample into sizes (|a|, |b|)."""
    pooled = np.concatenate([a, b])
    observed = evaluate.ks_statistic(a, b)
    n = len(pooled)
    count = 0
    total = 0
    for idx in itertools.combinations(range(n), len(a)):
        mask = np.zeros(n, dtype=bool)
        mask[list(idx)] = True
        stat = evaluate.ks_statistic(pooled[mask], pooled[~mask])
        count += stat >= observed - 1e-12
        total += 1
    return count / total


def test_ks_p_value_close_to_permutation_oracle():
    rng = np.random.default_rng(3)
    for trial in range(8):
        na = int(rng.integers(5, 10))
        nb = int(rng.integers(5, 10))
        a = rng.normal(0, 1, na)
        b = rng.normal(0.5 * (trial % 3), 1, nb)
        _, p_asym = evaluate.ks_two_sample(a, b)
        p_exact = permutation_p_value(a, b)
        assert abs(p_asym - p_exact) <= 0.05


def test_ks_symmetry():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=30), rng.normal(1, 2, size=20)
    assert evaluate.ks_two_sample(a, b) == evaluate.ks_two_sample(b, a)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_ks_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=15)
    b = rng.normal(0.3, 1.2, size=12)
    stat, _ = evaluate.ks_two_sample(a, b)
    stat2, _ = evaluate.ks_two_sample(np.exp(a), np.exp(b))
    assert stat == pytest.approx(stat2, abs=1e-12)


def test_kolmogorov_survival_limits():
    assert evaluate.kolmogorov_survival(0.0) == 1.0
    assert evaluate.kolmogorov_survival(10.0) == pytest.approx(0.0, abs=1e-12)
    # classic table value Q(1.0) ~ 0.27
    assert evaluate.kolmogorov_survival(1.0) == pytest.approx(0.26999967, abs=1e-6)


# Q(lambda) to 16 digits (scipy.special.kolmogorov); 1.2238, 1.3581, 1.6276
# and 1.9495 are the tabulated critical values for 10%, 5%, 1% and 0.1%
KOLMOGOROV_Q = {
    1e-4: 1.0, 1e-3: 1.0, 1e-2: 1.0, 0.1: 1.0,
    0.2: 0.999999999999495, 0.3: 0.9999906941986655,
    0.5: 0.9639452436648751, 0.75: 0.6271670417762616,
    0.9: 0.3927307079406543, 1.0: 0.26999967167735456,
    1.2238: 0.10002342783567782, 1.3581: 0.0499996304316674,
    1.6276: 0.010001537333060776, 1.9495: 0.0009998019790258981,
    2.0: 0.0006709252557796953, 3.0: 3.045995948942526e-08,
}


def test_kolmogorov_survival_table():
    for lam, want in KOLMOGOROV_Q.items():
        assert evaluate.kolmogorov_survival(lam) == pytest.approx(want, abs=1e-14)


def test_kolmogorov_survival_closed_form_tails():
    # leading terms of the two series: the next term is below 1e-16 here
    for lam in (0.05, 0.1, 0.2, 0.3):
        theta = 1.0 - math.sqrt(2 * math.pi) / lam * math.exp(-math.pi ** 2 / (8 * lam ** 2))
        assert evaluate.kolmogorov_survival(lam) == pytest.approx(theta, abs=1e-15)
    for lam in (2.0, 2.5, 3.0):
        alternating = 2 * math.exp(-2 * lam ** 2) - 2 * math.exp(-8 * lam ** 2)
        assert evaluate.kolmogorov_survival(lam) == pytest.approx(alternating, rel=1e-12)


def test_kolmogorov_survival_monotone_and_continuous():
    lams = np.geomspace(1e-4, 3.0, 400)
    q = np.array([evaluate.kolmogorov_survival(lam) for lam in lams])
    assert np.all(np.diff(q) <= 0.0)
    # the two series meet at lambda = 1, where dQ/dlambda is about -1.07
    below = evaluate.kolmogorov_survival(1.0 - 1e-14)
    assert below == pytest.approx(evaluate.kolmogorov_survival(1.0), abs=1e-13)


def test_kolmogorov_survival_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for lam in np.geomspace(1e-4, 3.0, 400):
        assert evaluate.kolmogorov_survival(lam) == pytest.approx(
            special.kolmogorov(lam), abs=1e-13)


# Welch PSD --------------------------------------------------------------


def test_constant_signal_all_power_at_dc():
    scenario_set = make_set(np.ones((3, 32)), interval_minutes=15)
    freqs, power = evaluate.welch_psd(scenario_set, segment_length=32, window="rect")
    assert freqs[0] == 0.0
    assert power[0] > 0
    assert np.all(power[1:] <= 1e-20 * power[0])


def test_sinusoid_peak_at_expected_bin():
    # 1 cycle / 12 h sampled 96 x 15 min -> bin at 1/12 cycles per hour
    t = np.arange(96) * 15 / 60.0  # hours
    signal = np.cos(2 * np.pi * t / 12.0)
    scenario_set = make_set(signal[None, :].repeat(2, axis=0), interval_minutes=15)
    freqs, power = evaluate.welch_psd(scenario_set, segment_length=96, window="rect")
    assert freqs[np.argmax(power)] == pytest.approx(1.0 / 12.0)


def test_welch_single_segment_rect_equals_periodogram():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((4, 64))
    scenario_set = make_set(data, interval_minutes=15)
    freqs, power = evaluate.welch_psd(scenario_set, segment_length=64, window="rect")
    direct = np.zeros_like(power)
    for row in data:
        f, p = evaluate.periodogram(row, 4.0)
        direct += p
    direct /= 4
    assert np.allclose(freqs, f)
    assert np.allclose(power, direct, rtol=1e-10)


def test_periodogram_parseval():
    # total power x bin width = biased variance + DC mean-square term
    rng = np.random.default_rng(6)
    signal = rng.standard_normal(64)
    fs = 4.0
    freqs, power = evaluate.periodogram(signal, fs)
    bin_width = fs / 64
    total = power.sum() * bin_width
    assert total == pytest.approx(np.mean(signal**2), rel=1e-6)


def test_white_noise_psd_is_flat():
    rng = np.random.default_rng(7)
    scenario_set = make_set(rng.standard_normal((400, 64)), interval_minutes=15)
    freqs, power = evaluate.welch_psd(scenario_set, segment_length=32,
                                      overlap_fraction=0.5)
    # expected two-sided-folded level: variance / sample rate x 2
    expected = 2.0 / 4.0
    interior = power[1:-1]
    assert np.abs(interior - expected).max() < 3 * expected / math.sqrt(400)


def test_welch_overflow_is_numeric_error_without_warnings():
    # the PSD overflows float64 a little below where the covariance does
    data = np.random.default_rng(0).uniform(-1.0, 1.0, (20, 96)) * 2e153
    assert np.all(np.isfinite(pca.fit(make_set(data)).singular_values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="power spectrum overflows float64"):
            evaluate.welch_psd(make_set(data, interval_minutes=15))


def test_welch_argument_validation():
    scenario_set = make_set(np.ones((2, 16)))
    with pytest.raises(UsageError, match="segment_length"):
        evaluate.welch_psd(scenario_set, segment_length=17)
    with pytest.raises(UsageError, match="overlap"):
        evaluate.welch_psd(scenario_set, overlap_fraction=0.95)
    with pytest.raises(UsageError, match="window"):
        evaluate.welch_psd(scenario_set, window="hamming")


def welch_loop(data, sample_rate, segment_length, step, window):
    """Per-row, per-segment periodogram average."""
    starts = range(0, data.shape[1] - segment_length + 1, step)
    rows = [np.mean([evaluate.periodogram(row[s: s + segment_length], sample_rate, window)[1]
                     for s in starts], axis=0) for row in data]
    return np.mean(rows, axis=0)


def test_welch_matches_per_segment_loop():
    rng = np.random.default_rng(12)
    scenario_set = make_set(rng.standard_normal((25, 96)), interval_minutes=15)
    # (segment_length, overlap, window, step): 96 - 40 = 56 is no multiple
    # of 20, 33 is odd, and the last case uses the rectangular window
    cases = [(40, 0.5, "hann", 20), (33, 0.3, "hann", 23), (24, 0.25, "rect", 18)]
    for length, overlap, window, step in cases:
        freqs, power = evaluate.welch_psd(scenario_set, length, overlap, window)
        win = evaluate._window(window, length)
        assert np.array_equal(freqs, np.fft.rfftfreq(length, d=0.25))
        want = welch_loop(scenario_set.data, 4.0, length, step, win)
        np.testing.assert_allclose(power, want, rtol=1e-12, atol=0)


# CEV + marginals --------------------------------------------------------


def test_cev_report_delegates_to_pca():
    rng = np.random.default_rng(8)
    data = rng.standard_normal((50, 6))
    dec = pca.fit(data)
    table = evaluate.cev_report(dec)
    assert set(table) == {0.99, 0.999, 0.9999, 1.0}
    assert table == pca.cev_table(dec, tuple(table))


def test_marginal_stats_all_zero_columns():
    data = np.zeros((5, 24))
    data[:, 8:16] = np.random.default_rng(9).uniform(size=(5, 8))
    scenario_set = make_set(data, interval_minutes=60)
    minutes, mean, var = evaluate.marginal_stats(scenario_set, 0, 240)
    assert np.array_equal(minutes, np.arange(5) * 60)
    assert np.array_equal(mean, np.zeros(5))
    assert np.array_equal(var, np.zeros(5))


def test_marginal_stats_two_point_variance():
    scenario_set = make_set(np.array([[0.0, 0.0], [1.0, 1.0]]))
    _, mean, var = evaluate.marginal_stats(scenario_set)
    assert np.array_equal(mean, [0.5, 0.5])
    assert np.array_equal(var, [0.5, 0.5])  # unbiased, ddof=1


def test_marginal_stats_matches_brute_force():
    rng = np.random.default_rng(10)
    data = rng.uniform(size=(7, 24))
    scenario_set = make_set(data, interval_minutes=60)
    minutes, mean, var = evaluate.marginal_stats(scenario_set, 120, 300)
    cols = [c for c in range(24) if 120 <= c * 60 <= 300]
    for i, c in enumerate(cols):
        col = data[:, c]
        assert mean[i] == col.mean()
        assert var[i] == col.var(ddof=1)


def test_marginal_stats_window_validation():
    scenario_set = make_set(np.ones((2, 24)), interval_minutes=60)
    with pytest.raises(UsageError):
        evaluate.marginal_stats(scenario_set, 300, 120)
    with pytest.raises(UsageError):
        evaluate.marginal_stats(scenario_set, 0, 25 * 60)


# full report ------------------------------------------------------------


def test_evaluate_sets_and_write_report(tmp_path):
    rng = np.random.default_rng(11)
    hist = make_set(rng.uniform(size=(30, 24)), interval_minutes=60)
    gen = make_set(rng.uniform(size=(40, 24)), interval_minutes=60)
    report = evaluate.evaluate_sets(hist, gen)
    assert 0.0 <= report.ks_statistic <= 1.0
    assert 0.0 <= report.ks_p_value <= 1.0
    assert np.all(report.kde_historical >= 0)
    assert np.all(np.diff(report.psd_freqs) > 0)
    out = tmp_path / "report"
    evaluate.write_report(report, out)
    for name in ("kde.csv", "psd.csv", "ks.txt", "cev.csv", "marginals.csv", "summary.txt"):
        assert (out / name).exists()
    # CSV values parse back as floats
    for line in (out / "kde.csv").read_text().splitlines()[1:3]:
        assert len([float(v) for v in line.split(",")]) == 3


def test_evaluate_sets_identical_inputs():
    rng = np.random.default_rng(12)
    hist = make_set(rng.uniform(size=(20, 24)), interval_minutes=60)
    report = evaluate.evaluate_sets(hist, hist)
    assert report.ks_statistic == 0.0
    assert report.ks_p_value == 1.0
    assert np.array_equal(report.psd_historical, report.psd_generated)


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"), float("inf")])
def test_evaluate_sets_rejects_bad_bandwidth(bandwidth):
    hist = make_set(np.random.default_rng(13).uniform(size=(5, 24)), interval_minutes=60)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(UsageError, match="bandwidth must be finite and positive"):
            evaluate.evaluate_sets(hist, hist, bandwidth=bandwidth)


def test_evaluate_sets_dimension_mismatch():
    a = make_set(np.ones((3, 24)) * np.arange(24), interval_minutes=60)
    b = make_set(np.ones((3, 12)) * np.arange(12), interval_minutes=120)
    with pytest.raises(UsageError):
        evaluate.evaluate_sets(a, b)
