"""Tests for the PCA fit and the isometric PCA map."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcflow import pca
from pcflow.errors import DataError, NumericError, UsageError


def random_dataset(rng, n, d):
    mixing = rng.standard_normal((d, d))
    return rng.standard_normal((n, d)) @ mixing + rng.normal(0, 3, d)


# fit --------------------------------------------------------------------


def test_fit_returns_full_map():
    rng = np.random.default_rng(11)
    for x in (random_dataset(rng, 30, 4), np.array([[5.0, 5.0, 1.0], [5.0, 5.0, 1.0]])):
        mapped = pca.fit(x)
        assert mapped.n_components == mapped.dim == x.shape[1]
        assert mapped.cev == 1.0  # also for the all-zero spectrum of the repeated point


def test_fit_collinear_points():
    dec = pca.fit(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    assert dec.variances[0] > 0
    assert dec.variances[1] == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(np.abs(dec.components[:, 0]), 1 / np.sqrt(2))
    assert dec.rank == 1


def test_fit_cross_points_hand_eigenpairs():
    dec = pca.fit(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]]))
    assert np.allclose(dec.mean, [0.0, 0.0])
    assert np.allclose(dec.variances, [8 / 3, 2 / 3])
    assert np.allclose(np.abs(dec.components), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_fit_repeated_point():
    dec = pca.fit(np.array([[5.0, 5.0], [5.0, 5.0]]))
    assert np.allclose(dec.variances, 0.0)
    assert np.allclose(dec.mean, [5.0, 5.0])
    assert dec.rank == 0


def test_fit_sign_convention_deterministic():
    rng = np.random.default_rng(2)
    x = random_dataset(rng, 100, 6)
    dec = pca.fit(x)
    for j in range(6):
        k = np.argmax(np.abs(dec.components[:, j]))
        assert dec.components[k, j] > 0


def test_fit_constant_columns_exact_zero_eigenvalues():
    # constant dims give exactly zero covariance rows and columns, here both
    # as one block and scattered between the varying dims
    rng = np.random.default_rng(1)
    for varying in (np.r_[5:12], np.r_[0:24:3]):
        x = np.zeros((80, 24))
        x[:, varying] = rng.standard_normal((80, len(varying)))
        dec = pca.fit(x)
        k = len(varying)
        assert np.all(dec.variances[:k] > 0)
        assert np.all(dec.variances[k:] == 0.0)
        assert dec.rank == k
        constant = np.setdiff1d(np.arange(24), varying)
        assert np.all(dec.components[constant, :k] == 0.0)


def test_fit_rejects_overflowing_covariance():
    for rows in ([[1e200, 0.0], [-1e200, 1.0], [3.0, 1e200]],
                 [[1.7e308, 0.0], [1.7e308, 1.0], [-1.7e308, 1e200]]):  # the mean overflows too
        with pytest.raises(NumericError), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pca.fit(np.array(rows))


FIT_IN_CHILD = """
import sys
import numpy as np
from pcflow import pca
rng = np.random.default_rng(12)
x = rng.standard_normal((2000, 96)) @ rng.standard_normal((96, 96))
x[:, :20] = 0.0
dec = pca.fit(x)
sys.stdout.buffer.write(dec.components.tobytes() + dec.variances.tobytes())
"""


def test_fit_bytes_independent_of_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", FIT_IN_CHILD], env=env,
                              capture_output=True, timeout=120, check=True)
        outputs.append(done.stdout)
    assert len(outputs[0]) == 8 * (96 * 96 + 96)
    assert outputs[0] == outputs[1]


def test_fit_rejects_nonfinite():
    with pytest.raises(DataError):
        pca.fit(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_fit_reconstruction_matches_spectrum():
    # Eckart-Young consistency: residual of the rank-M projection equals the
    # discarded eigenvalue mass times (N - 1)
    rng = np.random.default_rng(3)
    x = random_dataset(rng, 60, 5)
    dec = pca.fit(x)
    for m in range(1, 5):
        mapped = pca.truncate(dec, n_components=m)
        recon = pca.embed(mapped, pca.project(mapped, x))
        residual = np.sum((x - recon) ** 2)
        expected = (x.shape[0] - 1) * dec.variances[m:].sum()
        assert residual == pytest.approx(expected, rel=1e-6)


# truncate ---------------------------------------------------------------


def test_truncate_hand_threshold():
    dec = pca.fit(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]]))
    mapped = pca.truncate(dec, cev_threshold=0.75)
    assert mapped.n_components == 1
    assert mapped.cev == pytest.approx(0.8)
    assert pca.truncate(dec, cev_threshold=0.81).n_components == 2


def test_truncate_threshold_one_is_rank():
    dec = pca.fit(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    assert pca.truncate(dec, cev_threshold=1.0).n_components == 1
    assert pca.truncate(dec, cev_threshold=0.99).n_components == 1


def test_truncate_keeps_one_component_of_an_all_zero_spectrum():
    dec = pca.fit(np.full((4, 3), 2.5))  # constant rows: every variance is 0
    assert np.array_equal(dec.variances, np.zeros(3))
    mapped = pca.truncate(dec, cev_threshold=0.5)
    assert mapped.n_components == 1
    assert np.array_equal(mapped.components, dec.components[:, :1])


def test_truncate_explicit_m_wins():
    rng = np.random.default_rng(4)
    dec = pca.fit(random_dataset(rng, 50, 4))
    mapped = pca.truncate(dec, cev_threshold=0.5, n_components=3)
    assert mapped.n_components == 3


def test_truncate_monotone_in_threshold():
    rng = np.random.default_rng(5)
    dec = pca.fit(random_dataset(rng, 50, 8))
    counts = [pca.truncate(dec, cev_threshold=t).n_components
              for t in (0.5, 0.9, 0.99, 0.999, 1.0)]
    assert counts == sorted(counts)


def test_truncate_never_adds_columns():
    mapped = fitted_map(m=3)  # rank 5, three columns kept
    with pytest.raises(UsageError, match=r"n_components must be in \[1, 3\]"):
        pca.truncate(mapped, n_components=4)
    assert pca.truncate(mapped, cev_threshold=1.0).n_components == 3


def test_truncate_bad_arguments():
    dec = pca.fit(np.eye(3))
    with pytest.raises(UsageError):
        pca.truncate(dec, cev_threshold=1.5)
    with pytest.raises(UsageError):
        pca.truncate(dec, n_components=0)
    with pytest.raises(UsageError):
        pca.truncate(dec)


# project / embed --------------------------------------------------------


def fitted_map(seed=6, n=80, d=5, m=3):
    rng = np.random.default_rng(seed)
    return pca.truncate(pca.fit(random_dataset(rng, n, d)), n_components=m)


def test_project_mean_is_zero():
    mapped = fitted_map()
    assert np.allclose(pca.project(mapped, mapped.mean), 0.0, atol=1e-12)


@pytest.mark.parametrize("field", ["mean", "components", "variances"])
def test_pca_map_rejects_non_finite(field):
    arrays = {"mean": np.zeros(2), "components": np.eye(2), "variances": np.ones(2)}
    arrays[field].flat[0] = np.nan
    with pytest.raises(UsageError, match="non-finite"):
        pca.PcaMap(**arrays)


def test_project_coordinate_pick():
    mapped = pca.PcaMap(mean=np.zeros(2), components=np.array([[1.0], [0.0]]),
                        variances=np.array([1.0, 0.0]))
    assert pca.project(mapped, np.array([3.0, 4.0])) == pytest.approx([3.0])


def test_embed_zero_is_mean():
    mapped = fitted_map()
    assert np.allclose(pca.embed(mapped, np.zeros(3)), mapped.mean)


def test_project_then_embed_roundtrips_on_full_map():
    rng = np.random.default_rng(12)
    mapped = pca.fit(random_dataset(rng, 40, 5))
    x = rng.standard_normal((20, 5))
    assert np.allclose(pca.embed(mapped, pca.project(mapped, x)), x, atol=1e-10)


def test_project_then_embed_on_subspace():
    mapped = fitted_map()
    rng = np.random.default_rng(7)
    latent = rng.standard_normal((20, 3))
    x = pca.embed(mapped, latent)
    assert np.allclose(pca.project(mapped, x), latent, atol=1e-10)


def test_embed_project_idempotent():
    mapped = fitted_map()
    rng = np.random.default_rng(8)
    x = rng.standard_normal((20, 5))
    proj = pca.embed(mapped, pca.project(mapped, x))
    assert np.allclose(pca.embed(mapped, pca.project(mapped, proj)), proj, atol=1e-10)


def test_embed_is_isometry():
    mapped = fitted_map()
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, 3))
    assert np.linalg.norm(pca.embed(mapped, a) - pca.embed(mapped, b)) == pytest.approx(
        np.linalg.norm(a - b), rel=1e-12
    )


def test_dimension_mismatch_errors():
    mapped = fitted_map()
    with pytest.raises(UsageError):
        pca.project(mapped, np.zeros(4))
    with pytest.raises(UsageError):
        pca.embed(mapped, np.zeros(2))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), m=st.integers(min_value=1, max_value=5))
def test_isometry_property(seed, m):
    rng = np.random.default_rng(seed)
    mapped = pca.truncate(pca.fit(random_dataset(rng, 40, 5)), n_components=m)
    v = mapped.components
    assert np.abs(v.T @ v - np.eye(m)).max() <= 1e-10

