"""PCA of the empirical covariance with an isometric embedding.

The covariance is diagonalized by LAPACK's symmetric eigensolver
(``np.linalg.eigh``), whose eigenvector matrix is orthonormal to machine
precision. The truncated map embeds M latent coordinates into the
D-dimensional scenario space; its transpose is the exact pseudo-inverse,
and because the component matrix is semi-orthogonal the embedding is an
isometry and contributes nothing to a change-of-variables log-density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import as_rows
from .errors import DataError, NumericError, UsageError

# eigenvalues in (-1e-12 * trace, 0) are clamped to zero; below that we fail
EIG_CLAMP_REL = 1e-12

# variances below 1e-12 * the largest do not count towards the rank
RANK_TOL_REL = 1e-12


@dataclass(frozen=True)
class PcaMap:
    """Leading principal directions: the isometric embedding and its inverse.

    ``fit`` returns the full map, M = D; ``truncate`` keeps the leading M
    columns. The full spectrum is kept either way.
    """

    mean: np.ndarray  # (D,)
    components: np.ndarray  # (D, M), columns = principal directions
    variances: np.ndarray  # covariance eigenvalues, (D,), non-increasing, >= 0

    def __post_init__(self):
        d, m = self.components.shape
        if not 1 <= m <= d:
            raise UsageError("inconsistent PcaMap dimensions")
        arrays = (self.mean, self.components, self.variances)
        if not all(np.isfinite(a).all() for a in arrays):
            raise UsageError("non-finite value in the PCA mean, components or variances")

    @property
    def dim(self):
        return len(self.mean)

    @property
    def n_components(self):
        return self.components.shape[1]

    @property
    def rank(self):
        var = self.variances
        if var[0] <= 0.0:
            return 0
        return int(np.sum(var > RANK_TOL_REL * var[0]))

    @property
    def cev(self):
        """Cumulative explained variance of the kept components (1.0 for a zero spectrum)."""
        total = self.variances.sum()
        return float(self.variances[:self.n_components].sum() / total) if total > 0 else 1.0


def fit(train) -> PcaMap:
    """Full eigendecomposition of the empirical covariance of the training rows."""
    x = as_rows(train)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DataError("PCA needs at least 2 rows")
    if not np.all(np.isfinite(x)):
        raise DataError("PCA input contains non-finite values")
    n = x.shape[0]
    # data near the float64 limit overflows here; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        centered = x - mean
        cov = centered.T @ centered / (n - 1)

    if not np.all(np.isfinite(cov)):
        raise NumericError("covariance overflows float64: rescale the data")
    # an exactly constant column has an exactly zero covariance row and is
    # its own null direction; keeping it out of the solver keeps its
    # eigenvalue and its loading on every other component exactly zero
    live = np.flatnonzero(np.diag(cov) > 0.0)
    values = np.zeros(len(cov))
    vectors = np.eye(len(cov))
    values[live], vectors[np.ix_(live, live)] = np.linalg.eigh(cov[np.ix_(live, live)])
    trace = max(np.trace(cov), 0.0)
    floor = -EIG_CLAMP_REL * max(trace, 1.0)
    if np.any(values < floor):
        raise NumericError(f"negative covariance eigenvalue {values.min():g}")
    values = np.maximum(values, 0.0)

    order = np.argsort(values)[::-1]
    values = values[order]
    vectors = vectors[:, order]

    # deterministic sign: largest-magnitude entry of each component positive
    largest = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    vectors[:, largest < 0] *= -1.0
    return PcaMap(mean=mean, components=vectors, variances=values)


def truncate(pca_map: PcaMap, cev_threshold=None, n_components=None) -> PcaMap:
    """Keep the leading components by explicit count or CEV threshold.

    An explicit count wins if both are given. A threshold of 1.0 selects the
    numerical rank; zero variances never count. The result never has
    more columns than ``pca_map``.
    """
    variances = pca_map.variances
    total = variances.sum()
    k = pca_map.n_components
    rank = min(max(pca_map.rank, 1), k)

    if n_components is not None:
        m = int(n_components)
        if not 1 <= m <= k:
            raise UsageError(f"n_components must be in [1, {k}]")
    elif cev_threshold is not None:
        if not 0.0 < cev_threshold <= 1.0:
            raise UsageError("cev_threshold must lie in (0, 1]")
        if cev_threshold >= 1.0:
            m = rank
        elif total <= 0.0:
            m = 1
        else:
            ratios = np.cumsum(variances) / total
            m = min(int(np.searchsorted(ratios, cev_threshold) + 1), rank)
    else:
        raise UsageError("give either cev_threshold or n_components")

    return PcaMap(mean=pca_map.mean, components=pca_map.components[:, :m].copy(),
                  variances=variances)


def project(pca_map: PcaMap, x):
    """Map full-space points to latent coordinates: V_P^T (x - mean)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != pca_map.dim:
        raise UsageError(f"expected dimension {pca_map.dim}, got {x.shape[-1]}")
    return (x - pca_map.mean) @ pca_map.components


def embed(pca_map: PcaMap, latent):
    """Map latent coordinates to the full space: V_P latent + mean."""
    latent = np.asarray(latent, dtype=float)
    if latent.shape[-1] != pca_map.n_components:
        raise UsageError(f"expected dimension {pca_map.n_components}, got {latent.shape[-1]}")
    x = latent @ pca_map.components.T
    x += pca_map.mean  # in place: no second (n, D) array
    return x

