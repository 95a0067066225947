"""Multivariate Gaussian density with cached Cholesky factor and its inverse.

The prior and the noise of a :class:`eig_mlmc.bayes.BayesModel` are each a
``GaussianDensity``; both are whitened by their cached inverse factor.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GaussianDensity", "spd_cholesky"]

LOG_2PI = float(np.log(2.0 * np.pi))


class GaussianDensity:
    """N(mean, cov) with the lower Cholesky factor L, its inverse, the
    precision and the log normaliser computed once.

    All density arithmetic stays in log space.  ``log_pdf`` whitens with the
    cached inverse factor, ``sample`` colours with L; both work on batches of
    shape (n, dim).
    """

    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean must be a vector and cov a matching square matrix")
        chol, inv_chol, precision = spd_cholesky("covariance", cov)
        self.mean = mean
        self.cov = cov
        self.chol = chol
        self.inv_chol = inv_chol
        self.precision = precision
        self.log_norm_const = float(
            -0.5 * mean.size * LOG_2PI - np.sum(np.log(np.diag(chol)))
        )

    @property
    def dim(self) -> int:
        return self.mean.size

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        """Log density of the points (n, dim), shape (n,)."""
        pts = np.asarray(x, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected points of shape (n, {self.dim})")
        u = (pts - self.mean) @ self.inv_chol.T
        return self.log_norm_const - 0.5 * np.einsum("ni,ni->n", u, u)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw a (size, dim) batch.

        Draws raw standard normals first and colours them with the Cholesky
        factor, so the raw stream can be replayed independently.
        """
        z = rng.standard_normal((size, self.dim))
        return self.mean + z @ self.chol.T


def spd_cholesky(name: str, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower Cholesky factor L, its inverse and the inverse of the square
    matrix ``cov``; a ValueError naming ``name`` unless it is symmetric (to
    rtol 1e-10), positive definite and its inverse is finite.  L^-1 is
    numpy's inverse of L, made exactly lower triangular again: the pivoting
    of that inverse can leave round-off above the diagonal."""
    if not np.allclose(cov, cov.T, rtol=1e-10, atol=0.0):
        raise ValueError(f"{name} must be symmetric")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} must be positive definite") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        inv_l = np.tril(np.linalg.inv(chol))
        precision = inv_l.T @ inv_l
    if not np.all(np.isfinite(precision)):
        raise ValueError(f"{name} must have a finite inverse")
    return chol, inv_l, precision
