"""Multivariate Gaussian density with cached Cholesky factor.

Used for priors, observation noise, and fitted importance distributions; the
prior of a :class:`eig_mlmc.bayes.BayesModel` is a ``GaussianDensity``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

__all__ = ["GaussianDensity", "spd_cholesky", "safeguarded_cholesky"]

LOG_2PI = float(np.log(2.0 * np.pi))


class GaussianDensity:
    """N(mean, cov) with the lower Cholesky factor and log normaliser cached.

    All density arithmetic stays in log space.  ``log_pdf`` and ``sample``
    work on batches of shape (n, dim).
    """

    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean must be a vector and cov a matching square matrix")
        chol = spd_cholesky("covariance", cov)
        self.mean = mean
        self.cov = cov
        self.chol = chol
        self.log_norm_const = float(
            -0.5 * mean.size * LOG_2PI - np.sum(np.log(np.diag(chol)))
        )
        self._prec = None  # lazy; only priors need it

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def precision(self) -> np.ndarray:
        if self._prec is None:
            eye = np.eye(self.dim)
            inv_l = solve_triangular(self.chol, eye, lower=True)
            self._prec = inv_l.T @ inv_l
        return self._prec

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        """Log density of the points (n, dim), shape (n,)."""
        pts = np.asarray(x, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected points of shape (n, {self.dim})")
        u = solve_triangular(self.chol, (pts - self.mean).T, lower=True)
        return self.log_norm_const - 0.5 * np.sum(u * u, axis=0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw a (size, dim) batch.

        Draws raw standard normals first and colours them with the Cholesky
        factor, so the raw stream can be replayed independently.
        """
        z = rng.standard_normal((size, self.dim))
        return self.mean + z @ self.chol.T


def spd_cholesky(name: str, cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the square matrix ``cov``; a ValueError naming
    ``name`` unless it is symmetric (to rtol 1e-10) and positive definite."""
    if not np.allclose(cov, cov.T, rtol=1e-10, atol=0.0):
        raise ValueError(f"{name} must be symmetric")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} must be positive definite") from exc


def safeguarded_cholesky(mat: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Cholesky with an escalating jitter ladder for non-PD inputs.

    Tries the matrix as given, then adds ``j * (trace/dim) * I`` for
    ``j = 1e-10, 1e-9, ..., 1e-4``.  Returns ``(chol, jitter_used)``; ``chol``
    is None when every attempt failed.
    """
    d = mat.shape[0]
    scale = float(np.trace(mat)) / d
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    jitter = 0.0
    step = 1e-10
    while True:
        try:
            return np.linalg.cholesky(mat + jitter * np.eye(d)), jitter
        except np.linalg.LinAlgError:
            if step > 1e-4:
                return None, jitter
            jitter = step * scale
            step *= 10.0
