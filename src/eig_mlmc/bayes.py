"""Bayesian data model: prior, forward map, Gaussian noise, replicated data.

The data model is ``Y = (g(theta) + eps_1, ..., g(theta) + eps_Ne)`` with
i.i.d. Gaussian noise blocks sharing one covariance.  The likelihood is the
sum of per-block Gaussian log densities, evaluated entirely in log space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

from .gaussian import GaussianDensity

__all__ = [
    "ForwardMap",
    "BayesModel",
    "response_log_likelihood",
    "fd_jacobian",
    "fd_hessian",
]

# Central-difference step factors, chosen to balance truncation against
# round-off for first and second derivatives respectively.
_FD_STEP_JAC = float(np.finfo(float).eps ** (1.0 / 3.0))
_FD_STEP_HESS = float(np.finfo(float).eps ** (1.0 / 4.0))


@dataclass(frozen=True)
class ForwardMap:
    """Deterministic model response theta -> g(theta).

    ``fn`` maps a batch (n, d) to (n, w).  ``jac`` and ``hess`` are optional
    analytic derivatives of g (plain derivatives, no sign convention
    applied), mapping a batch (n, d) to (n, w, d) and (n, w, d, d).  Without
    them, :func:`fd_jacobian` and :func:`fd_hessian` difference the batch at
    once and return NaN for a row whose stencil meets a non-finite value.
    ``cost_units`` is the bookkeeping price of one evaluation.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    out_dim: int
    jac: Callable[[np.ndarray], np.ndarray] | None = None
    hess: Callable[[np.ndarray], np.ndarray] | None = None
    cost_units: float = 1.0

    def eval(self, theta: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(theta, dtype=float))

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        return fd_jacobian(self, theta) if self.jac is None else self.jac(np.asarray(theta, dtype=float))

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        return fd_hessian(self, theta) if self.hess is None else self.hess(np.asarray(theta, dtype=float))

    @property
    def has_analytic_derivatives(self) -> bool:
        return self.jac is not None and self.hess is not None


@dataclass(frozen=True)
class BayesModel:
    """Gaussian prior + forward map + zero-mean Gaussian noise, replicated
    ``replicates`` times.  Prior and noise are both
    :class:`~eig_mlmc.gaussian.GaussianDensity`.
    """

    prior: GaussianDensity
    forward: ForwardMap
    noise: GaussianDensity
    replicates: int = 1

    def __post_init__(self):
        if self.noise.dim != self.forward.out_dim:
            raise ValueError("noise dimension must equal forward.out_dim")
        if np.any(self.noise.mean != 0.0):
            raise ValueError("noise mean must be the zero vector")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")


def response_log_likelihood(model: BayesModel, g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log p(y_b | .) from evaluated responses g (n, m, w) and data y (n, Ne*w),
    shape (n, m); a single data row (1, Ne*w) is shared by every row of g.

    The one Gaussian likelihood kernel: the sum over replicates of the
    residual quadratic forms under the noise Cholesky factor.
    """
    n, m, w = g.shape
    ne = model.replicates
    resid = y.reshape(-1, 1, ne, w) - g[:, :, None, :]
    u = solve_triangular(model.noise.chol, resid.reshape(-1, w).T, lower=True)
    with np.errstate(over="ignore"):  # an overflowing quad form means density zero
        quad = np.sum(u * u, axis=0).reshape(n, m, ne).sum(axis=-1)
    return ne * model.noise.log_norm_const - 0.5 * quad


def _fd_eval(forward: ForwardMap, pts: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """g at stencil points (n, k, d) as (n, k, w); rows meeting a non-finite
    value are flagged in ``bad`` and come back as NaN."""
    n, k, d = pts.shape
    vals = forward.eval(pts.reshape(n * k, d)).reshape(n, k, -1)
    row_bad = ~np.all(np.isfinite(vals), axis=(1, 2))
    bad |= row_bad
    return np.where(row_bad[:, None, None], np.nan, vals) if np.any(row_bad) else vals


def _central_differences(forward: ForwardMap, theta: np.ndarray, order: int) -> np.ndarray:
    """The stencil of fd_jacobian (order 1) or fd_hessian (order 2)."""
    x = np.asarray(theta, dtype=float)
    n, d = x.shape
    bad = np.zeros(n, dtype=bool)
    h = (_FD_STEP_JAC if order == 1 else _FD_STEP_HESS) * np.maximum(1.0, np.abs(x))
    e = h[:, :, None] * np.eye(d)                        # row i is h_i e_i
    vals = _fd_eval(forward, x[:, None, :] + np.concatenate([e, -e], axis=1), bad)
    if order == 1:
        # a strided view, not a copy: einsum in fit_batch rounds differently on a C-ordered copy
        out = np.swapaxes((vals[:, :d] - vals[:, d:]) / (2.0 * h[:, :, None]), 1, 2)
    else:
        f0 = _fd_eval(forward, x[:, None, :], bad)
        out = np.empty((n, forward.out_dim, d, d))
        # float_power is the C pow() that h_i ** 2 on a scalar calls; h ** 2 is h * h
        diag = (vals[:, :d] - 2.0 * f0 + vals[:, d:]) / np.float_power(h, 2)[:, :, None]
        out[:, :, np.arange(d), np.arange(d)] = np.swapaxes(diag, 1, 2)
        for i, j in zip(*np.triu_indices(d, 1)):
            ei, ej = e[:, i:i + 1], e[:, j:j + 1]
            pts = x[:, None, :] + np.concatenate([ei + ej, ei - ej, -ei + ej, -ei - ej], axis=1)
            fpp, fpm, fmp, fmm = np.moveaxis(_fd_eval(forward, pts, bad), 1, 0)
            hij = (fpp - fpm - fmp + fmm) / (4.0 * h[:, i:i + 1] * h[:, j:j + 1])
            out[:, :, i, j] = out[:, :, j, i] = hij
    out[bad] = np.nan
    return out


def fd_jacobian(forward: ForwardMap, theta: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of g, (n, w, d) for a batch (n, d).
    Steps h_i = c * max(1, |theta_i|) with c = eps^(1/3); the 2d points of
    every row go through one forward evaluation.  A row whose stencil meets
    a non-finite value is all NaN.
    """
    return _central_differences(forward, theta, order=1)


def fd_hessian(forward: ForwardMap, theta: np.ndarray) -> np.ndarray:
    """Central-difference Hessian tensor of g, (n, w, d, d) for a batch
    (n, d).  Steps as in :func:`fd_jacobian` with c = eps^(1/4).  Each group
    of a row's 2d^2 + 1 points goes through one evaluation: the 2d diagonal
    points, the centre, and the four corners of each pair i < j.  Non-finite
    rows as in :func:`fd_jacobian`.
    """
    return _central_differences(forward, theta, order=2)
