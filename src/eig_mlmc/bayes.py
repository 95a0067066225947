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

from .errors import EvaluationError
from .gaussian import GaussianDensity
from .streams import RandomStream, as_generator

__all__ = [
    "ForwardMap",
    "BayesModel",
    "log_likelihood",
    "response_log_likelihood",
    "sample_data",
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

    ``fn`` must be vectorised over a leading batch axis: it maps (d,) -> (w,)
    and (n, d) -> (n, w).  ``jac`` and ``hess`` are optional analytic
    derivatives of g (plain derivatives, no sign convention applied), with the
    same batch behaviour, returning (..., w, d) and (..., w, d, d).  When
    absent, finite differences are used.  ``cost_units`` is the bookkeeping
    price of one evaluation.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    out_dim: int
    jac: Callable[[np.ndarray], np.ndarray] | None = None
    hess: Callable[[np.ndarray], np.ndarray] | None = None
    cost_units: float = 1.0

    def eval(self, theta: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(theta, dtype=float))

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self.jac is not None:
            return self.jac(theta)
        if theta.ndim == 1:
            return fd_jacobian(self, theta)
        return np.stack([fd_jacobian(self, t) for t in theta])

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self.hess is not None:
            return self.hess(theta)
        if theta.ndim == 1:
            return fd_hessian(self, theta)
        return np.stack([fd_hessian(self, t) for t in theta])

    @property
    def has_analytic_derivatives(self) -> bool:
        return self.jac is not None and self.hess is not None


@dataclass(frozen=True)
class BayesModel:
    """Prior + forward map + zero-mean Gaussian noise, replicated ``replicates`` times.

    ``prior`` is any object with ``sample``, ``log_pdf``, ``grad_log_pdf``,
    ``hess_log_pdf`` and ``dim``; :class:`~eig_mlmc.gaussian.GaussianDensity`
    satisfies the interface.
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

    @property
    def data_dim(self) -> int:
        return self.replicates * self.forward.out_dim


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


def log_likelihood(model: BayesModel, theta: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """log p(y | theta) for one theta (d,) or a batch (n, d).

    ``y`` is the concatenated data vector of length replicates * w.  The value
    is the sum of per-replicate Gaussian log densities of the residuals; no
    density is ever exponentiated.
    """
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    d = model.prior.dim
    w = model.forward.out_dim
    ne = model.replicates
    if theta.shape[-1] != d:
        raise ValueError(f"theta must have dimension {d}")
    if y.shape != (ne * w,):
        raise ValueError(f"y must have shape ({ne * w},)")
    g = model.forward.eval(np.atleast_2d(theta))           # (n, w)
    out = response_log_likelihood(model, g[None], y[None])[0]
    return float(out[0]) if theta.ndim == 1 else out


def sample_data(model: BayesModel, theta: np.ndarray, stream: RandomStream | np.random.Generator) -> np.ndarray:
    """Draw y = replicated g(theta) + noise from the given stream.

    Draw order contract: one ``standard_normal((replicates, w))`` block, then
    each row is coloured with the noise Cholesky factor.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.prior.dim,):
        raise ValueError(f"theta must have shape ({model.prior.dim},)")
    rng = as_generator(stream)
    g = model.forward.eval(theta)
    z = rng.standard_normal((model.replicates, model.forward.out_dim))
    eps = z @ model.noise.chol.T
    return (g[None, :] + eps).reshape(-1)


def _eval_checked(forward: ForwardMap, pts: np.ndarray) -> np.ndarray:
    vals = forward.eval(pts)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("forward map returned a non-finite value")
    return vals


def fd_jacobian(forward: ForwardMap, theta: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of g, shape (w, d).

    Per-coordinate step h_i = c * max(1, |theta_i|) with c = eps^(1/3).
    """
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    h = _FD_STEP_JAC * np.maximum(1.0, np.abs(theta))
    pts = np.concatenate([theta + np.diag(h), theta - np.diag(h)], axis=0)
    vals = _eval_checked(forward, pts)
    return ((vals[:d] - vals[d:]) / (2.0 * h[:, None])).T


def fd_hessian(forward: ForwardMap, theta: np.ndarray) -> np.ndarray:
    """Central-difference Hessian tensor of g, shape (w, d, d), symmetrised.

    Per-coordinate step h_i = c * max(1, |theta_i|) with c = eps^(1/4).
    """
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    w = forward.out_dim
    h = _FD_STEP_HESS * np.maximum(1.0, np.abs(theta))
    f0 = _eval_checked(forward, theta)

    hess = np.empty((w, d, d))
    diag_pts = np.concatenate([theta + np.diag(h), theta - np.diag(h)], axis=0)
    diag_vals = _eval_checked(forward, diag_pts)
    for i in range(d):
        hess[:, i, i] = (diag_vals[i] - 2.0 * f0 + diag_vals[d + i]) / h[i] ** 2

    for i in range(d):
        for j in range(i + 1, d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h[i]
            ej[j] = h[j]
            pts = np.stack([theta + ei + ej, theta + ei - ej, theta - ei + ej, theta - ei - ej])
            fpp, fpm, fmp, fmm = _eval_checked(forward, pts)
            val = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
            hess[:, i, j] = val
            hess[:, j, i] = val
    return hess
