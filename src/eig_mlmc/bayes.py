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
    same batch behaviour, returning (..., w, d) and (..., w, d, d).  Without
    them, :func:`fd_jacobian` and :func:`fd_hessian` difference a whole batch
    at once and return NaN for a row whose stencil meets a non-finite value.
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
    theta = np.asarray(theta, dtype=float)
    x = np.atleast_2d(theta)
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
    if theta.ndim == 1 and bad[0]:
        raise EvaluationError("forward map returned a non-finite value")
    return out if theta.ndim == 2 else out[0]


def fd_jacobian(forward: ForwardMap, theta: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of g: (w, d) at a point (d,), (n, w, d) for
    a batch (n, d).  Steps h_i = c * max(1, |theta_i|) with c = eps^(1/3); the
    2d points of every row go through one forward evaluation.  A batch row
    whose stencil meets a non-finite value is all NaN; a single point raises
    :class:`EvaluationError` instead.
    """
    return _central_differences(forward, theta, order=1)


def fd_hessian(forward: ForwardMap, theta: np.ndarray) -> np.ndarray:
    """Central-difference Hessian tensor of g: (w, d, d) at a point (d,),
    (n, w, d, d) for a batch (n, d).  Steps as in :func:`fd_jacobian` with
    c = eps^(1/4).  Each group of a row's 2d^2 + 1 points goes through one
    evaluation: the 2d diagonal points, the centre, and the four corners of
    each pair i < j.  Non-finite rows as in :func:`fd_jacobian`.
    """
    return _central_differences(forward, theta, order=2)
