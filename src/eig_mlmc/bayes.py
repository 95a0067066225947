"""Bayesian data model: prior, forward map, Gaussian noise, replicated data.

The data model is ``Y = (g(theta) + eps_1, ..., g(theta) + eps_Ne)`` with
i.i.d. Gaussian noise blocks sharing one covariance.  The likelihood is the
sum of per-block Gaussian log densities, evaluated entirely in log space.
Y enters it only through the replicate mean and scatter (as in Beck, Dia,
Espath, Long and Tempone, CMAME 2018), so the kernel's work per response
does not grow with Ne.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gaussian import GaussianDensity

__all__ = [
    "ForwardMap",
    "BayesModel",
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
    ``cost_units`` is the bookkeeping price of one evaluation.  ``terms`` is
    an optional fused callable (n, d) -> (g, J, H) that must equal
    ``(fn, jac, hess)`` bit for bit; :meth:`value_and_derivatives` uses it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    out_dim: int
    jac: Callable[[np.ndarray], np.ndarray] | None = None
    hess: Callable[[np.ndarray], np.ndarray] | None = None
    cost_units: float = 1.0
    terms: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    def eval(self, theta: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(theta, dtype=float))

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        return fd_jacobian(self, theta) if self.jac is None else self.jac(np.asarray(theta, dtype=float))

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        return fd_hessian(self, theta) if self.hess is None else self.hess(np.asarray(theta, dtype=float))

    def value_and_derivatives(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(g, J, H) at a batch (n, d): one ``terms`` call, or the three separate ones."""
        if self.terms is not None:
            return self.terms(np.asarray(theta, dtype=float))
        return self.eval(theta), self.jacobian(theta), self.hessian(theta)

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


def replicate_summary(model: BayesModel, y: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """What the likelihood reads of data rows y (k, Ne*w): the replicate mean
    (k, w) and the scatter sum_r |L^-1 (y_r - mean)|^2 (k,), L^-1 the noise's
    cached inverse factor.  At Ne = 1 the mean is y and the scatter is None
    (zero).  A row whose mean or deviations leave the float range has mean 0
    and an infinite scatter, so its likelihood is zero everywhere.
    """
    ne, w = model.replicates, model.forward.out_dim
    reps = y.reshape(-1, ne, w)
    if ne == 1:
        return reps[:, 0], None
    with np.errstate(over="ignore", invalid="ignore"):
        mean = reps.mean(axis=1)
        dev = reps - mean[:, None]
    out = ~np.all(np.isfinite(dev), axis=(1, 2))
    mean[out], dev[out] = 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing scatter means density zero
        v = dev.reshape(-1, w) @ model.noise.inv_chol.T
        return mean, np.where(out, np.inf, np.einsum("ij,ij->i", v, v).reshape(-1, ne).sum(axis=1))


def summary_log_likelihood(model: BayesModel, g: np.ndarray, summary) -> np.ndarray:
    """log p(y_b | .) from evaluated responses g (n, m, w) and the
    :func:`replicate_summary` of data rows y (n, Ne*w), shape (n, m); a
    summary of a single data row (1, Ne*w) is shared by every row of g.

    The one Gaussian likelihood kernel, on the replicate mean ybar and
    scatter S: sum_r |L^-1 (y_r - g)|^2 = Ne |L^-1 (ybar - g)|^2 + S, each
    residual row whitened by the noise's cached inverse factor in one 2-D
    product.  The grid term runs over (n, m, w), S over (n, Ne, w) once per
    data row, so several calls on the same data reduce it once.
    """
    n, m, w = g.shape
    mean, scatter = summary
    ne = model.replicates
    # a non-finite residual (an inf or nan response, or non-finite data) or an
    # overflowing quad form means density zero: its nan or inf quad is inf below
    with np.errstate(over="ignore", invalid="ignore"):
        u = (mean[:, None, :] - g).reshape(-1, w) @ model.noise.inv_chol.T
        quad = np.einsum("ij,ij->i", u, u).reshape(n, m)
        if scatter is not None:
            quad = ne * quad + scatter[:, None]
    np.copyto(quad, np.inf, where=np.isnan(quad))
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
