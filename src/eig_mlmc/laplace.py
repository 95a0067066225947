"""Gaussian importance distributions from a Laplace fit of the posterior.

For each outer sample (theta*, Y) the posterior p(theta | Y) is approximated
by N(theta_hat, Sigma_hat): one Newton-type step from theta* using the
curvature of the negative log posterior.  The step uses the negated model
derivatives J = -grad g and H = -hess g; the sign cancels wherever J enters
quadratically and is kept explicit in the linear terms.

The fit is refreshed per outer sample and never shared across outer samples.
``fit_batch`` fits a whole block of outer samples at once; a single sample is
a batch of one.
"""

from __future__ import annotations

import numpy as np

from .bayes import BayesModel
from .errors import EvaluationError
from .gaussian import safeguarded_cholesky

__all__ = ["LaplaceBatch", "fit_batch"]

_LOG_2PI = float(np.log(2.0 * np.pi))


class LaplaceBatch:
    """Laplace fits for a batch of outer samples, held in precision form.

    ``chol_prec[b]`` is the lower Cholesky factor of the inverse covariance,
    which serves both sampling (solve against its transpose) and density
    evaluation without ever forming Sigma_hat.
    """

    def __init__(self, theta_hat: np.ndarray, chol_prec: np.ndarray):
        self.theta_hat = theta_hat
        self.chol_prec = chol_prec
        d = theta_hat.shape[-1]
        logdiag = np.log(np.diagonal(chol_prec, axis1=1, axis2=2))
        self.log_norm = -0.5 * d * _LOG_2PI + np.sum(logdiag, axis=1)

    def draw(self, z: np.ndarray) -> np.ndarray:
        """Map standard normals (B, M, d) to samples of the fitted Gaussians."""
        lt = np.swapaxes(self.chol_prec, 1, 2)
        x = np.linalg.solve(lt, np.swapaxes(z, 1, 2))
        return self.theta_hat[:, None, :] + np.swapaxes(x, 1, 2)

    def log_pdf(self, thetas: np.ndarray) -> np.ndarray:
        """Log density of (B, M, d) points under the per-row fits."""
        v = thetas - self.theta_hat[:, None, :]
        u = np.matmul(v, self.chol_prec)
        return self.log_norm[:, None] - 0.5 * np.sum(u * u, axis=-1)


def _chol_batch(mats: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Cholesky.  Matrices that are not positive definite are found by
    bisecting the batch and retried one by one with the safeguarded jitter
    ladder; those that exhaust it get the fallback factor.  Returns
    (chols, failed_mask)."""
    out = np.empty_like(mats)
    failed = np.zeros(mats.shape[0], dtype=bool)
    spans = [(0, mats.shape[0])]
    while spans:
        lo, hi = spans.pop()
        try:
            out[lo:hi] = np.linalg.cholesky(mats[lo:hi])
        except np.linalg.LinAlgError:
            if hi - lo > 1:
                mid = (lo + hi) // 2
                spans += [(lo, mid), (mid, hi)]
                continue
            chol, _ = safeguarded_cholesky(mats[lo])
            failed[lo] = chol is None
            out[lo] = fallback if chol is None else chol
    return out, failed


def fit_batch(model: BayesModel, theta_star: np.ndarray, y: np.ndarray) -> LaplaceBatch:
    """Laplace fits for outer samples theta_star (B, d) with data y (B, Ne*w).

    theta_hat = theta* - (J'S J + H'S E - hess log p(theta*))^-1 J'S E summed
    over replicate blocks (S the noise precision, J, H the negated model
    derivatives), then Sigma_hat^-1 = J(theta_hat)'S J(theta_hat) - hess log
    p(theta_hat).  Matrices failing the positive-definite check go through an
    escalating jitter ladder; rows that still fail fall back to the prior
    (mean theta*, prior covariance).
    """
    ne = model.replicates
    w = model.forward.out_dim
    prec = model.noise.precision

    jg = model.forward.jacobian(theta_star)          # (B, w, d) plain grad g
    hg = model.forward.hessian(theta_star)           # (B, w, d, d)
    g = model.forward.eval(theta_star)               # (B, w)
    if not (np.all(np.isfinite(jg)) and np.all(np.isfinite(hg)) and np.all(np.isfinite(g))):
        raise EvaluationError("non-finite forward or derivative evaluation in Laplace fit")

    b = theta_star.shape[0]
    esum = y.reshape(b, ne, w).sum(axis=1) - ne * g      # sum of residual blocks
    s = esum @ prec                                      # (B, w), Sigma_eps^-1 E summed

    pj = np.matmul(prec, jg)                             # (B, w, d)
    jtsj = np.matmul(np.swapaxes(jg, 1, 2), pj)          # J' S J, sign-free
    term_h = -np.einsum("bwij,bw->bij", hg, s)           # H' S E with H = -hess g
    prior_hess = np.asarray(model.prior.hess_log_pdf(theta_star))
    curv = ne * jtsj + term_h - prior_hess               # matrix of the Newton step
    rhs = -np.einsum("bwi,bw->bi", jg, s)                # J' S E with J = -grad g

    prior_chol_prec = np.linalg.cholesky(model.prior.precision)
    step_chol, failed = _chol_batch(curv, prior_chol_prec)
    step_mat = np.matmul(step_chol, np.swapaxes(step_chol, 1, 2))
    theta_hat = theta_star - np.linalg.solve(step_mat, rhs[..., None])[..., 0]
    bad = ~np.all(np.isfinite(theta_hat), axis=1)
    failed |= bad
    theta_hat[failed] = theta_star[failed]

    j2 = model.forward.jacobian(theta_hat)
    bad2 = ~np.all(np.isfinite(j2), axis=(1, 2))
    if np.any(bad2):
        # the Newton step wandered somewhere the derivatives break down
        j2 = np.where(bad2[:, None, None], 0.0, j2)
        failed |= bad2
    m2 = ne * np.matmul(np.swapaxes(j2, 1, 2), np.matmul(prec, j2))
    m2 = m2 - np.asarray(model.prior.hess_log_pdf(theta_hat))
    chol_prec, failed2 = _chol_batch(m2, prior_chol_prec)
    failed |= failed2
    if np.any(failed):
        theta_hat[failed] = theta_star[failed]
        chol_prec[failed] = prior_chol_prec
    return LaplaceBatch(theta_hat, chol_prec)

