"""Gaussian importance distributions from a Laplace fit of the posterior.

For each outer sample (theta*, Y) the posterior p(theta | Y) is approximated
by N(theta_hat, Sigma_hat): one Newton-type step from theta* using the
curvature of the negative log posterior.  The step uses the negated model
derivatives J = -grad g and H = -hess g; the sign cancels wherever J enters
quadratically and is kept explicit in the linear terms.

The fit is refreshed per outer sample and never shared across outer samples.
``fit_batch`` fits a whole block of outer samples at once, in one pass; a
single sample is a batch of one.
"""

from __future__ import annotations

import warnings

import numpy as np

from .bayes import BayesModel

__all__ = ["LaplaceBatch", "fit_batch"]

_LOG_2PI = float(np.log(2.0 * np.pi))


class LaplaceBatch:
    """Laplace fits for a batch of outer samples, held in precision form.

    ``chol_prec[b]`` is the lower Cholesky factor L of the inverse
    covariance, so Sigma_hat is never formed: ``draw`` maps normals z to
    theta_hat + L'^-1 z by back substitution, and the log density there is
    ``log_norm - |z|^2 / 2``, which the sampler reads from z itself.
    """

    def __init__(self, theta_hat: np.ndarray, chol_prec: np.ndarray):
        self.theta_hat = theta_hat
        self.chol_prec = chol_prec
        d = theta_hat.shape[-1]
        logdiag = np.log(np.diagonal(chol_prec, axis1=1, axis2=2))
        self.log_norm = -0.5 * d * _LOG_2PI + np.sum(logdiag, axis=1)

    def draw(self, z: np.ndarray) -> np.ndarray:
        """Map standard normals (B, M, d) to samples of the fitted Gaussians:
        L' x = z solved by back substitution over d, each step vectorised
        over the rows and inner samples."""
        chol, d = self.chol_prec, z.shape[-1]
        x = np.empty_like(z)
        for i in reversed(range(d)):
            acc = z[..., i]
            for j in range(i + 1, d):
                acc = acc - chol[:, j, i, None] * x[..., j]
            x[..., i] = acc / chol[:, i, i, None]
        return self.theta_hat[:, None, :] + x

    def log_pdf(self, thetas: np.ndarray) -> np.ndarray:
        """Log density of (B, M, d) points under the per-row fits.  The
        sampler does not call it: it reads log q at its draws from the
        normals."""
        v = thetas - self.theta_hat[:, None, :]
        u = np.matmul(v, self.chol_prec)
        return self.log_norm[:, None] - 0.5 * np.sum(u * u, axis=-1)


def _chol_batch(mats: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Cholesky.  Matrices that are not positive definite are found by
    bisecting the batch; each gets the fallback factor, with no retry.
    Returns (chols, failed_mask)."""
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
            failed[lo] = True
            out[lo] = fallback
    return out, failed


def fit_batch(model: BayesModel, theta_star: np.ndarray, y: np.ndarray) -> LaplaceBatch:
    """Laplace fits for outer samples theta_star (B, d) with data y (B, Ne*w).

    theta_hat = theta* - (J'S J + H'S E + P)^-1 J'S E summed over replicate
    blocks (S the noise precision, P the prior precision, J, H the negated
    model derivatives), then Sigma_hat^-1 = J(theta_hat)'S J(theta_hat) + P.
    Every row that cannot be fitted gets the one fallback N(theta*,
    Sigma_prior), a proposal whose importance weights still estimate p(Y)
    without bias: a matrix that fails its Cholesky factorisation, a
    non-finite theta_hat or J(theta_hat), and rows whose forward value or
    derivatives at theta* are not finite, which reach it through zeroed
    derivatives and are counted in a ``RuntimeWarning``.  The value and
    derivatives at theta* come from one ``ForwardMap.value_and_derivatives``
    call, so a model with fused ``terms`` evaluates its forward map there
    once.
    """
    ne = model.replicates
    w = model.forward.out_dim
    prec = model.noise.precision

    g, jg, hg = model.forward.value_and_derivatives(theta_star)  # plain g and its derivatives
    unfit = ~(
        np.all(np.isfinite(jg), axis=(1, 2))
        & np.all(np.isfinite(hg), axis=(1, 2, 3))
        & np.all(np.isfinite(g), axis=1)
    )
    if np.any(unfit):
        warnings.warn(
            f"{int(np.sum(unfit))} outer samples had non-finite derivatives; "
            "their proposal is the prior fallback N(theta*, Sigma_prior)",
            RuntimeWarning,
        )
        # np.where keeps the operands' memory layout, so the other rows round as before
        jg = np.where(unfit[:, None, None], 0.0, jg)
        hg = np.where(unfit[:, None, None, None], 0.0, hg)

    b = theta_star.shape[0]
    with np.errstate(invalid="ignore"):                  # inf - inf on an unfit row
        esum = y.reshape(b, ne, w).sum(axis=1) - ne * g  # sum of residual blocks
    s = esum @ prec                                      # (B, w), Sigma_eps^-1 E summed
    s[unfit] = 0.0                                       # so an unfit row's step is zero

    pj = np.matmul(prec, jg)                             # (B, w, d)
    jtsj = np.matmul(np.swapaxes(jg, 1, 2), pj)          # J' S J, sign-free
    term_h = -np.einsum("bwij,bw->bij", hg, s)           # H' S E with H = -hess g
    curv = ne * jtsj + term_h + model.prior.precision    # matrix of the Newton step
    rhs = -np.einsum("bwi,bw->bi", jg, s)                # J' S E with J = -grad g

    prior_chol_prec = np.linalg.cholesky(model.prior.precision)
    step_chol, failed = _chol_batch(curv, prior_chol_prec)
    step_mat = np.matmul(step_chol, np.swapaxes(step_chol, 1, 2))
    theta_hat = theta_star - np.linalg.solve(step_mat, rhs[..., None])[..., 0]
    failed |= unfit | ~np.all(np.isfinite(theta_hat), axis=1)
    theta_hat[failed] = theta_star[failed]

    j2 = model.forward.jacobian(theta_hat)
    bad2 = ~np.all(np.isfinite(j2), axis=(1, 2))
    if np.any(bad2):
        # the Newton step wandered somewhere the derivatives break down
        j2 = np.where(bad2[:, None, None], 0.0, j2)
        failed |= bad2
    m2 = ne * np.matmul(np.swapaxes(j2, 1, 2), np.matmul(prec, j2)) + model.prior.precision
    chol_prec, failed2 = _chol_batch(m2, prior_chol_prec)
    failed |= failed2
    if np.any(failed):
        theta_hat[failed] = theta_star[failed]
        chol_prec[failed] = prior_chol_prec
    return LaplaceBatch(theta_hat, chol_prec)
