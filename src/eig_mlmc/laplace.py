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
    ``log_norm - |z|^2 / 2``, which the sampler reads from z itself.  A row
    that ``fit_batch`` could not fit holds theta* and the prior's factor.
    """

    def __init__(self, theta_hat: np.ndarray, chol_prec: np.ndarray):
        self.theta_hat = theta_hat
        self.chol_prec = chol_prec
        d = theta_hat.shape[-1]
        logdiag = np.log(np.diagonal(chol_prec, axis1=1, axis2=2))
        self.log_norm = -0.5 * d * _LOG_2PI + np.sum(logdiag, axis=1)

    def draw(self, z: np.ndarray) -> np.ndarray:
        """Map standard normals (B, M, d) to samples of the fitted Gaussians:
        L' x = z solved by back substitution."""
        return self.theta_hat[:, None, :] + _substitute(self.chol_prec, z, upper=True)

    def log_pdf(self, thetas: np.ndarray) -> np.ndarray:
        """Log density of (B, M, d) points under the per-row fits.  The
        sampler does not call it: it reads log q at its draws from the
        normals."""
        v = thetas - self.theta_hat[:, None, :]
        u = np.matmul(v, self.chol_prec)
        return self.log_norm[:, None] - 0.5 * np.sum(u * u, axis=-1)


def _cholesky(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a (B, d, d) batch by columns over d, vectorised
    over rows.  It never raises: a pivot that is not positive and finite makes
    the row's factor nan from there on, down to the last pivot, which flags
    the row in ``failed``."""
    d = mats.shape[-1]
    chol = np.zeros_like(mats)
    with np.errstate(invalid="ignore"):  # inf - inf in a row with a non-finite entry
        for j in range(d):
            for i in range(j, d):
                acc = mats[:, i, j]
                for k in range(j):
                    acc = acc - chol[:, i, k] * chol[:, j, k]
                if i > j:
                    chol[:, i, j] = acc / chol[:, j, j]
                else:
                    chol[:, j, j] = np.sqrt(np.where((acc > 0.0) & (acc < np.inf), acc, np.nan))
    return chol, np.isnan(chol[:, -1, -1])


def _substitute(chol: np.ndarray, z: np.ndarray, upper: bool) -> np.ndarray:
    """Solve L x = z, or L' x = z when ``upper``, for L = chol (B, d, d) and
    z (B, ..., d) by substitution over d, each step vectorised over the
    leading axes."""
    lower = chol.reshape(chol.shape[:1] + (1,) * (z.ndim - 2) + chol.shape[1:])
    tri = np.swapaxes(lower, -1, -2) if upper else lower
    d = z.shape[-1]
    x = np.empty_like(z)
    for i in reversed(range(d)) if upper else range(d):
        acc = z[..., i]
        for j in range(i + 1, d) if upper else range(i):
            acc = acc - tri[..., i, j] * x[..., j]
        x[..., i] = acc / tri[..., i, i]
    return x


def fit_batch(model: BayesModel, theta_star: np.ndarray, y: np.ndarray) -> LaplaceBatch:
    """Laplace fits for outer samples theta_star (B, d) with data y (B, Ne*w).

    theta_hat = theta* - (J'S J + H'S E + P)^-1 J'S E summed over replicate
    blocks (S the noise precision, P the prior precision, J, H the negated
    model derivatives), then Sigma_hat^-1 = J(theta_hat)'S J(theta_hat) + P;
    ``_cholesky`` factors both matrices.  A row keeps the fallback N(theta*,
    Sigma_prior), whose importance weights still estimate p(Y) without bias,
    when g, J or H at theta* is not finite (counted in a ``RuntimeWarning``),
    when a pivot of either factorisation is not positive and finite (as a
    non-finite J(theta_hat) makes it), or when theta_hat is not finite.
    g, J and H at theta* come from one ``ForwardMap.value_and_derivatives``
    call, so a model with fused ``terms`` evaluates its forward map there once.
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
            f"{int(np.sum(unfit))} outer samples had non-finite derivatives or forward values "
            "at theta*; their proposal is the prior fallback N(theta*, Sigma_prior)",
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

    step_chol, failed = _cholesky(curv)
    theta_hat = theta_star - _substitute(step_chol, _substitute(step_chol, rhs, upper=False), upper=True)
    failed |= unfit | ~np.all(np.isfinite(theta_hat), axis=1)
    theta_hat[failed] = theta_star[failed]

    j2 = model.forward.jacobian(theta_hat)
    with np.errstate(invalid="ignore"):  # inf * 0 in a non-finite J(theta_hat), which a pivot flags
        m2 = ne * np.matmul(np.swapaxes(j2, 1, 2), np.matmul(prec, j2)) + model.prior.precision
    chol_prec, failed2 = _cholesky(m2)
    failed |= failed2
    if np.any(failed):
        theta_hat[failed] = theta_star[failed]
        chol_prec[failed] = np.linalg.cholesky(model.prior.precision)
    return LaplaceBatch(theta_hat, chol_prec)
