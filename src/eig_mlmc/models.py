"""Built-in data models: a linear-Gaussian case with a closed-form expected
information gain, and a one-compartment pharmacokinetic (PK) model with
lognormal priors and three blood-sampling schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import betaincinv

from .bayes import BayesModel, ForwardMap
from .gaussian import GaussianDensity, spd_cholesky

__all__ = [
    "LinearGaussianSpec",
    "PkSpec",
    "linear_gaussian_analytic_eig",
    "make_linear_model",
    "sampling_schedule",
    "make_pk_model",
]


def _default_a() -> np.ndarray:
    return np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])


def _default_mu() -> np.ndarray:
    return np.array([1.0, 0.0])


def _default_sigma_theta() -> np.ndarray:
    return np.array([[2.0, -1.0], [-1.0, 2.0]])


def _default_sigma_eps() -> np.ndarray:
    return np.array([[0.1, -0.05, 0.0], [-0.05, 0.1, -0.05], [0.0, -0.05, 0.1]])


@dataclass(frozen=True)
class LinearGaussianSpec:
    """Y = A theta + eps with Gaussian prior N(mu_theta, Sigma_theta) and
    noise N(0, Sigma_eps), replicated n_e times.

    Defaults are the 2-parameter, 3-observation reference case used across
    the test suite and demos.  Both covariances must be symmetric positive
    definite.
    """

    A: np.ndarray = field(default_factory=_default_a)
    mu_theta: np.ndarray = field(default_factory=_default_mu)
    Sigma_theta: np.ndarray = field(default_factory=_default_sigma_theta)
    Sigma_eps: np.ndarray = field(default_factory=_default_sigma_eps)
    n_e: int = 1

    def __post_init__(self):
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=float)))
        object.__setattr__(self, "mu_theta", np.asarray(self.mu_theta, dtype=float))
        object.__setattr__(self, "Sigma_theta", np.atleast_2d(np.asarray(self.Sigma_theta, dtype=float)))
        object.__setattr__(self, "Sigma_eps", np.atleast_2d(np.asarray(self.Sigma_eps, dtype=float)))
        w, d = self.A.shape
        if self.mu_theta.shape != (d,):
            raise ValueError("mu_theta does not match the columns of A")
        if self.Sigma_theta.shape != (d, d) or self.Sigma_eps.shape != (w, w):
            raise ValueError("covariance shapes do not match A")
        if self.n_e < 1:
            raise ValueError("n_e must be >= 1")
        for name in ("Sigma_theta", "Sigma_eps"):
            spd_cholesky(name, getattr(self, name))


def linear_gaussian_analytic_eig(spec: LinearGaussianSpec) -> float:
    """Closed-form expected information gain for the linear-Gaussian model:
    0.5 * log det(n_e * Sigma_eps^-1 A Sigma_theta A^T + I).

    Evaluated through the symmetrised similarity transform
    n_e * L^-1 A Sigma_theta A^T L^-T + I (L the noise Cholesky factor) so the
    log determinant comes from a Cholesky factorisation of an SPD matrix.
    """
    s = solve_triangular(np.linalg.cholesky(spec.Sigma_eps), spec.A, lower=True)
    m = spec.n_e * s @ spec.Sigma_theta @ s.T + np.eye(spec.A.shape[0])
    m = 0.5 * (m + m.T)
    return float(np.sum(np.log(np.diag(np.linalg.cholesky(m)))))


def make_linear_model(spec: LinearGaussianSpec) -> BayesModel:
    a = spec.A
    w, d = a.shape

    def fwd(theta: np.ndarray) -> np.ndarray:
        return theta @ a.T

    def jac(theta: np.ndarray) -> np.ndarray:
        return np.broadcast_to(a, theta.shape[:-1] + (w, d))

    def hess(theta: np.ndarray) -> np.ndarray:
        return np.zeros(theta.shape[:-1] + (w, d, d))

    return BayesModel(
        prior=GaussianDensity(spec.mu_theta, spec.Sigma_theta),
        forward=ForwardMap(fn=fwd, out_dim=w, jac=jac, hess=hess),
        noise=GaussianDensity(np.zeros(w), spec.Sigma_eps),
        replicates=spec.n_e,
    )


# ---------------------------------------------------------------------------
# Pharmacokinetic model
# ---------------------------------------------------------------------------

BETA_SHAPE = (0.7, 1.2)
SCHEDULE_HORIZON = 24.0
# Relative threshold below which k_a and k_e are treated as equal and the
# confluent-limit formulas take over.
_SEAM_TOL = 1e-8


def sampling_schedule(scheme: str, J: int = 15) -> np.ndarray:
    """Blood-sampling times (hours) for one of three schemes.

    even:      t_j = 0.3 + 1.6 * (j - 1)
    geometric: t_j = 0.94 * 1.25**(j - 1)
    beta:      quantiles j/(J+1) of Beta(0.7, 1.2), scaled to [0, 24]: the
               inverse of the regularised incomplete beta function.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    j = np.arange(1, J + 1, dtype=float)
    if scheme == "even":
        return 0.3 + 1.6 * (j - 1.0)
    if scheme == "geometric":
        return 0.94 * 1.25 ** (j - 1.0)
    if scheme == "beta":
        return SCHEDULE_HORIZON * betaincinv(*BETA_SHAPE, j / (J + 1.0))
    raise ValueError(f"unknown sampling scheme: {scheme!r}")


def _default_schedule() -> np.ndarray:
    return sampling_schedule("beta")


@dataclass(frozen=True)
class PkSpec:
    """One-compartment PK model with first-order absorption and elimination.

    Parameters are (k_a, k_e, V) with independent lognormal priors; inference
    runs on the log parameters so the prior is exactly Gaussian.  ``schedule``
    holds the measurement times in hours; ``dose`` and ``noise_var`` must be
    finite and positive, and ``1 / noise_var`` finite too.
    """

    dose: float = 400.0
    noise_var: float = 0.01
    log_means: tuple[float, float, float] = (0.0, float(np.log(0.1)), float(np.log(20.0)))
    log_vars: tuple[float, float, float] = (0.05, 0.05, 0.05)
    schedule: np.ndarray = field(default_factory=_default_schedule)

    def __post_init__(self):
        object.__setattr__(self, "schedule", np.asarray(self.schedule, dtype=float))
        if self.schedule.ndim != 1 or not self.schedule.size or np.any(self.schedule < 0.0):
            raise ValueError("schedule must be a non-empty vector of non-negative times")
        if np.any(np.diff(self.schedule) <= 0.0):
            raise ValueError("schedule times must be strictly increasing")
        if any(v <= 0.0 for v in self.log_vars):
            raise ValueError("prior variances must be positive")
        if not all(np.isfinite(v) and v > 0.0 for v in (self.dose, self.noise_var)):
            raise ValueError("dose and noise_var must be finite and positive")
        spd_cholesky("noise_var", self.noise_var * np.eye(self.schedule.size))


# Rows per _pk_terms pass: the ~60 temporaries of shape (rows, J) then stay in cache.
_PK_CHUNK = 2048


def _pk_terms(spec: PkSpec, theta: np.ndarray, order: int):
    """g at physical theta and, for order >= 1, derivatives with respect to
    the LOG parameters x = log(theta).

    g = (D/V) * k_a/(k_a - k_e) * (exp(-k_e t) - exp(-k_a t)), switching to
    the confluent limit (D/V) * k_a * t * exp(-k_a t) where k_a and k_e
    coincide to within 1e-8 relative.

    Returns (g, jac, hess) where jac is (..., J, 3) and hess (..., J, 3, 3);
    entries beyond ``order`` are None.  The k_a = k_e seam uses series limits
    of the same expressions.  Every entry is computed row by row, so the
    result is the same bit for bit whatever ``order`` is asked for and
    however the rows are split: batches run in chunks of ``_PK_CHUNK`` rows.
    """
    starts = range(0, max(len(theta), 1), _PK_CHUNK)  # an empty batch is one empty chunk
    parts = [_pk_chunk(spec, theta[lo:lo + _PK_CHUNK], order) for lo in starts]
    return tuple(None if p[0] is None else np.concatenate(p) for p in zip(*parts))


def _pk_chunk(spec: PkSpec, theta: np.ndarray, order: int):
    """:func:`_pk_terms` on one chunk of rows."""
    t = spec.schedule
    ka = theta[..., 0:1]
    ke = theta[..., 1:2]
    v = theta[..., 2:3]
    c = spec.dose / v
    ua = np.exp(-ka * t)
    ue = np.exp(-ke * t)

    delta = ka - ke
    seam = np.abs(delta) < _SEAM_TOL * ka
    dsafe = np.where(seam, 1.0, delta)
    r = ka / dsafe
    diff = ue - ua

    def pick(on, off):
        # the confluent limit ``on()`` is computed only for a chunk that meets
        # the seam; elsewhere np.where(seam, ., off) would return off bit for bit
        return np.where(seam, on(), off) if np.any(seam) else off

    g = pick(lambda: c * ka * t * ua, c * r * diff)
    if order == 0:
        return g, None, None

    inv2 = dsafe ** -2
    ga = pick(lambda: c * ua * (t - ka * t * t / 2.0), c * (-(ke * inv2) * diff + r * t * ua))
    ge = pick(lambda: -c * ua * ka * t * t / 2.0, c * ((ka * inv2) * diff - r * t * ue))
    j1 = ka * ga
    j2 = ke * ge
    jac = np.stack([j1, j2, -g], axis=-1)
    if order == 1:
        return g, jac, None

    inv3 = inv2 / dsafe
    t2 = t * t
    t3 = t2 * t
    gaa = pick(lambda: c * ua * (-t2 + ka * t3 / 3.0),
               c * (2.0 * ke * inv3 * diff - 2.0 * ke * inv2 * t * ua - r * t2 * ua))
    gae = pick(lambda: c * ua * (-t2 / 2.0 + ka * t3 / 6.0),
               c * (-(inv2 + 2.0 * ke * inv3) * diff + (ke * t * ue + ka * t * ua) * inv2))
    gee = pick(lambda: c * ua * ka * t3 / 3.0,
               c * (2.0 * ka * inv3 * diff - 2.0 * ka * inv2 * t * ue + r * t2 * ue))
    # Chain rule into log-parameter space x = log(theta):
    # d2g/dx1^2 = k_a*ga + k_a^2*gaa, cross terms with x3 reduce to -dg/dx_i.
    h11 = j1 + ka * ka * gaa
    h12 = ka * ke * gae
    h22 = j2 + ke * ke * gee
    hess = np.empty(g.shape + (3, 3))
    hess[..., 0, 0] = h11
    hess[..., 0, 1] = hess[..., 1, 0] = h12
    hess[..., 0, 2] = hess[..., 2, 0] = -j1
    hess[..., 1, 1] = h22
    hess[..., 1, 2] = hess[..., 2, 1] = -j2
    hess[..., 2, 2] = g
    return g, jac, hess


def make_pk_model(spec: PkSpec) -> BayesModel:
    """Bayesian model over the log parameters x = (log k_a, log k_e, log V).

    The forward map exponentiates before evaluating the concentration curve,
    so its analytic Jacobian and Hessian chain through the exponential and
    the Gaussian prior stays exact.
    """
    J = spec.schedule.size

    def fwd(x: np.ndarray) -> np.ndarray:
        return _pk_terms(spec, np.exp(x), order=0)[0]

    def jac(x: np.ndarray) -> np.ndarray:
        return _pk_terms(spec, np.exp(x), order=1)[1]

    def hess(x: np.ndarray) -> np.ndarray:
        return _pk_terms(spec, np.exp(x), order=2)[2]

    def terms(x: np.ndarray):
        return _pk_terms(spec, np.exp(x), order=2)

    return BayesModel(
        prior=GaussianDensity(np.array(spec.log_means), np.diag(spec.log_vars)),
        forward=ForwardMap(fn=fwd, out_dim=J, jac=jac, hess=hess, terms=terms),
        noise=GaussianDensity(np.zeros(J), spec.noise_var * np.eye(J)),
        replicates=1,
    )
