"""Built-in data models: a linear-Gaussian case with a closed-form expected
information gain, and a one-compartment pharmacokinetic (PK) model with
lognormal priors and three blood-sampling schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    s = spd_cholesky("Sigma_eps", spec.Sigma_eps)[1] @ spec.A
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
        from scipy.special import betaincinv  # the package's only scipy call: load it here
        return SCHEDULE_HORIZON * betaincinv(*BETA_SHAPE, j / (J + 1.0))
    raise ValueError(f"unknown sampling scheme: {scheme!r}")


def _default_schedule() -> np.ndarray:
    return sampling_schedule("beta")


@dataclass(frozen=True)
class PkSpec:
    """One-compartment PK model with first-order absorption and elimination.

    Parameters are (k_a, k_e, V) with independent lognormal priors; inference
    runs on the log parameters so the prior is exactly Gaussian.  ``schedule``
    holds the measurement times in hours; ``dose``, ``noise_var`` and the
    prior variances ``log_vars`` must be finite and positive, with finite
    inverses, and the prior means ``log_means`` finite.
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
        if not all(np.isfinite(v) and v > 0.0 for v in self.log_vars):
            raise ValueError("prior variances must be finite and positive")
        if not all(np.isfinite(self.log_means)):
            raise ValueError("prior means must be finite")
        if not all(np.isfinite(v) and v > 0.0 for v in (self.dose, self.noise_var)):
            raise ValueError("dose and noise_var must be finite and positive")
        spd_cholesky("log_vars", np.diag(self.log_vars))
        spd_cholesky("noise_var", self.noise_var * np.eye(self.schedule.size))


# Rows per _pk_chunk pass, which makes about 25 temporaries of shape (rows, J).
_PK_CHUNK = 2048


def _pk_outputs(rows: int, J: int, order: int) -> list:
    return [np.empty((rows, J) + (3,) * k) if k <= order else None for k in range(3)]


def _pk_terms(spec: PkSpec, theta: np.ndarray, order: int):
    """g at physical theta and, for order >= 1, derivatives with respect to
    the LOG parameters x = log(theta).

    g = (D/V) * k_a/(k_a - k_e) * (exp(-k_e t) - exp(-k_a t)), switching to
    the confluent limit (D/V) * k_a * t * exp(-k_a t) where k_a and k_e
    coincide to within 1e-8 relative.

    Returns C-contiguous (g, jac, hess), jac (..., J, 3) and hess
    (..., J, 3, 3); entries beyond ``order`` are None.  :func:`_pk_chunk`
    writes each chunk of ``_PK_CHUNK`` rows into the outputs, row by row, so
    the result is the same bit for bit whatever ``order`` is asked for and
    however the rows are split.
    """
    x = theta.reshape(-1, theta.shape[-1])  # a single point (d,) is a batch of one
    out = _pk_outputs(len(x), spec.schedule.size, order)
    for lo in range(0, len(x), _PK_CHUNK):
        _pk_chunk(spec, x[lo:lo + _PK_CHUNK], order, [a if a is None else a[lo:lo + _PK_CHUNK] for a in out])
    return tuple(a if a is None else a.reshape(theta.shape[:-1] + a.shape[1:]) for a in out)


def _pk_chunk(spec: PkSpec, theta: np.ndarray, order: int, out: list):
    """:func:`_pk_terms` on rows (n, 3), written into ``out`` from :func:`_pk_outputs`.

    D_a = k_a d/dk_a and D_e = k_e d/dk_e act on the curve's own terms: with
    r = k_a/(k_a - k_e), s = r - 1, P = (D/V) r e^(-k_a t), Q = (D/V) r e^(-k_e t)
    and g = Q - P, j1 = k_a t P - s g and j2 = s g - k_e t Q; with G = s r g,
    h11 = G - s j1 + k_a t P (1 - s - k_a t), h12 = s k_a t P - G - s j2 and
    h22 = G + s j2 - k_e t Q (1 + s - k_e t).  V scales g by 1/V, so J's
    third column is -g and H's x3 row is (-j1, -j2, g).  Seam rows take the
    confluent limits of g and its plain derivatives, chained into j and h.
    """
    t = spec.schedule
    g, jac, hess = out
    ka, ke, v = theta[:, 0:1], theta[:, 1:2], theta[:, 2:3]
    c = spec.dose / v
    ua, ue = np.exp(-ka * t), np.exp(-ke * t)
    delta = ka - ke
    seam = np.abs(delta) < _SEAM_TOL * ka
    on_seam = np.any(seam)
    dsafe = np.where(seam, 1.0, delta)
    r = ka / dsafe
    cr = c * r

    def pick(dst, on):
        # the confluent limit ``on()`` is computed only for a chunk that meets
        # the seam; elsewhere copying it where ``seam`` would leave dst bit for bit
        if on_seam:
            np.copyto(dst, on(), where=seam)

    np.multiply(cr, ue - ua, out=g)
    pick(g, lambda: c * ka * t * ua)
    if order == 0:
        return g, None, None

    s = ke / dsafe
    kat, ket = ka * t, ke * t
    kap, keq = kat * (cr * ua), ket * (cr * ue)
    sg = s * g
    j1, j2 = kap - sg, sg - keq
    pick(j1, lambda: ka * (c * ua * (t - ka * t * t / 2.0)))
    pick(j2, lambda: ke * (-c * ua * ka * t * t / 2.0))
    jac[..., 0], jac[..., 1] = j1, j2
    np.negative(g, out=jac[..., 2])
    if order == 1:
        return g, jac, None

    big_g = (s * r) * g
    h11 = (big_g - s * j1) + kap * ((1.0 - s) - kat)
    h12 = (s * kap - big_g) - s * j2
    h22 = (big_g + s * j2) - keq * ((1.0 + s) - ket)
    t2, t3 = t * t, t * t * t
    pick(h11, lambda: j1 + ka * ka * (c * ua * (-t2 + ka * t3 / 3.0)))
    pick(h12, lambda: ka * ke * (c * ua * (-t2 / 2.0 + ka * t3 / 6.0)))
    pick(h22, lambda: j2 + ke * ke * (c * ua * ka * t3 / 3.0))
    hess[..., 0, 0], hess[..., 0, 1], hess[..., 1, 0], hess[..., 1, 1] = h11, h12, h12, h22
    hess[..., 2, :] = hess[..., :, 2] = -jac  # (-j1, -j2, g)
    return g, jac, hess


def make_pk_model(spec: PkSpec) -> BayesModel:
    """Bayesian model over the log parameters x = (log k_a, log k_e, log V).

    The forward map exponentiates before evaluating the concentration curve,
    so its analytic Jacobian and Hessian chain through the exponential and
    the Gaussian prior stays exact.
    """
    J = spec.schedule.size

    def terms(x: np.ndarray, order: int = 2):
        return _pk_terms(spec, np.exp(x), order)

    return BayesModel(
        prior=GaussianDensity(np.array(spec.log_means), np.diag(spec.log_vars)),
        forward=ForwardMap(fn=lambda x: terms(x, 0)[0], out_dim=J, jac=lambda x: terms(x, 1)[1],
                           hess=lambda x: terms(x, 2)[2], terms=terms),
        noise=GaussianDensity(np.zeros(J), spec.noise_var * np.eye(J)),
        replicates=1,
    )
