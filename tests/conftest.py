import numpy as np
import pytest
from scipy.linalg import solve_triangular

from eig_mlmc import (
    BayesModel,
    ForwardMap,
    GaussianDensity,
    LinearGaussianSpec,
    make_linear_model,
)
from eig_mlmc.estimators import _block_values, _draw_outer, _inner_logweights, _logmeanexp
from eig_mlmc.laplace import fit_batch

# Closed-form expected information gains for the reference linear case.
U_LINEAR_NE1 = 4.4574
U_LINEAR_NE10 = 6.6642


@pytest.fixture(scope="session")
def linear_spec():
    return LinearGaussianSpec()


@pytest.fixture(scope="session")
def linear_model(linear_spec):
    return make_linear_model(linear_spec)


@pytest.fixture(scope="session")
def oned_spec():
    return LinearGaussianSpec(
        A=[[1.0]], mu_theta=[0.0], Sigma_theta=[[1.0]], Sigma_eps=[[1.0]]
    )


@pytest.fixture(scope="session")
def oned_model(oned_spec):
    return make_linear_model(oned_spec)


def constant_model(value=(1.0, -2.0), noise_var=0.5, dim=2):
    """Model whose forward map ignores theta entirely."""
    w = len(value)
    c = np.asarray(value, dtype=float)

    def fwd(theta):
        return np.broadcast_to(c, theta.shape[:-1] + (w,)).copy()

    def jac(theta):
        return np.zeros(theta.shape[:-1] + (w, dim))

    def hess(theta):
        return np.zeros(theta.shape[:-1] + (w, dim, dim))

    return BayesModel(
        prior=GaussianDensity(np.zeros(dim), np.eye(dim)),
        forward=ForwardMap(fn=fwd, out_dim=w, jac=jac, hess=hess),
        noise=GaussianDensity(np.zeros(w), noise_var * np.eye(w)),
    )


@pytest.fixture(scope="session")
def const_model():
    return constant_model()


def point_mass_model():
    """Linear model with an effectively degenerate prior."""
    return make_linear_model(
        LinearGaussianSpec(
            A=[[1.0, 0.0], [0.0, 1.0]],
            mu_theta=[0.5, -0.25],
            Sigma_theta=1e-30 * np.eye(2),
            Sigma_eps=0.5 * np.eye(2),
        )
    )


# ---------------------------------------------------------------------------
# Single-sample views of the batched code (a batch of one)
# ---------------------------------------------------------------------------


def one_value(model, m, stream, use_is, antithetic):
    """One level value drawn directly from ``stream`` by the block sampler
    with n = 1: the level-zero variable, or the antithetic correction."""
    return float(_block_values(model, m, 1, stream.generator(), use_is, antithetic)[0])


def plain_difference(model, config, level, stream):
    """Oracle coupling: the plain fine-minus-coarse difference, where the
    coarse term reuses the first half of the fine inner draws.  Same
    expectation as the antithetic correction but without its variance decay."""
    if level < 1:
        raise ValueError("difference level must be >= 1")
    m = config.inner_count(level)
    theta, _, y, z_inner = _draw_outer(model, m, 1, stream.generator())
    logw = _inner_logweights(model, theta, y, z_inner, config.use_is)
    return float(_logmeanexp(logw[:, : m // 2])[0] - _logmeanexp(logw)[0])


def laplace_density(model, theta_star, y):
    """N(theta_hat, Sigma_hat) of one outer sample's Laplace fit: a batch of
    one through ``fit_batch``, with the covariance rebuilt from the precision
    factor by a triangular inverse and symmetrised."""
    batch = fit_batch(model, np.asarray(theta_star, float)[None, :], np.asarray(y, float)[None, :])
    chol = batch.chol_prec[0]
    inv_chol = solve_triangular(chol, np.eye(chol.shape[0]), lower=True)
    cov = inv_chol.T @ inv_chol
    return GaussianDensity(batch.theta_hat[0], 0.5 * (cov + cov.T))
