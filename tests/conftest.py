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
from eig_mlmc.bayes import replicate_summary, summary_log_likelihood
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


def ill_conditioned_covariance():
    """A rotated 3x3 covariance with eigenvalues 1, 1e-5 and 1e-10."""
    q, _ = np.linalg.qr(np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 4.0], [5.0, 6.0, 0.0]]))
    cov = q @ np.diag([1.0, 1e-5, 1e-10]) @ q.T
    return 0.5 * (cov + cov.T)


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


def response_log_likelihood(model, g, y):
    """The likelihood kernel on raw data rows y (n, Ne*w) or one shared row
    (1, Ne*w): ``summary_log_likelihood`` on their replicate summary."""
    return summary_log_likelihood(model, g, replicate_summary(model, y))


def log_likelihood(model, theta, y):
    """log p(y | theta) at points theta (n, d) for one data vector y, shape
    (n,): the likelihood kernel with the data row shared by every point."""
    g = model.forward.eval(np.atleast_2d(theta))
    return response_log_likelihood(model, g[None], np.asarray(y)[None])[0]


def replicate_loop_log_likelihood(model, g, y, by_inverse=False):
    """Oracle of ``response_log_likelihood``: the residual of every replicate
    against every response, (n, m, Ne, w), summed over replicates.  It is
    whitened by a LAPACK triangular solve on the noise Cholesky factor, or,
    with ``by_inverse``, by the noise's cached inverse factor in the kernel's
    own 2-D product and row-wise reduction."""
    n, m, w = g.shape
    ne = model.replicates
    resid = y.reshape(-1, 1, ne, w) - g[:, :, None, :]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing quad form means density zero
        if by_inverse:
            u = resid.reshape(-1, w) @ model.noise.inv_chol.T
            quad = np.einsum("ij,ij->i", u, u).reshape(n, m, ne).sum(axis=-1)
        else:
            u = solve_triangular(model.noise.chol, resid.reshape(-1, w).T, lower=True)
            quad = np.sum(u * u, axis=0).reshape(n, m, ne).sum(axis=-1)
    return ne * model.noise.log_norm_const - 0.5 * quad


def simulate_data(model, theta, stream):
    """Data y at one point theta (d,): replicated g(theta) plus one
    ``standard_normal((replicates, w))`` block from ``stream``, coloured by
    the noise Cholesky factor."""
    z = stream.generator().standard_normal((model.replicates, model.forward.out_dim))
    return (model.forward.eval(theta)[None, :] + z @ model.noise.chol.T).reshape(-1)


def one_value(model, m, stream, use_is, antithetic):
    """One level value drawn directly from ``stream`` by the block sampler
    with n = 1: the level-zero variable, or the antithetic correction."""
    z, _ = _block_values(model, m, 1, stream.generator(), use_is, antithetic)
    return float(z[0])


def plain_difference(model, config, level, stream):
    """Oracle coupling: the plain fine-minus-coarse difference, where the
    coarse term reuses the first half of the fine inner draws.  Same
    expectation as the antithetic correction but without its variance decay."""
    if level < 1:
        raise ValueError("difference level must be >= 1")
    m = config.inner_count(level)
    theta, _, y, z_inner = _draw_outer(model, m, 1, stream.generator())
    logw = _inner_logweights(model, theta, y, z_inner, config.use_is, replicate_summary(model, y))
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
