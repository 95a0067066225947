import math

import numpy as np
import pytest

from eig_mlmc import (
    EvaluationError,
    BayesModel,
    ForwardMap,
    GaussianDensity,
    LinearGaussianSpec,
    RandomStream,
    log_likelihood,
    make_linear_model,
    make_pk_model,
    sample_data,
)
from eig_mlmc import laplace
from eig_mlmc.estimators import _inner_logweights
from eig_mlmc.gaussian import safeguarded_cholesky
from eig_mlmc.laplace import _chol_batch, fit_batch
from eig_mlmc.models import PkSpec

from conftest import laplace_density


def exact_linear_posterior(spec, y):
    se_inv = np.linalg.inv(spec.Sigma_eps)
    st_inv = np.linalg.inv(spec.Sigma_theta)
    blocks = y.reshape(spec.n_e, -1)
    prec = spec.n_e * spec.A.T @ se_inv @ spec.A + st_inv
    rhs = spec.A.T @ se_inv @ blocks.sum(axis=0) + st_inv @ spec.mu_theta
    cov = np.linalg.inv(prec)
    return cov @ rhs, cov


def test_linear_fit_equals_exact_posterior(linear_spec, linear_model):
    y = sample_data(linear_model, linear_spec.mu_theta, RandomStream(4))
    fit = laplace_density(linear_model, linear_spec.mu_theta, y)
    mean, cov = exact_linear_posterior(linear_spec, y)
    assert np.max(np.abs(fit.mean - mean)) <= 1e-10
    assert np.max(np.abs(fit.cov - cov)) <= 1e-10


def test_linear_fit_with_replicates():
    spec = LinearGaussianSpec(n_e=4)
    model = make_linear_model(spec)
    y = sample_data(model, spec.mu_theta, RandomStream(14))
    fit = laplace_density(model, spec.mu_theta, y)
    mean, cov = exact_linear_posterior(spec, y)
    assert np.max(np.abs(fit.mean - mean)) <= 1e-10
    assert np.max(np.abs(fit.cov - cov)) <= 1e-10


def test_constant_map_returns_prior():
    spec = LinearGaussianSpec(A=np.zeros((3, 2)))
    model = make_linear_model(spec)
    y = np.array([0.1, -0.2, 0.3])
    fit = laplace_density(model, spec.mu_theta, y)
    assert np.allclose(fit.mean, spec.mu_theta, atol=1e-12)
    assert np.allclose(fit.cov, spec.Sigma_theta, rtol=1e-10)


def test_log_is_weight_against_prior_proposal(linear_spec, linear_model):
    # With q equal to the prior the weight reduces to the log likelihood:
    # the prior-proposal inner weight at the point the normals map to.
    theta = np.array([0.7, -0.3])
    y = np.array([1.0, 2.0, 2.5])
    prior = linear_model.prior
    z = np.linalg.solve(prior.chol, theta - prior.mean)
    w = _inner_logweights(linear_model, theta[None], y[None], z[None, None], use_is=False)[0, 0]
    assert w == pytest.approx(log_likelihood(linear_model, theta, y), rel=1e-13)


def test_log_is_weight_composes_three_densities(linear_spec, linear_model):
    y = sample_data(linear_model, linear_spec.mu_theta, RandomStream(6))
    fit = laplace_density(linear_model, linear_spec.mu_theta, y)
    theta = fit.mean

    def gauss_logpdf(x, mean, cov):
        v = np.atleast_1d(x - mean)
        quad = v @ np.linalg.solve(cov, v)
        _, logdet = np.linalg.slogdet(cov)
        return -0.5 * (v.size * math.log(2 * math.pi) + logdet + quad)

    oracle = (
        gauss_logpdf(y, linear_spec.A @ theta, linear_spec.Sigma_eps)
        + gauss_logpdf(theta, linear_spec.mu_theta, linear_spec.Sigma_theta)
        - gauss_logpdf(theta, fit.mean, fit.cov)
    )
    # zero normals draw the fit's own mean
    w = _inner_logweights(
        linear_model, linear_spec.mu_theta[None], y[None], np.zeros((1, 1, 2)), use_is=True,
    )[0, 0]
    assert w == pytest.approx(oracle, rel=1e-10)


def test_weight_expectation_recovers_evidence(oned_spec, oned_model):
    theta_star = np.array([0.6])
    y = sample_data(oned_model, theta_star, RandomStream(8))
    fit = laplace_density(oned_model, theta_star, y)
    rng = RandomStream(9).generator()
    thetas = fit.sample(rng, size=100_000)
    logw = (
        log_likelihood(oned_model, thetas, y)
        + oned_model.prior.log_pdf(thetas)
        - fit.log_pdf(thetas)
    )
    w = np.exp(logw)
    evidence = math.exp(
        -0.5 * math.log(2 * math.pi * 2.0) - 0.25 * (y[0] - 0.0) ** 2
    )  # N(y; A mu, A St A' + Se) with everything 1
    se = np.std(w, ddof=1) / math.sqrt(w.size)
    assert abs(np.mean(w) - evidence) <= 3 * se


def test_pk_fit_lands_in_posterior_bulk():
    spec = PkSpec()
    model = make_pk_model(spec)
    theta_star = model.prior.mean.copy()
    y = sample_data(model, theta_star, RandomStream(11))
    fit = laplace_density(model, theta_star, y)
    assert np.all(np.linalg.eigvalsh(fit.cov) > 0.0)

    def log_post(x):
        return log_likelihood(model, x, y) + model.prior.log_pdf(x)

    assert log_post(fit.mean) >= log_post(theta_star) - 10.0

    # Dense lattice over +-4 prior sd in each log parameter: the fitted mean
    # should not be beaten by any grid point by more than a hair.
    sd = math.sqrt(0.05)
    axes = [np.linspace(m - 4 * sd, m + 4 * sd, 25) for m in theta_star]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    vals = log_likelihood(model, grid, y) + model.prior.log_pdf(grid)
    assert log_post(fit.mean) >= np.max(vals) - 0.5
    # and the fit's mean is close to the lattice argmax
    assert np.max(np.abs(grid[np.argmax(vals)] - fit.mean)) <= 2 * (8 * sd / 24)


def test_chol_batch_fallback_rows():
    fallback = np.linalg.cholesky(4.0 * np.eye(2))
    mats = np.stack([
        np.eye(2),
        np.diag([1.0, -5.0]),      # unfixable, falls back
        np.diag([2.0, 1e-14]),     # fixable by a small jitter rung
    ])
    chols, failed = _chol_batch(mats, fallback)
    assert failed.tolist() == [False, True, False]
    assert np.allclose(chols[0], np.eye(2))
    assert np.allclose(chols[1], fallback)
    rebuilt = chols[2] @ chols[2].T
    assert abs(rebuilt[0, 0] - 2.0) <= 1e-3


def test_chol_batch_retries_only_failing_rows(monkeypatch):
    a = RandomStream(33).generator().standard_normal((16384, 3, 3))
    mats = np.insert(a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(3), 9000, -np.eye(3), axis=0)
    fallback = np.linalg.cholesky(4.0 * np.eye(3))
    retried = []

    def counting(mat):
        retried.append(mat.copy())
        return safeguarded_cholesky(mat)

    monkeypatch.setattr(laplace, "safeguarded_cholesky", counting)
    chols, failed = _chol_batch(mats, fallback)
    assert np.flatnonzero(failed).tolist() == [9000]
    assert len(retried) == 1 and np.array_equal(retried[0], -np.eye(3))
    assert np.array_equal(chols[9000], fallback)
    others = np.delete(np.arange(len(mats)), 9000)
    assert np.array_equal(chols[others], np.linalg.cholesky(mats[others]))


def test_non_finite_derivatives_raise(linear_spec):
    def bad_jac(theta):
        return np.full(theta.shape[:-1] + (3, 2), np.nan)

    model = make_linear_model(linear_spec)
    fwd = ForwardMap(fn=model.forward.fn, out_dim=3, jac=bad_jac, hess=model.forward.hess)
    broken = BayesModel(prior=model.prior, forward=fwd, noise=model.noise)
    with pytest.raises(EvaluationError):
        fit_batch(broken, linear_spec.mu_theta[None], np.zeros((1, 3)))


def test_fit_batch_matches_single(linear_spec, linear_model):
    rng = RandomStream(15).generator()
    thetas = linear_model.prior.sample(rng, size=5)
    ys = np.stack([
        sample_data(linear_model, t, RandomStream(16).child(i)) for i, t in enumerate(thetas)
    ])
    batch = fit_batch(linear_model, thetas, ys)
    for i in range(5):
        single = laplace_density(linear_model, thetas[i], ys[i])
        assert np.allclose(batch.theta_hat[i], single.mean, rtol=1e-12)
        prec = batch.chol_prec[i] @ batch.chol_prec[i].T
        assert np.allclose(np.linalg.inv(prec), single.cov, rtol=1e-10)


def test_negative_curvature_row_falls_back_to_prior():
    # g(theta) = theta^2 with prior N(0, 1) and noise variance 0.01, fitted at
    # theta* = 0.5.  For y = 100 the Newton curvature is 100 - 19950 + 1 < 0,
    # so that row silently reverts to the prior; the y = 0.3 row takes the
    # Newton step with curvature 91 and right-hand side -5.
    model = BayesModel(
        prior=GaussianDensity(np.zeros(1), np.eye(1)),
        forward=ForwardMap(
            fn=lambda t: t ** 2,
            out_dim=1,
            jac=lambda t: 2.0 * t[..., None],
            hess=lambda t: np.full(t.shape[:-1] + (1, 1, 1), 2.0),
        ),
        noise=GaussianDensity(np.zeros(1), 0.01 * np.eye(1)),
    )
    theta_star = np.array([[0.5], [0.5]])
    fits = fit_batch(model, theta_star, np.array([[0.3], [100.0]]))
    assert fits.theta_hat[1, 0] == 0.5
    assert np.array_equal(fits.chol_prec[1], np.linalg.cholesky(model.prior.precision))

    alone = fit_batch(model, theta_star[:1], np.array([[0.3]]))
    assert np.allclose(fits.theta_hat[0], alone.theta_hat[0], rtol=1e-14)
    assert np.allclose(fits.chol_prec[0], alone.chol_prec[0], rtol=1e-14)
    theta_hat = 0.5 + 5.0 / 91.0
    assert fits.theta_hat[0, 0] == pytest.approx(theta_hat, rel=1e-12)
    assert fits.chol_prec[0, 0, 0] == pytest.approx(math.sqrt(400.0 * theta_hat ** 2 + 1.0), rel=1e-12)


def test_fd_non_finite_row_falls_back_to_prior():
    # g(theta) = theta below 3 and NaN from 3 on, prior N(0, 1), noise
    # variance 0.01.  The Newton step of the theta* = 2.9, y = 10 row leaves
    # the domain, so that row reverts to the prior and the other is fitted,
    # with finite differences as with analytic derivatives.
    def g(t):
        return np.where(t < 3.0, t, np.nan)

    analytic = ForwardMap(
        fn=g,
        out_dim=1,
        jac=lambda t: g(t)[..., None] * 0.0 + 1.0,
        hess=lambda t: np.zeros(t.shape[:-1] + (1, 1, 1)),
    )
    prior = GaussianDensity(np.zeros(1), np.eye(1))
    noise = GaussianDensity(np.zeros(1), 0.01 * np.eye(1))
    theta_star = np.array([[2.9], [0.5]])
    y = np.array([[10.0], [0.4]])
    fits = [fit_batch(BayesModel(prior, fwd, noise), theta_star, y)
            for fwd in (analytic, ForwardMap(fn=g, out_dim=1))]
    for fit in fits:
        assert fit.theta_hat[0, 0] == 2.9
        assert fit.chol_prec[0, 0, 0] == 1.0
        assert fit.theta_hat[1, 0] == pytest.approx(0.5 - 10.0 / 101.0, rel=1e-8)
        assert fit.chol_prec[1, 0, 0] == pytest.approx(math.sqrt(101.0), rel=1e-8)
