import math
import warnings

import numpy as np
import pytest

from eig_mlmc import (
    BayesModel,
    ForwardMap,
    GaussianDensity,
    LinearGaussianSpec,
    RandomStream,
    make_linear_model,
    make_pk_model,
)
from eig_mlmc.bayes import replicate_summary
from eig_mlmc.estimators import _inner_logweights
from eig_mlmc.laplace import _chol_batch, fit_batch
from eig_mlmc.models import PkSpec

from conftest import laplace_density, log_likelihood, simulate_data


def exact_linear_posterior(spec, y):
    se_inv = np.linalg.inv(spec.Sigma_eps)
    st_inv = np.linalg.inv(spec.Sigma_theta)
    blocks = y.reshape(spec.n_e, -1)
    prec = spec.n_e * spec.A.T @ se_inv @ spec.A + st_inv
    rhs = spec.A.T @ se_inv @ blocks.sum(axis=0) + st_inv @ spec.mu_theta
    cov = np.linalg.inv(prec)
    return cov @ rhs, cov


def test_linear_fit_equals_exact_posterior(linear_spec, linear_model):
    y = simulate_data(linear_model, linear_spec.mu_theta, RandomStream(4))
    fit = laplace_density(linear_model, linear_spec.mu_theta, y)
    mean, cov = exact_linear_posterior(linear_spec, y)
    assert np.max(np.abs(fit.mean - mean)) <= 1e-10
    assert np.max(np.abs(fit.cov - cov)) <= 1e-10


def test_linear_fit_with_replicates():
    spec = LinearGaussianSpec(n_e=4)
    model = make_linear_model(spec)
    y = simulate_data(model, spec.mu_theta, RandomStream(14))
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
    w = _inner_logweights(
        linear_model, theta[None], y[None], z[None, None], use_is=False,
        summary=replicate_summary(linear_model, y[None]),
    )[0, 0]
    assert w == pytest.approx(log_likelihood(linear_model, theta, y)[0], rel=1e-13)


def test_log_is_weight_composes_three_densities(linear_spec, linear_model):
    y = simulate_data(linear_model, linear_spec.mu_theta, RandomStream(6))
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
        summary=replicate_summary(linear_model, y[None]),
    )[0, 0]
    assert w == pytest.approx(oracle, rel=1e-10)


def test_weight_expectation_recovers_evidence(oned_spec, oned_model):
    theta_star = np.array([0.6])
    y = simulate_data(oned_model, theta_star, RandomStream(8))
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
    y = simulate_data(model, theta_star, RandomStream(11))
    fit = laplace_density(model, theta_star, y)
    assert np.all(np.linalg.eigvalsh(fit.cov) > 0.0)

    def log_post(x):  # points (n, d)
        return log_likelihood(model, x, y) + model.prior.log_pdf(x)

    at_fit, at_star = log_post(np.stack([fit.mean, theta_star]))
    assert at_fit >= at_star - 10.0

    # Dense lattice over +-4 prior sd in each log parameter: the fitted mean
    # should not be beaten by any grid point by more than a hair.
    sd = math.sqrt(0.05)
    axes = [np.linspace(m - 4 * sd, m + 4 * sd, 25) for m in theta_star]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    vals = log_post(grid)
    assert at_fit >= np.max(vals) - 0.5
    # and the fit's mean is close to the lattice argmax
    assert np.max(np.abs(grid[np.argmax(vals)] - fit.mean)) <= 2 * (8 * sd / 24)


def test_chol_batch_fallback_rows():
    fallback = np.linalg.cholesky(4.0 * np.eye(2))
    mats = np.stack([
        np.eye(2),
        np.diag([1.0, -5.0]),      # unfixable, falls back
        np.diag([2.0, 1e-14]),     # positive definite, however ill-conditioned
    ])
    chols, failed = _chol_batch(mats, fallback)
    assert failed.tolist() == [False, True, False]
    assert np.allclose(chols[0], np.eye(2))
    assert np.allclose(chols[1], fallback)
    rebuilt = chols[2] @ chols[2].T
    assert abs(rebuilt[0, 0] - 2.0) <= 1e-3


def test_chol_batch_retries_only_failing_rows():
    a = RandomStream(33).generator().standard_normal((16384, 3, 3))
    mats = np.insert(a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(3), 9000, -np.eye(3), axis=0)
    fallback = np.linalg.cholesky(4.0 * np.eye(3))
    chols, failed = _chol_batch(mats, fallback)
    assert np.flatnonzero(failed).tolist() == [9000]
    assert np.array_equal(chols[9000], fallback)
    others = np.delete(np.arange(len(mats)), 9000)
    assert np.array_equal(chols[others], np.linalg.cholesky(mats[others]))


def test_non_finite_derivatives_mark_rows_unfit(linear_spec):
    def bad_jac(theta):
        return np.full(theta.shape[:-1] + (3, 2), np.nan)

    model = make_linear_model(linear_spec)
    fwd = ForwardMap(fn=model.forward.fn, out_dim=3, jac=bad_jac, hess=model.forward.hess)
    broken = BayesModel(prior=model.prior, forward=fwd, noise=model.noise)
    with pytest.warns(RuntimeWarning, match="1 outer samples had non-finite derivatives"):
        fits = fit_batch(broken, linear_spec.mu_theta[None], np.zeros((1, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_batch(model, linear_spec.mu_theta[None], np.zeros((1, 3)))
    assert np.array_equal(fits.theta_hat[0], linear_spec.mu_theta)
    assert np.array_equal(fits.chol_prec[0], np.linalg.cholesky(model.prior.precision))


def test_unfit_row_leaves_the_other_rows_bit_identical():
    # One row's Jacobian at theta* is NaN: only that row is unfit, and every
    # other row is fitted exactly as under the intact model.
    model = make_pk_model(PkSpec())
    fwd = model.forward
    theta = model.prior.sample(RandomStream(17).generator(), size=6)
    y = np.stack([simulate_data(model, t, RandomStream(18).child(i)) for i, t in enumerate(theta)])

    def patchy_jac(x):
        out = fwd.jac(x)
        out[np.all(x == theta[2], axis=-1)] = np.nan
        return out

    patchy = BayesModel(model.prior, ForwardMap(fn=fwd.fn, out_dim=fwd.out_dim, jac=patchy_jac,
                                                hess=fwd.hess), model.noise)
    with pytest.warns(RuntimeWarning, match="1 outer samples had non-finite derivatives"):
        fits = fit_batch(patchy, theta, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        intact = fit_batch(model, theta, y)
    others = [0, 1, 3, 4, 5]
    assert np.array_equal(fits.theta_hat[others], intact.theta_hat[others])
    assert np.array_equal(fits.chol_prec[others], intact.chol_prec[others])
    assert np.array_equal(fits.theta_hat[2], theta[2])
    assert np.array_equal(fits.chol_prec[2], np.linalg.cholesky(model.prior.precision))


def test_fused_pk_fit_equals_the_rebuilt_unfused_fit():
    # The PK model hands fit_batch g, J and H from one fused call; the same
    # ForwardMap rebuilt without ``terms`` makes three calls and fits the same bits.
    model = make_pk_model(PkSpec())
    fwd = model.forward
    rebuilt = ForwardMap(fn=fwd.fn, out_dim=fwd.out_dim, jac=fwd.jac, hess=fwd.hess,
                         cost_units=fwd.cost_units)
    unfused = BayesModel(model.prior, rebuilt, model.noise, model.replicates)
    rng = RandomStream(19).generator()
    theta = model.prior.sample(rng, size=3000)
    theta[0, 1] = theta[0, 0]  # one outer sample on the k_a = k_e seam
    y = fwd.eval(theta) + rng.standard_normal((3000, fwd.out_dim)) @ model.noise.chol.T
    fused, plain = fit_batch(model, theta, y), fit_batch(unfused, theta, y)
    assert fwd.terms is not None and rebuilt.terms is None
    assert np.array_equal(fused.theta_hat, plain.theta_hat)
    assert np.array_equal(fused.chol_prec, plain.chol_prec)


def test_fit_batch_matches_single(linear_spec, linear_model):
    rng = RandomStream(15).generator()
    thetas = linear_model.prior.sample(rng, size=5)
    ys = np.stack([
        simulate_data(linear_model, t, RandomStream(16).child(i)) for i, t in enumerate(thetas)
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


def test_near_singular_curvature_row_falls_back_to_prior():
    # g(theta) = theta + theta^2/2 with prior and noise N(0, 1), fitted at
    # theta* = 0 with y = 2 + 1e-9: the Newton curvature 1 - y + 1 is -1e-9.
    # A failed factorisation takes the prior fallback at once; a jitter that
    # made the matrix positive definite would divide the step by ~1e-9.
    model = BayesModel(
        prior=GaussianDensity(np.zeros(1), np.eye(1)),
        forward=ForwardMap(
            fn=lambda t: t + 0.5 * t ** 2,
            out_dim=1,
            jac=lambda t: (1.0 + t)[..., None],
            hess=lambda t: np.ones(t.shape[:-1] + (1, 1, 1)),
        ),
        noise=GaussianDensity(np.zeros(1), np.eye(1)),
    )
    fits = fit_batch(model, np.zeros((1, 1)), np.array([[2.0 + 1e-9]]))
    assert fits.theta_hat[0, 0] == 0.0
    assert np.array_equal(fits.chol_prec[0], np.linalg.cholesky(model.prior.precision))

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
