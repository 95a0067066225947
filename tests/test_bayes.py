import math

import numpy as np
import pytest

from eig_mlmc import (
    BayesModel,
    ForwardMap,
    GaussianDensity,
    LinearGaussianSpec,
    RandomStream,
    fd_hessian,
    fd_jacobian,
    make_linear_model,
    make_pk_model,
)
from eig_mlmc.bayes import response_log_likelihood
from eig_mlmc.estimators import _draw_outer
from eig_mlmc.models import PkSpec

from conftest import log_likelihood, simulate_data


def scalar_model(g_const=0.0):
    def fwd(theta):
        return np.full(theta.shape[:-1] + (1,), g_const)

    return BayesModel(
        prior=GaussianDensity(np.zeros(1), np.eye(1)),
        forward=ForwardMap(fn=fwd, out_dim=1),
        noise=GaussianDensity(np.zeros(1), np.eye(1)),
    )


def test_standard_normal_at_mode():
    model = scalar_model()
    val = log_likelihood(model, np.zeros(1), np.zeros(1))[0]
    assert val == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)
    assert val == pytest.approx(-0.918939, abs=1e-6)


def test_zero_residual_gives_block_log_norm_const(linear_model, linear_spec):
    theta = np.array([0.4, -1.3])
    y = np.tile(linear_spec.A @ theta, linear_model.replicates)
    expected = linear_model.replicates * linear_model.noise.log_norm_const
    assert log_likelihood(linear_model, theta, y)[0] == pytest.approx(expected, abs=1e-12)


def _det3(m):
    # Cofactor expansion, independent of any factorisation routine.
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def test_reference_linear_value_against_dense_oracle(linear_model, linear_spec):
    # The likelihood kernel itself, on the response g = A theta.
    theta = np.array([1.0, 0.0])
    g = (linear_spec.A @ theta)[None, None]
    y = linear_spec.A @ theta
    det = _det3(linear_spec.Sigma_eps)
    assert det == pytest.approx(5e-4, rel=1e-12)
    oracle = -1.5 * math.log(2 * math.pi) - 0.5 * math.log(det)
    val = response_log_likelihood(linear_model, g, y[None])[0, 0]
    assert val == pytest.approx(oracle, abs=1e-12)
    assert val == pytest.approx(1.0436356, abs=1e-6)

    # Non-zero residual variant from the same dense oracle.
    y2 = y + np.array([0.1, -0.2, 0.05])
    r = y2 - linear_spec.A @ theta
    quad = r @ np.linalg.inv(linear_spec.Sigma_eps) @ r
    val2 = response_log_likelihood(linear_model, g, y2[None])[0, 0]
    assert val2 == pytest.approx(oracle - 0.5 * quad, rel=1e-12)


def test_log_likelihood_batched_matches_loop(linear_model):
    rng = np.random.default_rng(0)
    thetas = rng.standard_normal((6, 2))
    y = rng.standard_normal(3)
    batch = log_likelihood(linear_model, thetas, y)
    singles = [log_likelihood(linear_model, t, y)[0] for t in thetas]
    assert np.allclose(batch, singles, rtol=1e-14)


def test_replicates_sum_per_block():
    spec = LinearGaussianSpec(n_e=3)
    model = make_linear_model(spec)
    theta = np.array([0.2, 0.7])
    rng = np.random.default_rng(5)
    y = rng.standard_normal(9)
    single = make_linear_model(LinearGaussianSpec(n_e=1))
    total = sum(log_likelihood(single, theta, y[3 * i: 3 * i + 3])[0] for i in range(3))
    assert log_likelihood(model, theta, y)[0] == pytest.approx(total, rel=1e-13)


def test_dimension_mismatch_rejected(linear_model):
    # a theta of the wrong dimension fails in the forward map, data of the
    # wrong length in the likelihood kernel
    with pytest.raises(ValueError):
        log_likelihood(linear_model, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        log_likelihood(linear_model, np.zeros(2), np.zeros(4))
    with pytest.raises(ValueError):
        simulate_data(linear_model, np.zeros(3), RandomStream(0))


def test_density_normalisation_by_monte_carlo(oned_model):
    # E_q[p(y | theta) / q(y)] = 1 with the noise density as proposal q.
    theta = np.array([0.3])
    n = 100_000
    rng = RandomStream(13).generator()
    ys = rng.standard_normal((n, 1))
    logq = -0.5 * ys[:, 0] ** 2 - 0.5 * math.log(2 * math.pi)
    loglik = np.array(
        [log_likelihood(oned_model, theta, ys[k])[0] for k in range(0, n, n // 50)]
    )
    # Spot-check the package likelihood against the scalar formula, then use
    # the vectorised formula for the full average.
    g = oned_model.forward.eval(theta)[0]
    logp = -0.5 * (ys[:, 0] - g) ** 2 - 0.5 * math.log(2 * math.pi)
    assert np.allclose(loglik, logp[:: n // 50], rtol=1e-12)
    w = np.exp(logp - logq)
    se = np.std(w, ddof=1) / math.sqrt(n)
    assert abs(np.mean(w) - 1.0) <= 3 * se


def test_sign_flip_invariance(linear_spec, linear_model):
    flipped = make_linear_model(LinearGaussianSpec(A=-linear_spec.A))
    theta = np.array([0.8, -0.4])
    rng = np.random.default_rng(3)
    y = rng.standard_normal(3)
    a = log_likelihood(linear_model, theta, y)[0]
    b = log_likelihood(flipped, theta, -y)[0]
    assert a == pytest.approx(b, rel=1e-14)


# ---------------------------------------------------------------------------
# Data simulation: the outer draws of the sampler (estimators._draw_outer)
# ---------------------------------------------------------------------------


def test_sample_data_vanishing_noise():
    spec = LinearGaussianSpec(Sigma_eps=1e-30 * np.eye(3))
    model = make_linear_model(spec)
    theta, _, y, _ = _draw_outer(model, 1, 4, RandomStream(9).generator())
    assert np.max(np.abs(y - theta @ spec.A.T)) <= 1e-10


def test_sample_data_reproducible(linear_model):
    s = RandomStream(21).child(5)
    a = _draw_outer(linear_model, 2, 3, s.generator())
    b = _draw_outer(linear_model, 2, 3, s.generator())
    assert all(np.array_equal(u, v) for u, v in zip(a, b))


def _manual_cholesky(m):
    # Textbook lower-triangular factorisation, written out as the oracle.
    n = m.shape[0]
    l = np.zeros_like(m)
    for i in range(n):
        for j in range(i + 1):
            s = m[i, j] - np.dot(l[i, :j], l[j, :j])
            l[i, j] = math.sqrt(s) if i == j else s / l[j, j]
    return l


def test_sample_data_colored_noise_replay(linear_spec):
    spec = LinearGaussianSpec(n_e=2)
    model = make_linear_model(spec)
    stream = RandomStream(33).child(2, 4)
    theta, _, y, _ = _draw_outer(model, 1, 3, stream.generator())

    # Replay the raw normal draws (prior, then noise) and colour them independently.
    rng = stream.generator()
    z_prior = rng.standard_normal((3, 2))
    z = rng.standard_normal((3, 2, 3))
    l_theta = _manual_cholesky(spec.Sigma_theta)
    assert np.allclose(theta, [spec.mu_theta + l_theta @ zp for zp in z_prior], rtol=0, atol=1e-13)
    l = _manual_cholesky(spec.Sigma_eps)
    expected = [np.concatenate([spec.A @ theta[k] + l @ z[k, i] for i in range(2)]) for k in range(3)]
    assert np.allclose(y, expected, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def test_fd_jacobian_exact_for_affine(linear_spec):
    fwd = ForwardMap(fn=lambda t: t @ linear_spec.A.T, out_dim=3)
    for theta in (np.array([1.0, 0.0]), np.array([-3.0, 2.5])):
        assert np.max(np.abs(fd_jacobian(fwd, theta[None])[0] - linear_spec.A)) <= 1e-6


def test_fd_hessian_zero_for_affine(linear_spec):
    fwd = ForwardMap(fn=lambda t: t @ linear_spec.A.T, out_dim=3)
    hess = fd_hessian(fwd, np.array([[0.3, -0.7]]))
    assert np.max(np.abs(hess)) <= 1e-4


def _fd_jacobian_half_step(fn, theta, out_dim):
    # Second, independent central-difference implementation with halved steps.
    c = 0.5 * np.finfo(float).eps ** (1.0 / 3.0)
    d = theta.size
    jac = np.empty((out_dim, d))
    for i in range(d):
        h = c * max(1.0, abs(theta[i]))
        e = np.zeros(d)
        e[i] = h
        jac[:, i] = (fn(theta + e) - fn(theta - e)) / (2 * h)
    return jac


def test_pk_fd_cross_check_at_prior_medians():
    spec = PkSpec()
    model = make_pk_model(spec)
    x = np.array(spec.log_means)  # log-space medians
    ours = fd_jacobian(model.forward, x[None])[0]
    other = _fd_jacobian_half_step(model.forward.eval, x, model.forward.out_dim)
    denom = np.maximum(np.abs(other), 1e-8)
    assert np.max(np.abs(ours - other) / denom) <= 1e-3


def _pk_points(n=64):
    model = make_pk_model(PkSpec())
    x = model.prior.sample(RandomStream(31).generator(), size=n)
    x[: n // 8, 1] = x[: n // 8, 0]  # k_a = k_e: the confluent seam
    return model, x


def test_fd_batch_equals_per_point():
    # Every row of a batched stencil is bit-identical to its point alone.  The
    # linear map is written per column: BLAS rounds a lone row of t @ A.T
    # differently from the same row in a batch.
    model, x = _pk_points()
    a = LinearGaussianSpec().A
    linear = ForwardMap(fn=lambda t: t[..., :1] * a[:, 0] + t[..., 1:] * a[:, 1], out_dim=3)
    xl = 3.0 * RandomStream(32).generator().standard_normal((64, 2))
    pk = ForwardMap(fn=model.forward.fn, out_dim=model.forward.out_dim)
    for fwd, pts in ((pk, x), (linear, xl)):
        for fd in (fd_jacobian, fd_hessian):
            batch = fd(fwd, pts)
            assert batch.shape[0] == len(pts)
            assert np.array_equal(batch, np.concatenate([fd(fwd, t[None]) for t in pts]))


def test_forward_map_fd_batch_equals_stacked_points():
    model, x = _pk_points()
    fwd = ForwardMap(fn=model.forward.fn, out_dim=model.forward.out_dim)
    assert np.array_equal(fwd.jacobian(x), np.concatenate([fwd.jacobian(t[None]) for t in x]))
    assert np.array_equal(fwd.hessian(x), np.concatenate([fwd.hessian(t[None]) for t in x]))
    # off the seam, where the model's own formula cancels over a stencil step
    off = x[len(x) // 8:]
    assert np.max(np.abs(fwd.jacobian(off) - model.forward.jacobian(off))) <= 1e-7
    assert np.max(np.abs(fwd.hessian(off) - model.forward.hessian(off))) <= 1e-4


def test_fd_batch_non_finite_row_is_nan():
    def bad(theta):
        out = np.ones(theta.shape[:-1] + (1,))
        return out * np.where(np.sum(theta, axis=-1, keepdims=True) > 0.5, np.nan, 1.0)

    fwd = ForwardMap(fn=bad, out_dim=1)
    pts = np.array([[0.1, 0.1], [0.5, 0.5], [0.2, -0.3]])
    for fd in (fd_jacobian, fd_hessian):
        out = fd(fwd, pts)
        assert np.all(np.isnan(out[1]))
        assert np.all(np.isfinite(out[[0, 2]]))


def test_model_validation():
    prior = GaussianDensity(np.zeros(2), np.eye(2))
    fwd = ForwardMap(fn=lambda t: t, out_dim=2)
    with pytest.raises(ValueError):
        BayesModel(prior=prior, forward=fwd, noise=GaussianDensity(np.ones(2), np.eye(2)))
    with pytest.raises(ValueError):
        BayesModel(prior=prior, forward=fwd, noise=GaussianDensity(np.zeros(3), np.eye(3)))
    with pytest.raises(ValueError):
        BayesModel(prior=prior, forward=fwd, noise=GaussianDensity(np.zeros(2), np.eye(2)), replicates=0)
