import numpy as np
import pytest

from eig_mlmc import GaussianDensity, RandomStream


def make_density(seed=0, dim=3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    cov = a @ a.T + dim * np.eye(dim)
    return GaussianDensity(rng.standard_normal(dim), cov)


def test_cholesky_reconstructs_covariance():
    g = make_density()
    err = np.abs(g.chol @ g.chol.T - g.cov)
    assert np.max(err / np.max(np.abs(g.cov))) <= 1e-12


def test_log_pdf_at_mean_is_log_norm_const():
    g = make_density(1)
    assert g.log_pdf(g.mean[None])[0] == pytest.approx(g.log_norm_const, abs=1e-13)


def test_log_pdf_matches_direct_formula():
    g = make_density(2)
    x = np.array([0.3, -1.2, 0.8])
    v = x - g.mean
    direct = (
        -0.5 * g.dim * np.log(2 * np.pi)
        - 0.5 * np.log(np.linalg.det(g.cov))
        - 0.5 * v @ np.linalg.solve(g.cov, v)
    )
    assert g.log_pdf(x[None])[0] == pytest.approx(direct, rel=1e-12)


def test_precision_is_inverse_covariance():
    g = make_density(3)
    assert np.allclose(g.precision, np.linalg.inv(g.cov), rtol=1e-10)


def test_sampling_moments_and_reproducibility():
    g = make_density(4)
    s = RandomStream(77)
    x = g.sample(s.generator(), size=20000)
    assert np.allclose(np.mean(x, axis=0), g.mean, atol=0.1)
    assert np.allclose(np.cov(x.T), g.cov, atol=0.25)
    assert np.array_equal(x, g.sample(s.generator(), size=20000))


def test_degenerate_covariance_is_usable():
    g = GaussianDensity(np.array([2.0, -1.0]), 1e-30 * np.eye(2))
    assert g.log_pdf(g.mean[None])[0] == pytest.approx(g.log_norm_const)
    x = g.sample(RandomStream(1).generator(), size=1)
    assert np.max(np.abs(x - g.mean)) <= 1e-10


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        GaussianDensity(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        GaussianDensity(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(ValueError):
        GaussianDensity(np.zeros(2), np.eye(3))
    with pytest.raises(ValueError, match="finite inverse"):
        GaussianDensity(np.zeros(2), 1e-320 * np.eye(2))  # precision 1e320 overflows
    g = GaussianDensity(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        g.log_pdf(np.zeros((1, 3)))

