import numpy as np
import pytest
from scipy.linalg import solve_triangular

from eig_mlmc import GaussianDensity, LinearGaussianSpec, RandomStream

from conftest import ill_conditioned_covariance


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


@pytest.mark.parametrize("mean, cov, bound", [
    (LinearGaussianSpec().mu_theta, LinearGaussianSpec().Sigma_theta, 1e-14),
    (np.array([0.5, -0.25]), 1e-30 * np.eye(2), 1e-15),
    (np.array([0.1, 0.2, 0.3]), ill_conditioned_covariance(), 5e-11),
], ids=["reference-prior", "point-mass-prior", "condition-1e10"])
def test_log_pdf_matches_triangular_solve_oracle(mean, cov, bound):
    # Whitening by the cached inverse factor against a triangular solve, at
    # points spread three times wider than the density.  Largest gaps over
    # 20 batches, relative to |log_norm_const| + |u|^2 / 2: 6.1e-16, 0 and
    # 3.7e-12.
    g = GaussianDensity(mean, cov)
    x = g.mean + 3.0 * (g.sample(RandomStream(5).generator(), size=2000) - g.mean)
    u = solve_triangular(g.chol, (x - g.mean).T, lower=True)
    half_sq = 0.5 * np.sum(u * u, axis=0)
    gap = np.abs(g.log_pdf(x) - (g.log_norm_const - half_sq)) / (abs(g.log_norm_const) + half_sq)
    assert np.max(gap) <= bound
