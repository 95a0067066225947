import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.special import betainc, betaincinv

from eig_mlmc import (
    LinearGaussianSpec,
    fd_hessian,
    fd_jacobian,
    linear_gaussian_analytic_eig,
    make_linear_model,
    make_pk_model,
    sampling_schedule,
)
from eig_mlmc.models import PkSpec, _pk_chunk, _pk_terms

from conftest import U_LINEAR_NE1, U_LINEAR_NE10


# ---------------------------------------------------------------------------
# Analytic expected information gain
# ---------------------------------------------------------------------------


def test_reference_values():
    assert linear_gaussian_analytic_eig(LinearGaussianSpec(n_e=1)) == pytest.approx(U_LINEAR_NE1, abs=5e-4)
    assert linear_gaussian_analytic_eig(LinearGaussianSpec(n_e=10)) == pytest.approx(U_LINEAR_NE10, abs=5e-4)


def test_zero_map_gives_zero():
    spec = LinearGaussianSpec(A=np.zeros((3, 2)))
    assert linear_gaussian_analytic_eig(spec) == pytest.approx(0.0, abs=1e-14)


def test_singular_noise_rejected():
    with pytest.raises(ValueError):
        linear_gaussian_analytic_eig(LinearGaussianSpec(Sigma_eps=np.zeros((3, 3))))
    with pytest.raises(ValueError, match="Sigma_theta"):
        LinearGaussianSpec(Sigma_theta=[[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(ValueError, match="Sigma_eps must have a finite inverse"):
        LinearGaussianSpec(Sigma_eps=1e-320 * np.eye(3))


def gauss_hermite_eig_1d(a, sigma_theta, sigma_eps, mu_theta=0.0, nodes=80):
    """Nested quadrature oracle for the 1-D expected information gain.

    U = E_{theta, y} [ log p(y | theta) - log p(y) ] with every expectation
    replaced by Gauss-Hermite quadrature under the appropriate Gaussian.
    """
    x, w = hermgauss(nodes)
    w = w / math.sqrt(math.pi)

    def log_norm(v, mean, var):
        return -0.5 * math.log(2 * math.pi * var) - 0.5 * (v - mean) ** 2 / var

    thetas = mu_theta + math.sqrt(2.0) * sigma_theta * x
    total = 0.0
    for ti, wi in zip(thetas, w):
        ys = a * ti + math.sqrt(2.0) * sigma_eps * x
        for yj, wj in zip(ys, w):
            log_lik = log_norm(yj, a * ti, sigma_eps ** 2)
            # evidence p(y) by an inner quadrature over the prior
            inner = np.sum(w * np.exp(log_norm(yj, a * thetas, sigma_eps ** 2)))
            total += wi * wj * (log_lik - math.log(inner))
    return total


def test_analytic_eig_matches_quadrature_oracle():
    for a, st, se in ((1.0, 1.0, 1.0), (2.0, 0.7, 0.5)):
        spec = LinearGaussianSpec(A=[[a]], mu_theta=[0.3], Sigma_theta=[[st ** 2]], Sigma_eps=[[se ** 2]])
        exact = linear_gaussian_analytic_eig(spec)
        closed = 0.5 * math.log(1.0 + a ** 2 * st ** 2 / se ** 2)
        assert exact == pytest.approx(closed, abs=1e-12)
        oracle = gauss_hermite_eig_1d(a, st, se, mu_theta=0.3)
        assert exact == pytest.approx(oracle, abs=1e-6)


def test_make_linear_model_wiring(linear_spec, linear_model):
    assert np.allclose(linear_model.forward.eval(linear_spec.mu_theta), [1.0, 2.0, 3.0])
    j1 = linear_model.forward.jacobian(np.array([0.0, 0.0]))
    j2 = linear_model.forward.jacobian(np.array([5.0, -3.0]))
    assert np.array_equal(j1, j2)
    assert np.array_equal(j1, linear_spec.A)
    assert np.all(linear_model.forward.hessian(np.zeros(2)) == 0.0)
    assert np.allclose(linear_model.prior.precision, np.linalg.inv(linear_spec.Sigma_theta), rtol=1e-12)


# ---------------------------------------------------------------------------
# Sampling schedules
# ---------------------------------------------------------------------------


def test_even_schedule():
    t = sampling_schedule("even")
    assert t[0] == pytest.approx(0.3)
    assert t[-1] == pytest.approx(22.7)
    assert np.allclose(np.diff(t), 1.6)


def test_geometric_schedule():
    t = sampling_schedule("geometric")
    assert t[0] == pytest.approx(0.94)
    assert t[-1] == pytest.approx(0.94 * 1.25 ** 14, rel=1e-12)
    assert t[-1] == pytest.approx(21.373, abs=1e-3)


def test_beta_schedule_roundtrip():
    t = sampling_schedule("beta")
    assert t.shape == (15,)
    assert np.all(np.diff(t) > 0)
    assert np.all((t > 0) & (t < 24))
    u = np.arange(1, 16) / 16.0
    assert np.max(np.abs(betainc(0.7, 1.2, t / 24.0) - u)) <= 1e-8
    # independent inverse as a second oracle
    assert np.max(np.abs(t - 24.0 * betaincinv(0.7, 1.2, u))) <= 1e-8


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        sampling_schedule("uniform")


# ---------------------------------------------------------------------------
# PK forward map
# ---------------------------------------------------------------------------


def test_concentration_zero_at_time_zero():
    spec = PkSpec(schedule=[0.0, 1.0, 2.0])
    vals = _pk_terms(spec, np.array([1.3, 0.2, 15.0]), 0)[0]
    assert vals[0] == pytest.approx(0.0, abs=1e-14)


def test_concentration_at_prior_medians():
    spec = PkSpec(schedule=[1.0])
    val = _pk_terms(spec, np.array([1.0, 0.1, 20.0]), 0)[0][0]
    # 20 * (1/0.9) * (exp(-0.1) - exp(-1))
    assert val == pytest.approx(11.9324, abs=1e-3)


def test_confluent_limit_value():
    spec = PkSpec(schedule=[2.0])
    val = _pk_terms(spec, np.array([0.5, 0.5, 20.0]), 0)[0][0]
    assert val == pytest.approx(20.0 * math.exp(-1.0), rel=1e-12)


def test_continuity_across_seam():
    spec = PkSpec(schedule=sampling_schedule("even"))
    ka, v = 0.8, 18.0
    mid = _pk_terms(spec, np.array([ka, ka, v]), 0)[0]
    for side in (1 + 1e-8, 1 - 1e-8):
        near = _pk_terms(spec, np.array([ka, ka * side, v]), 0)[0]
        assert np.max(np.abs(near - mid) / np.abs(mid)) <= 1e-6


def test_pk_model_prior_medians():
    spec = PkSpec()
    model = make_pk_model(spec)
    theta = model.prior.mean  # all-zero underlying normals land on the means
    assert np.allclose(np.exp(theta), [1.0, 0.1, 20.0], rtol=1e-12)
    h = 1e-6 * np.eye(3)  # central differences of the log density vanish at the mean
    grad = (model.prior.log_pdf(theta + h) - model.prior.log_pdf(theta - h)) / 2e-6
    assert np.allclose(grad, 0.0)
    assert np.allclose(model.prior.precision, 20.0 * np.eye(3), rtol=1e-12)


def test_pk_curve_peak_location():
    spec = PkSpec()
    model = make_pk_model(spec)
    tt = np.linspace(0.01, 24, 4000)
    fine = PkSpec(schedule=tt)
    curve = _pk_terms(fine, np.array([1.0, 0.1, 20.0]), 0)[0]
    assert np.all(np.isfinite(model.forward.eval(model.prior.mean)))
    t_peak = tt[np.argmax(curve)]
    assert t_peak == pytest.approx(math.log(10.0) / 0.9, abs=0.02)
    assert 1.0 < t_peak < 6.0


def test_pk_analytic_derivatives_match_finite_differences():
    spec = PkSpec()
    model = make_pk_model(spec)
    bare = type(model.forward)(fn=model.forward.fn, out_dim=model.forward.out_dim)
    rng = np.random.default_rng(8)
    for _ in range(4):
        x = model.prior.mean + 0.3 * rng.standard_normal(3)
        jac_fd = fd_jacobian(bare, x[None])[0]
        jac = model.forward.jacobian(x)
        assert np.max(np.abs(jac - jac_fd)) <= 1e-4 * np.max(np.abs(jac_fd))
        hess_fd = fd_hessian(bare, x[None])[0]
        hess = model.forward.hessian(x)
        assert np.max(np.abs(hess - hess_fd)) <= 1e-4 * np.max(np.abs(hess_fd))


def test_pk_derivatives_continuous_across_seam():
    spec = PkSpec(schedule=sampling_schedule("even"))
    model = make_pk_model(spec)
    x_seam = np.log(np.array([0.6, 0.6, 20.0]))
    x_near = np.log(np.array([0.6, 0.6 * (1 + 5e-9), 20.0]))
    j0, j1 = model.forward.jacobian(x_seam), model.forward.jacobian(x_near)
    h0, h1 = model.forward.hessian(x_seam), model.forward.hessian(x_near)
    assert np.max(np.abs(j0 - j1)) <= 1e-5 * np.max(np.abs(j0))
    assert np.max(np.abs(h0 - h1)) <= 1e-5 * np.max(np.abs(h0))


PK_BLOCK_SIZES = [1, 37, 2048, 2049, 16384]


def pk_block(n):
    """n rows of PK log parameters around the prior medians: the last row
    2e-8 off the k_a = k_e seam, the middle row within 1e-8 of it (so on it)
    and the first row exactly on it."""
    x = np.log([1.0, 0.1, 20.0]) + math.sqrt(0.05) * np.random.default_rng(n).standard_normal((n, 3))
    x[n - 1, 1] = x[n - 1, 0] - 2e-8
    x[n // 2, 1] = x[n // 2, 0] + 5e-9
    x[0, 1] = x[0, 0]
    return x


@pytest.mark.parametrize("n", PK_BLOCK_SIZES)
def test_pk_chunked_and_fused_terms_are_bit_identical(n):
    # Row chunks change no bit against one unchunked pass, at every order,
    # and the fused (g, J, H) call equals the three separate calls.
    spec = PkSpec()
    x = pk_block(n)
    for order in range(3):
        chunked = _pk_terms(spec, np.exp(x), order)
        whole = _pk_chunk(spec, np.exp(x), order)
        assert [a is None for a in chunked] == [order < k for k in range(3)]
        assert all(a is b is None or np.array_equal(a, b) for a, b in zip(chunked, whole))
    fwd = make_pk_model(spec).forward
    g, jac, hess = fwd.value_and_derivatives(x)
    assert np.array_equal(g, fwd.eval(x))
    assert np.array_equal(jac, fwd.jacobian(x))
    assert np.array_equal(hess, fwd.hessian(x))


def test_pk_off_seam_rows_do_not_depend_on_the_seam_branch():
    # A chunk with no seam row skips the confluent formulas; its rows equal
    # the same rows of a chunk that meets the seam and takes np.where.
    spec = PkSpec()
    theta = np.exp(pk_block(37))
    off = np.delete(theta, [0, 18], axis=0)
    for a, b in zip(_pk_terms(spec, off, 2), _pk_terms(spec, theta, 2)):
        assert np.array_equal(a, np.delete(b, [0, 18], axis=0))


def test_pk_spec_validation():
    with pytest.raises(ValueError):
        PkSpec(schedule=[2.0, 1.0])
    with pytest.raises(ValueError):
        PkSpec(schedule=[-1.0, 1.0])
    with pytest.raises(ValueError):
        PkSpec(log_vars=(0.05, 0.0, 0.05))
    with pytest.raises(ValueError):
        PkSpec(schedule=[])
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            PkSpec(dose=bad)
        with pytest.raises(ValueError):
            PkSpec(noise_var=bad)
    with pytest.raises(ValueError, match="noise_var must have a finite inverse"):
        PkSpec(noise_var=1e-320)  # 1 / noise_var overflows
