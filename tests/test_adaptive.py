import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eig_mlmc import (
    AdaptiveConfig,
    EstimatorConfig,
    NonConvergenceError,
    bias_converged,
    estimate_rates,
    linear_gaussian_analytic_eig,
    nmc_cost_model,
    optimal_allocation,
    run_adaptive,
)

from conftest import U_LINEAR_NE1


# ---------------------------------------------------------------------------
# Allocation formula
# ---------------------------------------------------------------------------


def test_allocation_hand_computed_values():
    n = optimal_allocation([1.0, 0.25], [2.0, 3.0], eps=0.1, omega=0.25)
    assert n.tolist() == [215, 88]


def test_allocation_single_level_cost_cancels():
    for v, c in ((1.7, 2.0), (0.3, 11.0)):
        n = optimal_allocation([v], [c], eps=0.05, omega=0.25)
        assert n[0] == math.ceil(v / (0.75 * 0.05 ** 2))


def test_allocation_zero_variance_floor():
    n = optimal_allocation([0.0, 0.0, 0.0], [1.0, 2.0, 4.0], eps=0.01, omega=0.25)
    assert n.tolist() == [1, 1, 1]


def test_allocation_validation():
    with pytest.raises(ValueError):
        optimal_allocation([1.0], [1.0], eps=0.0, omega=0.25)
    with pytest.raises(ValueError):
        optimal_allocation([-1.0], [1.0], eps=0.1, omega=0.25)
    with pytest.raises(ValueError):
        optimal_allocation([1.0], [0.0], eps=0.1, omega=0.25)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    vs=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=6),
    cs=st.lists(st.floats(0.1, 1e3), min_size=6, max_size=6),
    eps=st.floats(1e-4, 1e-1),
    shrink=st.floats(0.1, 0.9),
)
def test_allocation_monotone_in_eps(vs, cs, eps, shrink):
    cs = cs[: len(vs)]
    big = optimal_allocation(vs, cs, eps, 0.25)
    small = optimal_allocation(vs, cs, eps * shrink, 0.25)
    assert np.all(small >= big)


# ---------------------------------------------------------------------------
# Rate regression and bias test
# ---------------------------------------------------------------------------


def test_rates_exact_geometric_means():
    alpha, _ = estimate_rates([2 ** -1, 2 ** -2, 2 ** -3], [1.0, 1.0, 1.0])
    assert alpha == pytest.approx(1.0, abs=1e-12)


def test_rates_exact_geometric_variances():
    c = 0.37
    _, beta = estimate_rates([1.0, 1.0, 1.0], [c * 4 ** -1, c * 4 ** -2, c * 4 ** -3])
    assert beta == pytest.approx(2.0, abs=1e-12)


def test_rates_alpha_floor():
    alpha, _ = estimate_rates([0.1, 0.1, 0.1], [1.0, 1.0, 1.0])
    assert alpha == 0.5


def test_rates_insufficient_data():
    for means, variances in (([0.5], [1.0]), ([0.0, 0.0, 0.5], [1.0, 1.0, 1.0])):
        alpha, beta = estimate_rates(means, variances)
        assert math.isnan(alpha) and math.isnan(beta)


def test_bias_test_cases():
    assert bias_converged(0.0, 1.0, eps=1e-9, omega=0.25)
    # 0.01 / (2^1 - 1) = 0.01 > sqrt(0.25) * 0.019 = 0.0095
    assert not bias_converged(0.01, 1.0, eps=0.019, omega=0.25)
    # 0.009 <= 0.5 * 0.02 = 0.01
    assert bias_converged(0.009, 1.0, eps=0.02, omega=0.25)
    # rates not fitted: the test fails however small the mean
    assert not bias_converged(1e-12, math.nan, eps=0.02, omega=0.25)


def test_nmc_cost_model_values():
    assert nmc_cost_model(1.0, 1.0, eps=1.0, omega=0.25) == pytest.approx(4.0 / 3.0)
    base = nmc_cost_model(2.0, 5.0, eps=0.1, omega=0.25)
    assert nmc_cost_model(2.0, 5.0, eps=0.05, omega=0.25) == pytest.approx(4 * base)
    assert nmc_cost_model(2.0, 10.0, eps=0.1, omega=0.25) == pytest.approx(2 * base)
    assert nmc_cost_model(0.0, 1.0, 0.1, 0.25) == 0.0
    with pytest.raises(ValueError):
        nmc_cost_model(-1.0, 1.0, 0.1, 0.25)


# ---------------------------------------------------------------------------
# Adaptive driver
# ---------------------------------------------------------------------------


def test_constant_map_terminates_at_initial_level(const_model):
    cfg = AdaptiveConfig(eps=0.01, seed=3)
    res = run_adaptive(const_model, EstimatorConfig(m0=1, use_is=False), cfg)
    assert res.estimate == 0.0
    assert res.max_level == cfg.l0
    assert len(res.iterations) == 1
    assert all(rec.n_samples == cfg.n_star for rec in res.levels)
    # level l costs 2^l + 1 evaluations per sample
    assert [rec.total_cost for rec in res.levels] == [cfg.n_star * (2.0 ** l + 1) for l in range(3)]
    assert res.total_cost == cfg.n_star * (2.0 + 3.0 + 5.0)


def test_adaptive_run_hits_target_and_satisfies_budgets(linear_model, linear_spec):
    eps = 0.01
    cfg = AdaptiveConfig(eps=eps, seed=17)
    res = run_adaptive(linear_model, EstimatorConfig(m0=1, use_is=True), cfg)
    exact = linear_gaussian_analytic_eig(linear_spec)
    assert abs(res.estimate - exact) <= 3 * eps
    assert res.alpha_hat >= 0.5

    # Termination state: variance budget and bias inequality hold.
    var_sum = sum(rec.variance / rec.n_samples for rec in res.levels)
    assert var_sum <= (1 - cfg.omega) * eps ** 2 * (1 + 1e-9)
    top = res.levels[-1]
    assert bias_converged(top.mean, res.alpha_hat, eps, cfg.omega)
    assert res.iterations[-1].bias_ok

    # Samples concentrate on the coarse levels.
    counts = [rec.n_samples for rec in res.levels]
    assert all(a >= b for a, b in zip(counts, counts[1:]))

    # Cost bookkeeping is consistent with the per-level records.
    assert all(rec.total_cost == rec.n_samples * rec.cost_per_sample for rec in res.levels)
    assert res.total_cost == pytest.approx(
        sum(rec.n_samples * rec.cost_per_sample for rec in res.levels)
    )


def test_heavy_tail_warning_on_thin_levels(linear_model):
    # With very few samples per level the variance estimates of the
    # heavy-tailed corrections are unreliable and the driver says so.
    cfg = AdaptiveConfig(eps=0.02, seed=1, n_star=50)
    with pytest.warns(RuntimeWarning, match="heavy-tailed"):
        run_adaptive(linear_model, EstimatorConfig(m0=1, use_is=True), cfg)


def test_level_cap_raises_with_trace(linear_model):
    cfg = AdaptiveConfig(eps=0.02, seed=5, l0=1, l_max=1, n_star=200)
    with pytest.raises(NonConvergenceError) as err:
        run_adaptive(linear_model, EstimatorConfig(m0=1, use_is=True), cfg)
    assert len(err.value.trace) >= 1
    assert err.value.trace[-1].max_level == 1


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(eps=-1.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(eps=0.1, omega=1.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(eps=0.1, l0=0)
