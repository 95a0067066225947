import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eig_mlmc import (
    BayesModel,
    EstimatorConfig,
    ForwardMap,
    GaussianDensity,
    InnerUnderflowError,
    LevelStats,
    LinearGaussianSpec,
    RandomStream,
    make_linear_model,
    merge,
    nmc_estimate,
    sample_level_pair,
    sample_level_values,
    sample_p_values,
)
import eig_mlmc.estimators as estimators
from eig_mlmc.bayes import replicate_summary
from eig_mlmc.estimators import (
    _block_rows,
    _block_values,
    _check_finite,
    _draw_outer,
    _inner_logweights,
    _logmeanexp,
    per_sample_cost,
    stats_from_values,
)
from eig_mlmc.models import PkSpec, make_pk_model

from conftest import log_likelihood, one_value, plain_difference, point_mass_model, response_log_likelihood

NO_IS = EstimatorConfig(m0=1, use_is=False)
WITH_IS = EstimatorConfig(m0=1, use_is=True)


# ---------------------------------------------------------------------------
# Level variables: exact and limiting cases
# ---------------------------------------------------------------------------


def test_constant_map_level_zero_is_exactly_zero(const_model):
    cost = per_sample_cost(const_model, NO_IS.inner_count(0), NO_IS.use_is)
    for seed in range(5):
        assert one_value(const_model, 1, RandomStream(seed), False, antithetic=False) == 0.0
        values = sample_level_values(const_model, NO_IS, 0, 0, 1, RandomStream(seed))
        assert stats_from_values(values).mean == 0.0
    assert cost == 2.0


def test_constant_map_corrections_exactly_zero(const_model):
    for level in (1, 2, 3):
        m = NO_IS.inner_count(level)
        assert one_value(const_model, m, RandomStream(3), False, antithetic=True) == 0.0
        assert sample_level_values(const_model, NO_IS, level, 0, 1, RandomStream(3))[0] == 0.0
        assert per_sample_cost(const_model, m, NO_IS.use_is) == 2 ** level + 1


def test_constant_map_nmc_exactly_zero(const_model):
    for n, m, seed in ((1, 1, 0), (50, 7, 1), (200, 3, 2)):
        est, _, cost = nmc_estimate(const_model, n, m, RandomStream(seed), use_is=False)
        assert est == 0.0
        assert cost == n * (m + 1)


def test_point_mass_prior_level_zero_near_zero():
    model = point_mass_model()
    assert abs(one_value(model, 1, RandomStream(7), False, antithetic=False)) <= 1e-6


def test_point_mass_prior_correction_within_roundoff():
    model = point_mass_model()
    for level in (1, 2):
        value = one_value(model, NO_IS.inner_count(level), RandomStream(8), False, antithetic=True)
        assert abs(value) <= 1e-12


def test_level_zero_replay_oracle(linear_spec, linear_model):
    # Replay the stream by hand for M0 = 1 without importance sampling.
    stream = RandomStream(123).child(9)
    value = one_value(linear_model, 1, stream, False, antithetic=False)

    rng = stream.generator()
    chol_theta = np.linalg.cholesky(linear_spec.Sigma_theta)
    theta = linear_spec.mu_theta + rng.standard_normal((1, 2))[0] @ chol_theta.T
    chol_eps = np.linalg.cholesky(linear_spec.Sigma_eps)
    y = linear_spec.A @ theta + chol_eps @ rng.standard_normal((1, 1, 3))[0, 0]
    theta_inner = linear_spec.mu_theta + rng.standard_normal((1, 1, 2))[0, 0] @ chol_theta.T

    def dense_loglik(th):
        r = y - linear_spec.A @ th
        quad = r @ np.linalg.inv(linear_spec.Sigma_eps) @ r
        return -1.5 * math.log(2 * math.pi) - 0.5 * math.log(
            np.linalg.det(linear_spec.Sigma_eps)
        ) - 0.5 * quad

    expected = dense_loglik(theta) - dense_loglik(theta_inner)
    assert value == pytest.approx(expected, abs=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), level=st.integers(1, 5), use_is=st.booleans())
def test_corrections_non_positive(linear_model, seed, level, use_is):
    assert one_value(linear_model, 2 ** level, RandomStream(seed), use_is, antithetic=True) <= 0.0


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), level=st.integers(1, 4), use_is=st.booleans())
def test_antithetic_identity_on_drawn_weights(linear_model, seed, level, use_is):
    # Recover the exact inner weights the sampler consumes and check that
    # the full average equals the mean of the half averages to round-off.
    m = 2 ** level
    rng = RandomStream(seed).generator()
    theta, g, y, z_inner = _draw_outer(linear_model, m, 1, rng)
    logw = _inner_logweights(linear_model, theta, y, z_inner, use_is, replicate_summary(linear_model, y))[0]
    scale = np.max(logw)
    w = [math.exp(v - scale) for v in logw]  # scaled weights, exact identity
    mean_full = math.fsum(w) / m
    mean_half = 0.5 * (math.fsum(w[: m // 2]) / (m // 2) + math.fsum(w[m // 2:]) / (m // 2))
    assert abs(mean_full - mean_half) <= 4 * np.finfo(float).eps * mean_full

    # and the correction value equals its definition on these weights
    expected = (
        0.5 * (_logmeanexp(np.array([logw[: m // 2]]))[0] + _logmeanexp(np.array([logw[m // 2:]]))[0])
        - _logmeanexp(np.array([logw]))[0]
    )
    value = one_value(linear_model, m, RandomStream(seed), use_is, antithetic=True)
    assert value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("use_is", [False, True])
def test_block_summarises_replicates_once(monkeypatch, use_is):
    # The inner grid and the outer term of a level-zero block share one
    # replicate summary, and sharing it leaves the values as the kernel on y gives.
    model = make_linear_model(LinearGaussianSpec(n_e=10))
    calls = []
    summarise = estimators.replicate_summary
    monkeypatch.setattr(estimators, "replicate_summary", lambda *a: calls.append(1) or summarise(*a))
    values, _ = _block_values(model, 1, 8, RandomStream(4).generator(), use_is, antithetic=False)
    assert len(calls) == 1
    theta, g, y, z_inner = _draw_outer(model, 1, 8, RandomStream(4).generator())
    logw = _inner_logweights(model, theta, y, z_inner, use_is, replicate_summary(model, y))
    expected = response_log_likelihood(model, g[:, None], y)[:, 0] - _logmeanexp(logw)
    assert np.array_equal(values, expected)


@pytest.mark.parametrize("use_is", [False, True])
def test_level_pair_takes_p_from_the_correction_block(use_is):
    # Z of the pair is the level variable bit for bit, and P is the outer
    # log-likelihood minus the log-mean of all M_l inner weights, rebuilt
    # from the block generator the correction draws from; at a correction
    # level that log-mean is logaddexp(a, b) - log 2 of the half log-means.
    model = make_linear_model(LinearGaussianSpec(n_e=10))
    config = EstimatorConfig(m0=1, use_is=use_is)
    stream = RandomStream(9)
    for level in (0, 1, 3):
        z, p = sample_level_pair(model, config, level, 0, 50, stream)
        assert np.array_equal(z, sample_level_values(model, config, level, 0, 50, stream))
        m = config.inner_count(level)
        rng = stream.child(estimators._PURPOSE_CORRECTION, level, 0).generator()
        theta, g, y, z_inner = _draw_outer(model, m, _block_rows(m), rng)
        logw = _inner_logweights(model, theta, y, z_inner, use_is, replicate_summary(model, y))
        log_full = _logmeanexp(logw)
        if level > 0:
            halves = np.logaddexp(_logmeanexp(logw[:, : m // 2]), _logmeanexp(logw[:, m // 2:])) - math.log(2.0)
            # the full-grid log-mean it stands for agrees to a few ulp
            assert np.all(np.abs(halves - log_full)[:50] <= 4 * np.spacing(np.abs(log_full[:50])))
            log_full = halves
        expected = response_log_likelihood(model, g[:, None], y)[:, 0] - log_full
        assert np.array_equal(p, expected[:50])
        if level == 0:
            assert np.array_equal(p, z)


def _decimal_correction(row):
    """0.5 * (a + b) - log-mean of all, the antithetic correction by its
    definition, on one row of float log-weights in 50 digits."""
    with decimal.localcontext(decimal.Context(prec=50)):
        top = decimal.Decimal(float(np.max(row)))
        e = [(decimal.Decimal(float(v)) - top).exp() for v in row]

        def log_mean(part):
            return top + (sum(part) / len(part)).ln()

        return (log_mean(e[: len(e) // 2]) + log_mean(e[len(e) // 2:])) / 2 - log_mean(e)


@pytest.mark.parametrize("level, use_is", [(2, True), (5, True), (8, True), (1, False)])
@pytest.mark.parametrize("name", ["linear", "pk"])
def test_correction_matches_a_decimal_oracle(name, level, use_is):
    # 32 rows of a block against the definition evaluated in 50 digits on the
    # same float log-weights.  Over seeds 0-5, 48 rows each, the half
    # log-means gave at most 2.4e-11 relative; subtracting a full-grid
    # log-mean from their mean cancels, and gave 8.6e-11 to 3.8e-6 per case.
    # Without importance sampling many level-1 rows (most on PK) have
    # |a - b| / 2 > 710, where cosh overflows.
    model = make_linear_model(LinearGaussianSpec()) if name == "linear" else make_pk_model(PkSpec())
    m, n = 2 ** level, 32
    z, _ = _block_values(model, m, n, RandomStream(0).generator(), use_is, antithetic=True)
    theta, _, y, z_inner = _draw_outer(model, m, n, RandomStream(0).generator())
    logw = _inner_logweights(model, theta, y, z_inner, use_is, replicate_summary(model, y))
    exact = [_decimal_correction(row) for row in logw]
    assert max(abs(decimal.Decimal(float(v)) - e) / -e for v, e in zip(z, exact)) <= 1e-10
    assert np.all(z <= 0.0)
    if not use_is:
        assert np.sum(z < math.log(2.0) - 710.0) >= n // 4


def test_correction_edge_rows(monkeypatch):
    # Crafted inner log-weights in a level-3 block: equal halves give Z = 0
    # exactly (a full-grid log-mean gives -1.1e-16 on this row); one half all
    # -inf gives Z = -inf and a finite P; no finite weight gives Z = P = +inf;
    # a non-finite response gives nan.  The finite check names the first row
    # without a finite Z.
    model = make_linear_model(LinearGaussianSpec())
    inf = np.inf
    rows = np.array([
        [-0.7, -1.3, -0.6, 0.0, -0.7, -1.3, -0.6, 0.0],
        [-inf, -inf, -inf, -inf, 0.3, -2.0, 0.5, 1.0],
        [-inf] * 8,
        [0.4, 1.5, -0.2, 0.9, -1.0, 0.2, 0.7, -0.3],
        [0.4, 1.5, -0.2, 0.9, -1.0, 0.2, 0.7, -0.3],
    ])
    draw = estimators._draw_outer

    def bad_last_response(*args):
        theta, g, y, z_inner = draw(*args)
        g[4] = np.nan
        return theta, g, y, z_inner

    monkeypatch.setattr(estimators, "_draw_outer", bad_last_response)
    monkeypatch.setattr(estimators, "_inner_logweights", lambda *a: np.resize(rows, (a[3].shape[0], 8)))
    z, p = _block_values(model, 8, 5, RandomStream(0).generator(), False, antithetic=True)
    assert z[0] == 0.0 and np.isfinite(p[0])
    assert z[1] == -inf and np.isfinite(p[1])
    assert z[2] == inf and p[2] == inf
    assert z[3] < 0.0 and np.isfinite(p[3])
    assert np.isnan(z[4]) and np.isnan(p[4])
    with pytest.raises(InnerUnderflowError, match="all inner log-weights are -inf") as err:
        sample_level_pair(model, NO_IS, 3, 0, 5, RandomStream(0))
    assert err.value.outer_index == 1


def test_no_correction_block_reduces_its_full_grid(monkeypatch):
    # Counted log-mean-exps: a correction block reduces its (n, 2, M_l / 2)
    # halves once, and level 0 its (n, 1) grid.
    shapes = []
    logmeanexp = estimators._logmeanexp
    monkeypatch.setattr(estimators, "_logmeanexp", lambda logw: shapes.append(logw.shape) or logmeanexp(logw))
    model = make_linear_model(LinearGaussianSpec())
    for level in range(4):
        shapes.clear()
        sample_level_pair(model, WITH_IS, level, 0, 10, RandomStream(1))
        m = WITH_IS.inner_count(level)
        assert shapes == ([(_block_rows(m), 2, m // 2)] if level else [(_block_rows(m), 1)])


def test_finite_check_names_first_bad_index_of_either_array():
    _check_finite(3, np.zeros(4), np.ones(4))
    with pytest.raises(InnerUnderflowError) as err:
        _check_finite(3, np.array([0.0, 0.0, -np.inf, 0.0]), np.array([0.0, np.nan, 0.0, 0.0]))
    assert err.value.outer_index == 4


def test_halves_partition_in_stream_order(linear_model):
    # The two half averages must use the first and second halves of the same
    # inner draws, not fresh ones.
    rng = RandomStream(5).generator()
    theta, g, y, z_inner = _draw_outer(linear_model, 4, 1, rng)
    logw = _inner_logweights(linear_model, theta, y, z_inner, False, replicate_summary(linear_model, y))
    assert logw.shape == (1, 4)
    direct = log_likelihood(
        linear_model,
        linear_model.prior.mean + z_inner[0] @ np.linalg.cholesky(np.asarray(linear_model.prior.cov)).T,
        y[0],
    )
    assert np.allclose(logw[0], direct, rtol=1e-12)


def test_plain_difference_shares_expectation_with_antithetic(linear_model):
    # The simple fine-minus-coarse coupling (coarse term reusing the first
    # half of the inner draws) telescopes to the same per-level expectation.
    level, n = 3, 5000
    anti = sample_level_values(linear_model, WITH_IS, level, 0, n, RandomStream(70))
    base = RandomStream(71)
    plain = np.array([
        plain_difference(linear_model, WITH_IS, level, base.child(i)) for i in range(n)
    ])
    se = math.hypot(np.std(anti, ddof=1), np.std(plain, ddof=1)) / math.sqrt(n)
    assert abs(np.mean(anti) - np.mean(plain)) <= 3 * se
    # the plain coupling is not sign-constrained, unlike the antithetic one
    assert np.max(plain) > 0
    with pytest.raises(ValueError):
        plain_difference(linear_model, WITH_IS, 0, RandomStream(0))


def test_importance_sampling_with_fd_derivatives(oned_spec):
    # A model without analytic derivatives still supports the importance fit
    # through finite differences, at the documented extra cost.
    from eig_mlmc.bayes import BayesModel, ForwardMap
    from eig_mlmc.gaussian import GaussianDensity

    model = BayesModel(
        prior=GaussianDensity(oned_spec.mu_theta, oned_spec.Sigma_theta),
        forward=ForwardMap(fn=lambda t: t @ oned_spec.A.T, out_dim=1),
        noise=GaussianDensity(np.zeros(1), oned_spec.Sigma_eps),
    )
    est, se, cost = nmc_estimate(model, 4000, 64, RandomStream(72), use_is=True)
    assert abs(est - 0.5 * math.log(2.0)) <= 3 * se + 1e-2
    assert cost == 4000 * (65 + 2 * 1 + 2 * 1)


def test_pk_fd_levels_match_analytic():
    # The Laplace fit through finite differences gives the analytic model's
    # level values to 1e-8.
    from eig_mlmc.bayes import BayesModel, ForwardMap

    analytic = make_pk_model(PkSpec())
    fwd = analytic.forward
    fd = BayesModel(analytic.prior, ForwardMap(fn=fwd.fn, out_dim=fwd.out_dim), analytic.noise)
    for level in (3, 4, 5):
        got = sample_level_values(fd, WITH_IS, level, 0, 300, RandomStream(74))
        exact = sample_level_values(analytic, WITH_IS, level, 0, 300, RandomStream(74))
        assert got.shape == (300,)
        assert np.max(np.abs(got - exact)) <= 1e-8


def test_non_finite_derivative_rows_fall_back_to_prior(oned_spec):
    from eig_mlmc.bayes import BayesModel, ForwardMap
    from eig_mlmc.gaussian import GaussianDensity
    from eig_mlmc.laplace import fit_batch

    a = oned_spec.A

    def patchy_jac(theta):
        out = np.broadcast_to(a, theta.shape[:-1] + (1, 1)).copy()
        out[theta[..., 0] > 0.8] = np.nan
        return out

    model = BayesModel(
        prior=GaussianDensity(oned_spec.mu_theta, oned_spec.Sigma_theta),
        forward=ForwardMap(
            fn=lambda t: t @ a.T,
            out_dim=1,
            jac=patchy_jac,
            hess=lambda t: np.zeros(t.shape[:-1] + (1, 1, 1)),
        ),
        noise=GaussianDensity(np.zeros(1), oned_spec.Sigma_eps),
    )
    with pytest.warns(RuntimeWarning, match="non-finite derivatives"):
        values = sample_p_values(model, 8, 0, 400, RandomStream(73), use_is=True)
    assert values.shape == (400,)
    assert np.all(np.isfinite(values))

    # The unfit rows keep the fit's own fallback proposal N(theta*, Sigma_prior):
    # their weights are log p(y | x) + log p(x) - log N(x; theta*, Sigma_prior).
    theta, _, y, z_inner = _draw_outer(model, 8, 64, RandomStream(74).generator())
    unfit = theta[:, 0] > 0.8
    assert 0 < np.sum(unfit) < 64
    with pytest.warns(RuntimeWarning, match="non-finite derivatives"):
        logw = _inner_logweights(model, theta, y, z_inner, True, replicate_summary(model, y))
        x = fit_batch(model, theta, y).draw(z_inner)[unfit]
    fallback = [GaussianDensity(t, oned_spec.Sigma_theta).log_pdf(xi) for t, xi in zip(theta[unfit], x)]
    expected = (
        response_log_likelihood(model, model.forward.eval(x.reshape(-1, 1)).reshape(-1, 8, 1), y[unfit])
        + model.prior.log_pdf(x.reshape(-1, 1)).reshape(-1, 8)
        - np.array(fallback)
    )
    assert np.allclose(logw[unfit], expected, rtol=1e-12, atol=1e-12)


def test_underflow_error_names_outer_index():
    # Residuals of order 1e6 against a noise precision of 1e300: every inner
    # log-likelihood is -inf.
    spec = LinearGaussianSpec(A=[[1.0]], mu_theta=[0.0], Sigma_theta=[[1e12]], Sigma_eps=[[1e-300]])
    model = make_linear_model(spec)
    with pytest.raises(InnerUnderflowError) as err:
        sample_p_values(model, 2, 0, 64, RandomStream(0), use_is=False)
    assert err.value.outer_index >= 0
    assert str(err.value.outer_index) in str(err.value)


@pytest.mark.parametrize("use_is", [True, False], ids=["is", "no-is"])
@pytest.mark.parametrize("response", [np.inf, np.nan], ids=["inf", "nan"])
def test_non_finite_response_names_its_outer_sample(use_is, response):
    # A 2-d linear map whose response is inf or nan where theta_1 > 2.  An
    # outer sample there has no finite data, and the package's own error
    # names it and the cause (outer sample 21 here); inner points there have
    # weight zero (7 of the prior draws before it), so the span before it is
    # finite.  No numpy warning is raised on the way: the only warning is
    # fit_batch's count of rows on the prior fallback.
    def fn(t):
        out = t.copy()
        out[t[:, 0] > 2.0] = response
        return out

    model = BayesModel(
        GaussianDensity(np.zeros(2), np.eye(2)),
        ForwardMap(fn, 2, jac=lambda t: np.broadcast_to(np.eye(2), t.shape[:-1] + (2, 2)).copy(),
                   hess=lambda t: np.zeros(t.shape[:-1] + (2, 2, 2))),
        GaussianDensity(np.zeros(2), 0.1 * np.eye(2)),
    )
    config = EstimatorConfig(use_is=use_is)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InnerUnderflowError, match="model response is not finite") as err:
            sample_level_values(model, config, 4, 0, 1000, RandomStream(0))
        first = err.value.outer_index
        head = sample_level_values(model, config, 4, 0, first, RandomStream(0))
    assert f"outer sample {first}" in str(err.value)
    assert first >= 10 and np.all(np.isfinite(head))
    assert all("had non-finite derivatives" in str(w.message) for w in caught)
    assert all("or forward values at theta*" in str(w.message) for w in caught)
    assert bool(caught) == use_is


def test_span_fails_only_on_rows_it_returns():
    # Row 2177 of the first block underflows; a span that does not reach it
    # succeeds, and a span that does reports exactly that index.
    spec = LinearGaussianSpec(A=[[1.0]], mu_theta=[0.0], Sigma_theta=[[8.2e6]], Sigma_eps=[[1e-300]])
    model = make_linear_model(spec)
    head = sample_p_values(model, 1, 0, 10, RandomStream(0), use_is=False)
    assert np.all(np.isfinite(head))
    with pytest.raises(InnerUnderflowError) as err:
        sample_p_values(model, 1, 2000, 500, RandomStream(0), use_is=False)
    assert err.value.outer_index == 2177


# ---------------------------------------------------------------------------
# Streaming statistics
# ---------------------------------------------------------------------------


def test_accumulate_single_sample():
    s = merge(LevelStats(), stats_from_values(np.array([2.5])))
    assert s.count == 1
    assert s.mean == 2.5


def test_merge_counts():
    a = stats_from_values(np.arange(5.0))
    b = stats_from_values(np.arange(3.0))
    assert merge(a, b).count == 8


def test_known_distribution_sanity():
    rng = RandomStream(99).generator()
    stats = LevelStats()
    for v in rng.standard_normal(1000):
        stats = merge(stats, stats_from_values(np.array([v])))
    assert stats.count == 1000
    assert abs(stats.mean) <= 0.1
    assert abs(stats.variance - 1.0) <= 0.15
    assert abs(stats.kurtosis - 3.0) <= 0.8


def test_overflowing_moments_are_nan_not_zero():
    # Power sums past the float range: sum1 ** 2 raises OverflowError on a
    # Python float, and max(0.0, inf - inf) would read 0.  Both are nan.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = stats_from_values(np.array([1e300, -1e300, 2e300, 1e300]))
    assert s.mean == 7.5e299
    assert math.isnan(s.variance) and math.isnan(s.kurtosis)
    t = LevelStats(count=2, sum1=math.inf, sum2=math.inf)
    assert math.isnan(t.mean) and math.isnan(t.variance)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    a=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=30),
    b=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=30),
)
def test_merge_equivalent_to_pooling(a, b):
    pooled = stats_from_values(np.array(a + b))
    merged = merge(stats_from_values(np.array(a)), stats_from_values(np.array(b)))
    assert merged.count == pooled.count
    assert merged.sum1 == pytest.approx(pooled.sum1, rel=1e-9, abs=1e-9)
    assert merged.sum4 == pytest.approx(pooled.sum4, rel=1e-9, abs=1e-9)
    if pooled.count >= 2 and pooled.variance > 1e-12:
        assert merged.variance == pytest.approx(pooled.variance, rel=1e-6)


def test_variance_formula_matches_numpy():
    vals = RandomStream(3).generator().standard_normal(500) * 2.3 + 0.7
    stats = stats_from_values(vals)
    assert stats.variance == pytest.approx(np.var(vals, ddof=1), rel=1e-10)


# ---------------------------------------------------------------------------
# Costs and configuration
# ---------------------------------------------------------------------------


def test_cost_formula(linear_model):
    cfg = EstimatorConfig(m0=2, use_is=True)
    for level in range(4):
        m = cfg.inner_count(level)
        assert m == 2 * 2 ** level
        # analytic derivatives: no importance-sampling surcharge
        assert per_sample_cost(linear_model, m, True) == m + 1


def test_cost_charges_fd_derivatives(linear_spec):
    from eig_mlmc.bayes import BayesModel, ForwardMap
    from eig_mlmc.gaussian import GaussianDensity

    model = BayesModel(
        prior=GaussianDensity(linear_spec.mu_theta, linear_spec.Sigma_theta),
        forward=ForwardMap(fn=lambda t: t @ linear_spec.A.T, out_dim=3),
        noise=GaussianDensity(np.zeros(3), linear_spec.Sigma_eps),
    )
    d = 2
    assert per_sample_cost(model, 4, use_is=True) == 5 + 2 * d + 2 * d * d
    assert per_sample_cost(model, 4, use_is=False) == 5


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(m0=0)
    with pytest.raises(ValueError):
        sample_level_values(None, NO_IS, -1, 0, 1, RandomStream(0))


# ---------------------------------------------------------------------------
# Reproducibility and stream discipline
# ---------------------------------------------------------------------------


def test_span_split_and_threads_do_not_change_values(linear_model):
    s = RandomStream(42)
    full = sample_level_values(linear_model, WITH_IS, 1, 0, 3000, s)
    split = np.concatenate([
        sample_level_values(linear_model, WITH_IS, 1, 0, 1234, s),
        sample_level_values(linear_model, WITH_IS, 1, 1234, 1766, s),
    ])
    assert np.array_equal(full, split)


def test_levels_use_distinct_streams(linear_model):
    s = RandomStream(1)
    v1 = sample_level_values(linear_model, NO_IS, 1, 0, 100, s)
    v2 = sample_level_values(linear_model, NO_IS, 2, 0, 100, s)
    p1 = sample_p_values(linear_model, 2, 0, 100, s, use_is=False)
    assert not np.array_equal(v1, v2)
    assert not np.array_equal(v1, p1)


def test_nmc_estimate_one_d_target(oned_model):
    est, se, cost = nmc_estimate(oned_model, 20_000, 256, RandomStream(3), use_is=False)
    assert cost == 20_000 * 257
    assert abs(est - 0.5 * math.log(2.0)) <= 3 * se + 5e-3  # small O(1/M) bias headroom


@pytest.mark.slow
def test_nmc_reference_case(linear_model):
    # Reference-protocol run: importance sampling stays on, since without it
    # the inner weights for this model are so degenerate that the inner
    # log-mean is biased by O(1) even at 2^10 inner samples.
    est, se, cost = nmc_estimate(linear_model, 200_000, 1024, RandomStream(77), use_is=True)
    assert cost == 200_000 * 1025
    assert abs(est - 4.4574) <= 0.05


@pytest.mark.slow
def test_is_invariance_of_estimated_target(oned_model):
    # The change of measure preserves the estimand: telescoped estimates with
    # and without the importance correction converge to the same value.  The
    # per-level means themselves are NOT measure-invariant (the inner
    # log-mean carries a measure-dependent Jensen gap), so the invariance is
    # asserted on the telescoped sum at a depth where both gaps are tiny.
    n = 40_000
    levels = 9
    total_a = total_b = var_a = var_b = 0.0
    for level in range(levels + 1):
        a = sample_level_values(oned_model, NO_IS, level, 0, n, RandomStream(50))
        b = sample_level_values(oned_model, WITH_IS, level, 0, n, RandomStream(51))
        total_a += np.mean(a)
        total_b += np.mean(b)
        var_a += np.var(a, ddof=1) / n
        var_b += np.var(b, ddof=1) / n
    se = math.sqrt(var_a + var_b)
    residual_bias = 2e-3  # O(1/M_L) tails of the two telescopes
    assert abs(total_a - total_b) <= 3 * se + residual_bias
