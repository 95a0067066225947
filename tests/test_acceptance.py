"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured quantities next to its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import json
import math

import numpy as np
import pytest

from eig_mlmc import (
    AdaptiveConfig,
    BayesModel,
    EstimatorConfig,
    ForwardMap,
    LinearGaussianSpec,
    RandomStream,
    linear_gaussian_analytic_eig,
    make_linear_model,
    make_pk_model,
    nmc_cost_model,
    nmc_estimate,
    run_adaptive,
    sample_level_values,
    sample_p_values,
)
from eig_mlmc.bayes import replicate_summary
from eig_mlmc.cli import main, parse_config
from eig_mlmc.estimators import _draw_outer, _inner_logweights, per_sample_cost
from eig_mlmc.models import PkSpec, sampling_schedule

from conftest import U_LINEAR_NE1, U_LINEAR_NE10, laplace_density, simulate_data
from test_models import gauss_hermite_eig_1d

EPS = 5e-3
IS_CFG = EstimatorConfig(m0=1, use_is=True)
THREADS = 4  # run_adaptive accepts a thread count and ignores it


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def _seeded_runs(n_e: int, target: float, n_runs: int = 20):
    model = make_linear_model(LinearGaussianSpec(n_e=n_e))
    hits = 0
    errs = []
    for seed in range(n_runs):
        res = run_adaptive(model, IS_CFG, AdaptiveConfig(eps=EPS, seed=seed), threads=THREADS)
        err = abs(res.estimate - target)
        errs.append(err)
        hits += err <= 3 * EPS
    return hits, max(errs)


@pytest.mark.slow
def test_criterion_1_linear_ne1_value():
    hits, worst = _seeded_runs(1, U_LINEAR_NE1)
    report(
        "1 (linear n_e=1 value)",
        hits >= 19,
        f"{hits}/20 runs within {3 * EPS:g} of {U_LINEAR_NE1} (worst error {worst:.4g})",
    )


@pytest.mark.slow
def test_criterion_2_linear_ne10_value():
    hits, worst = _seeded_runs(10, U_LINEAR_NE10)
    report(
        "2 (linear n_e=10 value)",
        hits >= 19,
        f"{hits}/20 runs within {3 * EPS:g} of {U_LINEAR_NE10} (worst error {worst:.4g})",
    )


def _rate_summary(tmp_path, name, **cfg_extra):
    base = {
        "model": "linear", "estimator": "mlmc", "eps": [0.01], "seed": 4242,
        "diagnostics_levels": 7, "diagnostics_samples": 20000,
        "output_dir": str(tmp_path / name),
    }
    base.update(cfg_extra)
    from eig_mlmc.cli import run_rate_study

    run_rate_study(parse_config(json.dumps(base)))
    summary = json.loads((tmp_path / name / "rate_summary.json").read_text())
    return summary["alpha_hat"], summary["beta_hat"]


@pytest.mark.slow
def test_criterion_3_rate_recovery(tmp_path):
    a1, b1 = _rate_summary(tmp_path, "ne1", model_params={"N_e": 1})
    a10, b10 = _rate_summary(tmp_path, "ne10", model_params={"N_e": 10})
    ok = (0.8 <= a1 <= 1.1) and (1.4 <= b1 <= 2.1) and (0.85 <= a10 <= 1.1) and (1.7 <= b10 <= 2.2)
    report(
        "3 (rate recovery)",
        ok,
        f"n_e=1: alpha={a1:.3f} in [0.8,1.1], beta={b1:.3f} in [1.4,2.1]; "
        f"n_e=10: alpha={a10:.3f} in [0.85,1.1], beta={b10:.3f} in [1.7,2.2]",
    )


@pytest.mark.slow
def test_criterion_4_cost_slopes():
    # Two variance-control choices for a stable slope estimate at desk scale:
    # new levels are seeded with 200 samples (the N_* = 1000 pilot floor
    # otherwise dominates the coarse-accuracy runs and masks the asymptotic
    # slope), and expected costs are averaged over several seeds (the final
    # level L moves in integer jumps, so single runs give lumpy slopes).
    model = make_linear_model(LinearGaussianSpec())
    eps_ladder = [2e-2, 1e-2, 5e-3, 2.5e-3]
    n_seeds = 6
    ml_costs = np.zeros(len(eps_ladder))
    nmc_costs = np.zeros(len(eps_ladder))
    for seed in range(n_seeds):
        for i, eps in enumerate(eps_ladder):
            res = run_adaptive(
                model, IS_CFG, AdaptiveConfig(eps=eps, seed=seed, n_star=200), threads=THREADS
            )
            ml_costs[i] += res.total_cost / n_seeds
            m_top = IS_CFG.inner_count(res.max_level)
            pv = sample_p_values(model, m_top, 0, 2000, RandomStream(seed).child(90, i), use_is=True)
            nmc_costs[i] += nmc_cost_model(
                float(np.var(pv, ddof=1)), per_sample_cost(model, m_top, True), eps, 0.25,
            ) / n_seeds
    x = np.log2(eps_ladder)
    ml_slope = float(np.polyfit(x, np.log2(ml_costs), 1)[0])
    nmc_slope = float(np.polyfit(x, np.log2(nmc_costs), 1)[0])
    ok = abs(ml_slope + 2.0) <= 0.3 and abs(nmc_slope + 3.0) <= 0.3
    report(
        "4 (cost slopes)",
        ok,
        f"multilevel slope {ml_slope:.3f} (target -2 +- 0.3), "
        f"single-level model slope {nmc_slope:.3f} (target -3 +- 0.3)",
    )


PK_TARGETS = {"beta": 10.63, "even": 10.21, "geometric": 10.74}


@pytest.mark.slow
def test_criterion_5_pk_table():
    estimates = {}
    rates = {}
    for scheme, target in PK_TARGETS.items():
        model = make_pk_model(PkSpec(schedule=sampling_schedule(scheme)))
        res = run_adaptive(model, IS_CFG, AdaptiveConfig(eps=EPS, seed=123), threads=THREADS)
        estimates[scheme] = res.estimate

        stream = RandomStream(321)
        means, variances = [], []
        for level in range(1, 9):
            v = sample_level_values(model, IS_CFG, level, 0, 20000, stream)
            means.append(float(np.mean(v)))
            variances.append(float(np.var(v, ddof=1)))
        from eig_mlmc import estimate_rates

        rates[scheme] = estimate_rates(means, variances)

    value_ok = all(abs(estimates[s] - t) <= 0.05 for s, t in PK_TARGETS.items())
    order_ok = estimates["geometric"] > estimates["beta"] > estimates["even"]
    rate_ok = all(0.9 <= a <= 1.1 and 1.8 <= b <= 2.1 for a, b in rates.values())
    detail = "; ".join(
        f"{s}: {estimates[s]:.4f} (target {t} +- 0.05, alpha={rates[s][0]:.3f}, beta={rates[s][1]:.3f})"
        for s, t in PK_TARGETS.items()
    )
    report("5 (pk schedules)", value_ok and order_ok and rate_ok, detail)


# ---------------------------------------------------------------------------
# Criterion 6: property suite
# ---------------------------------------------------------------------------


def _property_models():
    return [
        ("linear", make_linear_model(LinearGaussianSpec())),
        ("pk", make_pk_model(PkSpec())),
    ]


def test_criterion_6a_antithetic_identity():
    worst = 0.0
    checked = 0
    for _, model in _property_models():
        for use_is in (False, True):
            for level in range(1, 6):
                m = 2 ** level
                for seed in range(4):
                    rng = RandomStream(600 + seed).child(level).generator()
                    theta, _, y, z_inner = _draw_outer(model, m, 1, rng)
                    logw = _inner_logweights(model, theta, y, z_inner, use_is, replicate_summary(model, y))[0]
                    w = np.exp(logw - np.max(logw))
                    full = math.fsum(w) / m
                    halves = 0.5 * (
                        math.fsum(w[: m // 2]) / (m // 2) + math.fsum(w[m // 2:]) / (m // 2)
                    )
                    worst = max(worst, abs(full - halves) / full)
                    checked += 1
    bound = 4 * np.finfo(float).eps
    report(
        "6a (antithetic identity)",
        worst <= bound,
        f"worst relative defect {worst:.2e} <= {bound:.2e} over {checked} drawn sets",
    )


def test_criterion_6b_corrections_non_positive():
    worst = -math.inf
    total = 0
    for _, model in _property_models():
        for use_is in (False, True):
            for level in range(1, 7):
                v = sample_level_values(
                    model, EstimatorConfig(m0=1, use_is=use_is), level, 0, 2000, RandomStream(61),
                )
                worst = max(worst, float(np.max(v)))
                total += v.size
    report(
        "6b (non-positivity)",
        worst <= 0.0,
        f"max correction value {worst:.3e} <= 0 over {total} realisations",
    )


def test_criterion_6c_telescoping_matches_direct():
    model = make_linear_model(LinearGaussianSpec())
    n = 4000
    top = 5
    stream = RandomStream(62)
    total = 0.0
    var = 0.0
    for level in range(top + 1):
        v = sample_level_values(model, IS_CFG, level, 0, n, stream)
        total += np.mean(v)
        var += np.var(v, ddof=1) / n
    est, se, _ = nmc_estimate(model, n, 2 ** top, RandomStream(63), use_is=True)
    gap = abs(total - est)
    bound = 3 * math.sqrt(var + se ** 2)
    report(
        "6c (telescoping)",
        gap <= bound,
        f"|telescoped - direct| = {gap:.4f} <= {bound:.4f} at L={top}",
    )


def test_criterion_6d_laplace_exact_on_linear():
    spec = LinearGaussianSpec()
    model = make_linear_model(spec)
    worst = 0.0
    for seed in range(5):
        y = simulate_data(model, spec.mu_theta, RandomStream(64).child(seed))
        fit = laplace_density(model, spec.mu_theta, y)
        se_inv = np.linalg.inv(spec.Sigma_eps)
        st_inv = np.linalg.inv(spec.Sigma_theta)
        prec = spec.A.T @ se_inv @ spec.A + st_inv
        mean = np.linalg.solve(prec, spec.A.T @ se_inv @ y + st_inv @ spec.mu_theta)
        cov = np.linalg.inv(prec)
        worst = max(
            worst,
            float(np.max(np.abs(fit.mean - mean))),
            float(np.max(np.abs(fit.cov - cov))),
        )
    report("6d (laplace exactness)", worst <= 1e-10, f"worst deviation {worst:.2e} <= 1e-10")


def test_criterion_6e_quadrature_oracle():
    spec = LinearGaussianSpec(A=[[1.0]], mu_theta=[0.0], Sigma_theta=[[1.0]], Sigma_eps=[[1.0]])
    exact = linear_gaussian_analytic_eig(spec)
    oracle = gauss_hermite_eig_1d(1.0, 1.0, 1.0)
    gap = abs(exact - oracle)
    report("6e (quadrature oracle)", gap <= 1e-6, f"|analytic - quadrature| = {gap:.2e} <= 1e-6")


def _negated_pk_model() -> BayesModel:
    base = make_pk_model(PkSpec())
    fwd = base.forward
    return BayesModel(
        prior=base.prior,
        forward=ForwardMap(
            fn=lambda x: -fwd.fn(x),
            out_dim=fwd.out_dim,
            jac=lambda x: -fwd.jac(x),
            hess=lambda x: -fwd.hess(x),
        ),
        noise=base.noise,
        replicates=base.replicates,
    )


def test_criterion_6f_sign_flip_invariance():
    eps = 1.5e-2
    res_pos = run_adaptive(make_pk_model(PkSpec()), IS_CFG, AdaptiveConfig(eps=eps, seed=66), threads=THREADS)
    res_neg = run_adaptive(_negated_pk_model(), IS_CFG, AdaptiveConfig(eps=eps, seed=67), threads=THREADS)

    def run_se(res):
        return math.sqrt(sum(r.variance / r.n_samples for r in res.levels))

    gap = abs(res_pos.estimate - res_neg.estimate)
    bound = 3 * math.hypot(run_se(res_pos), run_se(res_neg))
    report(
        "6f (sign-flip invariance)",
        gap <= bound,
        f"|{res_pos.estimate:.4f} - {res_neg.estimate:.4f}| = {gap:.4f} <= {bound:.4f}",
    )


@pytest.mark.slow
def test_criterion_6g_no_underflow_in_million_pk_samples():
    model = make_pk_model(PkSpec())
    v = sample_level_values(model, IS_CFG, 0, 0, 1_000_000, RandomStream(68))
    ok = bool(np.all(np.isfinite(v)))
    report(
        "6g (underflow-free)",
        ok,
        f"{v.size} importance-sampled outer samples at one inner draw, all finite",
    )


def test_criterion_7_thread_determinism(tmp_path):
    cfg = {
        "model": "linear", "estimator": "mlmc", "eps": [1e-2], "seed": 99,
        "diagnostics_levels": 5, "diagnostics_samples": 5000,
    }
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    blobs = {}
    for mode in ("estimate", "rate-study"):
        for threads in ("1", "8"):
            out = tmp_path / f"{mode}{threads}"
            rc = main(["--config", str(cfgfile), "--mode", mode,
                       "--output-dir", str(out), "--threads", threads])
            assert rc == 0
            blobs[(mode, threads)] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    ok = (
        blobs[("estimate", "1")] == blobs[("estimate", "8")]
        and blobs[("rate-study", "1")] == blobs[("rate-study", "8")]
    )
    report("7 (determinism)", ok, "estimate and rate-study outputs byte-identical at 1 and 8 threads")
