"""Adaptive multilevel driver: sample allocation, rate regression, bias test.

The driver starts at level L0 with N_star samples per level and repeats:
draw outstanding samples, refresh the empirical variances, recompute the
optimal allocation, and test bias convergence.  A new level (seeded with
N_star samples) is appended only when the current allocation is satisfied but
the bias test still fails.  At termination the variance budget
sum_l V_l / N_l <= (1 - omega) * eps^2 and the bias inequality
|mean Z_L| / (2^alpha - 1) <= sqrt(omega) * eps both hold, splitting the
squared error budget between the two sources.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bayes import BayesModel
from .errors import InsufficientDataError, NonConvergenceError
from .estimators import (
    EstimatorConfig,
    LevelStats,
    merge,
    per_sample_cost,
    sample_level_values,
    stats_from_values,
)
from .streams import RandomStream

__all__ = [
    "AdaptiveConfig",
    "LevelRecord",
    "RoundRecord",
    "MlmcRunResult",
    "optimal_allocation",
    "estimate_rates",
    "bias_converged",
    "run_adaptive",
    "nmc_cost_model",
]

# Hard cap on allocation rounds so the loop body terminates even if the
# allocation oscillates; the level cap L_max is enforced separately.
MAX_ROUNDS = 50


@dataclass(frozen=True)
class AdaptiveConfig:
    eps: float
    omega: float = 0.25
    l0: int = 2
    n_star: int = 1000
    l_max: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.omega < 1.0:
            raise ValueError("omega must lie in (0, 1)")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.l0 < 1:
            raise ValueError("l0 must be >= 1")
        if self.n_star < 1:
            raise ValueError("n_star must be >= 1")


@dataclass(frozen=True)
class LevelRecord:
    level: int
    n_samples: int
    mean: float
    variance: float
    kurtosis: float
    cost_per_sample: float
    total_cost: float


@dataclass(frozen=True)
class RoundRecord:
    round: int
    max_level: int
    drawn: tuple[int, ...]
    allocation: tuple[int, ...]
    alpha_hat: float
    bias_ok: bool


@dataclass(frozen=True)
class MlmcRunResult:
    estimate: float
    eps: float
    levels: tuple[LevelRecord, ...]
    alpha_hat: float
    beta_hat: float
    total_cost: float
    iterations: tuple[RoundRecord, ...] = field(repr=False)

    @property
    def max_level(self) -> int:
        return self.levels[-1].level


def optimal_allocation(variances, costs, eps: float, omega: float) -> np.ndarray:
    """Per-level sample counts N_l = ceil((1-omega)^-1 eps^-2 sqrt(V_l/C_l)
    * sum_l sqrt(V_l C_l)), with a floor of one sample where V_l = 0."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    v = np.asarray(variances, dtype=float)
    c = np.asarray(costs, dtype=float)
    if np.any(v < 0.0) or np.any(c <= 0.0):
        raise ValueError("variances must be >= 0 and costs > 0")
    total = float(np.sum(np.sqrt(v * c)))
    raw = np.sqrt(v / c) * total / ((1.0 - omega) * eps * eps)
    n = np.ceil(raw).astype(int)
    n[v == 0.0] = 1
    return np.maximum(n, 1)


def estimate_rates(level_means, level_vars) -> tuple[float, float]:
    """Least-squares decay rates from correction levels 1..L.

    ``level_means[i]`` and ``level_vars[i]`` belong to level i + 1.  Fits
    log2|mean| and log2 var against the level index; alpha_hat is clamped
    below at 0.5 so a noisy near-zero slope cannot shrink the bias-test
    denominator.
    """
    means = np.asarray(level_means, dtype=float)
    variances = np.asarray(level_vars, dtype=float)
    levels = np.arange(1, means.size + 1, dtype=float)
    usable = (np.abs(means) > 0.0) & (variances > 0.0) & np.isfinite(means) & np.isfinite(variances)
    if np.count_nonzero(usable) < 2:
        raise InsufficientDataError("need at least two usable correction levels")
    x = levels[usable]
    alpha = -np.polyfit(x, np.log2(np.abs(means[usable])), 1)[0]
    beta = -np.polyfit(x, np.log2(variances[usable]), 1)[0]
    return max(0.5, float(alpha)), float(beta)


def bias_converged(mean_zl: float, alpha_hat: float, eps: float, omega: float) -> bool:
    """Remaining-bias test |mean Z_L| / (2^alpha - 1) <= sqrt(omega) * eps."""
    return abs(mean_zl) / (2.0 ** alpha_hat - 1.0) <= math.sqrt(omega) * eps


def nmc_cost_model(var_pl: float, c_l: float, eps: float, omega: float) -> float:
    """Cost for a single-level nested estimator at accuracy eps:
    C_L * var(P_L) / ((1 - omega) * eps^2)."""
    if var_pl <= 0.0 or c_l <= 0.0 or eps <= 0.0:
        raise ValueError("inputs must be positive")
    return c_l * var_pl / ((1.0 - omega) * eps * eps)


def run_adaptive(
    model: BayesModel,
    est_config: EstimatorConfig,
    adapt_config: AdaptiveConfig,
    threads: int = 1,
) -> MlmcRunResult:
    """Adaptive multilevel estimate of the expected information gain.

    ``threads`` is accepted for compatibility and ignored: sampling runs
    sequentially, and the result never depended on it.
    """
    eps = adapt_config.eps
    omega = adapt_config.omega
    stream = RandomStream(adapt_config.seed)

    levels = list(range(adapt_config.l0 + 1))
    stats: dict[int, LevelStats] = {l: LevelStats(level=l) for l in levels}
    targets = {l: adapt_config.n_star for l in levels}
    trace: list[RoundRecord] = []

    def cost_of(level: int) -> float:
        return per_sample_cost(model, est_config.inner_count(level), est_config.use_is)

    for round_idx in range(MAX_ROUNDS):
        for l in levels:
            need = targets[l] - stats[l].count
            if need > 0:
                vals = sample_level_values(model, est_config, l, stats[l].count, need, stream)
                stats[l] = merge(stats[l], stats_from_values(vals, cost_of(l), l))

        alloc = optimal_allocation(
            [stats[l].variance for l in levels], [cost_of(l) for l in levels], eps, omega,
        )
        targets = {l: int(alloc[i]) for i, l in enumerate(levels)}
        need_more = any(targets[l] > stats[l].count for l in levels)

        top = levels[-1]
        corr_means = [stats[l].mean for l in levels[1:]]
        corr_vars = [stats[l].variance for l in levels[1:]]
        alpha_hat = math.nan
        enough = sum(1 for l in levels[1:] if stats[l].count >= 2) >= 2
        if stats[top].mean == 0.0:
            bias_ok = True
        elif not enough:
            bias_ok = False
        else:
            try:
                alpha_hat, _ = estimate_rates(corr_means, corr_vars)
                bias_ok = bias_converged(stats[top].mean, alpha_hat, eps, omega)
            except InsufficientDataError:
                bias_ok = False

        trace.append(RoundRecord(
            round=round_idx,
            max_level=top,
            drawn=tuple(stats[l].count for l in levels),
            allocation=tuple(targets[l] for l in levels),
            alpha_hat=alpha_hat,
            bias_ok=bias_ok,
        ))

        if not need_more:
            if bias_ok:
                break
            new_level = top + 1
            if new_level > adapt_config.l_max:
                raise NonConvergenceError(
                    f"bias test still failing at the level cap {adapt_config.l_max}", trace,
                )
            levels.append(new_level)
            stats[new_level] = LevelStats(level=new_level)
            targets[new_level] = adapt_config.n_star
    else:
        raise NonConvergenceError(f"no convergence within {MAX_ROUNDS} allocation rounds", trace)

    try:
        alpha_hat, beta_hat = estimate_rates(
            [stats[l].mean for l in levels[1:]],
            [stats[l].variance for l in levels[1:]],
        )
    except InsufficientDataError:
        alpha_hat = beta_hat = math.nan

    # Sample kurtosis drives the standard error of a variance estimate,
    # roughly sqrt((kurtosis - 1) / n); flag levels where that exceeds 50%.
    shaky = [
        l for l in levels
        if stats[l].count >= 8
        and math.isfinite(stats[l].kurtosis)
        and math.sqrt(max(stats[l].kurtosis - 1.0, 0.0) / stats[l].count) > 0.5
    ]
    if shaky:
        warnings.warn(
            f"heavy-tailed corrections at levels {shaky}: variance estimates "
            "there carry a relative error above 50%",
            RuntimeWarning,
        )

    records = tuple(
        LevelRecord(
            level=l,
            n_samples=stats[l].count,
            mean=stats[l].mean,
            variance=stats[l].variance,
            kurtosis=stats[l].kurtosis,
            cost_per_sample=cost_of(l),
            total_cost=stats[l].total_cost,
        )
        for l in levels
    )
    return MlmcRunResult(
        estimate=float(sum(stats[l].mean for l in levels)),
        eps=eps,
        levels=records,
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        total_cost=float(sum(stats[l].total_cost for l in levels)),
        iterations=tuple(trace),
    )
