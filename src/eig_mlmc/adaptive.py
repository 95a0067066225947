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
from .errors import NonConvergenceError
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
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError("eps must be finite and positive")
        if self.l0 < 1:
            raise ValueError("l0 must be >= 1")
        if self.l_max < self.l0:
            raise ValueError("l_max must be >= l0")
        if self.n_star < 2:
            raise ValueError("n_star must be >= 2: a level's variance needs two samples")


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
    * sum_l sqrt(V_l C_l)), with a floor of one sample where V_l = 0.

    Raises ``ValueError`` when a count is not a 64-bit integer (eps so small
    that eps^2 underflows, say) rather than clamping it.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError("eps must be finite and positive")
    v = np.asarray(variances, dtype=float)
    c = np.asarray(costs, dtype=float)
    if not (np.all(v >= 0.0) and np.all(c > 0.0)):
        raise ValueError("variances must be >= 0 and costs > 0")
    total = float(np.sum(np.sqrt(v * c)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        raw = np.where(v == 0.0, 1.0, np.ceil(np.sqrt(v / c) * total / ((1.0 - omega) * eps * eps)))
    if not np.all(raw < 2.0 ** 63):
        raise ValueError(f"a sample count at eps {eps!r} does not fit a 64-bit integer")
    return np.maximum(raw.astype(np.int64), 1)


def estimate_rates(level_means, level_vars) -> tuple[float, float]:
    """Least-squares decay rates from correction levels 1..L.

    ``level_means[i]`` and ``level_vars[i]`` belong to level i + 1.  Fits
    log2|mean| and log2 var against the level index over the usable levels,
    those with a finite non-zero mean and a finite positive variance;
    alpha_hat is clamped below at 0.5 so a noisy near-zero slope cannot
    shrink the bias-test denominator.  With fewer than two usable levels the
    rates cannot be fitted and both are nan.
    """
    means = np.asarray(level_means, dtype=float)
    variances = np.asarray(level_vars, dtype=float)
    levels = np.arange(1, means.size + 1, dtype=float)
    usable = (np.abs(means) > 0.0) & (variances > 0.0) & np.isfinite(means) & np.isfinite(variances)
    if np.count_nonzero(usable) < 2:
        return math.nan, math.nan
    x = levels[usable]
    alpha = -np.polyfit(x, np.log2(np.abs(means[usable])), 1)[0]
    beta = -np.polyfit(x, np.log2(variances[usable]), 1)[0]
    return max(0.5, float(alpha)), float(beta)


def bias_converged(mean_zl: float, alpha_hat: float, eps: float, omega: float) -> bool:
    """Remaining-bias test |mean Z_L| / (2^alpha - 1) <= sqrt(omega) * eps.

    A nan ``alpha_hat`` (rates not fitted) fails the test.
    """
    return abs(mean_zl) / (2.0 ** alpha_hat - 1.0) <= math.sqrt(omega) * eps


def nmc_cost_model(var_pl: float, c_l: float, eps: float, omega: float) -> float:
    """Cost for a single-level nested estimator at accuracy eps:
    C_L * var(P_L) / ((1 - omega) * eps^2).  A zero variance costs 0."""
    if var_pl < 0.0 or c_l <= 0.0 or eps <= 0.0:
        raise ValueError("var_pl must be >= 0, c_l and eps > 0")
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

    # Per-level state, indexed by level: levels are always 0..top.
    stats = [LevelStats()] * (adapt_config.l0 + 1)
    targets = [adapt_config.n_star] * len(stats)
    trace: list[RoundRecord] = []

    def cost_of(level: int) -> float:
        return per_sample_cost(model, est_config.inner_count(level), est_config.use_is)

    for round_idx in range(MAX_ROUNDS):
        for l, s in enumerate(stats):
            need = targets[l] - s.count
            if need > 0:
                vals = sample_level_values(model, est_config, l, s.count, need, stream)
                stats[l] = merge(s, stats_from_values(vals))

        try:
            alloc = optimal_allocation(
                [s.variance for s in stats], [cost_of(l) for l in range(len(stats))], eps, omega,
            )
        except ValueError as exc:
            raise NonConvergenceError(f"no sample allocation in round {round_idx}: {exc}", trace) from exc
        targets = [int(n) for n in alloc]
        need_more = any(n > s.count for n, s in zip(targets, stats))

        top = len(stats) - 1
        alpha_hat, beta_hat = estimate_rates(
            [s.mean for s in stats[1:]], [s.variance for s in stats[1:]],
        )
        bias_ok = stats[top].mean == 0.0 or bias_converged(stats[top].mean, alpha_hat, eps, omega)

        trace.append(RoundRecord(
            round=round_idx,
            max_level=top,
            drawn=tuple(s.count for s in stats),
            allocation=tuple(targets),
            alpha_hat=alpha_hat,
            bias_ok=bias_ok,
        ))

        if not need_more:
            if bias_ok:
                break
            if top >= adapt_config.l_max:
                raise NonConvergenceError(
                    f"bias test still failing at the level cap {adapt_config.l_max}", trace,
                )
            stats.append(LevelStats())
            targets.append(adapt_config.n_star)
    else:
        raise NonConvergenceError(f"no convergence within {MAX_ROUNDS} allocation rounds", trace)

    # Sample kurtosis drives the standard error of a variance estimate,
    # roughly sqrt((kurtosis - 1) / n); flag levels where that exceeds 50%.
    shaky = [
        l for l, s in enumerate(stats)
        if s.count >= 8
        and math.isfinite(s.kurtosis)
        and math.sqrt(max(s.kurtosis - 1.0, 0.0) / s.count) > 0.5
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
            n_samples=s.count,
            mean=s.mean,
            variance=s.variance,
            kurtosis=s.kurtosis,
            cost_per_sample=cost_of(l),
            total_cost=s.count * cost_of(l),
        )
        for l, s in enumerate(stats)
    )
    return MlmcRunResult(
        estimate=float(sum(s.mean for s in stats)),
        eps=eps,
        levels=records,
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        total_cost=float(sum(r.total_cost for r in records)),
        iterations=tuple(trace),
    )
