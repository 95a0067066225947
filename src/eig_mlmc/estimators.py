"""Nested Monte Carlo and antithetic multilevel samplers.

One outer sample draws (theta, Y) from the joint model; M inner samples give
a log-mean of importance weights estimating log p(Y).  The level-l inner
count is M_l = M0 * 2**l.  The antithetic correction at level l >= 1 is

    0.5 * (log-mean of first half + log-mean of second half) - log-mean of all,

with the halves taken in stream order, so it is non-positive up to round-off
by concavity of the logarithm.

Sampling is organised in fixed-size blocks of outer indices.  Block b of a
given sampler draws from the sub-stream (purpose, level-or-M, b), so the
value attached to one outer index is a pure function of (seed, index) and is
unchanged by how spans of work are split across rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import laplace
from .bayes import BayesModel, replicate_summary, summary_log_likelihood
from .errors import InnerUnderflowError
from .streams import RandomStream

__all__ = [
    "EstimatorConfig",
    "LevelStats",
    "merge",
    "nmc_estimate",
    "sample_level_values",
    "sample_p_values",
    "per_sample_cost",
]

# Target number of inner-weight scalars per sampling block; the block row
# count shrinks as the inner count M grows so the working set stays cache
# friendly.  The row cap bounds the per-row Laplace arrays at small M.
BLOCK_SCALARS = 32768
MAX_BLOCK_ROWS = 16384

_PURPOSE_CORRECTION = 1
_PURPOSE_PLAIN = 2


@dataclass(frozen=True)
class EstimatorConfig:
    """Inner-sample schedule (M_l = m0 * 2**l) and the importance toggle."""

    m0: int = 1
    use_is: bool = True

    def __post_init__(self):
        if self.m0 < 1:
            raise ValueError("m0 must be >= 1")

    def inner_count(self, level: int) -> int:
        return self.m0 << level


@dataclass(frozen=True)
class LevelStats:
    """Count and power sums 1-4 of a level's values, mergeable across spans.

    Moments only: the level and its cost are known to the caller.
    """

    count: int = 0
    sum1: float = 0.0
    sum2: float = 0.0
    sum3: float = 0.0
    sum4: float = 0.0

    @property
    def mean(self) -> float:
        return _finite(lambda: self.sum1 / self.count) if self.count else math.nan

    @property
    def variance(self) -> float:
        if self.count < 2:
            return math.nan
        v = _finite(lambda: (self.sum2 - self.sum1 ** 2 / self.count) / (self.count - 1))
        return v if math.isnan(v) else max(0.0, v)  # max(0.0, nan) would be 0.0

    @property
    def kurtosis(self) -> float:
        if self.count < 4:
            return math.nan
        n = self.count
        m = self.sum1 / n
        mu2 = self.sum2 / n - m * m
        if mu2 <= 0.0:
            return math.nan
        return _finite(lambda: ((self.sum4 - 4.0 * m * self.sum3 + 6.0 * m * m * self.sum2) / n
                                - 3.0 * m ** 4) / mu2 ** 2)


def _finite(moment) -> float:
    """``moment()``, or nan when it is not finite: the power sums left the
    float range, where a Python float power raises ``OverflowError``."""
    try:
        value = moment()
    except OverflowError:
        return math.nan
    return value if math.isfinite(value) else math.nan


def merge(a: LevelStats, b: LevelStats) -> LevelStats:
    return LevelStats(
        count=a.count + b.count,
        sum1=a.sum1 + b.sum1,
        sum2=a.sum2 + b.sum2,
        sum3=a.sum3 + b.sum3,
        sum4=a.sum4 + b.sum4,
    )


def stats_from_values(values: np.ndarray) -> LevelStats:
    """Count and power sums of a batch of values."""
    v = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # LevelStats reads such sums as nan
        return LevelStats(
            count=v.size,
            sum1=float(np.sum(v)),
            sum2=float(np.sum(v ** 2)),
            sum3=float(np.sum(v ** 3)),
            sum4=float(np.sum(v ** 4)),
        )


def per_sample_cost(model: BayesModel, m: int, use_is: bool) -> float:
    """Forward-evaluation cost of one outer sample with m inner samples.

    Counts the m inner evaluations plus the one outer theta.  When the fit
    needs finite-difference derivatives, 2d + 2d^2 stencil evaluations are
    charged on top; analytic derivatives are free.  The fit actually makes
    2d^2 + 4d + 1 (a Jacobian at theta* and at the fitted mean, a Hessian at
    theta*), 31 against 24 charged at d = 3; the charge stays as it is because
    criterion 4's cost slopes and the CLI's CSV outputs are built on it.
    """
    units = model.forward.cost_units
    cost = (m + 1) * units
    if use_is and not model.forward.has_analytic_derivatives:
        d = model.prior.dim
        cost += (2 * d + 2 * d * d) * units
    return cost


# ---------------------------------------------------------------------------
# Batched sampling core
# ---------------------------------------------------------------------------


def _block_rows(m: int) -> int:
    return max(1, min(MAX_BLOCK_ROWS, BLOCK_SCALARS // max(1, m)))


def _logmeanexp(logw: np.ndarray) -> np.ndarray:
    """Row-wise log of the mean of exp, safe against -inf rows."""
    top = np.max(logw, axis=1)
    finite = np.isfinite(top)
    shift = np.where(finite, top, 0.0)
    with np.errstate(divide="ignore"):  # all-(-inf) rows legitimately hit log(0)
        out = shift + np.log(np.mean(np.exp(logw - shift[:, None]), axis=1))
    return np.where(finite, out, -np.inf)


def _loglik_grid(model: BayesModel, thetas: np.ndarray, summary) -> np.ndarray:
    """log p(y_b | theta_bm) for thetas (n, m, d) against the replicate
    summary of per-row data (n, D)."""
    n, m, d = thetas.shape
    g = model.forward.eval(thetas.reshape(n * m, d)).reshape(n, m, model.forward.out_dim)
    return summary_log_likelihood(model, g, summary)


def _draw_outer(model: BayesModel, m: int, n: int, rng: np.random.Generator):
    """Draw n outer samples and the raw normals for their inner samples.

    Draw order contract: prior normals (n, d), noise normals (n, Ne, w),
    inner normals (n, m, d), each as a single block.
    """
    w = model.forward.out_dim
    ne = model.replicates
    theta = model.prior.sample(rng, size=n)
    g = model.forward.eval(theta)
    z_noise = rng.standard_normal((n, ne, w))
    y = (g[:, None, :] + z_noise @ model.noise.chol.T).reshape(n, ne * w)
    z_inner = rng.standard_normal((n, m, model.prior.dim))
    return theta, g, y, z_inner


def _inner_logweights(
    model: BayesModel,
    theta: np.ndarray,
    y: np.ndarray,
    z_inner: np.ndarray,
    use_is: bool,
    summary,
) -> np.ndarray:
    """Per-row inner log weights: log p(y | .) at prior draws, or with the
    importance correction log p(.) - log q(. | y) at draws from per-row
    Laplace fits, the block fitted once.  ``summary`` is the
    :func:`~eig_mlmc.bayes.replicate_summary` of y.
    """
    n, m, d = z_inner.shape
    if not use_is:
        prior = model.prior
        inner = (prior.mean + z_inner.reshape(n * m, d) @ prior.chol.T).reshape(n, m, d)
        return _loglik_grid(model, inner, summary)
    fits = laplace.fit_batch(model, theta, y)
    inner = fits.draw(z_inner)
    return (
        _loglik_grid(model, inner, summary)
        + model.prior.log_pdf(inner.reshape(n * m, d)).reshape(n, m)
        - fits.log_pdf(inner)
    )


def _block_values(
    model: BayesModel,
    m: int,
    n: int,
    rng: np.random.Generator,
    use_is: bool,
    antithetic: bool,
) -> np.ndarray:
    """Values of n outer samples drawn from one generator; the inner grid and
    the outer term share one replicate summary of the data."""
    theta, g, y, z_inner = _draw_outer(model, m, n, rng)
    summary = replicate_summary(model, y)
    logw = _inner_logweights(model, theta, y, z_inner, use_is, summary)
    log_full = _logmeanexp(logw)
    if antithetic:
        half = m // 2
        log_a = _logmeanexp(logw[:, :half])
        log_b = _logmeanexp(logw[:, half:])
        return 0.5 * (log_a + log_b) - log_full
    return summary_log_likelihood(model, g[:, None], summary)[:, 0] - log_full


def _span_values(
    model: BayesModel,
    m: int,
    start: int,
    count: int,
    stream: RandomStream,
    purpose: int,
    tag: int,
    use_is: bool,
    antithetic: bool,
) -> np.ndarray:
    """Values for outer indices [start, start + count) under the block layout.

    ``tag`` is the level for correction sampling and the inner count for
    plain sampling; together with ``purpose`` it pins the stream path.
    Only the requested rows are checked, so an underflow reports the first
    failing index of the span.
    """
    if count <= 0:
        return np.empty(0)
    rows = _block_rows(m)
    parts = []
    for b in range(start // rows, (start + count - 1) // rows + 1):
        rng = stream.child(purpose, tag, b).generator()
        vals = _block_values(model, m, rows, rng, use_is, antithetic)
        parts.append(vals[max(start - b * rows, 0):start + count - b * rows])
    values = np.concatenate(parts)
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise InnerUnderflowError(start + int(np.argmax(bad)))
    return values


# ---------------------------------------------------------------------------
# Public sampling operations
# ---------------------------------------------------------------------------


def sample_level_values(
    model: BayesModel,
    config: EstimatorConfig,
    level: int,
    start: int,
    count: int,
    stream: RandomStream,
) -> np.ndarray:
    """Batch of level-``level`` variable realisations for outer indices
    [start, start + count): the level-zero variable at level 0, antithetic
    corrections at levels >= 1.  ``config.use_is`` is the importance switch."""
    if level < 0:
        raise ValueError("level must be >= 0")
    m = config.inner_count(level)
    return _span_values(
        model, m, start, count, stream,
        _PURPOSE_CORRECTION, level, config.use_is, antithetic=level >= 1,
    )


def sample_p_values(
    model: BayesModel,
    m: int,
    start: int,
    count: int,
    stream: RandomStream,
    use_is: bool,
) -> np.ndarray:
    """Batch of plain nested estimates (one outer sample, m inner samples);
    ``use_is`` is the importance switch."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _span_values(
        model, m, start, count, stream,
        _PURPOSE_PLAIN, m, use_is, antithetic=False,
    )


def nmc_estimate(
    model: BayesModel,
    n: int,
    m: int,
    stream: RandomStream,
    use_is: bool,
) -> tuple[float, float, float]:
    """Nested Monte Carlo estimate of the expected information gain.

    Averages n outer samples of [log p(Y | theta) - log mean of m inner
    weights]; the inner log-mean uses log-sum-exp throughout.  Returns
    (estimate, standard error, total cost).
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    values = sample_p_values(model, m, 0, n, stream, use_is=use_is)
    est = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return est, se, n * per_sample_cost(model, m, use_is)
