"""Batch front-end: JSON run configuration in, CSV/JSON diagnostics out.

Two modes.  ``estimate`` runs the selected estimator once per requested
accuracy and writes ``runs.csv`` plus ``allocation.csv``; ``rate-study``
samples the level variables on a fixed grid and writes ``levels.csv`` plus
``rate_summary.json``.  All files are written to a temporary name and renamed
into place, so a failed run never leaves a partial file.  Identical config
and seed produce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 the estimator could not
finish (non-convergence, allocation overflow or inner underflow), 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adaptive import AdaptiveConfig, bias_converged, estimate_rates, nmc_cost_model, run_adaptive
from .bayes import BayesModel
from .errors import InnerUnderflowError, NonConvergenceError
from .estimators import (
    EstimatorConfig,
    nmc_estimate,
    per_sample_cost,
    sample_level_pair,
    sample_level_values,
    sample_p_values,
    stats_from_values,
)
from .models import LinearGaussianSpec, PkSpec, make_linear_model, make_pk_model, sampling_schedule
from .streams import RandomStream

__all__ = ["RunConfig", "ConfigError", "parse_config", "run_rate_study", "run_estimate", "main"]

# Samples used to estimate var(P_L) for the single-level cost report and to
# size a real nested run.
PILOT_SAMPLES = 2000

_TOP_KEYS = {
    "model", "model_params", "estimator", "eps", "seed", "omega", "L0",
    "N_star", "M0", "L_max", "is_enabled", "output_dir",
    "diagnostics_levels", "diagnostics_samples",
}
_LINEAR_KEYS = {"A", "mu_theta", "Sigma_theta", "Sigma_eps", "N_e"}
_PK_KEYS = {"scheme", "J", "dose", "noise_var", "schedule"}


class ConfigError(ValueError):
    """Invalid run configuration (syntax or semantics)."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> bool:
    """``value`` is a number with a finite float value; an integer beyond
    the float range is not."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


def _integer(key: str, value, minimum: int) -> int:
    """``value`` as an int when integral (2 or 2.0, not a bool), >= minimum and < 2**63 (seed: 2**64)."""
    bits = 64 if key == "seed" else 63  # the range of RandomStream, else numpy's index range
    if not (_is_number(value) and (isinstance(value, int) or value.is_integer()) and minimum <= value < 2 ** bits):
        raise ConfigError(f"invalid value for {key!r}: must be an integer >= {minimum} and < 2**{bits}")
    return int(value)


def _numeric_array(key: str, value) -> np.ndarray:
    """``value`` as a float array when it is a number or a nested list of
    finite numbers with a regular shape."""
    def numeric(v) -> bool:
        return _is_number(v) or (isinstance(v, list) and all(numeric(x) for x in v))

    try:
        arr = np.asarray(value, dtype=float) if numeric(value) else None
    except (ValueError, OverflowError):  # ragged nesting, or an integer beyond the float range
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        raise ConfigError(f"invalid value for {key!r}: must be a regular array of finite numbers")
    return arr


def _model_spec(model: str, params) -> LinearGaussianSpec | PkSpec:
    """``model_params`` as the model's spec: the one conversion, run when a
    ``RunConfig`` is made.  The keys and JSON types are checked here, the
    values by the spec."""
    if not isinstance(params, dict):
        raise ConfigError("invalid value for 'model_params': must be an object")
    bad = set(params) - (_LINEAR_KEYS if model == "linear" else _PK_KEYS)
    if bad:
        raise ConfigError(f"invalid value for 'model_params': unknown key {sorted(bad)[0]!r} for model {model!r}")
    if model == "linear":
        kwargs = {k: _numeric_array(k, v) for k, v in params.items() if k != "N_e"}
        if "N_e" in params:
            kwargs["n_e"] = _integer("N_e", params["N_e"], 1)
    else:
        scheme = params.get("scheme", "beta")
        if scheme not in ("beta", "even", "geometric"):
            raise ConfigError("invalid value for 'scheme': must be 'beta', 'even' or 'geometric'")
        j = _integer("J", params.get("J", 15), 1)  # checked even when a schedule replaces it
        if "schedule" in params:
            kwargs = {"schedule": _numeric_array("schedule", params["schedule"])}
        else:
            kwargs = {"schedule": sampling_schedule(scheme, j)}
        for key in ("dose", "noise_var"):
            if key in params:
                if not _finite(params[key]):
                    raise ConfigError(f"invalid value for {key!r}: must be a finite number")
                kwargs[key] = float(params[key])
    try:
        return LinearGaussianSpec(**kwargs) if model == "linear" else PkSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid value for 'model_params': {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run, checked when it is made.  A JSON config, a
    CLI override (``dataclasses.replace``) and a config built in code run the
    same checks, which raise ``ConfigError`` naming the JSON key, and keep
    the values checked: eps sorted descending, integral numbers as ints,
    and ``model_params`` converted once to the model's spec, which
    ``build_model`` uses."""

    model: str
    estimator: str
    eps: tuple[float, ...]
    seed: int
    model_params: dict = field(default_factory=dict)
    omega: float = 0.25
    l0: int = 2
    n_star: int = 1000
    m0: int = 1
    l_max: int = 20
    is_enabled: bool = True
    output_dir: str = "."
    diagnostics_levels: int = 8
    diagnostics_samples: int = 20000

    def __post_init__(self):
        def fail(key, why):
            raise ConfigError(f"invalid value for {key!r}: {why}")

        def put(name, value):
            object.__setattr__(self, name, value)

        if self.model not in ("linear", "pk"):
            fail("model", "must be 'linear' or 'pk'")
        if self.estimator not in ("mlmc", "nmc"):
            fail("estimator", "must be 'mlmc' or 'nmc'")
        if not isinstance(self.eps, (list, tuple)) or not self.eps or not all(
            _finite(e) and e > 0 for e in self.eps
        ):
            fail("eps", "must be a non-empty list of positive finite numbers")
        put("eps", tuple(sorted((float(e) for e in self.eps), reverse=True)))
        put("seed", _integer("seed", self.seed, 0))
        put("_spec", _model_spec(self.model, self.model_params))
        if not (_is_number(self.omega) and 0.0 < self.omega < 1.0):
            fail("omega", "must be a number in (0, 1)")
        put("omega", float(self.omega))
        if not isinstance(self.is_enabled, bool):
            fail("is_enabled", "must be a boolean")
        put("l0", _integer("L0", self.l0, 1))
        put("n_star", _integer("N_star", self.n_star, 2))
        put("m0", _integer("M0", self.m0, 1))
        put("l_max", _integer("L_max", self.l_max, self.l0))
        put("diagnostics_levels", _integer("diagnostics_levels", self.diagnostics_levels, 1))
        put("diagnostics_samples", _integer("diagnostics_samples", self.diagnostics_samples, 2))
        if not (isinstance(self.output_dir, str) and self.output_dir):
            fail("output_dir", "must be a non-empty string")

    def build_model(self) -> BayesModel:
        return make_linear_model(self._spec) if self.model == "linear" else make_pk_model(self._spec)

    def estimator_config(self) -> EstimatorConfig:
        return EstimatorConfig(m0=self.m0, use_is=self.is_enabled)


def parse_config(text: str) -> RunConfig:
    """A ``RunConfig`` from JSON text.  Only the syntax, the top-level object
    and its keys are checked here; ``RunConfig`` checks the values.  An
    absent ``estimator`` is ``mlmc``, an absent ``model``, ``eps`` or
    ``seed`` is null (and rejected), and other absent keys take the
    ``RunConfig`` defaults."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]!r}")
    fields = {"model": None, "estimator": "mlmc", "eps": None, "seed": None}
    fields.update((key.lower(), value) for key, value in raw.items())
    return RunConfig(**fields)


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _json(obj) -> str:
    """JSON text with nan and inf written as null: RFC 8259 has no token for them."""
    def strict(v):
        if isinstance(v, dict):
            return {k: strict(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [strict(x) for x in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v
    return json.dumps(strict(obj), sort_keys=True, default=repr) + "\n"


def _csv(rows: list[tuple], header: str) -> str:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _mean_var(values: np.ndarray) -> tuple[float, float]:
    """Mean and unbiased variance of a pilot batch; a variance past
    the float range is inf, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean(values)), float(np.var(values, ddof=1))


def run_rate_study(config: RunConfig) -> list[Path]:
    """Sample P_l and Z_l on levels 0..diagnostics_levels and write
    ``levels.csv`` and ``rate_summary.json``.  One draw per level gives both:
    P_l comes from the outer draws and inner weights of the Z_l block, so
    at level 0 the two are the same values and their columns coincide."""
    model = config.build_model()
    est = config.estimator_config()
    stream = RandomStream(config.seed)
    n = config.diagnostics_samples
    out = Path(config.output_dir)

    rows = []
    corr_means, corr_vars = [], []
    for level in range(config.diagnostics_levels + 1):
        zv, pv = sample_level_pair(model, est, level, 0, n, stream)
        cost = per_sample_cost(model, est.inner_count(level), est.use_is)
        zs, ps = stats_from_values(zv), stats_from_values(pv)
        rows.append((level, ps.mean, ps.variance, zs.mean, zs.variance, zs.kurtosis, cost))
        if level >= 1:
            corr_means.append(zs.mean)
            corr_vars.append(zs.variance)

    alpha_hat, beta_hat = estimate_rates(corr_means, corr_vars)

    levels_path = out / "levels.csv"
    _write_atomic(levels_path, _csv(rows, "level,mean_P,var_P,mean_Z,var_Z,kurt_Z,cost"))
    summary = {
        "alpha_hat": alpha_hat,
        "beta_hat": beta_hat,
        "model": config.model,
        "levels": config.diagnostics_levels,
        "samples": n,
        "is_enabled": est.use_is,
    }
    summary_path = out / "rate_summary.json"
    _write_atomic(summary_path, _json(summary))
    return [levels_path, summary_path]


def _pilot_var_p(model, est, m, stream) -> float:
    """var(P) at inner count ``m`` from a plain pilot of PILOT_SAMPLES on ``stream``."""
    return _mean_var(sample_p_values(model, m, 0, PILOT_SAMPLES, stream, use_is=est.use_is))[1]


def _pilot_nmc_plan(model, est, config, eps, stream):
    """Choose (L, N) for a real nested run: L by the driver's bias test on
    pilot corrections (extrapolated beyond level 4), N from a pilot variance
    of P_L.  Raises ``NonConvergenceError`` when no level up to L_max passes
    or N does not fit a 64-bit integer."""
    top = 4
    pilots = [_mean_var(sample_level_values(model, est, level, 0, PILOT_SAMPLES, stream))
              for level in range(1, top + 1)]
    means, variances = zip(*pilots)
    alpha_hat, _ = estimate_rates(means, variances)
    for level in range(min(top, config.l_max), config.l_max + 1):
        mean = means[level - 1] if level <= top else abs(means[-1]) * 2.0 ** (-alpha_hat * (level - top))
        if mean == 0.0 or bias_converged(mean, alpha_hat, eps, config.omega):
            break
    else:
        raise NonConvergenceError(f"nested pilot: bias test failing up to the level cap {config.l_max}", [])
    var_pl = _pilot_var_p(model, est, est.inner_count(level), stream)
    budget = (1.0 - config.omega) * eps * eps
    if not (budget > 0.0 and var_pl / budget < 2.0 ** 63):
        raise NonConvergenceError(
            f"nested pilot: the sample count at eps {eps!r} does not fit a 64-bit integer", [])
    n = max(2, math.ceil(var_pl / budget))
    return level, n, var_pl, alpha_hat


def run_estimate(config: RunConfig) -> list[Path]:
    """Run the configured estimator once per eps value; write ``runs.csv``
    (one row per eps) and ``allocation.csv`` (one row per eps and level)."""
    model = config.build_model()
    est = config.estimator_config()
    out = Path(config.output_dir)
    run_rows = []
    alloc_rows = []

    for i, eps in enumerate(config.eps):
        if config.estimator == "mlmc":
            adapt = AdaptiveConfig(
                eps=eps, omega=config.omega, l0=config.l0,
                n_star=config.n_star, l_max=config.l_max, seed=config.seed,
            )
            res = run_adaptive(model, est, adapt)
            top = res.max_level
            m_top = est.inner_count(top)
            var_pl = _pilot_var_p(model, est, m_top, RandomStream(config.seed).child(3, i))
            nmc_cost = nmc_cost_model(var_pl, per_sample_cost(model, m_top, est.use_is), eps, config.omega)
            run_rows.append((eps, res.estimate, res.total_cost, top,
                             res.alpha_hat, res.beta_hat, nmc_cost))
            for rec in res.levels:
                alloc_rows.append((eps, rec.level, rec.n_samples, rec.variance, rec.cost_per_sample))
        else:
            stream = RandomStream(config.seed).child(4, i)
            level, n, var_pl, alpha_hat = _pilot_nmc_plan(model, est, config, eps, stream)
            m = est.inner_count(level)
            estimate, _, cost = nmc_estimate(model, n, m, stream, use_is=est.use_is)
            nmc_cost = nmc_cost_model(var_pl, per_sample_cost(model, m, est.use_is),
                                      eps, config.omega)
            run_rows.append((eps, estimate, cost, level, alpha_hat, math.nan, nmc_cost))
            alloc_rows.append((eps, level, n, var_pl, per_sample_cost(model, m, est.use_is)))

    runs_path = out / "runs.csv"
    alloc_path = out / "allocation.csv"
    _write_atomic(runs_path, _csv(run_rows, "eps,estimate,total_cost,L,alpha_hat,beta_hat,nmc_model_cost"))
    _write_atomic(alloc_path, _csv(alloc_rows, "eps,level,N_level,var_level,cost_level"))
    return [runs_path, alloc_path]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="eig-mlmc",
        description="Estimate expected information gain by nested or multilevel Monte Carlo.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--mode", choices=["estimate", "rate-study"], default="estimate")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--output-dir", default=None, help="override the config output directory")
    parser.add_argument("--threads", type=int,
                        help="accepted for compatibility; ignored")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 4
    try:
        overrides = {"seed": args.seed, "output_dir": args.output_dir}
        config = dataclasses.replace(parse_config(text), **{k: v for k, v in overrides.items() if v is not None})
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.mode == "rate-study":
            paths = run_rate_study(config)
        else:
            paths = run_estimate(config)
    except NonConvergenceError as exc:
        trace_path = Path(config.output_dir) / "trace.json"
        try:
            _write_atomic(trace_path, _json([rec.__dict__ for rec in exc.trace]))
        except OSError as io_exc:
            print(f"error: cannot write {trace_path}: {io_exc}", file=sys.stderr)
            return 4
        print(f"error: {exc} (trace written to {trace_path})", file=sys.stderr)
        return 3
    except InnerUnderflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 4

    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
