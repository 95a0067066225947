"""The benchmark's four workloads: inputs, one operation, and its check.

Every operation draws its estimator seed from the workload seed and the
operation's index, so the same workload seed gives the same inputs and no
two operations of a run share their random streams.  ``BATCH`` operations
make up a workload's fixed work.  README.md says why each workload exists
and which layers it stresses or bypasses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import eig_mlmc.adaptive as adaptive
import eig_mlmc.cli as cli
import eig_mlmc.estimators as estimators
from eig_mlmc import (
    AdaptiveConfig,
    BayesModel,
    EstimatorConfig,
    ForwardMap,
    LinearGaussianSpec,
    RandomStream,
    linear_gaussian_analytic_eig,
)

IS_CONFIG = EstimatorConfig(m0=1, use_is=True)
PK_CONFIG = {"model": "pk", "model_params": {"scheme": "beta"}, "eps": [5e-3], "seed": 0}

# Acceptance criterion 5: the PK beta-schedule value and its tolerance.
PK_TARGET = 10.63
PK_TOLERANCE = 0.05
PK_REFERENCE = json.loads(Path(__file__).with_name("pk_reference.json").read_text())

# Acceptance criterion 3: n_e = 10 bands for the fitted decay rates.
NE10_ALPHA_BAND = (0.85, 1.1)
NE10_BETA_BAND = (1.7, 2.2)

# Largest |finite-difference value - analytic value| accepted on pk_fd_levels.
FD_TOLERANCE = 1e-8

# Operations in a batch, the fixed work of every workload: 3-8 s on a 2-core
# Xeon, so that a traced batch and its untraced repeat fit in one run.
BATCH = 2


def op_seed(seed: int, index: int) -> int:
    """Estimator seed of operation ``index`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """One workload: ``op`` is timed, ``check`` and ``digest`` are not.

    ``check`` returns (failures, errors): failure messages, and the
    operation's estimate errors in units of its eps (adaptive workloads).
    """

    name: str
    config: dict

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.model = cli.parse_config(json.dumps(self.config)).build_model()

    def op(self, index: int):
        raise NotImplementedError

    def check(self, out) -> tuple[list[str], list[float]]:
        raise NotImplementedError

    def digest(self, out) -> dict[str, str]:
        raise NotImplementedError


class CliWorkload(Workload):
    """One operation is one in-process ``eig-mlmc`` invocation."""

    mode: str
    threads: int

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config))
        self.runs = 0

    def op(self, index: int):
        # A fresh directory per call, so a repeat never sees earlier files.
        self.runs += 1
        out_dir = self.workdir / f"out{self.runs}"
        argv = [
            "--config", str(self.config_path), "--mode", self.mode,
            "--seed", str(op_seed(self.seed, index)), "--threads", str(self.threads),
            "--output-dir", str(out_dir),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"eig-mlmc exited with code {code}")
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    def digest(self, out):
        return {name: sha256(data) for name, data in out.items()}


class LinearLadder(CliWorkload):
    name = "linear_ladder"
    mode = "estimate"
    threads = 1
    config = {"model": "linear", "estimator": "mlmc", "eps": [0.02, 0.01],
              "seed": 0, "is_enabled": True}
    reference = linear_gaussian_analytic_eig(LinearGaussianSpec())

    def check(self, out):
        lines = out["runs.csv"].decode().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        if sorted(float(r["eps"]) for r in rows) != sorted(self.config["eps"]):
            return [f"runs.csv holds eps {[r['eps'] for r in rows]}"], []
        failures, errors = [], []
        for r in rows:
            eps, est = float(r["eps"]), float(r["estimate"])
            errors.append((est - self.reference) / eps)
            if not abs(est - self.reference) <= 3 * eps:
                failures.append(f"eps {eps}: estimate {est!r} not within 3*eps of {self.reference!r}")
        return failures, errors


class Ne10RateStudy(CliWorkload):
    name = "ne10_rate_study"
    mode = "rate-study"
    threads = 2
    config = {"model": "linear", "model_params": {"N_e": 10}, "estimator": "mlmc",
              "eps": [0.01], "seed": 0, "diagnostics_levels": 8, "diagnostics_samples": 2000}

    def check(self, out):
        summary = json.loads(out["rate_summary.json"])
        levels = out["levels.csv"].decode().splitlines()[1:]
        failures = []
        if len(levels) != self.config["diagnostics_levels"] + 1:
            failures.append(f"levels.csv has {len(levels)} levels")
        for key, (lo, hi) in (("alpha_hat", NE10_ALPHA_BAND), ("beta_hat", NE10_BETA_BAND)):
            if not lo <= summary[key] <= hi:
                failures.append(f"{key} {summary[key]!r} outside [{lo}, {hi}]")
        return failures, []


class PkAdaptive(Workload):
    """One operation is one adaptive estimate at eps 5e-3."""

    name = "pk_adaptive"
    config = PK_CONFIG
    eps = 5e-3

    def op(self, index: int):
        return adaptive.run_adaptive(
            self.model, IS_CONFIG, AdaptiveConfig(eps=self.eps, seed=op_seed(self.seed, index)), threads=1,
        )

    def check(self, res):
        failures = []
        if not abs(res.estimate - PK_TARGET) <= PK_TOLERANCE:
            failures.append(f"estimate {res.estimate!r} not within {PK_TOLERANCE} of {PK_TARGET}")
        return failures, [(res.estimate - PK_REFERENCE["value"]) / self.eps]

    def digest(self, res):
        key = (res.estimate, res.total_cost, res.alpha_hat, res.beta_hat, res.levels)
        return {"result": sha256(repr(key).encode())}


class PkFdLevels(Workload):
    """One operation is one batch of corrections at each of a few levels,
    with the model's analytic derivatives removed so the Laplace fit
    differentiates numerically."""

    name = "pk_fd_levels"
    config = PK_CONFIG
    levels = (3, 4, 5)
    count = 1000

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        fwd = self.model.forward
        self.analytic = self.model
        self.model = BayesModel(
            self.analytic.prior,
            ForwardMap(fn=fwd.fn, out_dim=fwd.out_dim, cost_units=fwd.cost_units),
            self.analytic.noise,
            self.analytic.replicates,
        )

    def _values(self, model, index: int) -> list[np.ndarray]:
        stream = RandomStream(op_seed(self.seed, index))
        return [estimators.sample_level_values(model, IS_CONFIG, level, 0, self.count, stream)
                for level in self.levels]

    def op(self, index: int):
        return index, self._values(self.model, index)

    def check(self, out):
        index, values = out
        failures = []
        for level, got, exact in zip(self.levels, values, self._values(self.analytic, index)):
            if got.shape != exact.shape:
                failures.append(f"level {level}: {got.shape} values, expected {exact.shape}")
                continue
            gap = float(np.max(np.abs(got - exact)))
            if not gap <= FD_TOLERANCE:
                failures.append(f"level {level}: finite-difference values differ from analytic by {gap:.3g}")
        return failures, []

    def digest(self, out):
        return {"values": sha256(b"".join(v.tobytes() for v in out[1]))}


WORKLOADS = {w.name: w for w in (LinearLadder, PkAdaptive, Ne10RateStudy, PkFdLevels)}


def cost_units(workload: Workload, levels) -> dict[str, float]:
    """The paper's modelled cost per sample at each level, for the workload's model."""
    return {
        f"estimators.cost_units.l{level}": estimators.per_sample_cost(
            workload.model, IS_CONFIG.inner_count(level), IS_CONFIG.use_is,
        )
        for level in levels
    }


def rms(errors: list[float]) -> float:
    return math.sqrt(math.fsum(e * e for e in errors) / len(errors)) if errors else 0.0
