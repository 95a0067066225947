"""Outside-in tracer for the eig_mlmc layers.

While a :class:`Tracer` is installed it replaces the package's public entry
points with wrappers that record one span per call: name, start, end, the
span that caused it and a small payload (rows, level, result summary).  The
package itself is not edited; every wrapper calls the original function with
the original arguments, so the outputs are unchanged.  Spans stay in memory
and are reduced to per-layer metrics by :func:`layer_metrics`.

Calls made on a worker thread with no open span of their own (the sampler's
thread pool) are parented to the innermost open span of the thread that
installed the tracer, which is blocked waiting for them.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from collections import defaultdict

import numpy as np

import eig_mlmc.adaptive as adaptive
import eig_mlmc.bayes as bayes
import eig_mlmc.cli as cli
import eig_mlmc.estimators as estimators
import eig_mlmc.laplace as laplace
from eig_mlmc.bayes import BayesModel, ForwardMap
from eig_mlmc.gaussian import GaussianDensity
from eig_mlmc.streams import RandomStream

LEVELS = range(9)

_clock = time.perf_counter


def _rows(theta) -> int:
    """Rows in a batch of points (..., d); a single point (d,) is one row."""
    return math.prod(np.shape(theta)[:-1])


def _level_of(m: int) -> int:
    """Level index of a plain sampler with inner count m (M_l = 2**l, M0 = 1)."""
    return int(m).bit_length() - 1


class Tracer:
    """Records spans around the package's entry points while installed."""

    def __init__(self, workload):
        self.workload = workload
        self.spans: list[tuple] = []  # (id, parent, name, t0, t1, payload)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home: list[int] = []
        self._patches: list[tuple] = []

    # -- span recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, payload=None, result=None):
        """Wrap ``fn`` so each call records a span called ``name``.

        ``payload`` is called with the call's own arguments and ``result``
        with its return value; either gives the span's payload, and calls
        with neither record ``None``.  Payload functions stay cheap: the
        forward-map wrappers run once per finite-difference stencil.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._home[-1] if tracer._home else 0)
            sid = next(tracer._ids)
            info = payload(*args, **kwargs) if payload is not None else None
            stack.append(sid)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
            if result is not None:
                info = result(out)
            tracer.spans.append((sid, parent, name, t0, t1, info))
            return out

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (the benchmark's operation)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installation -------------------------------------------------------

    def traced_model(self, model: BayesModel) -> BayesModel:
        """The same model with a ForwardMap rebuilt around traced fn/jac/hess."""
        fwd = model.forward

        def leaf(name, fn):
            return None if fn is None else self.wrap(name, fn, payload=_rows)

        traced = ForwardMap(
            fn=leaf("models.eval", fwd.fn),
            out_dim=fwd.out_dim,
            jac=leaf("models.jac", fwd.jac),
            hess=leaf("models.hess", fwd.hess),
            cost_units=fwd.cost_units,
        )
        return BayesModel(model.prior, traced, model.noise, model.replicates)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        """Install the wrappers, and swap the workload's model for its traced
        copy; CLI workloads build theirs through ``RunConfig.build_model``."""
        self._home = self._stack()
        w = self.wrap

        def z_info(model, config, level, start, count, *_, **__):
            return (int(level), int(count))

        def p_info(model, m, start, count, *_, **__):
            return (_level_of(m), int(count))

        def fit_rows(model, theta_star, y):
            return len(theta_star)

        def adaptive_info(res):
            return (len(res.iterations), res.max_level,
                    sum(r.n_samples for r in res.levels), res.total_cost)

        build_model = cli.RunConfig.build_model

        patches = [
            (bayes, "fd_jacobian", w("bayes.fd_jacobian", bayes.fd_jacobian)),
            (bayes, "fd_hessian", w("bayes.fd_hessian", bayes.fd_hessian)),
            (laplace, "fit_batch", w("laplace.fit_batch", laplace.fit_batch, payload=fit_rows)),
            (laplace.LaplaceBatch, "draw", w("laplace.draw", laplace.LaplaceBatch.draw)),
            (laplace.LaplaceBatch, "log_pdf", w("laplace.log_pdf", laplace.LaplaceBatch.log_pdf)),
            (GaussianDensity, "log_pdf", w("gaussian.log_pdf", GaussianDensity.log_pdf)),
            (RandomStream, "generator", w("streams.generator", RandomStream.generator)),
            (adaptive, "optimal_allocation", w("adaptive.optimal_allocation", adaptive.optimal_allocation)),
            (self.workload, "model", self.traced_model(self.workload.model)),
            (cli.RunConfig, "build_model", lambda config: self.traced_model(build_model(config))),
            (cli, "run_estimate", w("cli.run_estimate", cli.run_estimate)),
            (cli, "main", w("cli.main", cli.main)),
        ]
        run_adaptive = w("adaptive.run_adaptive", adaptive.run_adaptive, result=adaptive_info)
        levels = w("estimators.sample_level_values", estimators.sample_level_values, payload=z_info)
        plain = w("estimators.sample_p_values", estimators.sample_p_values, payload=p_info)
        for module in (adaptive, cli):
            patches.append((module, "run_adaptive", run_adaptive))
        for module in (estimators, adaptive, cli):
            patches.append((module, "sample_level_values", levels))
        patches.append((cli, "sample_p_values", plain))
        for owner, attr, new in patches:
            self._patch(owner, attr, new)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------


def _covered(t0: float, t1: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [t0, t1] covered by the union of ``intervals``."""
    total = 0.0
    end = t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if ".z_us." in name or ".p_us." in name or name.endswith("_us_per_row"):
        return "us"
    if "cost_units" in name:
        return "units"
    if name.endswith(("_per_used", "rmse_over_eps", "overhead")):
        return "ratio"
    return "count"


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer times and counts from recorded spans.

    ``*_s`` metrics named after an entry point are summed span durations,
    which include the layers called below it; ``self_s`` subtracts the part
    of each span that its child spans cover.  Layers the workload never
    calls read 0.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))

    dur = defaultdict(float)
    count = defaultdict(int)
    rows = defaultdict(int)
    self_time = defaultdict(float)
    z_time, z_rows = defaultdict(float), defaultdict(int)
    p_time, p_rows = defaultdict(float), defaultdict(int)
    fd_eval_rows = 0
    pilot_s = 0.0
    adaptive_runs = []

    for sid, parent, name, t0, t1, info in spans:
        d = t1 - t0
        dur[name] += d
        count[name] += 1
        layer = name.split(".", 1)[0]
        self_time[layer] += d - _covered(t0, t1, children[sid])
        parent_name = by_id[parent][2] if parent in by_id else ""
        if isinstance(info, int):
            rows[name] += info
            if name == "models.eval" and parent_name.startswith("bayes.fd_"):
                fd_eval_rows += info
        elif name == "estimators.sample_level_values":
            level, n = info
            z_time[level] += d
            z_rows[level] += n
        elif name == "estimators.sample_p_values":
            level, n = info
            p_time[level] += d
            p_rows[level] += n
            if parent_name == "cli.run_estimate":
                pilot_s += d
        elif name == "adaptive.run_adaptive":
            adaptive_runs.append(info)

    sample_names = ("estimators.sample_level_values", "estimators.sample_p_values")
    rows_used = sum(z_rows.values()) + sum(p_rows.values())
    rows_computed = rows["laplace.fit_batch"]
    fit_s = dur["laplace.fit_batch"]
    out = {
        "models.eval_s": dur["models.eval"],
        "models.jac_s": dur["models.jac"],
        "models.hess_s": dur["models.hess"],
        "models.eval_rows": rows["models.eval"],
        "models.deriv_rows": rows["models.jac"] + rows["models.hess"],
        "bayes.fd_s": dur["bayes.fd_jacobian"] + dur["bayes.fd_hessian"],
        "bayes.fd_eval_rows": fd_eval_rows,
        "laplace.fit_s": fit_s,
        "laplace.fit_rows": rows_computed,
        "laplace.fit_us_per_row": 1e6 * fit_s / rows_computed if rows_computed else 0.0,
        "laplace.draw_s": dur["laplace.draw"],
        "laplace.log_pdf_s": dur["laplace.log_pdf"],
        "gaussian.log_pdf_s": dur["gaussian.log_pdf"],
        "streams.generator_calls": count["streams.generator"],
        "streams.generator_s": dur["streams.generator"],
        "estimators.sample_s": sum(dur[n] for n in sample_names),
        "estimators.self_s": self_time["estimators"],
        "estimators.rows_used": rows_used,
        "estimators.rows_computed": rows_computed,
        "estimators.rows_computed_per_used": rows_computed / rows_used if rows_used else 0.0,
    }
    for kind, time_at, rows_at in (("z", z_time, z_rows), ("p", p_time, p_rows)):
        for level in LEVELS:
            n = rows_at[level]
            out[f"estimators.{kind}_us.l{level}"] = 1e6 * time_at[level] / n if n else 0.0
    out.update({
        "adaptive.self_s": self_time["adaptive"],
        "adaptive.rounds": sum(r[0] for r in adaptive_runs),
        "adaptive.max_level": max((r[1] for r in adaptive_runs), default=0),
        "adaptive.samples": sum(r[2] for r in adaptive_runs),
        "adaptive.cost_units": math.fsum(r[3] for r in adaptive_runs),
        "cli.self_s": self_time["cli"],
        "cli.pilot_s": pilot_s,
    })
    return out
