"""eig_mlmc benchmark: CPU time to solution on four workloads, with an optional
traced run that breaks the time down by package layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload linear_ladder --seed 1 --seconds 30 --trace 0

A run, set-up included, ends within ``--seconds``.  With ``--trace 0`` the
last line of standard output is a JSON object holding the end-to-end metrics,
whose times are CPU times scaled to a nominal machine speed by the reference
kernel of reference.py; with ``--trace 1`` it holds the per-layer metrics of one traced batch, plus
the tracing overhead measured against an untraced repeat of each operation.
Every operation's output is checked; ``correct`` is false when any check
failed.  The lines before the JSON describe the machine, each operation and
each metric.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

# Set-up probes per run; set-up time is reported as their median.
SETUP_PROBES = 3

# Seconds kept free at the end of a run for the report and clean-up.
RESERVE_S = 1.0

# A set-up probe prints its set-up CPU time, then the mean CPU time of the
# reference kernel run right after it in the same process, the first call
# left out.
SETUP_PROBE = """\
import sys, time
t0 = time.process_time()
from eig_mlmc.cli import parse_config
parse_config(sys.argv[1]).build_model()
setup = time.process_time() - t0
import reference
gauge = [reference.seconds() for _ in range(21)][1:]
print(repr(setup), repr(sum(gauge) / len(gauge)))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def setup_seconds(root: Path, config: dict) -> list[tuple[float, float]]:
    """Fresh-process set-up CPU times (import eig_mlmc, parse the config,
    build the model), each with the reference kernel's time after it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(Path(__file__).resolve().parent)]))
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, json.dumps(config)],
            cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        setup, gauge = proc.stdout.strip().splitlines()[-1].split()
        probes.append((float(setup), float(gauge)))
    return probes


class Op:
    """One timed operation and what its check found.  ``cpu`` is the CPU
    time of the whole process during the operation, all threads counted;
    ``seconds`` is its wall time.  With a ``gauge`` (reference.Gauge),
    ``samples`` holds the reference kernel's CPU times taken during the
    operation, and ``net_cpu`` is ``cpu`` without them."""

    def __init__(self, workload, index: int, tracer=None, gauge=None):
        self.index = index
        self.failures: list[str] = []
        self.errors: list[float] = []
        self.digest: dict[str, str] = {}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0, c0 = time.perf_counter(), time.process_time()
            with gauge if gauge is not None else contextlib.nullcontext():
                try:
                    if tracer is None:
                        out = workload.op(index)
                    else:
                        out = tracer.span("op", workload.op, index)
                except Exception as exc:  # a failed operation is counted, not fatal
                    out = None
                    self.failures.append(f"{type(exc).__name__}: {exc}")
            self.seconds = time.perf_counter() - t0
            self.cpu = time.process_time() - c0
        self.samples = list(gauge.samples) if gauge is not None else []
        self.net_cpu = self.cpu - math.fsum(self.samples)
        self.heavy_tail_warnings = sum("heavy-tailed" in str(w.message) for w in caught)
        self.out = out

    def check(self, workload) -> None:
        if self.out is None:
            return
        try:
            self.digest = workload.digest(self.out)
            failures, self.errors = workload.check(self.out)
        except Exception as exc:  # a malformed output fails its check
            failures = [f"check raised {type(exc).__name__}: {exc}"]
        self.failures.extend(failures)
        self.out = None

    def line(self, tag: str = "") -> str:
        status = "ok" if not self.failures else "FAIL " + "; ".join(self.failures)
        digests = " ".join(f"{k}={v[:16]}" for k, v in self.digest.items())
        gauge = f" gauge {statistics.fmean(self.samples):.5f} s x{len(self.samples)}" if self.samples else ""
        return (f"op {self.index}{tag} {self.net_cpu:.4f} s cpu {self.seconds:.4f} s wall{gauge} "
                f"{status} {digests}").rstrip()


def run_untraced(workload, gauge, deadline: float) -> list[Op]:
    """Operations, at least one, while the slowest so far, check included,
    would still end before ``deadline``."""
    ops = []
    slowest = 0.0
    while True:
        t0 = time.perf_counter()
        op = Op(workload, len(ops), gauge=gauge)
        op.check(workload)
        ops.append(op)
        now = time.perf_counter()
        slowest = max(slowest, now - t0)
        if now + slowest > deadline:
            return ops


def run_traced(workload, tracer, batch: int) -> tuple[list[Op], list[Op]]:
    """One batch, each operation traced and repeated untraced.  Which of the
    pair runs first alternates, so a machine that slows down or speeds up
    during the batch does not bias the overhead one way."""
    traced, plain = [], []
    for index in range(batch):
        if index % 2:
            again = Op(workload, index)
        with tracer:
            op = Op(workload, index, tracer)
        if not index % 2:
            again = Op(workload, index)
        op.check(workload)
        again.check(workload)
        if op.digest != again.digest:
            op.failures.append("traced output differs from the untraced repeat")
        traced.append(op)
        plain.append(again)
    return traced, plain


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "eig_mlmc" / "__init__.py").is_file():
        print(f"error: no eig_mlmc sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One BLAS thread: the package's parallelism is its own thread pool, and
    # BLAS threads on its small matrices only spin on a shared machine.
    # Pinned, not defaulted, so the caller's environment cannot move the
    # timings; set before numpy loads.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    import eig_mlmc
    import reference
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(machine_info(), sort_keys=True))

    workdir = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup = None if args.trace else setup_seconds(root, cls.config)
        workload = cls(args.seed, workdir)
        # Warm-up: first-call costs inside numpy/scipy are not the workload's.
        eig_mlmc.sample_level_values(workload.model, workloads.IS_CONFIG, 7, 0, 1,
                                     eig_mlmc.RandomStream(args.seed))
        if args.trace:
            tracer = tracing.Tracer(workload)
            ops, plain = run_traced(workload, tracer, workloads.BATCH)
        else:
            ops = run_untraced(workload, reference.Gauge(), start + args.seconds - RESERVE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()

    for op in ops:
        print(op.line(" traced" if args.trace else ""))
    failed = sum(1 for op in ops if op.failures)
    errors = [e for op in ops for e in op.errors]
    print(f"ops {len(ops)} failed {failed} batch {workloads.BATCH} elapsed {time.perf_counter() - start:.2f} s")
    cpu_s, wall_s = sum(op.cpu for op in ops), sum(op.seconds for op in ops)
    print(f"operations took {cpu_s:.4f} s cpu in {wall_s:.4f} s wall ({cpu_s / wall_s:.3f} cpu per wall)")
    if errors:
        print(f"rmse_over_eps {workloads.rms(errors)!r} over {len(errors)} estimates")

    if args.trace:
        traced_s = sum(op.cpu for op in ops)
        untraced_s = sum(op.cpu for op in plain)
        layers = tracing.layer_metrics(tracer.spans)
        layers.update(workloads.cost_units(workload, tracing.LEVELS))
        layers["adaptive.heavy_tail_warnings"] = sum(op.heavy_tail_warnings for op in ops)
        layers["adaptive.rmse_over_eps"] = workloads.rms(errors)
        layers["trace.overhead"] = traced_s / untraced_s - 1.0
        print(f"traced {traced_s:.4f} s cpu untraced {untraced_s:.4f} s cpu over {len(ops)} operations")
        metrics = {name: metric(value, tracing.unit_of(name)) for name, value in layers.items()}
    else:
        # Each operation's CPU time at the nominal speed, scaled by the
        # kernel's mean time during the operation, or during the run for an
        # operation too short to be sampled.
        pooled = statistics.fmean([t for op in ops for t in op.samples]
                                  or [reference.seconds() for _ in range(20)])
        scaled = [reference.scaled(op.net_cpu, statistics.fmean(op.samples or [pooled])) for op in ops]
        metrics = {
            "setup_s": metric(statistics.median(reference.scaled(t, g) for t, g in setup), "s"),
            # Inverse throughput: one batch of fixed work at the run's mean
            # rate.  The work of an operation varies with its seed on the
            # adaptive workloads, so every operation of the run counts.
            "scaled_cpu_s": metric(workloads.BATCH * statistics.fmean(scaled), "s"),
            "op_scaled_cpu_s_p50": metric(statistics.median(scaled), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_rate": metric((len(ops) - failed) / len(ops), "ratio"),
        }
        print(f"setup probes {setup!r}")
        print(f"reference kernel {pooled:.5f} s cpu, mean of {sum(len(op.samples) for op in ops)} "
              f"samples; nominal {reference.NOMINAL_S} s")
        print(f"unscaled batch {workloads.BATCH * statistics.fmean(op.net_cpu for op in ops)!r} s cpu, "
              f"op p50 {statistics.median(op.net_cpu for op in ops)!r} s cpu")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
