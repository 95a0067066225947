"""Compute the PK reference value that the ``pk_adaptive`` workload scores
against, and write it to ``perfbench/pk_reference.json``.

Runs the adaptive estimator on the PK model with the beta schedule at an
accuracy five times tighter than the workload's, once per seed, and records
the mean and its standard error.  The seeds lie outside the range the
benchmark draws its operation seeds from.

Run from the repository root (a few minutes per seed on one core):

    PYTHONPATH=src python3 perfbench/make_pk_reference.py
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

from eig_mlmc import AdaptiveConfig, EstimatorConfig, make_pk_model, run_adaptive
from eig_mlmc.models import PkSpec, sampling_schedule

EPS = 1e-3
SEEDS = (900_001, 900_002, 900_003, 900_004)


def main() -> None:
    model = make_pk_model(PkSpec(schedule=sampling_schedule("beta")))
    estimates = []
    for seed in SEEDS:
        t0 = time.perf_counter()
        res = run_adaptive(model, EstimatorConfig(m0=1, use_is=True), AdaptiveConfig(eps=EPS, seed=seed))
        estimates.append(res.estimate)
        print(f"seed {seed}: {res.estimate!r} (L={res.max_level}, {time.perf_counter() - t0:.1f} s)", flush=True)
    out = {
        "value": statistics.fmean(estimates),
        "std_error": statistics.stdev(estimates) / math.sqrt(len(estimates)),
        "eps": EPS,
        "seeds": list(SEEDS),
        "estimates": estimates,
        "command": "PYTHONPATH=src python3 perfbench/make_pk_reference.py",
    }
    path = Path(__file__).with_name("pk_reference.json")
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(path)


if __name__ == "__main__":
    main()
