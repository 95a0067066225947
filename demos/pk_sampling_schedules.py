"""Rank three blood-sampling schedules for a pharmacokinetic experiment.

A drug dose is administered at time zero and the concentration is measured
at 15 time points over 24 hours.  The expected information gain about the
absorption rate, elimination rate, and volume of distribution depends on
where those time points sit, so it ranks candidate schedules.
"""

from eig_mlmc import (
    AdaptiveConfig,
    EstimatorConfig,
    PkSpec,
    make_pk_model,
    run_adaptive,
    sampling_schedule,
)

EPS = 5e-3

results = {}
for scheme in ("beta", "even", "geometric"):
    times = sampling_schedule(scheme)
    print(f"{scheme:10s} first/last sampling times: {times[0]:.2f}h / {times[-1]:.2f}h")
    model = make_pk_model(PkSpec(schedule=times))
    run = run_adaptive(
        model,
        EstimatorConfig(m0=1, use_is=True),
        AdaptiveConfig(eps=EPS, seed=2024),
    )
    results[scheme] = run

print()
print(f"expected information gain at accuracy {EPS:g}:")
for scheme, run in sorted(results.items(), key=lambda kv: -kv[1].estimate):
    print(f"  {scheme:10s} {run.estimate:7.4f}   (cost {run.total_cost:.3g} evaluations, "
          f"alpha={run.alpha_hat:.2f}, beta={run.beta_hat:.2f})")

best = max(results, key=lambda s: results[s].estimate)
print(f"\nmost informative schedule: {best}")
