"""Cost of the multilevel estimator versus the single-level alternative.

Halving the target accuracy should multiply the multilevel cost by about 4
(quadratic scaling) but the single-level nested cost by about 8 (cubic
scaling).  This script walks an accuracy ladder on the linear reference case
and prints both cost curves with their fitted slopes.
"""

import numpy as np

from eig_mlmc import (
    AdaptiveConfig,
    EstimatorConfig,
    LinearGaussianSpec,
    RandomStream,
    make_linear_model,
    nmc_cost_model,
    run_adaptive,
    sample_p_values,
)
from eig_mlmc.estimators import per_sample_cost

model = make_linear_model(LinearGaussianSpec())
config = EstimatorConfig(m0=1, use_is=True)
eps_ladder = [2e-2, 1e-2, 5e-3, 2.5e-3]

print("eps        estimate   L   multilevel cost   single-level cost")
ml_costs, sl_costs = [], []
for i, eps in enumerate(eps_ladder):
    run = run_adaptive(model, config, AdaptiveConfig(eps=eps, seed=3, n_star=200))
    m_top = config.inner_count(run.max_level)
    # variance of the deepest single-level variable, for its cost model
    pv = sample_p_values(model, m_top, 0, 2000, RandomStream(3).child(9, i), use_is=True)
    sl = nmc_cost_model(np.var(pv, ddof=1), per_sample_cost(model, m_top, True), eps, 0.25)
    ml_costs.append(run.total_cost)
    sl_costs.append(sl)
    print(f"{eps:<9g} {run.estimate:8.4f}  {run.max_level:2d}   {run.total_cost:15.3g}   {sl:17.3g}")

x = np.log2(eps_ladder)
print(f"\nfitted multilevel slope:   {np.polyfit(x, np.log2(ml_costs), 1)[0]:+.2f}  (theory: -2)")
print(f"fitted single-level slope: {np.polyfit(x, np.log2(sl_costs), 1)[0]:+.2f}  (theory: -3)")
print("\nthe ratio keeps growing as eps shrinks, which is the whole point")
print("of the antithetic multilevel construction.")
