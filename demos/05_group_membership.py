#!/usr/bin/env python3
"""Classify which pool a transfer's receiver belongs to.

Two pools trade in disjoint daily windows.  The classifier only sees public
features, yet the time-of-day columns give the pools away; the importance
ranking names the leaking features.
"""

import numpy as np

from ringtrace import Rng, featurize_chain, public_view
from ringtrace.economy import AgentProfile, EconomySpec, SimParams, gen_economy, run_simulation
from ringtrace.ml import ModelSpec, SearchSpec, group_task

agents = []
for pool, window in ((0, (0.0, 12.0)), (1, (12.0, 24.0))):
    for i in range(8):
        agents.append(AgentProfile(pool * 8 + i, pool,
                                   wait_lambda=300.0 * 2 ** i,
                                   amount_lambda=80.0,
                                   active_windows=[window]))
spec = EconomySpec("demo", agents, target_tx_count=800, ring_size=7, seed=5,
                   sim=SimParams(block_interval=60, warmup_blocks=60))
files = gen_economy(spec, Rng(spec.seed))
chain, truth = run_simulation(files, spec)

fm = featurize_chain(public_view(chain))
y = np.array([truth.labels[t].receiver_pool for t in fm.tx_ids])
print(f"transfers: {len(y)}, pool sizes: {np.bincount(y)}")

model = ModelSpec("forest", "classify", {"n_trees": 30, "max_depth": 10})
report = group_task(fm, y, model,
                    SearchSpec(budget=1, folds=5, seed=5))

print(f"\n5-fold accuracy: {report.summary['accuracy']['mean']:.3f} "
      f"(sd {report.summary['accuracy']['sd']:.3f})")
print("per-class recall:",
      {c: round(v["mean"], 3) for c, v in report.summary["recall"].items()})
print("\ntop leaking features:")
for name, weight in report.feature_importances[:5]:
    print(f"  {weight:.3f}  {name}")
