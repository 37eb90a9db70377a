#!/usr/bin/env python3
"""Try to regress the hidden transfer values from public features.

Amounts are independent draws, so the honest result is a score at or below
the mean-predictor baseline of zero.  The planted-column control shows the
pipeline recovers value information the moment any actually leaks.
"""

import dataclasses

import numpy as np

from ringtrace import Rng, featurize_chain, public_view
from ringtrace.economy import AgentProfile, EconomySpec, SimParams, gen_economy, run_simulation
from ringtrace.ml import ModelSpec, SearchSpec, value_task

agents = [AgentProfile(i, 0, 60.0 * 2 ** i, 70.0) for i in range(6)]
spec = EconomySpec("demo", agents, target_tx_count=700, ring_size=5, seed=9,
                   sim=SimParams(block_interval=15, warmup_blocks=40))
files = gen_economy(spec, Rng(spec.seed))
chain, truth = run_simulation(files, spec)

fm = featurize_chain(public_view(chain))
targets = np.array([truth.labels[t].intended_amount for t in fm.tx_ids],
                   dtype=np.float64)
print(f"targets: mean={targets.mean():.1f} sd={targets.std():.1f}")

model = ModelSpec("forest", "regress", {"n_trees": 30, "max_depth": 10})
search = SearchSpec(budget=1, folds=5, seed=9)
report = value_task(fm, targets, model, search)
print(f"\nhonest r2 over 5 folds: {report.summary['r2']['mean']:.3f}")
print(f"mean-predictor baseline on train folds: {report.baseline['r2_train']}")

leaky = dataclasses.replace(
    fm,
    raw=np.column_stack([fm.raw,
                         targets + np.random.default_rng(9).normal(0, 0.01,
                                                                   len(targets))]),
    names=tuple(fm.names) + ("planted_leak",),
)
leak_model = ModelSpec("forest", "regress",
                       {"n_trees": 30, "max_depth": 10, "max_features": 1.0})
leak = value_task(leaky, targets, leak_model, search)
print(f"\nwith a planted value column: r2 = {leak.summary['r2']['mean']:.3f}")
print("top importance:", leak.feature_importances[0][0])
print("\nthe privacy holds because nothing in the public view carries value,")
print("not because the pipeline is unable to exploit a leak.")
