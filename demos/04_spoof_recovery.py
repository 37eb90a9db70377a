#!/usr/bin/env python3
"""Attack the ring: score every candidate member and bet on the real spend.

A forest trained on per-candidate features (member profile, spend-to-creation
delta, age rank) has to beat the 1-in-ring_size guess.  Heterogeneous agent
tempos leak enough pattern-of-life for a real edge.
"""

from ringtrace import Rng, candidate_table, public_view
from ringtrace.economy import AgentProfile, EconomySpec, SimParams, gen_economy, run_simulation
from ringtrace.ml import ModelSpec, SearchSpec, spoof_task

agents = [AgentProfile(i, 0, 25.0 * 3 ** i, 50.0) for i in range(6)]
spec = EconomySpec("demo", agents, target_tx_count=900, ring_size=7, seed=11,
                   sim=SimParams(block_interval=10, warmup_blocks=40,
                                 coinbase_maturity=15))
files = gen_economy(spec, Rng(spec.seed))
chain, truth = run_simulation(files, spec)

table = candidate_table(public_view(chain))
print(f"candidates: {table.raw.shape[0]} rows "
      f"({len(truth.real_indices)} transfers, ring size {spec.ring_size})")

model = ModelSpec("forest", "classify",
                  {"n_trees": 20, "max_depth": 12, "max_features": 0.15,
                   "min_samples_split": 8},
                  class_weight="balanced")
report = spoof_task(table, truth.real_indices, model,
                    SearchSpec(budget=1, folds=2, seed=11))

print(f"\nrings evaluated: {report.extras['n_rings']}")
print(f"top-1 ring accuracy: {report.summary['top1']['mean']:.3f}")
print(f"guessing baseline:   {report.baseline['top1']:.3f}")
print(f"guess oldest member: {report.baseline['guess_oldest_top1']:.3f}")
print(f"guess newest member: {report.baseline['guess_newest_top1']:.3f}")
print(f"chance-score control: {report.extras['chance_control_top1']:.3f}")
