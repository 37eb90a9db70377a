"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Heavy fixtures (the five scenario simulations, the s03 feature stack) are
module-scoped and shared across criteria.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from ringtrace.cli import main
from ringtrace.economy import (
    AgentProfile,
    EconomySpec,
    SimParams,
    gen_economy,
    graph_edges,
    run_simulation,
)
from ringtrace.features import (
    FEATURE_NAMES,
    candidate_table,
    featurize_chain,
    one_hop,
)
from ringtrace.ingest import dump_to_public_chain, export_dump, external_pipeline, parse_dump
from ringtrace.ledger import load_chain, public_view, validate_chain
from ringtrace.ml import (
    ModelSpec,
    SearchSpec,
    feature_importance,
    gradient_check,
    group_task,
    precision_recall,
    r_squared,
    spoof_task,
    train_forest,
    train_mlp,
    value_task,
)
from ringtrace.ml.forest import ForestHyperParams
from ringtrace.ml.mlp import MlpHyperParams
from ringtrace.rng import Rng

from test_economy import small_spec
from test_features import naive_one_hop

TABLE1 = {
    "s03": (23_812, 4_898),
    "s04": (25_509, 4_923),
    "s05": (41_583, 4_923),
    "s06": (37_281, 24_807),
    "s07": (58_551, 7_070),
}

SEED = 7


def criterion(n, name, ok):
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """generate && simulate for all five scenarios through the CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    out = {}
    for name in TABLE1:
        t0 = time.time()
        gdir = root / name / "gen"
        sdir = root / name / "sim"
        assert main(["generate", name, "--seed", str(SEED),
                     "--out", str(gdir)]) == 0
        code = main(["simulate", "--economy", str(gdir / "economy.json"),
                     "--out", str(sdir)])
        out[name] = {"dir": sdir, "elapsed": time.time() - t0, "exit": code}
    return out


@pytest.fixture(scope="module")
def s03(runs):
    """Ground-truth chain, public view, features, and candidates for s03."""
    sdir = runs["s03"]["dir"]
    chain = load_chain(sdir / "chain.json")
    pub = public_view(chain)
    fm = featurize_chain(pub)
    table = candidate_table(pub)
    labels = {}
    with (sdir / "labels.csv").open() as fh:
        import csv
        for row in csv.DictReader(fh):
            labels[int(row["tx_id"])] = row
    real = {}
    with (sdir / "real_inputs.csv").open() as fh:
        import csv
        acc = {}
        for row in csv.DictReader(fh):
            acc.setdefault(int(row["tx_id"]), {})[
                int(row["ring_index_within_tx"])] = int(row["real_index"])
        real = {t: [v[i] for i in sorted(v)] for t, v in acc.items()}
    return {"chain": chain, "pub": pub, "fm": fm, "table": table,
            "labels": labels, "real": real}


# 1 -------------------------------------------------------------------------


def test_criterion_1_scenario_fidelity(runs):
    ok = True
    for name, (blocks_t, txs_t) in TABLE1.items():
        run = runs[name]
        chain = load_chain(run["dir"] / "chain.json")
        report = validate_chain(chain)
        transfers = sum(1 for t in chain.transactions.values()
                        if t.kind == "transfer")
        blocks = len(chain.blocks)
        this = (run["exit"] == 0 and report.ok
                and abs(transfers - txs_t) <= 0.05 * txs_t
                and abs(blocks - blocks_t) <= 0.20 * blocks_t)
        print(f"  {name}: exit={run['exit']} violations="
              f"{len(report.violations)} transfers={transfers}/{txs_t} "
              f"blocks={blocks}/{blocks_t} elapsed={run['elapsed']:.0f}s")
        ok = ok and this
    ok = ok and runs["s03"]["elapsed"] < 120 and runs["s06"]["elapsed"] < 600
    criterion(1, "scenario fidelity", ok)


# 2 -------------------------------------------------------------------------


def test_criterion_2_feature_contract(s03):
    fm = s03["fm"]
    nz = fm.norm_stds > 0
    ok = (len(FEATURE_NAMES) == 182 and fm.raw.shape[1] == 182
          and np.all(np.abs(fm.normalized[:, nz].mean(axis=0)) < 1e-9)
          and np.all(np.abs(fm.normalized[:, nz].std(axis=0) - 1) < 1e-9)
          and np.all(fm.normalized[:, ~nz] == 0))

    # naive-oracle equality on a 50-tx chain (ring size below numpy's
    # unrolled-summation threshold so float order matches the left fold)
    spec = small_spec(n_agents=4, pools=1, target=50, seed=23)
    files = gen_economy(spec, Rng(spec.seed))
    chain, _ = run_simulation(files, spec)
    pub = public_view(chain)
    ids = pub.transfer_ids()
    exact = all(
        list(one_hop(pub.transactions[t], pub)) ==
        naive_one_hop(pub.transactions[t], pub)
        for t in ids
    )
    ok = ok and len(ids) == 50 and exact
    criterion(2, "feature contract", ok)


# 3 -------------------------------------------------------------------------


def test_criterion_3_graph_sparsity(s03):
    chain = s03["chain"]
    n_all = len(graph_edges(chain, "all"))
    n_true = len(graph_edges(chain, "true"))
    ok = n_all == 11 * n_true
    print(f"  true/all = {n_true}/{n_all}")
    criterion(3, "graph sparsity 1/11", ok)


# 4 -------------------------------------------------------------------------


def test_criterion_4_spoof_beats_chance(s03):
    spec = ModelSpec("forest", "classify",
                     {"n_trees": 24, "max_depth": 14, "max_features": 0.15,
                      "min_samples_split": 12},
                     class_weight="balanced")
    report = spoof_task(s03["table"], s03["real"], spec,
                        SearchSpec(budget=1, folds=2, seed=SEED))
    n = report.extras["n_rings"]
    p_hat = report.summary["top1"]["mean"]
    lo = p_hat - 1.96 * math.sqrt(p_hat * (1 - p_hat) / n)
    chance = report.extras["chance_control_top1"]
    p0 = 1 / 11
    band = 1.96 * math.sqrt(p0 * (1 - p0) / n)
    print(f"  rings={n} top1={p_hat:.4f} lower95={lo:.4f} "
          f"chance={chance:.4f} band=±{band:.4f}")
    ok = n >= 2000 and lo >= 2 / 11 and abs(chance - p0) <= band
    criterion(4, "spoof recovery beats 2x chance", ok)


# 5 -------------------------------------------------------------------------


def windowed_pools_spec(seed=SEED):
    """Scaled two-pool economy with disjoint cyclic trading windows.

    Pool 0 trades in the first half of each morning hour, pool 1 in the
    second half of each evening hour, so the separating signal lives in
    time-of-day fields rather than in raw epoch ranges.
    """
    win0 = [(h + 0.0, h + 0.5) for h in range(12)]
    win1 = [(h + 0.5, h + 1.0) for h in range(12, 24)]
    waits = [500.0 * 40.0 ** (i / 9) for i in range(10)]
    agents = []
    for pool, window in ((0, win0), (1, win1)):
        for i in range(10):
            agents.append(AgentProfile(pool * 10 + i, pool, waits[i], 100.0,
                                       list(window)))
    sim = SimParams(block_interval=240)
    return EconomySpec("windowed", agents, 2400, ring_size=11, seed=seed, sim=sim)


def test_criterion_5_group_membership():
    spec = windowed_pools_spec()
    files = gen_economy(spec, Rng(spec.seed))
    chain, gt = run_simulation(files, spec)
    pub = public_view(chain)
    fm = featurize_chain(pub)
    y = np.array([gt.labels[t].receiver_pool for t in fm.tx_ids])
    mspec = ModelSpec("forest", "classify", {"n_trees": 40, "max_depth": 12})
    report = group_task(fm, y, mspec,
                        SearchSpec(budget=1, folds=5, seed=SEED))
    acc = report.summary["accuracy"]["mean"]
    top3 = [name for name, _ in report.feature_importances[:3]]
    time_derived = sum(any(k in name for k in
                           ("minute_of_hour", "hour_of_day", "second_of_minute"))
                       for name in top3)
    print(f"  accuracy={acc:.4f} top3={top3} time-derived={time_derived}/3")
    criterion(5, "group membership", acc >= 0.85 and time_derived >= 2)


# 6 -------------------------------------------------------------------------


def test_criterion_6_value_regression_negative_result(s03):
    fm = s03["fm"]
    targets = np.array([int(s03["labels"][t]["value"]) for t in fm.tx_ids],
                       dtype=np.float64)
    mspec = ModelSpec("forest", "regress", {"n_trees": 40, "max_depth": 12})
    search = SearchSpec(budget=1, folds=5, seed=SEED)
    report = value_task(fm, targets, mspec, search)
    r2 = report.summary["r2"]["mean"]
    baseline_train = report.baseline["r2_train"]

    # leak test: a planted target column must be recoverable; full feature
    # visibility so the probe measures the pipeline, not split subsampling
    import dataclasses
    leaked = dataclasses.replace(
        fm,
        raw=np.column_stack([
            fm.raw, targets + np.random.default_rng(SEED).normal(0, 0.01,
                                                                 targets.size)
        ]),
        names=tuple(fm.names) + ("planted",),
    )
    leak_spec = ModelSpec("forest", "regress",
                          {"n_trees": 40, "max_depth": 12, "max_features": 1.0})
    leak_report = value_task(leaked, targets, leak_spec, search)
    leak_r2 = leak_report.summary["r2"]["mean"]
    print(f"  r2={r2:.4f} leak_r2={leak_r2:.4f} baseline_train={baseline_train}")
    ok = r2 <= 0.1 and leak_r2 >= 0.9 and abs(baseline_train) < 1e-12
    criterion(6, "value regression negative result", ok)


# 7 -------------------------------------------------------------------------


def test_criterion_7_metric_oracles():
    ok = r_squared([1, 2, 3], [1, 2, 4]) == 0.5

    y_true = np.array([1] * 100 + [0] * 3900)
    y_pred = np.concatenate([np.array([1] * 94 + [0] * 6),
                             np.array([1] * 1786 + [0] * 2114)])
    pr = precision_recall(y_true, y_pred)
    ok = ok and pr[1]["recall"] == 0.94 and pr[1]["precision"] == 94 / 1880

    rng = np.random.default_rng(SEED)
    X = rng.normal(size=(300, 8))
    y = (X[:, 3] > 0).astype(int)
    model = train_forest(X, y, ForestHyperParams(n_trees=30, max_features=1.0,
                                                 seed=SEED))
    imp = feature_importance(model)
    ok = ok and abs(imp.sum() - 1) < 1e-9 and np.all(imp >= 0)

    Xg = rng.normal(size=(50, 6))
    yg = Xg @ rng.normal(size=6)
    mlp = train_mlp(Xg, yg, MlpHyperParams(hidden_units=14, epochs=3, seed=SEED),
                    task="regress")
    err_r = gradient_check(mlp, Xg, yg, n_weights=20, eps=1e-5, seed=SEED)
    yc = (Xg[:, 0] > 0).astype(int)
    mlp_c = train_mlp(Xg, yc, MlpHyperParams(hidden_units=14, epochs=3, seed=SEED))
    err_c = gradient_check(mlp_c, Xg, yc, n_weights=20, eps=1e-5, seed=SEED)
    print(f"  gradient check: regress={err_r:.2e} classify={err_c:.2e}")
    ok = ok and err_r < 1e-4 and err_c < 1e-4
    criterion(7, "metric oracles", ok)


# 8 -------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    from ringtrace.economy import save_economy
    spec = small_spec(n_agents=4, pools=2, target=100, seed=29,
                      windows=[[(0.0, 12.0)], [(12.0, 24.0)]])
    files = gen_economy(spec, Rng(spec.seed))
    save_economy(spec, files, tmp_path / "economy.json")

    ok = True
    for d in ("a", "b"):
        ok = ok and main(["generate", "s05", "--seed", "11",
                          "--out", str(tmp_path / d / "gen")]) == 0
        ok = ok and main(["simulate", "--economy", str(tmp_path / "economy.json"),
                          "--out", str(tmp_path / d / "sim")]) == 0
        jobs = "1" if d == "a" else "4"
        ok = ok and main(["featurize",
                          "--chain", str(tmp_path / d / "sim" / "public_chain.json"),
                          "--ground-truth", str(tmp_path / d / "sim" / "chain.json"),
                          "--edges", "all,true",
                          "--jobs", jobs,
                          "--out", str(tmp_path / d / "fx")]) == 0
        ok = ok and main(["train", "--features", str(tmp_path / d / "fx"),
                          "--labels", str(tmp_path / d / "sim" / "labels.csv"),
                          "--task", "group", "--budget", "2", "--folds", "3",
                          "--seed", "13", "--jobs", jobs,
                          "--out", str(tmp_path / d / "tr")]) == 0

    files_to_compare = [
        ("gen", "economy.json"), ("gen", "manifest.json"),
        ("sim", "chain.json"), ("sim", "public_chain.json"),
        ("sim", "labels.csv"), ("sim", "real_inputs.csv"),
        ("sim", "manifest.json"),
        ("fx", "features.csv"), ("fx", "features_raw.csv"),
        ("fx", "norm_stats.json"), ("fx", "candidates.csv"),
        ("fx", "correlation.csv"), ("fx", "edges_all.csv"),
        ("fx", "edges_true.csv"),
        ("tr", "report.json"), ("tr", "importance.csv"), ("tr", "trials.csv"),
    ]
    for sub, name in files_to_compare:
        a = (tmp_path / "a" / sub / name).read_bytes()
        b = (tmp_path / "b" / sub / name).read_bytes()
        if a != b:
            print(f"  MISMATCH {sub}/{name}")
            ok = False
    criterion(8, "byte-identical determinism at any --jobs", ok)


# 9 -------------------------------------------------------------------------


def test_criterion_9_external_pipeline(tmp_path):
    # round trip: simulated chain -> dump schema -> identical features
    spec = small_spec(n_agents=4, pools=1, target=150, seed=31)
    files = gen_economy(spec, Rng(spec.seed))
    chain, _ = run_simulation(files, spec)
    pub = public_view(chain)
    native = featurize_chain(pub)
    export_dump(pub, tmp_path / "xmr-dump.json")
    pub2, _ = dump_to_public_chain(parse_dump(tmp_path / "xmr-dump.json"))
    reimported = featurize_chain(pub2)
    round_trip = (np.array_equal(native.raw, reimported.raw)
                  and np.array_equal(native.normalized, reimported.normalized))

    # planted signal: positives use >= 4 rings, negatives <= 2
    from test_ingest import planted_dump
    records, labels = planted_dump(n=400, seed=SEED)
    parsed = parse_dump(records)
    mspec = ModelSpec("forest", "classify",
                      {"n_trees": 30, "max_depth": 8, "max_features": 1.0},
                      class_weight="balanced")
    report, _ = external_pipeline(parsed, labels, mspec,
                                  SearchSpec(budget=1, folds=5, seed=SEED))
    recall = report.summary["recall"]["1"]["mean"]
    top = report.feature_importances[0][0]
    print(f"  round_trip={round_trip} recall={recall:.4f} top_importance={top}")
    ok = round_trip and recall >= 0.95 and top == "num_rings"
    criterion(9, "external pipeline", ok)
