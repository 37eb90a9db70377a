"""The three attack tasks: real-input recovery, group membership, value.

Each returns a ModelReport: per-fold metrics with mean/SD summaries, the
winning hyperparameters when a search ran, and an importance ranking when the
model exposes one.
"""

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..errors import ConstantTarget, DegenerateLabels
from ..features import CandidateTable, FeatureMatrix
from ..ledger import dump_csv, dump_json, record_to_dict
from .crossval import ModelSpec, SearchSpec, fit_model, kfold_eval, random_search
from .forest import feature_importance

FORMAT_VERSION = 1


@dataclass
class ModelReport:
    task: str
    model_family: str
    best_params: dict
    folds: list
    summary: dict
    baseline: dict | None = None
    feature_importances: list | None = None  # [(name, weight)] descending
    trials: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _ranked_importances(model, names) -> list | None:
    if not hasattr(model, "trees"):
        return None
    weights = feature_importance(model)
    order = sorted(range(len(names)), key=lambda i: (-weights[i], names[i]))
    return [(names[i], float(weights[i])) for i in order]


def _resolve(model_spec: ModelSpec, X, y, search: SearchSpec,
             groups=None, evaluate=None) -> tuple[dict, dict, list]:
    """Run the search when budgeted, else a single k-fold evaluation."""
    if search.budget > 1:
        res = random_search(model_spec, X, y, search, groups=groups,
                            evaluate=evaluate)
        return res["best_params"], res["best_result"], res["trials"]
    result = kfold_eval(model_spec, X, y, folds=search.folds, seed=search.seed,
                        groups=groups, evaluate=evaluate)
    return dict(model_spec.params), result, []


def search_fit_rank(model_spec: ModelSpec, fm: FeatureMatrix, y,
                    search: SearchSpec) -> tuple[dict, dict, list, list | None]:
    """Search (or one k-fold pass) on `fm.raw`, then rank a forest fit on all rows.

    The final fit's input is `fm.normalized` (what features.csv stores).
    Importances are None for non-forest families.
    """
    best_params, result, trials = _resolve(model_spec, fm.raw, y, search)
    importances = None
    if model_spec.family == "forest":
        final = fit_model(replace(model_spec, params=best_params),
                          fm.normalized, y, seed=search.seed)
        importances = _ranked_importances(final, fm.names)
    return best_params, result, trials, importances


# Spoofed/real input recovery -------------------------------------------------


def spoof_task(table: CandidateTable, real_indices: dict[int, list[int]],
               model_spec: ModelSpec | None = None,
               search: SearchSpec | None = None) -> ModelReport:
    """Recover which ring member is the real spend.

    Candidates of one ring never straddle train and test folds.  The score is
    top-1 ring accuracy: the highest-scored candidate must be the real one,
    ties resolving to the lowest candidate index.  A chance-score control and
    the 1/ring_size baseline are reported alongside.
    """
    model_spec = model_spec or ModelSpec("forest", "classify",
                                         class_weight="balanced")
    search = search or SearchSpec(metric="top1")

    keys = table.keys
    ring_key = {}
    ring_ids = np.empty(len(keys), dtype=np.int64)
    for i, (tx_id, ring_i, _cand) in enumerate(keys):
        ring_ids[i] = ring_key.setdefault((tx_id, ring_i), len(ring_key))
    real_of = {(tx_id, ring_i): real for tx_id, reals in real_indices.items()
               for ring_i, real in enumerate(reals)}
    y = np.array([int(real_of.get((tx_id, ring_i)) == cand)
                  for tx_id, ring_i, cand in keys], dtype=np.int64)
    found = np.bincount(ring_ids, weights=y, minlength=len(ring_key))
    if (found != 1).any():
        tx_id, ring_i = list(ring_key)[int(np.argmin(found))]
        raise DegenerateLabels(f"no real candidate for tx_id {tx_id} ring {ring_i};"
                               " each ring must have exactly one")

    # ring row spans, in candidate-index order
    spans: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * len(ring_key)
    order = np.argsort(ring_ids, kind="stable")
    bounds = np.flatnonzero(np.diff(ring_ids[order])) + 1
    for rid, rows in zip(ring_ids[order][np.r_[0, bounds]],
                         np.split(order, bounds)):
        spans[rid] = rows

    def evaluate(model, X_te, y_te, test_idx):
        if hasattr(model, "predict_proba"):
            pos = int(np.flatnonzero(model.classes_ == 1)[0])
            scores = model.predict_proba(X_te)[:, pos]
        else:
            scores = model.predict(X_te)
        pos_of = {int(r): i for i, r in enumerate(test_idx)}
        hits = total = 0
        chance = 0.0
        for rid in np.unique(ring_ids[test_idx]):
            rows = spans[rid]
            if any(int(r) not in pos_of for r in rows):
                continue  # ring split across folds cannot happen with groups
            s = scores[[pos_of[int(r)] for r in rows]]
            hits += int(y[rows[np.argmax(s)]] == 1)
            total += 1
            chance += 1.0 / rows.size
        return {"top1": hits / total, "baseline_top1": chance / total}

    best_params, result, trials = _resolve(model_spec, table.raw, y, search,
                                           groups=ring_ids, evaluate=evaluate)

    # chance-score control over every ring with seeded random scores
    rng = np.random.default_rng(np.random.SeedSequence(entropy=search.seed,
                                                       spawn_key=(99,)))
    chance_hits = 0
    for rows in spans:
        s = rng.random(rows.size)
        chance_hits += int(y[rows[np.argmax(s)]] == 1)
    n_rings = len(spans)

    return ModelReport(
        task="spoof", model_family=model_spec.family, best_params=best_params,
        folds=result["folds"], summary=result["summary"],
        baseline={"top1": float(np.mean([1.0 / s.size for s in spans]))},
        trials=trials,
        extras={"n_rings": n_rings,
                "chance_control_top1": chance_hits / n_rings},
    )


# Group membership -------------------------------------------------------------


def group_task(fm: FeatureMatrix, labels: np.ndarray,
               model_spec: ModelSpec | None = None,
               search: SearchSpec | None = None) -> ModelReport:
    """Classify the receiver's pool from public features."""
    labels = np.asarray(labels)
    if np.unique(labels).size < 2:
        raise DegenerateLabels("group task needs at least two groups")
    model_spec = model_spec or ModelSpec("forest", "classify")
    search = search or SearchSpec(metric="accuracy")

    best_params, result, trials, importances = search_fit_rank(
        model_spec, fm, labels, search)

    return ModelReport(
        task="group", model_family=model_spec.family, best_params=best_params,
        folds=result["folds"], summary=result["summary"],
        feature_importances=importances, trials=trials,
        extras={"n_classes": int(np.unique(labels).size)},
    )


# Value regression ---------------------------------------------------------------


def value_task(fm: FeatureMatrix, targets: np.ndarray,
               model_spec: ModelSpec | None = None,
               search: SearchSpec | None = None) -> ModelReport:
    """Regress the hidden transfer value; the mean predictor is the baseline."""
    targets = np.asarray(targets, dtype=np.float64)
    if np.all(targets == targets[0]):
        raise ConstantTarget("all targets identical")
    model_spec = model_spec or ModelSpec("forest", "regress")
    search = search or SearchSpec(metric="r2")

    best_params, result, trials, importances = search_fit_rank(
        model_spec, fm, targets, search)

    baseline = {
        "r2_test": result["summary"]["baseline_r2"]["mean"],
        "r2_train": result["summary"]["baseline_train_r2"]["mean"],
    }
    return ModelReport(
        task="value", model_family=model_spec.family, best_params=best_params,
        folds=result["folds"], summary=result["summary"], baseline=baseline,
        feature_importances=importances, trials=trials,
    )


# Report files -------------------------------------------------------------------


def save_report(report: ModelReport, out_dir: Path) -> dict[str, Path]:
    out_dir = Path(out_dir)
    paths = {name: out_dir / name
             for name in ("report.json", "importance.csv", "trials.csv")}
    dump_json({"format_version": FORMAT_VERSION, **_plain(record_to_dict(report))},
              paths["report.json"])
    dump_csv(["rank", "feature", "weight"],
             ([rank, name, float(weight)] for rank, (name, weight)
              in enumerate(report.feature_importances or [], 1)),
             paths["importance.csv"])
    dump_csv(["trial", "metric", "value", "params"],
             ([t["trial"], t["metric"],
               "" if t["value"] is None else float(t["value"]),
               json.dumps(_plain(t["params"]), sort_keys=True)]
              for t in report.trials),
             paths["trials.csv"])
    return paths
