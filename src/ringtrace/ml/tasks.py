"""The three attack tasks: real-input recovery, group membership, value.

Each returns a ModelReport: per-fold metrics with mean/SD summaries, the
winning hyperparameters with the log of the search that picked them, and an
importance ranking when the model exposes one.  Every task searches: trial 0
is the task defaults, so a budget of one is a single k-fold evaluation.
"""

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from ..errors import ConstantTarget, DegenerateLabels, Diverged
from ..features import CandidateTable, FeatureMatrix
from ..ledger import dump_csv, dump_json
from .crossval import ModelSpec, SearchSpec, fit_model, kfold_eval
from .forest import feature_importance

FORMAT_VERSION = 1
_EPS = 1e-12


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


DEFAULT_SPACES = {
    # near the task defaults (depth 12-14, sqrt or 0.15 of the features):
    # deeper or wider forests cost several times a default fit
    "forest": {
        "max_depth": ("int", 8, 14),
        "max_features": ("choice", ["sqrt", 0.05, 0.1]),
        "min_samples_split": ("int", 2, 20),
    },
    "mlp": {
        "hidden_units": ("int", 10, 30),
        "learning_rate": ("log", 1e-4, 1e-1),
    },
    "linear": {
        "learning_rate": ("log", 1e-4, 1e-1),
        "epsilon": ("log", 1e-2, 1e1),
        "l2": ("log", 1e-6, 1e-1),
    },
}


def sample_params(space: dict, rng: np.random.Generator) -> dict:
    out = {}
    for name in sorted(space):
        kind, *args = space[name]
        if kind == "int":
            lo, hi = args
            out[name] = int(rng.integers(lo, hi + 1))
        elif kind == "log":
            lo, hi = args
            out[name] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        elif kind == "choice":
            options = args[0]
            out[name] = options[int(rng.integers(len(options)))]
        else:
            raise ValueError(f"unknown sampler kind {kind!r}")
    return out


def random_search(model_spec: ModelSpec, X: np.ndarray, y: np.ndarray,
                  search: SearchSpec, metric: str, space: dict | None = None,
                  groups: np.ndarray | None = None, evaluate=None) -> dict:
    """Evaluate `budget` configurations with kfold_eval and keep the best.

    Trial 0 is `model_spec.params` unchanged; trial t >= 1 overrides them
    with a draw from `space` seeded by (21, t).  The best trial by the
    summary mean of `metric` wins, ties keeping the earliest.  A trial whose
    training diverges is logged with a null value; when every trial
    diverges, the first one's Diverged is raised.
    """
    if search.budget < 1:
        raise ValueError("search budget must be >= 1")
    if space is None:
        space = DEFAULT_SPACES.get(model_spec.family, {})  # fit_model rejects unknowns
    trials, diverged, best = [], [], None
    for t in range(search.budget):
        params = dict(model_spec.params)
        if t:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=search.seed,
                                                               spawn_key=(21, t)))
            params.update(sample_params(space, rng))
        try:
            result = kfold_eval(replace(model_spec, params=params), X, y,
                                folds=search.folds, seed=search.seed, groups=groups,
                                evaluate=evaluate)
            value = result["summary"][metric]["mean"]
        except Diverged as err:
            diverged.append(err)
            value = None
        trials.append({"trial": t, "params": params, "metric": metric, "value": value})
        if value is not None and (best is None or value > best["best_value"] + _EPS):
            best = {"best_params": params, "best_value": value, "best_result": result}
    if best is None:
        raise diverged[0]
    return {**best, "trials": trials}


def search_fit_rank(model_spec: ModelSpec, fm: FeatureMatrix, y, search: SearchSpec,
                    metric: str) -> tuple[dict, dict, list, list | None]:
    """Search on `fm.raw`, then rank a forest fit on all of its rows.

    Importances are None for non-forest families.
    """
    res = random_search(model_spec, fm.raw, y, search, metric)
    importances = None
    if model_spec.family == "forest":
        final = fit_model(replace(model_spec, params=res["best_params"]),
                          fm.raw, y, seed=search.seed)
        importances = _ranked_importances(final, fm.names)
    return res["best_params"], res["best_result"], res["trials"], importances


# Spoofed/real input recovery -------------------------------------------------


def spoof_task(table: CandidateTable, real_indices: dict[int, list[int]],
               model_spec: ModelSpec, search: SearchSpec) -> ModelReport:
    """Recover which ring member is the real spend.

    Candidates of one ring never straddle train and test folds.  The score is
    top-1 ring accuracy: the highest-scored candidate must be the real one,
    ties resolving to the lowest candidate index.  A chance-score control and
    three guesses (1/ring_size, always the oldest member, always the newest)
    are reported alongside.
    """
    starts = np.flatnonzero(table.keys[:, 2] == 0)
    ring_ids = np.cumsum(table.keys[:, 2] == 0) - 1
    sizes = np.diff(np.r_[starts, len(table.keys)])
    # -1 where real_indices lacks the ring
    real = np.array([(real_indices.get(tx_id, [])[ring_i:] or [-1])[0]
                     for tx_id, ring_i in table.keys[starts, :2].tolist()])
    missing = np.flatnonzero((real < 0) | (real >= sizes))
    if missing.size:
        tx_id, ring_i = table.keys[starts[missing[0]], :2]
        raise DegenerateLabels(f"no real candidate for tx_id {tx_id} ring {ring_i};"
                               " each ring must have exactly one")
    y = (table.keys[:, 2] == real[ring_ids]).astype(np.int64)

    def top1(scores, rows):
        # the rings of `rows` and each one's first top-scored candidate index
        rids, local = np.unique(ring_ids[rows], return_inverse=True)
        grid = np.full((rids.size, sizes.max()), -np.inf)
        grid[local, table.keys[rows, 2]] = scores
        return rids, grid.argmax(axis=1)

    def evaluate(model, X_te, y_te, test_idx):
        pos = int(np.flatnonzero(model.classes_ == 1)[0])
        scores = model.predict_proba(X_te)[:, pos]
        # groups keep every ring whole within one fold
        rids, top = top1(scores, test_idx)
        chance = sum((1.0 / sizes[rids]).tolist())
        return {"top1": int((top == real[rids]).sum()) / rids.size,
                "baseline_top1": chance / rids.size}

    res = random_search(model_spec, table.raw, y, search, "top1", groups=ring_ids,
                        evaluate=evaluate)

    # chance-score control over every ring with seeded random scores
    rng = np.random.default_rng(np.random.SeedSequence(entropy=search.seed,
                                                       spawn_key=(99,)))
    _, top = top1(rng.random(len(table.keys)), np.arange(len(table.keys)))

    return ModelReport(
        task="spoof", model_family=model_spec.family,
        best_params=res["best_params"], folds=res["best_result"]["folds"],
        summary=res["best_result"]["summary"],
        baseline={"top1": float(np.mean(1.0 / sizes)),
                  "guess_oldest_top1": float(np.mean(real == 0)),
                  "guess_newest_top1": float(np.mean(real == sizes - 1))},
        trials=res["trials"],
        extras={"n_rings": starts.size,
                "chance_control_top1": int((top == real).sum()) / starts.size},
    )


# Group membership -------------------------------------------------------------


def group_task(fm: FeatureMatrix, labels: np.ndarray,
               model_spec: ModelSpec, search: SearchSpec) -> ModelReport:
    """Classify the receiver's pool from public features."""
    labels = np.asarray(labels)
    if np.unique(labels).size < 2:
        raise DegenerateLabels("group task needs at least two groups")

    best_params, result, trials, importances = search_fit_rank(
        model_spec, fm, labels, search, "accuracy")

    return ModelReport(
        task="group", model_family=model_spec.family, best_params=best_params,
        folds=result["folds"], summary=result["summary"],
        feature_importances=importances, trials=trials,
        extras={"n_classes": int(np.unique(labels).size)},
    )


# Value regression ---------------------------------------------------------------


def value_task(fm: FeatureMatrix, targets: np.ndarray,
               model_spec: ModelSpec, search: SearchSpec) -> ModelReport:
    """Regress the hidden transfer value; the mean predictor is the baseline."""
    targets = np.asarray(targets, dtype=np.float64)
    if np.all(targets == targets[0]):
        raise ConstantTarget("all targets identical")

    best_params, result, trials, importances = search_fit_rank(
        model_spec, fm, targets, search, "r2")

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
    dump_json({"format_version": FORMAT_VERSION, **_plain(asdict(report))},
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
