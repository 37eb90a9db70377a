"""K-fold evaluation.

Each fold's model gets its train and test rows as they are: the models that
need scaled input (MLP, linear) fit their own column statistics on the rows
they train on.  Folds and model seeds derive from the search seed.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import TooFewSamples
from .forest import ForestHyperParams, train_forest
from .linear import LinearEpsHyperParams, train_linear_epsilon
from .metrics import accuracy, precision_recall, r_squared
from .mlp import MlpHyperParams, train_mlp


@dataclass
class ModelSpec:
    family: str  # forest | mlp | linear
    task: str  # classify | regress
    params: dict = field(default_factory=dict)
    class_weight: str | None = None
    jobs: int = 1  # worker bound; never changes results


@dataclass
class SearchSpec:
    budget: int = 1
    folds: int = 5
    seed: int = 0


def fit_model(spec: ModelSpec, X: np.ndarray, y: np.ndarray, seed: int):
    params = dict(spec.params)
    params["seed"] = seed
    if spec.family == "forest":
        hp = ForestHyperParams(**params)
        return train_forest(X, y, hp, task=spec.task,
                            class_weight=spec.class_weight, jobs=spec.jobs)
    if spec.family == "mlp":
        hp = MlpHyperParams(**params)
        return train_mlp(X, y, hp, task=spec.task, class_weight=spec.class_weight)
    if spec.family == "linear":
        if spec.task != "regress":
            raise ValueError("linear epsilon model is regression-only")
        hp = LinearEpsHyperParams(**params)
        return train_linear_epsilon(X, y, hp)
    raise ValueError(f"unknown model family {spec.family!r}")


def _derive_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1)[0])


def stratified_folds(y: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    """Per-class shuffle, then deal round-robin into folds."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    buckets: list[list[int]] = [[] for _ in range(folds)]
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        for i, sample in enumerate(idx):
            buckets[i % folds].append(int(sample))
    return [np.sort(np.array(b, dtype=np.int64)) for b in buckets]


def contiguous_shuffle_folds(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Shuffle indices once, then cut into contiguous chunks."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(8,)))
    perm = rng.permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def kfold_eval(model_spec: ModelSpec, X: np.ndarray, y: np.ndarray,
               folds: int = 5, seed: int = 0, groups: np.ndarray | None = None,
               evaluate=None) -> dict:
    """Per-fold metrics plus mean/SD summaries.

    Classification uses stratified folds, regression contiguous-shuffle.
    When `groups` is given, folds partition group keys instead of rows (no
    ring or cluster straddles train and test).  `evaluate(model, X_te, y_te,
    test_idx)` can contribute task-specific metrics per fold.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n = X.shape[0]
    if folds < 2 or folds > n:
        raise TooFewSamples(f"cannot make {folds} folds from {n} samples")

    if groups is not None:
        uniq = np.unique(groups)
        if folds > uniq.size:
            raise TooFewSamples(f"cannot make {folds} folds from {uniq.size} groups")
        gfolds = contiguous_shuffle_folds(uniq.size, folds, seed)
        test_sets = [np.flatnonzero(np.isin(groups, uniq[g])) for g in gfolds]
    elif model_spec.task == "classify":
        test_sets = stratified_folds(y, folds, seed)
    else:
        test_sets = contiguous_shuffle_folds(n, folds, seed)

    fold_rows = []
    for k, test_idx in enumerate(test_sets):
        train_idx = np.setdiff1d(np.arange(n), test_idx, assume_unique=False)
        X_tr, X_te = X[train_idx], X[test_idx]
        y_tr, y_te = y[train_idx], y[test_idx]
        model = fit_model(model_spec, X_tr, y_tr, seed=_derive_seed(seed, 11, k))
        row: dict = {"fold": k, "n_train": int(train_idx.size),
                     "n_test": int(test_idx.size)}
        if model_spec.task == "classify":
            pred = model.predict(X_te)
            row["accuracy"] = accuracy(y_te, pred)
            row["per_class"] = {
                str(c): pr for c, pr in precision_recall(y_te, pred).items()
            }
        else:
            pred = model.predict(X_te)
            row["r2"] = r_squared(y_te, pred)
            mu_train = float(np.mean(y_tr))
            row["baseline_r2"] = r_squared(y_te, np.full(y_te.shape, mu_train))
            row["baseline_train_r2"] = r_squared(y_tr, np.full(y_tr.shape, mu_train))
        if evaluate is not None:
            row.update(evaluate(model, X_te, y_te, test_idx))
        fold_rows.append(row)

    return {"folds": fold_rows, "summary": summarize_folds(fold_rows)}


def summarize_folds(fold_rows: list[dict]) -> dict:
    """Mean and population SD per numeric metric, per class where nested."""
    summary: dict = {}
    scalar_keys = [k for k in fold_rows[0]
                   if isinstance(fold_rows[0][k], (int, float))
                   and k not in ("fold", "n_train", "n_test")]
    for key in scalar_keys:
        vals = np.array([row[key] for row in fold_rows], dtype=np.float64)
        summary[key] = {"mean": float(vals.mean()), "sd": float(vals.std())}
    if "per_class" in fold_rows[0]:
        classes = sorted({c for row in fold_rows for c in row["per_class"]})
        for metric in ("precision", "recall"):
            summary[metric] = {}
            for cls in classes:
                vals = [row["per_class"].get(cls, {}).get(metric)
                        for row in fold_rows]
                defined = [v for v in vals if v is not None]
                if defined:
                    arr = np.array(defined)
                    summary[metric][cls] = {
                        "mean": float(arr.mean()), "sd": float(arr.std()),
                        "defined_folds": len(defined),
                    }
                else:
                    summary[metric][cls] = {"mean": None, "sd": None,
                                            "defined_folds": 0}
    return summary
