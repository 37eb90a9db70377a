"""Random forest (CART) for classification and regression, built natively.

One impurity serves both tasks: the weighted variance of the targets,
summed over the rows of a target matrix Y that holds the one-hot class rows
of a classifier (whose summed variance is the Gini impurity; Breiman et al.,
CART, 1984) or the single target row of a regressor.  Split search is
vectorized with prefix sums over sorted columns.  Every
stochastic choice (bootstrap, per-node feature subsets) comes from a stream
derived from (seed, tree index), so the trees are independent: with
jobs > 1 they grow in forked worker processes, which inherit the training
data and return only the trees, and the forest is the same at any jobs.
Split impurities within _EPS tie: the lowest feature wins, then the lowest
threshold.  A split depends only on the order of each column, so the forest
takes raw, unscaled columns.
"""

import math
import multiprocessing
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import NoSplitsWarning

_EPS = 1e-12


@dataclass
class ForestHyperParams:
    n_trees: int = 100
    max_depth: int | None = None
    max_features: float | str = "sqrt"
    min_samples_split: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if isinstance(self.max_features, float) and not 0 < self.max_features <= 1:
            raise ValueError("fractional max_features must be in (0, 1]")


def _m_features(max_features, d: int) -> int:
    if max_features == "sqrt":
        return max(1, int(math.sqrt(d)))
    return max(1, int(round(float(max_features) * d)))


class _Tree:
    """Flat-array CART tree."""

    __slots__ = ("feature", "threshold", "left", "right", "value", "importance")

    def __init__(self, n_features: int):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[np.ndarray] | np.ndarray = []  # per node, mean of Y
        self.importance = np.zeros(n_features)

    def add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(None)
        return len(self.feature) - 1

    def apply(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(X.shape[0], dtype=np.int64)
        active = np.arange(X.shape[0])
        feature = np.asarray(self.feature)
        thresh = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        while active.size:
            nodes = idx[active]
            leafy = feature[nodes] < 0
            active = active[~leafy]
            if not active.size:
                break
            nodes = idx[active]
            go_left = X[active, feature[nodes]] < thresh[nodes]
            idx[active] = np.where(go_left, left[nodes], right[nodes])
        return idx


def _best_split(X, Y, w, idx, feats):
    """Best (impurity_after, feature, threshold, left_order) over `feats`.

    Returns None when no feature admits a valid split.  The impurity of a
    side is the weighted variance of its targets summed over the rows of Y,
    from weighted moment prefix sums; over one-hot class rows that is the
    Gini impurity.
    """
    best = None
    Yv = Y[:, idx]
    wv = w[idx]
    w_total = wv.sum()
    y2w = (Yv ** 2).sum(axis=0) * wv
    for f in feats:
        col = X[idx, f]
        order = np.argsort(col, kind="stable")
        cs = col[order]
        valid = cs[:-1] < cs[1:]
        if not valid.any():
            continue
        ws = wv[order]
        wl = ws.cumsum()[:-1]
        wr = w_total - wl
        div_l, div_r = np.maximum(wl, _EPS), np.maximum(wr, _EPS)
        msq_l = msq_r = 0.0
        # 1-D prefix sums per target row; summing the squared means before
        # the one subtraction keeps a single row's arithmetic that of the
        # plain moment-sum variance
        for row in Yv:
            ys = row[order] * ws
            cy = ys.cumsum()[:-1]
            msq_l = msq_l + (cy / div_l) ** 2
            msq_r = msq_r + ((cy[-1] + ys[-1] - cy) / div_r) ** 2
        y2s = y2w[order]
        cy2 = y2s.cumsum()[:-1]
        imp_l = cy2 / div_l - msq_l
        imp_r = (cy2[-1] + y2s[-1] - cy2) / div_r - msq_r
        after = (wl * imp_l + wr * imp_r) / w_total
        after = np.where(valid, after, np.inf)
        low = after.min()
        if not np.isfinite(low):
            continue
        pos = int(np.argmax(after <= low + _EPS))  # lowest threshold within _EPS
        if best is None or after[pos] < best[0] - _EPS:
            thr = (cs[pos] + cs[pos + 1]) / 2.0
            best = (float(after[pos]), f, thr, order[: pos + 1])
    return best


def _grow(tree: _Tree, X, Y, w, idx, depth, hp, rng, w_all):
    node = tree.add_node()
    Yv = Y[:, idx]
    wv = w[idx]
    w_node = wv.sum()
    mean = (Yv * wv).sum(axis=1) / w_node
    tree.value[node] = mean
    impurity = float(((Yv - mean[:, None]) ** 2 * wv).sum() / w_node)

    if (idx.size < hp.min_samples_split or impurity <= _EPS
            or (hp.max_depth is not None and depth >= hp.max_depth)):
        return node

    d = X.shape[1]
    m = _m_features(hp.max_features, d)
    feats = np.sort(rng.choice(d, size=m, replace=False))
    split = _best_split(X, Y, w, idx, feats)
    if split is None:
        return node
    after, f, thr, left_order = split
    gain = impurity - after
    if gain <= _EPS:
        return node
    tree.importance[f] += (w_node / w_all) * gain
    left_idx = idx[left_order]
    right_idx = idx[np.setdiff1d(np.arange(idx.size), left_order, assume_unique=True)]
    tree.feature[node] = int(f)
    tree.threshold[node] = float(thr)
    tree.left[node] = _grow(tree, X, Y, w, left_idx, depth + 1, hp, rng, w_all)
    tree.right[node] = _grow(tree, X, Y, w, right_idx, depth + 1, hp, rng, w_all)
    return node


def _grow_one(work, t: int) -> _Tree:
    """Tree t of the forest on work = (X, Y, w, hp), from its own stream."""
    X, Y, w, hp = work
    n = X.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=hp.seed,
                                                       spawn_key=(t,)))
    boot = rng.integers(0, n, size=n)
    tree = _Tree(X.shape[1])
    _grow(tree, X, Y, w, boot, 0, hp, rng, w[boot].sum())
    tree.value = np.array(tree.value)
    return tree


_work = None  # a pool worker's (X, Y, w, hp), set by _set_work at its start


def _set_work(*work) -> None:
    global _work
    _work = work


def _grow_tree(t: int) -> _Tree:
    return _grow_one(_work, t)


@dataclass
class ForestModel:
    hp: ForestHyperParams
    task: str  # classify | regress
    classes_: np.ndarray | None
    trees: list[_Tree] = field(repr=False, default_factory=list)
    n_features: int = 0

    def _leaf_mean(self, X: np.ndarray) -> np.ndarray:
        """Per row, the trees' mean of their leaf's target means."""
        X = np.asarray(X, dtype=np.float64)
        acc = 0.0
        for tree in self.trees:
            acc = acc + tree.value[tree.apply(X)]
        return acc / len(self.trees)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.task != "classify":
            raise ValueError("probabilities only for classifiers")
        return self._leaf_mean(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        mean = self._leaf_mean(X)
        if self.task == "classify":
            # argmax takes the first maximum: lowest class index wins ties
            return self.classes_[np.argmax(mean, axis=1)]
        return mean[:, 0]


def train_forest(X: np.ndarray, y: np.ndarray, hp: ForestHyperParams,
                 task: str = "classify", class_weight: str | None = None,
                 jobs: int = 1) -> ForestModel:
    """Grow hp.n_trees CART trees on bootstrap resamples.

    class_weight="balanced" weighs samples inversely to class frequency.  A
    single-class target yields a constant classifier with a warning rather
    than an error.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.shape[0] != y.shape[0] or X.shape[0] < 2:
        raise ValueError("need |X| == |y| >= 2")
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    n, d = X.shape

    w = np.ones(n)
    if task == "classify":
        classes, y_enc = np.unique(y, return_inverse=True)
        n_classes = len(classes)
        if n_classes < 2:
            warnings.warn("single-class labels; returning a constant model",
                          UserWarning)
        if class_weight == "balanced":
            freq = np.bincount(y_enc, minlength=n_classes)
            w = (n / (n_classes * freq))[y_enc]
        Y = np.ascontiguousarray(np.eye(n_classes)[:, y_enc])
    else:
        classes = None
        Y = y.astype(np.float64)[None, :]

    work = (X, Y, w, hp)
    if jobs > 1 and hp.n_trees > 1:
        # fork: the workers inherit `work` instead of unpickling it
        with multiprocessing.get_context("fork").Pool(
                min(jobs, hp.n_trees), initializer=_set_work, initargs=work) as pool:
            trees = pool.map(_grow_tree, range(hp.n_trees), chunksize=1)
    else:
        trees = [_grow_one(work, t) for t in range(hp.n_trees)]
    return ForestModel(hp=hp, task=task, classes_=classes, trees=trees, n_features=d)


def feature_importance(model: ForestModel) -> np.ndarray:
    """Mean impurity decrease per feature, normalized to sum to one.

    A forest that never split (all-constant input) gets a zero vector and a
    NoSplitsWarning.
    """
    acc = np.zeros(model.n_features)
    for tree in model.trees:
        total = tree.importance.sum()
        if total > 0:
            acc += tree.importance / total
    s = acc.sum()
    if s == 0:
        warnings.warn("forest grew no splits; importances are all zero",
                      NoSplitsWarning)
        return acc
    return acc / s
