"""Random forest capacity, importance, determinism and split-choice checks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringtrace.errors import NoSplitsWarning
from ringtrace.ml import ForestHyperParams, feature_importance, train_forest
from ringtrace.ml.forest import _best_split


def test_xor_memorized():
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    y = np.array([0, 1, 1, 0])
    hp = ForestHyperParams(n_trees=50, max_depth=4, max_features=1.0,
                           min_samples_split=2, seed=1)
    model = train_forest(X, y, hp)
    assert np.array_equal(model.predict(X), y)


def test_single_class_constant_model():
    X = np.random.default_rng(0).normal(size=(20, 3))
    y = np.zeros(20, dtype=int)
    with pytest.warns(UserWarning, match="single-class"):
        model = train_forest(X, y, ForestHyperParams(n_trees=5, seed=2))
    assert np.array_equal(model.predict(X), y)


def test_separable_blobs_high_accuracy():
    rng = np.random.default_rng(3)
    X0 = rng.normal(loc=-2.0, size=(100, 4))
    X1 = rng.normal(loc=+2.0, size=(100, 4))
    X = np.vstack([X0, X1])
    y = np.array([0] * 100 + [1] * 100)
    from ringtrace.ml import ModelSpec, kfold_eval
    spec = ModelSpec("forest", "classify", {"n_trees": 30, "max_depth": 8})
    result = kfold_eval(spec, X, y, folds=5, seed=3)
    assert result["summary"]["accuracy"]["mean"] >= 0.95


def test_planted_signal_dominates_importance():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 8))
    y = (X[:, 3] > 0).astype(int)
    # all features visible per split so the planted one always wins
    hp = ForestHyperParams(n_trees=40, max_features=1.0, seed=4)
    model = train_forest(X, y, hp)
    imp = feature_importance(model)
    assert imp[3] > 0.9


def test_importances_nonnegative_sum_one():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(150, 6))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    model = train_forest(X, y, ForestHyperParams(n_trees=25, seed=5))
    imp = feature_importance(model)
    assert np.all(imp >= 0)
    assert abs(imp.sum() - 1) < 1e-9


def test_constant_features_no_splits():
    X = np.ones((30, 4))
    y = np.array([0, 1] * 15)
    model = train_forest(X, y, ForestHyperParams(n_trees=5, seed=6))
    with pytest.warns(NoSplitsWarning):
        imp = feature_importance(model)
    assert np.all(imp == 0)


def test_deterministic_given_seed():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(120, 5))
    y = (X[:, 2] > 0.3).astype(int)
    hp = ForestHyperParams(n_trees=15, seed=7)
    p1 = train_forest(X, y, hp).predict_proba(X)
    p2 = train_forest(X, y, hp).predict_proba(X)
    assert np.array_equal(p1, p2)


def test_parallel_training_identical():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(100, 5))
    y = (X[:, 1] > 0).astype(int)
    hp = ForestHyperParams(n_trees=12, seed=8)
    p1 = train_forest(X, y, hp, jobs=1).predict_proba(X)
    p2 = train_forest(X, y, hp, jobs=3).predict_proba(X)
    assert np.array_equal(p1, p2)


@pytest.mark.parametrize("task, class_weight", [("classify", "balanced"),
                                                ("regress", None)])
@pytest.mark.parametrize("n_trees", [1, 2, 5])
def test_worker_pool_grows_the_same_trees(task, class_weight, n_trees):
    # every array of every tree, at more, as many or fewer workers than trees
    rng = np.random.default_rng(12)
    X = rng.normal(size=(160, 6))
    signal = X[:, 0] + 0.5 * X[:, 3] + rng.normal(0, 0.5, 160)
    y = (signal > 0.7).astype(int) if task == "classify" else signal
    hp = ForestHyperParams(n_trees=n_trees, max_depth=6, seed=12)
    ref = train_forest(X, y, hp, task=task, class_weight=class_weight, jobs=1)
    assert sum(len(t.feature) for t in ref.trees) > n_trees  # the trees split
    for jobs in (2, 3, 4):
        got = train_forest(X, y, hp, task=task, class_weight=class_weight, jobs=jobs)
        assert len(got.trees) == n_trees
        for a, b in zip(ref.trees, got.trees):
            for name in ("feature", "threshold", "left", "right", "value",
                         "importance"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("task, class_weight", [("classify", "balanced"),
                                                ("regress", None)])
def test_affine_column_scaling_leaves_the_trees_unchanged(task, class_weight):
    # a split depends only on the order of each column: an increasing affine
    # map per column (exact on integer values) moves only the thresholds
    rng = np.random.default_rng(13)
    X = rng.integers(0, 12, size=(150, 5)).astype(float)
    signal = X[:, 1] - 0.5 * X[:, 4] + rng.normal(0, 1.0, 150)
    y = (signal > 2).astype(int) if task == "classify" else signal
    a = np.array([1e5, 3.0, 0.25, 1e-3, 7.0])
    b = np.array([1.6e9, -40.0, 0.0, 5e3, 0.5])
    hp = ForestHyperParams(n_trees=6, max_depth=6, seed=13)
    raw = train_forest(X, y, hp, task=task, class_weight=class_weight)
    scaled = train_forest(a * X + b, y, hp, task=task, class_weight=class_weight)
    assert sum(len(t.feature) for t in raw.trees) > hp.n_trees  # the trees split
    for r, t in zip(raw.trees, scaled.trees):
        for name in ("feature", "left", "right", "value", "importance"):
            assert np.array_equal(getattr(r, name), getattr(t, name)), name
        f = np.asarray(r.feature)
        split = f >= 0
        assert np.allclose(np.asarray(t.threshold)[split],
                           a[f[split]] * np.asarray(r.threshold)[split] + b[f[split]],
                           rtol=1e-12, atol=0)
    assert np.array_equal(feature_importance(raw), feature_importance(scaled))


def test_regressor_fits_step_function():
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, size=(400, 3))
    y = np.where(X[:, 0] > 0, 5.0, -5.0)
    hp = ForestHyperParams(n_trees=20, seed=9)
    model = train_forest(X, y, hp, task="regress")
    pred = model.predict(X)
    assert np.mean((pred - y) ** 2) < 1.0


def test_class_weights_shift_minority_recall():
    rng = np.random.default_rng(10)
    n_maj, n_min = 300, 30
    X = np.vstack([rng.normal(0, 1.5, size=(n_maj, 3)),
                   rng.normal(1.2, 1.5, size=(n_min, 3))])
    y = np.array([0] * n_maj + [1] * n_min)
    hp = ForestHyperParams(n_trees=30, max_depth=4, seed=10)
    plain = train_forest(X, y, hp).predict(X)
    weighted = train_forest(X, y, hp, class_weight="balanced").predict(X)
    recall = lambda pred: np.sum((pred == 1) & (y == 1)) / n_min
    assert recall(weighted) >= recall(plain)


def test_bad_hyperparams_rejected():
    with pytest.raises(ValueError):
        ForestHyperParams(n_trees=0)
    with pytest.raises(ValueError):
        ForestHyperParams(max_features=1.5)


def _brute_force_splits(X, y, w, idx, feats, classify):
    """The best (after, feature, threshold) of every (feature, midpoint) pair,
    ties within 1e-9 relative ordered by feature, then threshold.

    Classes score by the weighted sum of p(1 - p), values by the two-pass
    weighted variance.
    """
    def impurity(rows):
        total = sum(w[i] for i in rows)
        if classify:
            p = [sum(w[i] for i in rows if y[i] == c) / total for c in set(y.tolist())]
            return sum(q * (1 - q) for q in p)
        mean = sum(w[i] * y[i] for i in rows) / total
        return sum(w[i] * (y[i] - mean) ** 2 for i in rows) / total

    rows = idx.tolist()
    w_total = sum(w[i] for i in rows)
    found = []
    for f in feats.tolist():
        values = sorted(set(X[rows, f].tolist()))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2
            left = [i for i in rows if X[i, f] < thr]
            right = [i for i in rows if X[i, f] >= thr]
            after = sum(sum(w[i] for i in side) / w_total * impurity(side)
                        for side in (left, right))
            found.append((after, f, thr))
    if not found:
        return []
    low = min(after for after, _, _ in found)
    return [c for c in found if c[0] <= low + 1e-9 * max(low, 1.0)]


@st.composite
def split_cases(draw):
    """Integer-valued columns (so that ties occur), class or value targets,
    unit or balanced weights, and a bootstrap-like row multiset."""
    n = draw(st.integers(2, 14))
    d = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d),
                               min_size=n, max_size=n)), dtype=float)
    classify = draw(st.booleans())
    w = np.ones(n)
    if classify:
        y = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        _, y_enc, freq = np.unique(y, return_inverse=True, return_counts=True)
        if draw(st.booleans()):
            w = (n / (freq.size * freq))[y_enc]
    else:
        y = np.array(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)),
                     dtype=float)
    idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2 * n)))
    feats = np.array(sorted(draw(st.sets(st.integers(0, d - 1), min_size=1))))
    return X, y, w, idx, feats, classify


@settings(max_examples=150, deadline=None)
@given(split_cases())
# thresholds 0.5 and 1.5 tie exactly; 1.5 computes one rounding lower
@example((np.array([[0.0], [1.0], [2.0], [1.0]]), np.array([0.0, 1.0, 2.0, 1.0]),
          np.ones(4), np.arange(4), np.array([0]), False))
def test_best_split_matches_brute_force(case):
    X, y, w, idx, feats, classify = case
    Y = np.eye(y.max() + 1)[:, y] if classify else y[None, :]
    best = _brute_force_splits(X, y, w, idx, feats, classify)
    got = _best_split(X, Y, w, idx, feats)
    if not best:
        assert got is None
        return
    after, f, thr, left_order = got
    assert after == pytest.approx(best[0][0], rel=1e-9, abs=1e-12)
    # ties go to the lower feature, then to its lowest threshold
    assert f == best[0][1] and thr == min(t for _, g, t in best if g == f)
    assert np.array_equal(np.sort(idx[left_order]), np.sort(idx[X[idx, f] < thr]))
