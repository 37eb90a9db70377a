"""Fold mechanics, leakage controls, and the randomized search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ringtrace.errors import TooFewSamples
from ringtrace.features import apply_normalization, normalize_columns
from ringtrace.ml import (
    ModelSpec,
    SearchSpec,
    contiguous_shuffle_folds,
    fit_model,
    kfold_eval,
    r_squared,
    random_search,
    stratified_folds,
)


def blob_data(seed=0, n=200, d=4):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(-1.5, 1, size=(n // 2, d)),
                   rng.normal(+1.5, 1, size=(n // 2, d))])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


def test_fold_sizes_100_by_5():
    folds = contiguous_shuffle_folds(100, 5, seed=1)
    assert [f.size for f in folds] == [20] * 5
    assert sorted(np.concatenate(folds).tolist()) == list(range(100))


def test_stratified_folds_balance_classes():
    y = np.array([0] * 60 + [1] * 40)
    folds = stratified_folds(y, 5, seed=2)
    for f in folds:
        assert np.sum(y[f] == 0) == 12
        assert np.sum(y[f] == 1) == 8


def test_fold_assignment_deterministic():
    y = np.array([0, 1] * 50)
    f1 = stratified_folds(y, 5, seed=3)
    f2 = stratified_folds(y, 5, seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(f1, f2))
    f3 = stratified_folds(y, 5, seed=4)
    assert any(not np.array_equal(a, b) for a, b in zip(f1, f3))


def test_too_few_samples():
    X, y = blob_data(n=8)
    with pytest.raises(TooFewSamples):
        kfold_eval(ModelSpec("forest", "classify"), X, y, folds=10)


def test_shuffled_labels_drop_to_chance():
    # leakage oracle: destroying the label-feature link must kill accuracy
    X, y = blob_data(seed=5, n=1000)
    spec = ModelSpec("forest", "classify", {"n_trees": 20, "max_depth": 6})
    honest = kfold_eval(spec, X, y, folds=5, seed=5)
    assert honest["summary"]["accuracy"]["mean"] >= 0.9
    rng = np.random.default_rng(5)
    y_shuffled = rng.permutation(y)
    null = kfold_eval(spec, X, y_shuffled, folds=5, seed=5)
    assert abs(null["summary"]["accuracy"]["mean"] - 0.5) <= 0.05


def test_normalization_fit_on_train_only():
    # mutation oracle: corrupting the held-out rows must not move the
    # transform, which is fit on train rows alone
    rng = np.random.default_rng(6)
    X_train = rng.normal(size=(50, 4))
    X_test = rng.normal(size=(10, 4))
    _, means, stds = normalize_columns(X_train)
    te1 = apply_normalization(X_test, means, stds)
    te2 = apply_normalization(X_test + 1e9, means, stds)
    shift = (te2 - te1).mean(axis=0)
    assert np.allclose(shift * X_train.std(axis=0), 1e9, rtol=1e-6)

    # kfold_eval hands each fold's model its rows unscaled, and the models
    # that scale fit the transform on their train rows: corrupting fold 0's
    # test rows reaches the test rows and leaves the model's statistics as
    # they were
    X, y = np.vstack([X_train, X_test]), np.arange(60) % 2

    def fold0(spec, X_run):
        seen = []

        def evaluate(model, X_te, y_te, test_idx):
            seen.append((test_idx, X_te, model))
            return {}

        kfold_eval(spec, X_run, y, folds=3, seed=6, evaluate=evaluate)
        return seen[0]

    for family, task in (("mlp", "classify"), ("linear", "regress")):
        spec = ModelSpec(family, task, {"epochs": 2})
        test0, clean_te, clean = fold0(spec, X)
        corrupted = X.copy()
        corrupted[test0] += 1e9
        _, dirty_te, dirty = fold0(spec, corrupted)
        _, m, s = normalize_columns(np.delete(X, test0, axis=0))
        assert np.array_equal(clean_te, X[test0])
        assert np.array_equal(dirty_te, X[test0] + 1e9)
        for model in (clean, dirty):
            assert np.array_equal(model.means, m) and np.array_equal(model.stds, s)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_apply_normalization_reproduces_fit_bit_for_bit(X):
    # the one normalizer: applying a matrix's own statistics gives back the
    # fitted transform exactly, so train and test rows share one arithmetic
    with np.errstate(all="ignore"):
        fitted, means, stds = normalize_columns(X)
        applied = apply_normalization(X, means, stds)
    assert np.array_equal(fitted.view(np.uint64), applied.view(np.uint64))


def test_regression_reports_baseline():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(100, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(0, 0.1, 100)
    spec = ModelSpec("forest", "regress", {"n_trees": 20})
    result = kfold_eval(spec, X, y, folds=5, seed=7)
    assert result["summary"]["r2"]["mean"] > 0.5
    assert abs(result["summary"]["baseline_train_r2"]["mean"]) < 1e-12
    assert result["summary"]["baseline_r2"]["mean"] <= 0.05


def test_random_search_budget_one_single_eval():
    X, y = blob_data(seed=8, n=80)
    spec = ModelSpec("forest", "classify", {"n_trees": 5})
    res = random_search(spec, X, y, SearchSpec(budget=1, folds=4, seed=8), "accuracy")
    assert len(res["trials"]) == 1
    assert res["best_params"] == res["trials"][0]["params"]


def test_budget_one_search_is_kfold_eval():
    # trial 0 is the spec unchanged: bit for bit one kfold_eval, groups and
    # task metrics included
    X, y = blob_data(seed=14, n=90)
    groups = np.arange(90) // 3
    spec = ModelSpec("forest", "classify", {"n_trees": 4, "max_depth": 3})

    def evaluate(model, X_te, y_te, test_idx):
        return {"first_row": float(model.predict_proba(X_te)[0, 1])}

    direct = kfold_eval(spec, X, y, folds=3, seed=14, groups=groups,
                        evaluate=evaluate)
    res = random_search(spec, X, y, SearchSpec(budget=1, folds=3, seed=14),
                        "first_row", groups=groups, evaluate=evaluate)
    assert res["best_result"] == direct
    assert res["best_params"] == spec.params
    assert res["trials"] == [{"trial": 0, "params": spec.params, "metric": "first_row",
                              "value": direct["summary"]["first_row"]["mean"]}]


def test_random_search_best_dominates_log():
    X, y = blob_data(seed=9, n=120)
    spec = ModelSpec("forest", "classify")
    res = random_search(spec, X, y,
                        SearchSpec(budget=4, folds=3, seed=9), "accuracy",
                        space={"n_trees": ("int", 3, 10),
                               "max_depth": ("choice", [2, 4, 8])})
    values = [t["value"] for t in res["trials"] if t["value"] is not None]
    assert res["best_value"] >= max(values) - 1e-12


def test_forest_search_keeps_spec_tree_count():
    X, y = blob_data(seed=12, n=60)
    spec = ModelSpec("forest", "classify", {"n_trees": 3})
    res = random_search(spec, X, y, SearchSpec(budget=3, folds=2, seed=12), "accuracy")
    assert [t["params"]["n_trees"] for t in res["trials"]] == [3, 3, 3]


@pytest.mark.parametrize("family, epochs", [("linear", 60), ("mlp", 20)])
def test_regression_head_starts_at_the_data(family, epochs):
    # targets far from 0: a bias that starts at 0 is still far off after training
    rng = np.random.default_rng(6)
    X = rng.normal(size=(300, 4))
    y = 100 + X @ np.array([3.0, -2.0, 1.0, 0.5]) + rng.normal(0, 0.5, 300)
    model = fit_model(ModelSpec(family, "regress", {"epochs": epochs}),
                      X[:240], y[:240], seed=6)
    assert r_squared(y[240:], model.predict(X[240:])) >= 0.9


@pytest.mark.parametrize("family, epochs", [("linear", 60), ("mlp", 20)])
def test_scaling_models_fit_raw_columns_of_large_scale(family, epochs):
    # columns of scale 1e5 (like epoch timestamps): the models scale their own
    # input, so the raw rows train as well as unit-scale ones
    rng = np.random.default_rng(6)
    Z = rng.normal(size=(300, 4))
    y = 100 + Z @ np.array([3.0, -2.0, 1.0, 0.5]) + rng.normal(0, 0.5, 300)
    X = 1e5 * Z + np.array([1.6e9, 0.0, -3e5, 42.0])
    model = fit_model(ModelSpec(family, "regress", {"epochs": epochs}),
                      X[:240], y[:240], seed=6)
    assert r_squared(y[240:], model.predict(X[240:])) >= 0.9


def test_mlp_hidden_units_sampled_in_range():
    X, y = blob_data(seed=10, n=60)
    spec = ModelSpec("mlp", "classify", {"epochs": 2})
    res = random_search(spec, X, y, SearchSpec(budget=5, folds=3, seed=10), "accuracy")
    for t in res["trials"][1:]:
        assert 10 <= t["params"]["hidden_units"] <= 30


def test_random_search_rejects_zero_budget():
    X, y = blob_data(n=40)
    with pytest.raises(ValueError):
        random_search(ModelSpec("forest", "classify"), X, y,
                      SearchSpec(budget=0), "accuracy")
