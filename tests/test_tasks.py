"""Attack-task wiring: spoof recovery, group membership, value regression."""

import numpy as np
import pytest

from ringtrace.errors import ConstantTarget, DegenerateLabels
from ringtrace.features import CandidateTable, FeatureMatrix
from ringtrace.ml import ModelSpec, SearchSpec, group_task, save_report, spoof_task, value_task


def make_candidate_table(n_rings, ring_size, real_fn, signal, seed=0):
    """Synthetic candidate table: `signal` column separates real candidates."""
    rng = np.random.default_rng(seed)
    keys, rows, real_idx = [], [], {}
    for r in range(n_rings):
        real = real_fn(r)
        real_idx[r] = [real]
        for c in range(ring_size):
            keys.append((r, 0, c))
            noise = rng.normal(size=3)
            rows.append([signal if c == real else rng.normal(), *noise])
    table = CandidateTable(keys=keys, names=("sig", "a", "b", "c"),
                           raw=np.array(rows))
    return table, real_idx


def make_feature_matrix(X, names=None):
    names = names or tuple(f"f{i}" for i in range(X.shape[1]))
    return FeatureMatrix(tx_ids=list(range(X.shape[0])), names=names, raw=X)


# spoof ------------------------------------------------------------------------


def test_spoof_planted_rule_recovered():
    table, real = make_candidate_table(
        n_rings=300, ring_size=5, real_fn=lambda r: r % 5, signal=8.0, seed=1)
    spec = ModelSpec("forest", "classify", {"n_trees": 15, "max_depth": 6},
                     class_weight="balanced")
    report = spoof_task(table, real, spec, SearchSpec(budget=1, folds=3, seed=1))
    assert report.summary["top1"]["mean"] >= 0.95
    assert report.baseline["top1"] == pytest.approx(1 / 5)


def test_spoof_chance_control_near_uniform():
    table, real = make_candidate_table(
        n_rings=2000, ring_size=11, real_fn=lambda r: r % 11, signal=0.0, seed=2)
    spec = ModelSpec("forest", "classify", {"n_trees": 3, "max_depth": 2})
    report = spoof_task(table, real, spec, SearchSpec(budget=1, folds=2, seed=2))
    chance = report.extras["chance_control_top1"]
    p = 1 / 11
    band = 3 * np.sqrt(p * (1 - p) / 2000)
    assert abs(chance - p) < band


def test_spoof_ties_break_to_lowest_index():
    # constant features force equal scores; argmax must pick candidate 0
    n_rings, k = 40, 4
    keys, rows = [], []
    for r in range(n_rings):
        for c in range(k):
            keys.append((r, 0, c))
            rows.append([1.0, 1.0])
    table = CandidateTable(keys=keys, names=("x", "y"), raw=np.array(rows))
    spec = ModelSpec("forest", "classify", {"n_trees": 3})
    real_first = {r: [0] for r in range(n_rings)}
    rep = spoof_task(table, real_first, spec,
                     SearchSpec(budget=1, folds=2, seed=3))
    assert rep.summary["top1"]["mean"] == 1.0
    real_last = {r: [k - 1] for r in range(n_rings)}
    rep = spoof_task(table, real_last, spec,
                     SearchSpec(budget=1, folds=2, seed=3))
    assert rep.summary["top1"]["mean"] == 0.0


def test_spoof_rejects_multiple_reals():
    table, real = make_candidate_table(
        n_rings=10, ring_size=3, real_fn=lambda r: 0, signal=1.0)
    real[0] = [5]  # no candidate matches -> zero reals in ring 0
    with pytest.raises(ValueError):
        spoof_task(table, real, ModelSpec("forest", "classify"),
                   SearchSpec(budget=1, folds=2, seed=1))


def test_spoof_unequal_rings_chance_control_and_guesses():
    # rings of 1 to 8 members, three rings per transaction
    rng = np.random.default_rng(7)
    sizes = rng.integers(1, 9, size=200)
    keys = [(r // 3, r % 3, c) for r, n in enumerate(sizes) for c in range(n)]
    reals = [int(rng.integers(n)) for n in sizes]
    real = {}
    for r, i in enumerate(reals):
        real.setdefault(r // 3, []).append(i)
    table = CandidateTable(keys=keys, names=("x",), raw=rng.normal(size=(len(keys), 1)))
    rep = spoof_task(table, real, ModelSpec("forest", "classify", {"n_trees": 2}),
                     SearchSpec(budget=1, folds=2, seed=5))
    draws = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(99,)))
    hits = sum(int(np.argmax(draws.random(n)) == i) for n, i in zip(sizes, reals))
    assert rep.extras["chance_control_top1"] == hits / len(sizes)
    assert rep.baseline["top1"] == pytest.approx(np.mean(1 / sizes))
    assert rep.baseline["guess_oldest_top1"] == np.mean([i == 0 for i in reals])
    assert rep.baseline["guess_newest_top1"] == np.mean(
        [i == n - 1 for n, i in zip(sizes, reals)])


# group ------------------------------------------------------------------------


def test_group_separable_labels():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 6))
    y = (X[:, 2] > 0).astype(int)
    fm = make_feature_matrix(X)
    spec = ModelSpec("forest", "classify", {"n_trees": 20, "max_depth": 6})
    report = group_task(fm, y, spec, SearchSpec(budget=1, folds=5, seed=4))
    assert report.summary["accuracy"]["mean"] >= 0.9
    top_feature = report.feature_importances[0][0]
    assert top_feature == "f2"


def test_group_shuffled_labels_chance():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(400, 6))
    y = (X[:, 1] > 0).astype(int)
    fm = make_feature_matrix(X)
    spec = ModelSpec("forest", "classify", {"n_trees": 15, "max_depth": 5})
    shuffled = rng.permutation(y)
    report = group_task(fm, shuffled, spec, SearchSpec(budget=1, folds=5, seed=5))
    assert report.summary["accuracy"]["mean"] <= 0.6


def test_group_degenerate_labels():
    fm = make_feature_matrix(np.random.default_rng(6).normal(size=(50, 3)))
    with pytest.raises(DegenerateLabels):
        group_task(fm, np.zeros(50, dtype=int), ModelSpec("forest", "classify"),
                   SearchSpec(budget=1))


# value ------------------------------------------------------------------------


def test_value_leak_column_recovers_target():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(400, 5))
    targets = rng.normal(size=400) * 10 + 50
    leaked = np.column_stack([X, targets + rng.normal(0, 0.01, 400)])
    fm = make_feature_matrix(leaked)
    spec = ModelSpec("forest", "regress", {"n_trees": 30})
    report = value_task(fm, targets, spec, SearchSpec(budget=1, folds=5, seed=7))
    assert report.summary["r2"]["mean"] >= 0.9
    assert report.feature_importances[0][0] == "f5"


def test_value_noise_features_near_zero_r2():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(300, 5))
    targets = rng.normal(size=300)
    fm = make_feature_matrix(X)
    spec = ModelSpec("forest", "regress", {"n_trees": 15, "max_depth": 5})
    report = value_task(fm, targets, spec, SearchSpec(budget=1, folds=5, seed=8))
    assert report.summary["r2"]["mean"] <= 0.1
    assert abs(report.baseline["r2_train"]) < 1e-12


def test_value_constant_target():
    fm = make_feature_matrix(np.random.default_rng(9).normal(size=(40, 3)))
    with pytest.raises(ConstantTarget):
        value_task(fm, np.full(40, 7.0), ModelSpec("forest", "regress"),
                   SearchSpec(budget=1))


def test_group_task_with_mlp_family():
    rng = np.random.default_rng(11)
    X = np.vstack([rng.normal(-1.5, 1, size=(100, 5)),
                   rng.normal(+1.5, 1, size=(100, 5))])
    y = np.array([0] * 100 + [1] * 100)
    fm = make_feature_matrix(X)
    spec = ModelSpec("mlp", "classify", {"hidden_units": 10, "epochs": 30,
                                         "learning_rate": 0.05})
    report = group_task(fm, y, spec, SearchSpec(budget=1, folds=3, seed=11))
    assert report.summary["accuracy"]["mean"] >= 0.9
    assert report.feature_importances is None  # forests only


def test_spoof_task_with_mlp_family():
    table, real = make_candidate_table(
        n_rings=120, ring_size=4, real_fn=lambda r: r % 4, signal=8.0, seed=12)
    spec = ModelSpec("mlp", "classify", {"hidden_units": 10, "epochs": 40,
                                         "learning_rate": 0.05},
                     class_weight="balanced")
    report = spoof_task(table, real, spec, SearchSpec(budget=1, folds=2, seed=12))
    assert report.summary["top1"]["mean"] >= 0.9


def test_diverged_trials_logged_not_fatal():
    from ringtrace.ml import random_search
    rng = np.random.default_rng(13)
    X = rng.normal(size=(80, 4))
    y = X @ rng.normal(size=4)
    spec = ModelSpec("mlp", "regress", {"hidden_units": 10, "epochs": 10,
                                        "learning_rate": 1e6})
    res = random_search(spec, X, y, SearchSpec(budget=6, folds=2, seed=13), "r2",
                        space={"learning_rate": ("choice", [1e6, 0.02])})
    assert any(t["value"] is None for t in res["trials"])
    assert res["best_params"]["learning_rate"] == 0.02


@pytest.mark.parametrize("budget", [1, 3])
def test_every_trial_diverged_raises_the_first(budget):
    from ringtrace.errors import Diverged
    from ringtrace.ml import kfold_eval, random_search
    rng = np.random.default_rng(13)
    X = rng.normal(size=(80, 4))
    y = X @ rng.normal(size=4)
    spec = ModelSpec("mlp", "regress", {"hidden_units": 10, "epochs": 10,
                                        "learning_rate": 1e6})
    with pytest.raises(Diverged) as direct:
        kfold_eval(spec, X, y, folds=2, seed=13)
    with pytest.raises(Diverged) as searched:
        random_search(spec, X, y, SearchSpec(budget=budget, folds=2, seed=13), "r2",
                      space={"learning_rate": ("choice", [1e5, 1e6])})
    assert searched.value.learning_rate == 1e6 and searched.value.epoch >= 0
    assert str(searched.value) == str(direct.value)


@pytest.mark.parametrize("task, metric", [("spoof", "top1"), ("group", "accuracy"),
                                          ("value", "r2")])
def test_each_task_searches_on_its_own_metric(task, metric):
    rng = np.random.default_rng(16)
    search = SearchSpec(budget=3, folds=2, seed=16)
    if task == "spoof":
        table, real = make_candidate_table(40, 4, lambda r: r % 4, signal=3.0, seed=16)
        spec = ModelSpec("forest", "classify", {"n_trees": 3}, class_weight="balanced")
        report = spoof_task(table, real, spec, search)
    else:
        X = rng.normal(size=(60, 4))
        spec = ModelSpec("forest", "classify" if task == "group" else "regress",
                         {"n_trees": 3})
        run = group_task if task == "group" else value_task
        report = run(make_feature_matrix(X), X[:, 0] > 0 if task == "group"
                     else X[:, 0] * 2.0, spec, search)
    assert [t["trial"] for t in report.trials] == [0, 1, 2]
    assert {t["metric"] for t in report.trials} == {metric}
    assert report.trials[0]["params"] == spec.params
    best = max(report.trials, key=lambda t: t["value"])
    assert report.summary[metric]["mean"] == best["value"]


def test_spoof_forest_searches_its_own_space():
    from ringtrace.ml.tasks import DEFAULT_SPACES, SPOOF_FOREST_SPACE
    search = SearchSpec(budget=3, folds=2, seed=17)
    table, real = make_candidate_table(40, 4, lambda r: r % 4, signal=3.0, seed=17)
    spec = ModelSpec("forest", "classify", {"n_trees": 3, "max_features": 1.0},
                     class_weight="balanced")
    trials = spoof_task(table, real, spec, search).trials
    thirds = SPOOF_FOREST_SPACE["max_features"][1]
    assert all(t["params"]["max_features"] in [1.0, *thirds] for t in trials)
    assert {k: v for k, v in SPOOF_FOREST_SPACE.items() if k != "max_features"} == \
        {k: v for k, v in DEFAULT_SPACES["forest"].items() if k != "max_features"}
    # the group and value forests keep the shared space
    assert DEFAULT_SPACES["forest"]["max_features"] == ("choice", ["sqrt", 0.05, 0.1])
    X = np.random.default_rng(17).normal(size=(60, 4))
    for run, y, task in ((group_task, X[:, 0] > 0, "classify"),
                         (value_task, X[:, 0] * 2.0, "regress")):
        report = run(make_feature_matrix(X), y, ModelSpec("forest", task, {"n_trees": 3}),
                     search)
        assert all(t["params"]["max_features"] in ["sqrt", 0.05, 0.1]
                   for t in report.trials[1:])


def test_final_forest_draws_streams_of_its_own(monkeypatch):
    from ringtrace.ml import tasks
    seeds = []

    def fit_model(spec, X, y, seed):
        seeds.append(seed)
        return real_fit(spec, X, y, seed)

    real_fit = tasks.fit_model
    monkeypatch.setattr(tasks, "fit_model", fit_model)
    X = np.random.default_rng(18).normal(size=(60, 4))
    search = SearchSpec(budget=2, folds=2, seed=18)
    value_task(make_feature_matrix(X), X[:, 0],
               ModelSpec("forest", "regress", {"n_trees": 12}), search)

    def stream(entropy, key):
        return tuple(np.random.SeedSequence(entropy, spawn_key=key).generate_state(4))

    # folds (7,), (8,); trials (21, t); spoof chance control (99,)
    search_streams = {stream(search.seed, key)
                      for key in ((7,), (8,), (99,), (21, 1))}
    [final] = seeds
    assert not {stream(final, (t,)) for t in range(12)} & search_streams


# report files -------------------------------------------------------------------


def test_save_report_files(tmp_path):
    rng = np.random.default_rng(10)
    X = rng.normal(size=(120, 4))
    y = (X[:, 0] > 0).astype(int)
    fm = make_feature_matrix(X)
    spec = ModelSpec("forest", "classify", {"n_trees": 10})
    report = group_task(fm, y, spec, SearchSpec(budget=2, folds=3, seed=10))
    paths = save_report(report, tmp_path)
    import json
    payload = json.loads(paths["report.json"].read_text())
    assert payload["task"] == "group"
    assert "accuracy" in payload["summary"]
    lines = paths["importance.csv"].read_text().strip().split("\n")
    assert lines[0] == "rank,feature,weight"
    assert len(lines) == 1 + 4
    tlines = paths["trials.csv"].read_text().strip().split("\n")
    assert len(tlines) == 1 + 2
