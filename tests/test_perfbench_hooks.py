"""The names the benchmark harness hooks into must exist and be the ones used.

perfbench/spans.py wraps module attributes by name and perfbench/steps.py
scales the forests by editing `cli.TASK_DEFAULTS` in place; a rename or a
copied dict would leave the harness timing or sizing nothing.  The modules
are imported here without installing any wrapper.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from ringtrace import cli, economy, ledger
from ringtrace.features import FeatureMatrix, read_feature_matrix, write_feature_matrix
from ringtrace.ml import ForestHyperParams, ModelSpec, SearchSpec, tasks, train_forest
from ringtrace.rng import Rng

from test_economy import small_spec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    for layer, module_name, attribute, _ in _load("spans").TRACED:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (layer, module_name, attribute)


def test_span_counters_read_the_forest_and_the_matrix():
    spans = _load("spans")
    X = np.repeat(np.arange(8.0), 5)[:, None]
    y = (X[:, 0] > 3).astype(int)
    # depth-1 trees on a separable target: one split, two leaves each
    model = train_forest(X, y, ForestHyperParams(n_trees=3, max_depth=1, seed=1))
    assert spans._forest((X, y), model) == {"trees": 3, "nodes": 9}
    fm = FeatureMatrix(tx_ids=list(range(40)), names=("a",), raw=X)
    assert spans._rows((), fm) == {"rows": 40}


def test_search_calls_the_traced_globals(monkeypatch):
    calls = []

    def counted(name):
        inner = getattr(tasks, name)
        monkeypatch.setattr(tasks, name,
                            lambda *a, **k: calls.append(name) or inner(*a, **k))

    counted("kfold_eval")
    counted("fit_model")
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    fm = FeatureMatrix(tx_ids=list(range(40)), names=("a", "b", "c"), raw=X)
    tasks.group_task(fm, X[:, 0] > 0, ModelSpec("forest", "classify", {"n_trees": 2}),
                     SearchSpec(budget=2, folds=2, seed=3))
    assert calls == ["kfold_eval", "kfold_eval", "fit_model"]


def _count_calls(monkeypatch, module, names) -> dict[str, list]:
    """Replace each named module attribute with a wrapper logging its args."""
    calls = {name: [] for name in names}
    for name in names:
        inner = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _log=calls[name], _f=inner, **k:
                            _log.append(a) or _f(*a, **k))
    return calls


def test_simulation_calls_the_traced_globals(monkeypatch):
    calls = _count_calls(monkeypatch, economy, ("build_transaction", "apply_block"))
    spec = small_spec(target=10)
    chain, _ = economy.run_simulation(economy.gen_economy(spec, Rng(spec.seed)), spec)
    assert len(calls["build_transaction"]) >= 10
    assert len(calls["apply_block"]) == len(chain.blocks)


def test_simulate_command_calls_the_traced_savers(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, ledger,
                         ("public_view", "save_chain", "save_public_chain"))
    spec = small_spec(target=10)
    economy.save_economy(spec, economy.gen_economy(spec, Rng(spec.seed)),
                         tmp_path / "economy.json")
    assert cli.main(["simulate", "--economy", str(tmp_path / "economy.json"),
                     "--out", str(tmp_path / "sim")]) == 0
    assert len(calls["public_view"]) == 1
    # spans._file_arg sizes the file named by a saver's second argument
    assert [a[1] for a in calls["save_chain"]] == [tmp_path / "sim" / "chain.json"]
    assert [a[1] for a in calls["save_public_chain"]] == \
        [tmp_path / "sim" / "public_chain.json"]


def test_steps_cli_scaling_reaches_cli_main(tmp_path, monkeypatch):
    steps = _load("steps")
    for key, params in cli.TASK_DEFAULTS.items():  # restored after the test
        monkeypatch.setitem(cli.TASK_DEFAULTS, key, dict(params))
    scaled = cli.TASK_DEFAULTS[("group", "forest")]["n_trees"] // steps.FOREST_SCALE
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 3))
    write_feature_matrix(FeatureMatrix(tx_ids=list(range(30)), names=("a", "b", "c"),
                                       raw=X), tmp_path / "fx")
    (tmp_path / "labels.csv").write_text(
        "tx_id,receiver_pool\n" + "".join(f"{i},{int(x > 0)}\n"
                                          for i, x in enumerate(X[:, 0])))
    steps.cli({"argv": ["train", "--task", "group", "--features", str(tmp_path / "fx"),
                        "--labels", str(tmp_path / "labels.csv"), "--folds", "2",
                        "--out", str(tmp_path / "out")]})
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["best_params"]["n_trees"] == scaled


def test_steps_set_up_files_read_back(tmp_path, monkeypatch):
    """The set-up steps that call save_economy and write_feature_matrix
    outside the CLI write files the CLI and the readers take."""
    steps = _load("steps")
    for key, params in cli.TASK_DEFAULTS.items():  # restored after the test
        monkeypatch.setitem(cli.TASK_DEFAULTS, key, dict(params))
    steps.generate({"scenario": "s03", "seed": 7, "out": str(tmp_path / "gen"),
                    "transfers": 40})
    spec, files = economy.load_economy(tmp_path / "gen" / "economy.json")
    assert spec.target_tx_count == sum(map(len, files.values())) == 40
    steps.cli({"argv": ["simulate", "--economy", str(tmp_path / "gen" / "economy.json"),
                        "--out", str(tmp_path / "sim")]})
    steps.featurize_matrix({"chain": str(tmp_path / "sim" / "public_chain.json"),
                            "out": str(tmp_path / "fx")})
    fm = read_feature_matrix(tmp_path / "fx")
    assert fm.raw.shape == (40, 182)
