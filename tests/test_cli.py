"""End-to-end command-line workflow on a small scenario."""

import json

import pytest

from ringtrace.cli import main
from ringtrace.economy import save_economy
from ringtrace.ledger import load_chain

from test_economy import small_spec
from ringtrace.economy import gen_economy
from ringtrace.rng import Rng


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """generate -> simulate -> featurize once for the whole module."""
    root = tmp_path_factory.mktemp("cli")
    spec = small_spec(n_agents=4, pools=2, target=120, seed=21,
                      windows=[[(0.0, 12.0)], [(12.0, 24.0)]])
    files = gen_economy(spec, Rng(spec.seed))
    save_economy(spec, files, root / "econ" / "economy.json")
    assert main(["simulate", "--economy", str(root / "econ" / "economy.json"),
                 "--out", str(root / "sim")]) == 0
    assert main(["featurize", "--chain", str(root / "sim" / "public_chain.json"),
                 "--out", str(root / "fx"),
                 "--ground-truth", str(root / "sim" / "chain.json"),
                 "--edges", "all,true"]) == 0
    return root


def test_generate_writes_economy_and_manifest(tmp_path):
    assert main(["generate", "s03", "--seed", "7",
                 "--out", str(tmp_path / "g")]) == 0
    payload = json.loads((tmp_path / "g" / "economy.json").read_text())
    assert len(payload["spec"]["agents"]) == 10
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["parameters"] == {"scenario": "s03", "seed": 7}


def test_generate_unknown_scenario_exit_2(tmp_path, capsys):
    assert main(["generate", "s99", "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnknownScenario"


def test_generate_deterministic(tmp_path):
    main(["generate", "s04", "--seed", "3", "--out", str(tmp_path / "a")])
    main(["generate", "s04", "--seed", "3", "--out", str(tmp_path / "b")])
    for name in ("economy.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_simulate_missing_economy_exit_2(tmp_path, capsys):
    assert main(["simulate", "--economy", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    assert "not found" in json.loads(capsys.readouterr().err)["message"]


def test_simulate_outputs(workdir):
    sim = workdir / "sim"
    for name in ("chain.json", "public_chain.json", "labels.csv",
                 "real_inputs.csv", "manifest.json"):
        assert (sim / name).is_file()
    chain = load_chain(sim / "chain.json")
    transfers = sum(1 for t in chain.transactions.values() if t.kind == "transfer")
    assert transfers == 120


def test_validate_simulated_chain(workdir, capsys):
    assert main(["validate", "--chain", str(workdir / "sim" / "chain.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"ok": True, "violations": []}


def test_featurize_outputs(workdir):
    fx = workdir / "fx"
    for name in ("features.csv", "features_raw.csv", "norm_stats.json",
                 "candidates.csv", "correlation.csv", "edges_all.csv",
                 "edges_true.csv", "manifest.json"):
        assert (fx / name).is_file()
    header = (fx / "features.csv").read_text().split("\n", 1)[0]
    assert len(header.split(",")) == 1 + 182


def test_featurize_true_edges_without_secrets_exit_2(workdir, tmp_path, capsys):
    code = main(["featurize", "--chain", str(workdir / "sim" / "public_chain.json"),
                 "--out", str(tmp_path), "--edges", "true"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ModeRequiresSecrets"


@pytest.mark.parametrize("bins", ["0", "-1"])
def test_featurize_bins_below_one_exit_2_writes_nothing(workdir, tmp_path, capsys, bins):
    code = main(["featurize", "--chain", str(workdir / "sim" / "public_chain.json"),
                 "--out", str(tmp_path / "fx"), "--bins", bins])
    assert code == 2
    assert "--bins" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "fx").exists()


@pytest.mark.parametrize("command", ["featurize", "train"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_2_writes_nothing(workdir, tmp_path, capsys, command, jobs):
    inputs = (["--chain", str(workdir / "sim" / "public_chain.json")]
              if command == "featurize" else
              ["--features", str(workdir / "fx"), "--task", "spoof",
               "--real-inputs", str(workdir / "sim" / "real_inputs.csv")])
    code = main([command, *inputs, "--out", str(tmp_path / "out"), "--jobs", jobs])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "CliError" and "--jobs" in error["message"]
    assert not (tmp_path / "out").exists()


def test_featurize_deterministic_across_jobs(workdir, tmp_path):
    for label, jobs in (("j1", "1"), ("j2", "3")):
        assert main(["featurize", "--chain",
                     str(workdir / "sim" / "public_chain.json"),
                     "--out", str(tmp_path / label), "--jobs", jobs]) == 0
    for name in ("features.csv", "features_raw.csv", "norm_stats.json",
                 "candidates.csv", "correlation.csv", "edges_all.csv"):
        a = (tmp_path / "j1" / name).read_bytes()
        b = (tmp_path / "j2" / name).read_bytes()
        assert a == b, name
    # manifests differ only in the jobs parameter by design
    m1 = json.loads((tmp_path / "j1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "j2" / "manifest.json").read_text())
    m1["parameters"].pop("jobs")
    m2["parameters"].pop("jobs")
    assert m1 == m2


def test_train_group_task(workdir, tmp_path):
    code = main(["train", "--features", str(workdir / "fx"),
                 "--labels", str(workdir / "sim" / "labels.csv"),
                 "--task", "group", "--model", "forest",
                 "--budget", "1", "--folds", "3", "--seed", "5",
                 "--out", str(tmp_path / "t")])
    assert code == 0
    report = json.loads((tmp_path / "t" / "report.json").read_text())
    assert report["task"] == "group"
    assert (tmp_path / "t" / "importance.csv").is_file()
    assert (tmp_path / "t" / "trials.csv").is_file()


def test_train_spoof_task(workdir, tmp_path):
    code = main(["train", "--features", str(workdir / "fx"),
                 "--real-inputs", str(workdir / "sim" / "real_inputs.csv"),
                 "--task", "spoof", "--model", "forest",
                 "--budget", "1", "--folds", "2", "--seed", "5",
                 "--out", str(tmp_path / "t")])
    assert code == 0
    report = json.loads((tmp_path / "t" / "report.json").read_text())
    assert "top1" in report["summary"]
    assert report["baseline"]["top1"] > 0


def test_train_value_task_reports_baseline(workdir, tmp_path):
    code = main(["train", "--features", str(workdir / "fx"),
                 "--labels", str(workdir / "sim" / "labels.csv"),
                 "--task", "value", "--model", "forest",
                 "--budget", "1", "--folds", "3", "--seed", "5",
                 "--out", str(tmp_path / "t")])
    assert code == 0
    report = json.loads((tmp_path / "t" / "report.json").read_text())
    assert abs(report["baseline"]["r2_train"]) < 1e-12


def test_train_budget_zero_exit_2(workdir, tmp_path, capsys):
    assert main(["train", "--features", str(workdir / "fx"),
                 "--labels", str(workdir / "sim" / "labels.csv"),
                 "--task", "group", "--budget", "0",
                 "--out", str(tmp_path)]) == 2
    assert "budget" in json.loads(capsys.readouterr().err)["message"]


def _train_error(workdir, tmp_path, capsys, task, **files):
    argv = ["train", "--features", str(workdir / "fx"), "--task", task,
            "--folds", "2", "--out", str(tmp_path / "t")]
    for flag, path in files.items():
        argv += [f"--{flag.replace('_', '-')}", str(path)]
    assert main(argv) == 2
    return json.loads(capsys.readouterr().err)


def test_train_labels_missing_tx_exit_2(workdir, tmp_path, capsys):
    lines = (workdir / "sim" / "labels.csv").read_text().splitlines()
    dropped = lines[1].split(",")[0]
    path = tmp_path / "labels.csv"
    path.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
    err = _train_error(workdir, tmp_path, capsys, "value", labels=path)
    assert err["error"] == "CliError"
    assert str(path) in err["message"] and f"tx_id {dropped}" in err["message"]


def test_train_real_inputs_missing_column_or_tx_exit_2(workdir, tmp_path, capsys):
    lines = (workdir / "sim" / "real_inputs.csv").read_text().splitlines()
    path = tmp_path / "real_inputs.csv"
    path.write_text(lines[0].replace("real_index", "index") + "\n")
    err = _train_error(workdir, tmp_path, capsys, "spoof", real_inputs=path)
    assert str(path) in err["message"] and "'real_index'" in err["message"]
    # every row of the first transaction dropped
    first = lines[1].split(",")[0]
    path.write_text("\n".join(line for line in lines
                               if line.split(",")[0] != first) + "\n")
    err = _train_error(workdir, tmp_path, capsys, "spoof", real_inputs=path)
    assert err["error"] == "DegenerateLabels"
    assert str(path) in err["message"] and f"tx_id {first} " in err["message"]


def test_train_real_index_outside_ring_exit_2(workdir, tmp_path, capsys):
    lines = (workdir / "sim" / "real_inputs.csv").read_text().splitlines()
    col = lines[0].split(",").index("real_index")
    row = lines[1].split(",")
    row[col] = "999"
    path = tmp_path / "real_inputs.csv"
    path.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
    err = _train_error(workdir, tmp_path, capsys, "spoof", real_inputs=path)
    assert err["error"] == "DegenerateLabels"
    assert str(path) in err["message"] and f"tx_id {row[0]} " in err["message"]


def test_train_real_inputs_missing_middle_ring_exit_2(workdir, tmp_path, capsys):
    # a ring without a row must not take the index of the ring after it
    lines = (workdir / "sim" / "real_inputs.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    tx = next(r[0] for r in rows if r[1] == "1")
    path = tmp_path / "real_inputs.csv"
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows
                                            if r[:2] != [tx, "0"]]) + "\n")
    err = _train_error(workdir, tmp_path, capsys, "spoof", real_inputs=path)
    assert err["error"] == "DegenerateLabels"
    assert f"tx_id {tx} ring 0;" in err["message"]


def test_train_candidates_out_of_order_exit_2(workdir, tmp_path, capsys):
    lines = (workdir / "fx" / "candidates.csv").read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]  # candidates 0 and 1 of the first ring
    path = tmp_path / "fx" / "candidates.csv"
    path.parent.mkdir()
    path.write_text("\n".join(lines) + "\n")
    assert main(["train", "--features", str(path.parent), "--task", "spoof",
                 "--real-inputs", str(workdir / "sim" / "real_inputs.csv"),
                 "--folds", "2", "--out", str(tmp_path / "t")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError"
    tx = lines[1].split(",")[0]
    assert err["message"].startswith(f"{path}: tx_id {tx} ring 0: ")
    assert "candidate_index" in err["message"]


def _corrupt(src, dst, column, value, row=2):
    """Copy CSV `src` to `dst` with `column` of data row `row` set to `value`."""
    lines = src.read_text().splitlines()
    cells = lines[row].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[row] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("task, name, column, value", [
    ("value", "labels.csv", "value", "12.5"),
    ("spoof", "real_inputs.csv", "real_index", ""),
    ("value", "features_raw.csv", "num_rings", "oops"),
])
def test_train_malformed_csv_cell_exit_2(workdir, tmp_path, capsys, task, name,
                                         column, value):
    files = {"features": workdir / "fx", "labels": workdir / "sim" / "labels.csv",
             "real_inputs": workdir / "sim" / "real_inputs.csv"}
    path = tmp_path / name
    if name == "features_raw.csv":
        # train reads features_raw.csv and the names in norm_stats.json only
        (tmp_path / "norm_stats.json").write_bytes(
            (workdir / "fx" / "norm_stats.json").read_bytes())
        _corrupt(workdir / "fx" / name, path, column, value)
        files["features"] = tmp_path
    else:
        _corrupt(workdir / "sim" / name, path, column, value)
        files[name.removesuffix(".csv")] = path
    argv = ["train", "--task", task, "--folds", "2", "--out", str(tmp_path / "t")]
    for flag, f in files.items():
        argv += [f"--{flag.replace('_', '-')}", str(f)]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError"
    assert f"{path}: line 3" in err["message"] and f"'{column}'" in err["message"]


@pytest.fixture(scope="module")
def dump(workdir):
    """xmr-dump.json of the module's chain and a labels file for it."""
    from ringtrace.ingest import export_dump
    from ringtrace.ledger import load_public_chain

    pub = load_public_chain(workdir / "sim" / "public_chain.json")
    export_dump(pub, workdir / "xmr-dump.json")
    rows = ["tx_hash,label"] + [f"{t:016x},exchange" for t in pub.transfer_ids()[::3]]
    (workdir / "ext_labels.csv").write_text("\n".join(rows) + "\n")
    return workdir / "xmr-dump.json"


@pytest.mark.parametrize("flag, stored", [("0", 120), ("-5", 120), (None, 0)])
def test_simulate_block_interval_below_1_exit_2(workdir, tmp_path, capsys, flag, stored):
    economy = json.loads((workdir / "econ" / "economy.json").read_text())
    economy["spec"]["sim"]["block_interval"] = stored
    (tmp_path / "economy.json").write_text(json.dumps(economy))
    argv = ["simulate", "--economy", str(tmp_path / "economy.json"),
            "--out", str(tmp_path / "out")]
    assert main(argv + ([] if flag is None else ["--block-interval", flag])) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidSimParams" and "block_interval" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, where, column", [
    ("", "line 1", "tx_hash"),
    ("tx_hash,label\nabc\n", "line 2", "label"),
])
def test_ingest_malformed_labels_exit_2(dump, tmp_path, capsys, text, where, column):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    assert main(["ingest", "--dump", str(dump), "--labels", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError"
    assert f"{path}: {where}" in err["message"] and f"'{column}'" in err["message"]


@pytest.mark.parametrize("argv, source", [
    (["simulate", "--economy", "{bad}", "--out", "{out}"], "econ/economy.json"),
    (["featurize", "--chain", "{bad}", "--out", "{out}"], "sim/public_chain.json"),
    (["featurize", "--chain", "{pub}", "--ground-truth", "{bad}", "--out", "{out}"],
     "sim/chain.json"),
    (["validate", "--chain", "{bad}"], "sim/chain.json"),
    (["ingest", "--dump", "{bad}", "--labels", "{labels}", "--out", "{out}"],
     "xmr-dump.json"),
])
def test_truncated_json_input_exit_2(workdir, dump, tmp_path, capsys, argv, source):
    text = (workdir / source).read_text()
    bad = tmp_path / source.split("/")[-1]
    bad.write_text(text[:len(text) // 2])
    paths = {"bad": bad, "out": tmp_path / "out",
             "pub": workdir / "sim" / "public_chain.json",
             "labels": workdir / "ext_labels.csv"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError"
    assert f"{bad}: line 1 column " in err["message"]


@pytest.mark.parametrize("argv, field", [
    (["validate", "--chain", "{pub}"], "block_interval"),
    (["simulate", "--economy", "{pub}", "--out", "{out}"], "spec"),
    (["validate", "--chain", "{v2}"], "format_version"),
    (["validate", "--chain", "{no_spent_by}"], "spent_by"),
    (["validate", "--chain", "{no_real_index}"], "real_index"),
    (["simulate", "--economy", "{no_fee}", "--out", "{out}"], "fee"),
    (["simulate", "--economy", "{no_fee_bogus}", "--out", "{out}"], "fee"),
])
def test_wrong_kind_json_input_exit_2(workdir, tmp_path, capsys, argv, field):
    economy = json.loads((workdir / "econ" / "economy.json").read_text())
    del economy["spec"]["sim"]["fee"]
    (tmp_path / "no_fee.json").write_text(json.dumps(economy))
    economy["spec"]["sim"]["bogus"] = 1  # unknown keys are ignored, as in every record
    (tmp_path / "no_fee_bogus.json").write_text(json.dumps(economy))
    chain = json.loads((workdir / "sim" / "chain.json").read_text())
    (tmp_path / "v2.json").write_text(json.dumps({**chain, "format_version": 2}))
    spent_by = chain["outputs"][0].pop("spent_by")
    (tmp_path / "no_spent_by.json").write_text(json.dumps(chain))
    chain["outputs"][0]["spent_by"] = spent_by
    del next(t for t in chain["transactions"] if t["inputs"])["inputs"][0]["real_index"]
    (tmp_path / "no_real_index.json").write_text(json.dumps(chain))
    paths = {"pub": workdir / "sim" / "public_chain.json", "out": tmp_path / "out",
             **{name: tmp_path / f"{name}.json"
                for name in ("v2", "no_spent_by", "no_real_index", "no_fee",
                             "no_fee_bogus")}}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError"
    source = paths[argv[2].strip("{}")]
    assert err["message"].startswith(f"{source}: ") and f"'{field}'" in err["message"]


@pytest.mark.parametrize("argv, source, table, field, value, record, id_key", [
    (["validate", "--chain", "{bad}"], "chain.json", "transactions", "inputs", 5,
     "Transaction", "tx_id"),
    (["validate", "--chain", "{bad}"], "chain.json", "outputs", "block_height", "x",
     "Output", "output_id"),
    (["featurize", "--chain", "{bad}", "--out", "{out}"], "public_chain.json",
     "transactions", "rings", None, "PublicTx", "tx_id"),
])
def test_mistyped_chain_field_exit_2(workdir, tmp_path, capsys, argv, source, table,
                                     field, value, record, id_key):
    payload = json.loads((workdir / "sim" / source).read_text())
    rec = next(r for r in payload[table] if r.get("kind") != "coinbase")
    rec[field] = value
    bad = tmp_path / source
    bad.write_text(json.dumps(payload))
    assert main([arg.format(bad=bad, out=tmp_path / "out") for arg in argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError"
    assert err["message"].startswith(f"{bad}: {record} {rec[id_key]}: {field} is "
                                     f"{json.dumps(value)}, expected ")
    assert err["message"].endswith(f"(field '{field}')")


def test_mistyped_ring_member_names_its_transaction(workdir, tmp_path, capsys):
    payload = json.loads((workdir / "sim" / "chain.json").read_text())
    tx = next(t for t in payload["transactions"] if t["inputs"])
    tx["inputs"][0]["members"][0] = str(tx["inputs"][0]["members"][0])
    bad = tmp_path / "chain.json"
    bad.write_text(json.dumps(payload))
    assert main(["validate", "--chain", str(bad)]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.startswith(f"{bad}: Transaction {tx['tx_id']}: RingInput: members is "
                              "an array, expected list[int]")


def _set(obj, path, value):
    """Set `obj[path[0]]...[path[-1]]` to `value`."""
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


# (path in economy.json, value, message tail); "0" is agent 0's schedule
MISTYPED_ECONOMY = [
    (("spec", "sim", "block_interval"), "240",
     'spec: sim: block_interval is "240", expected int'),
    (("spec", "ring_size"), "11", 'spec: ring_size is "11", expected int'),
    (("spec", "sim", "fee"), "1", 'spec: sim: fee is "1", expected int'),
    (("spec", "sim", "recency_shape"), "1",
     'spec: sim: recency_shape is "1", expected float'),
    (("files", "0", 0, "amount"), "5",
     'files: 0: ScheduledTx: amount is "5", expected int'),
    (("files", "0", 0, "wait"), "60", 'files: 0: ScheduledTx: wait is "60", expected int'),
    (("spec", "agents", 0, "active_windows"), [[0, 12, 3]],
     "spec: AgentProfile 0: active_windows is an array, "
     "expected list[tuple[float, float]]"),
]


@pytest.mark.parametrize("path, value, tail", MISTYPED_ECONOMY,
                         ids=[p[-1] for p, _, _ in MISTYPED_ECONOMY])
def test_mistyped_economy_field_exit_2(workdir, tmp_path, capsys, path, value, tail):
    economy = json.loads((workdir / "econ" / "economy.json").read_text())
    _set(economy, path, value)
    bad = tmp_path / "economy.json"
    bad.write_text(json.dumps(economy))
    assert main(["simulate", "--economy", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError"
    assert err["message"] == f"{bad}: {tail} (field '{path[-1]}')"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, value, field", [
    (("spec", "sim", "decoy_kind"), "bogus", "decoy_kind"),
    (("spec", "sim", "recency_shape"), 0, "recency_shape"),
    (("spec", "ring_size"), 0, "ring_size"),
    (("files", "x"), [], "files"),
    (("spec", "agents", 0, "active_windows"), [[20, 30]], "active_windows"),
    (("files", "0", 0, "amount"), -5, "amount"),
    (("files", "0", 0, "dest"), 99, "dest"),
    (("files", "0", 0, "wait"), -60, "wait"),
])
def test_economy_value_out_of_range_exit_2(workdir, tmp_path, capsys, path, value, field):
    economy = json.loads((workdir / "econ" / "economy.json").read_text())
    _set(economy, path, value)
    bad = tmp_path / "economy.json"
    bad.write_text(json.dumps(economy))
    assert main(["simulate", "--economy", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidSimParams" and field in err["message"]
    assert err["message"].startswith(f"{bad}: ")
    assert not (tmp_path / "out").exists()


def _mistyped_first_mean(stats: dict) -> dict:
    return {**stats, "columns": [{**stats["columns"][0], "mean": "x"},
                                 *stats["columns"][1:]]}


@pytest.mark.parametrize("edit, field", [
    (lambda stats: {**stats, "columns": 5}, "columns"),
    (lambda stats: {"format_version": 1}, "columns"),
    (lambda stats: {**stats, "format_version": 2}, "format_version"),
    (lambda stats: stats["columns"], "format_version"),
    (_mistyped_first_mean, "mean"),
], ids=["columns_5", "no_columns", "version_2", "top_level_array", "mean_x"])
def test_malformed_norm_stats_exit_2(workdir, tmp_path, capsys, edit, field):
    (tmp_path / "features_raw.csv").write_bytes(
        (workdir / "fx" / "features_raw.csv").read_bytes())
    stats = json.loads((workdir / "fx" / "norm_stats.json").read_text())
    (tmp_path / "norm_stats.json").write_text(json.dumps(edit(stats)))
    assert main(["train", "--task", "value", "--features", str(tmp_path),
                 "--labels", str(workdir / "sim" / "labels.csv"), "--folds", "2",
                 "--out", str(tmp_path / "t")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError"
    assert err["message"].startswith(f"{tmp_path / 'norm_stats.json'}: ")
    assert err["message"].endswith(f"(field '{field}')")
    if field == "mean":  # a column is named by its name
        first = stats["columns"][0]["name"]
        assert f'ColumnStats "{first}": mean is "x", expected float' in err["message"]
    assert not (tmp_path / "t").exists()


def test_ingest_header_only_labels_no_numpy_warning(dump, tmp_path, capsys, recwarn):
    path = tmp_path / "labels.csv"
    path.write_text("tx_hash,label\n")
    assert main(["ingest", "--dump", str(dump), "--labels", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DegenerateLabels"
    assert not [w for w in recwarn if "loadtxt" in str(w.message)]


def test_ingest_command(workdir, tmp_path):
    from ringtrace.ingest import export_dump
    from ringtrace.ledger import load_public_chain
    from ringtrace.features import read_feature_matrix

    pub = load_public_chain(workdir / "sim" / "public_chain.json")
    export_dump(pub, tmp_path / "xmr-dump.json")
    # label one third of the transfers by hash
    transfers = pub.transfer_ids()
    rows = ["tx_hash,label"] + [f"{t:016x},exchange" for t in transfers[::3]]
    (tmp_path / "labels.csv").write_text("\n".join(rows) + "\n")

    code = main(["ingest", "--dump", str(tmp_path / "xmr-dump.json"),
                 "--labels", str(tmp_path / "labels.csv"),
                 "--budget", "1", "--folds", "3", "--seed", "9",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["task"] == "external_label"
    # the rate is over every dump record, coinbase included
    assert report["extras"]["positive_rate"] == pytest.approx(
        len(transfers[::3]) / len(pub.transactions))
    header = (tmp_path / "out" / "features.csv").read_text().split("\n", 1)[0]
    cols = header.split(",")
    assert len(cols) == 1 + 182 + 1 and cols[-1] == "coverage"
    # the reader drops the trailing coverage column
    fm = read_feature_matrix(tmp_path / "out")
    assert fm.raw.shape[1] == 182


def test_bad_format_version_exit_2(tmp_path, capsys):
    assert main(["--format-version", "9", "generate", "s03",
                 "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "UnsupportedFormatVersion"


def test_simulate_byte_identical_runs(tmp_path):
    spec = small_spec(target=40, seed=31)
    files = gen_economy(spec, Rng(spec.seed))
    save_economy(spec, files, tmp_path / "economy.json")
    for d in ("r1", "r2"):
        assert main(["simulate", "--economy", str(tmp_path / "economy.json"),
                     "--out", str(tmp_path / d)]) == 0
    for name in ("chain.json", "public_chain.json", "labels.csv",
                 "real_inputs.csv", "manifest.json"):
        assert (tmp_path / "r1" / name).read_bytes() == \
            (tmp_path / "r2" / name).read_bytes()
