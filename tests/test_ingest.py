"""Dump parsing, label joins, and the external pipeline round trip."""

import warnings

import numpy as np
import pytest

from ringtrace.economy import gen_economy, run_simulation
from ringtrace.errors import DegenerateLabels, SchemaError
from ringtrace.features import featurize_chain
from ringtrace.ingest import (
    dump_to_public_chain,
    export_dump,
    external_pipeline,
    join_labels,
    load_labels,
    parse_dump,
)
from ringtrace.ledger import public_view
from ringtrace.ml import ModelSpec, SearchSpec
from ringtrace.rng import Rng

from test_economy import small_spec


def record(tx_hash, height, t, rings=(), num_outputs=1):
    return {"tx_hash": tx_hash, "block_height": height, "timestamp": t,
            "rings": [list(r) for r in rings], "num_outputs": num_outputs}


def member(tx_hash, idx=0):
    return {"tx_hash": tx_hash, "output_index": idx}


FIXTURE = [
    record("aa", 0, 100, num_outputs=2),
    record("bb", 1, 220, num_outputs=1),
    record("cc", 2, 350, rings=[[member("aa", 0), member("bb", 0)]]),
    record("dd", 3, 480, rings=[[member("aa", 1)], [member("bb", 0)]]),
    record("ee", 4, 600, rings=[[member("cc", 0), member("zz", 3)]]),
]


def test_empty_array_parses_empty():
    assert parse_dump([]).txs == []


def test_fixture_of_five_resolves_rings():
    parsed = parse_dump(FIXTURE)
    assert len(parsed.txs) == 5
    assert parsed.dangling == [("zz", 3)]
    pub, hashes = dump_to_public_chain(parsed)
    assert hashes == ["aa", "bb", "cc", "dd", "ee"]
    cc = pub.transactions[2]
    assert [pub.creating_tx(o).tx_id for o in cc.rings[0]] == [0, 1]
    ee = pub.transactions[4]
    resolved = [pub.creating_tx(o) for o in ee.rings[0]]
    assert resolved[0].tx_id == 2 and resolved[1] is None


def test_missing_timestamp_is_schema_error():
    bad = [dict(record("aa", 0, 100))]
    del bad[0]["timestamp"]
    with pytest.raises(SchemaError, match="timestamp"):
        parse_dump(bad)


@pytest.mark.parametrize("field", ["block_height", "timestamp", "num_outputs"])
def test_negative_count_names_its_field(field):
    bad = record("aa", 0, 100)
    bad[field] = -1
    with pytest.raises(SchemaError, match=f"record 0, field '{field}'"):
        parse_dump([bad])


def test_duplicate_hash_rejected():
    with pytest.raises(SchemaError, match="duplicate"):
        parse_dump([record("aa", 0, 1), record("aa", 1, 2)])


def test_forward_reference_rejected():
    bad = [
        record("aa", 5, 100, num_outputs=1),
        record("bb", 1, 220, rings=[[member("aa", 0)]]),
    ]
    with pytest.raises(SchemaError, match="not below"):
        parse_dump(bad)


def test_output_index_out_of_range():
    bad = [
        record("aa", 0, 100, num_outputs=1),
        record("bb", 1, 220, rings=[[member("aa", 5)]]),
    ]
    with pytest.raises(SchemaError, match="out of range"):
        parse_dump(bad)


def test_envelope_with_wrong_version():
    with pytest.raises(SchemaError, match="format_version"):
        parse_dump({"format_version": 99, "transactions": []})


# labels ------------------------------------------------------------------------


def test_join_labels_counts():
    parsed = parse_dump(FIXTURE)
    joined = join_labels(parsed, {"cc": "shapeshift", "qq": "shapeshift"})
    assert joined.y.tolist() == [0, 0, 1, 0, 0]
    assert joined.positive_rate == pytest.approx(0.2)
    assert joined.unmatched == ["qq"]


def test_positive_rate_at_scaled_fixture():
    # 20 positives among 1700 records, the published imbalance in miniature
    records = [record(f"t{i}", i, 100 + i) for i in range(1700)]
    labels = {f"t{i}": "shapeshift" for i in range(0, 1700, 85)}
    assert len(labels) == 20
    joined = join_labels(parse_dump(records), labels)
    assert joined.positive_rate == pytest.approx(20 / 1700)


def test_join_no_matches_warns():
    parsed = parse_dump(FIXTURE)
    with pytest.warns(UserWarning, match="no label matched"):
        joined = join_labels(parsed, {"zz9": "x"})
    assert joined.y.sum() == 0


def test_load_labels_skips_blank_lines(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("tx_hash,label\naa,shapeshift\n\nbb,other\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_labels(p) == {"aa": "shapeshift", "bb": "other"}


def test_load_labels_dedupes(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("tx_hash,label\naa,shapeshift\naa,shapeshift\nbb,other\n")
    with pytest.warns(UserWarning, match="duplicate"):
        labels = load_labels(p)
    assert labels == {"aa": "shapeshift", "bb": "other"}


# round trip ---------------------------------------------------------------------


def test_dump_round_trip_matches_native_featurization(tmp_path):
    spec = small_spec(target=120, seed=13)
    files = gen_economy(spec, Rng(spec.seed))
    chain, _ = run_simulation(files, spec)
    pub = public_view(chain)
    native = featurize_chain(pub)

    path = tmp_path / "xmr-dump.json"
    export_dump(pub, path)
    parsed = parse_dump(path)
    assert parsed.dangling == []
    pub2, _ = dump_to_public_chain(parsed)
    reimported = featurize_chain(pub2)

    assert np.array_equal(native.raw, reimported.raw)
    assert np.array_equal(native.normalized, reimported.normalized)
    assert np.all(reimported.coverage == 1.0)


def test_partial_window_zero_fills_and_flags(tmp_path):
    spec = small_spec(target=60, seed=14)
    files = gen_economy(spec, Rng(spec.seed))
    chain, _ = run_simulation(files, spec)
    payload = export_dump(public_view(chain))
    # drop the first half of records: early references dangle
    kept = payload["transactions"][len(payload["transactions"]) // 2:]
    parsed = parse_dump(kept)
    assert parsed.dangling
    pub, _ = dump_to_public_chain(parsed)
    fm = featurize_chain(pub)
    assert fm.coverage.min() < 1.0


# pipeline -----------------------------------------------------------------------


def planted_dump(n=300, seed=5):
    """Positives use >= 4 rings, negatives <= 2; otherwise identical noise."""
    rng = np.random.default_rng(seed)
    records = []
    # a base population of creator txs to reference
    for i in range(40):
        records.append(record(f"base{i}", 0, int(rng.integers(1, 86_400)),
                              num_outputs=4))
    labels = {}
    for i in range(n):
        positive = i % 10 == 0
        n_rings = int(rng.integers(4, 7)) if positive else int(rng.integers(1, 3))
        rings = []
        for _ in range(n_rings):
            rings.append([member(f"base{int(rng.integers(40))}",
                                 int(rng.integers(4))) for _ in range(3)])
        h = f"tx{i:04d}"
        records.append(record(h, 1 + i, int(rng.integers(86_400, 10 * 86_400)),
                              rings=rings, num_outputs=2))
        if positive:
            labels[h] = "shapeshift"
    return records, labels


def test_planted_num_rings_signal_recovered():
    records, labels = planted_dump()
    parsed = parse_dump(records)
    # full feature visibility: the pure num_rings split dominates its noisy
    # one-hop sum proxies at every node
    spec = ModelSpec("forest", "classify",
                     {"n_trees": 20, "max_depth": 6, "max_features": 1.0},
                     class_weight="balanced")
    report, fm = external_pipeline(parsed, labels, spec,
                                   SearchSpec(budget=1, folds=3, seed=5))
    recall = report.summary["recall"]["1"]["mean"]
    assert recall >= 0.95
    top = report.feature_importances[0][0]
    assert "num_rings" in top


def test_all_negative_labels_degenerate():
    records, _ = planted_dump(n=50)
    parsed = parse_dump(records)
    with pytest.warns(UserWarning, match="no label matched"):
        with pytest.raises(DegenerateLabels):
            external_pipeline(parsed, {}, ModelSpec("forest", "classify"),
                              SearchSpec(budget=1, folds=2, seed=1))


def test_pipeline_on_simulated_chain_matches_native(tmp_path):
    # format equivalence: same metrics through the dump path as native
    spec = small_spec(target=100, seed=15)
    files = gen_economy(spec, Rng(spec.seed))
    chain, gt = run_simulation(files, spec)
    pub = public_view(chain)
    payload = export_dump(pub)
    parsed = parse_dump(payload)
    # label: transfers from agent 0 (arbitrary binary labeling by hash)
    hash_of = {tx_id: f"{tx_id:016x}" for tx_id in pub.transactions}
    labels = {hash_of[t]: "x" for t, lab in gt.labels.items() if lab.sender == 0}
    mspec = ModelSpec("forest", "classify", {"n_trees": 10, "max_depth": 5})
    report, fm = external_pipeline(parsed, labels, mspec,
                                   SearchSpec(budget=1, folds=3, seed=15))

    native = featurize_chain(pub)
    from ringtrace.ml import kfold_eval
    y = np.array([1 if hash_of[t] in labels else 0 for t in native.tx_ids])
    direct = kfold_eval(mspec, native.raw, y, folds=3, seed=15)
    assert direct["summary"] == report.summary


def test_external_pipeline_matches_group_task():
    # one runner: the dump path and the group task give the same report on
    # the same matrix, labels and spec
    from ringtrace.ml import group_task
    records, labels = planted_dump(n=120, seed=6)
    parsed = parse_dump(records)
    spec = ModelSpec("forest", "classify", {"n_trees": 6, "max_depth": 4},
                     class_weight="balanced")
    search = SearchSpec(budget=1, folds=3, seed=6)
    report, fm = external_pipeline(parsed, labels, spec, search)
    y = np.array([int(parsed.hashes[t] in labels) for t in fm.tx_ids])
    group = group_task(fm, y, spec, search)
    assert report.folds == group.folds
    assert report.summary == group.summary
    assert report.feature_importances == group.feature_importances
    assert report.feature_importances is not None
