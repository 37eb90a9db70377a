"""Dump parsing and conversion, labels, and the external pipeline round trip."""

import json
import warnings
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringtrace.economy import gen_economy, run_simulation
from ringtrace.errors import DegenerateLabels, SchemaError
from ringtrace.features import featurize_chain
from ringtrace.ingest import (
    DumpMember,
    ExternalTx,
    dump_to_public_chain,
    export_dump,
    external_pipeline,
    load_labels,
    parse_dump,
)
from ringtrace.ledger import PublicChain, PublicOutput, PublicTx, public_view
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
    with pytest.raises(SchemaError) as err:
        parse_dump([bad])
    assert str(err.value) == f"xmr-dump.json: negative value (record 0, field '{field}')"


def test_duplicate_hash_rejected():
    with pytest.raises(SchemaError) as err:
        parse_dump([record("aa", 0, 1), record("aa", 1, 2)])
    assert str(err.value) == ("xmr-dump.json: duplicate tx_hash 'aa' "
                              "(record 1, field 'tx_hash')")


def test_forward_reference_rejected():
    bad = [
        record("aa", 5, 100, num_outputs=1),
        record("bb", 1, 220, rings=[[member("aa", 0)]]),
    ]
    with pytest.raises(SchemaError) as err:
        parse_dump(bad)
    assert str(err.value) == ("xmr-dump.json: ring references 'aa' at height 5, not below 1 "
                              "(record 1, field 'rings')")


def test_output_index_out_of_range():
    bad = [
        record("aa", 0, 100, num_outputs=1),
        record("bb", 1, 220, rings=[[member("aa", 5)]]),
    ]
    with pytest.raises(SchemaError) as err:
        parse_dump(bad)
    assert str(err.value) == ("xmr-dump.json: output_index 5 out of range for 'aa' "
                              "(record 1, field 'rings')")


def test_envelope_with_wrong_version():
    with pytest.raises(SchemaError, match="format_version"):
        parse_dump({"format_version": 99, "transactions": []})


def test_empty_tx_hash_rejected():
    with pytest.raises(SchemaError) as err:
        parse_dump([record("", 0, 100)])
    assert str(err.value) == "xmr-dump.json: empty tx_hash (record 0, field 'tx_hash')"
    bad = [record("aa", 0, 100), record("bb", 1, 220, rings=[[member("")]])]
    with pytest.raises(SchemaError) as err:
        parse_dump(bad)
    assert str(err.value) == ("xmr-dump.json: empty ring member tx_hash "
                              "(record 1, field 'rings')")


@pytest.mark.parametrize("rings, message", [
    ([[]], "ring must be a non-empty array"),
    ([[member("aa", -1)]], "negative output_index"),
])
def test_bad_ring_names_the_source(rings, message):
    with pytest.raises(SchemaError) as err:
        parse_dump([record("aa", 0, 100), record("bb", 1, 220, rings=rings)])
    assert str(err.value) == f"xmr-dump.json: {message} (record 1, field 'rings')"


def test_mistyped_field_names_the_transaction_by_hash():
    bad = [record("aa", 0, 100), record("bb", 1, "x")]
    with pytest.raises(SchemaError) as err:
        parse_dump(bad)
    assert str(err.value) == ('xmr-dump.json: ExternalTx "bb": timestamp is "x", '
                              "expected int (field 'timestamp')")
    bad = [record("aa", 0, 100), record("bb", 1, 220, rings=[[member("aa", "0")]])]
    with pytest.raises(SchemaError) as err:
        parse_dump(bad)
    assert str(err.value) == ('xmr-dump.json: ExternalTx "bb": DumpMember "aa": '
                              "output_index is \"0\", expected int (field 'output_index')")


@pytest.mark.parametrize("indent", [None, 2])
def test_bare_array_file_parses_as_the_object_form(tmp_path, indent):
    bare, wrapped = tmp_path / "bare.json", tmp_path / "wrapped.json"
    bare.write_text("\n " + json.dumps(FIXTURE, indent=indent))
    wrapped.write_text(json.dumps({"format_version": 1, "transactions": FIXTURE},
                                  indent=indent))
    parsed = parse_dump(bare)
    assert parsed == parse_dump(wrapped) == parse_dump(FIXTURE)
    assert parsed.txs[2].rings == [[DumpMember("aa", 0), DumpMember("bb", 0)]]
    assert parsed.dangling == [("zz", 3)]


def test_truncated_bare_array_file_names_line_and_column(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(FIXTURE)[:40])
    with pytest.raises(SchemaError, match=f"{path}: line 1 column "):
        parse_dump(path)


def test_schema_required_fields_are_the_record_fields():
    schema = json.loads(resources.files("ringtrace").joinpath(
        "schemas/xmr-dump.schema.json").read_text())
    records = {"member": DumpMember, "transaction": ExternalTx}
    assert schema["definitions"].keys() == records.keys()
    for name, cls in records.items():
        assert schema["definitions"][name]["required"] == [f.name for f in fields(cls)]


# conversion ---------------------------------------------------------------------


def two_pass_public_chain(parsed):
    """The oracle for parse_dump's chain, converting in two passes: every
    record's outputs first, then the rings, resolved through one
    (tx_hash, output_index) map that grows an opaque output per unknown key."""
    txs, outs, output_of = {}, {}, {}
    next_out = 0
    for tx_id, rec in enumerate(parsed.txs):
        ids = []
        for k in range(rec.num_outputs):
            outs[next_out] = PublicOutput(
                output_id=next_out, created_by_tx=tx_id,
                block_height=rec.block_height, timestamp=rec.timestamp,
                is_coinbase=not rec.rings)
            output_of[(rec.tx_hash, k)] = next_out
            ids.append(next_out)
            next_out += 1
        txs[tx_id] = PublicTx(
            tx_id=tx_id, timestamp=rec.timestamp, block_height=rec.block_height,
            rings=[], outputs=ids, fee=0,
            kind="transfer" if rec.rings else "coinbase")
    for tx_id, rec in enumerate(parsed.txs):
        rings = []
        for ring in rec.rings:
            members = []
            for m in ring:
                key = (m.tx_hash, m.output_index)
                oid = output_of.get(key)
                if oid is None:
                    outs[next_out] = PublicOutput(
                        output_id=next_out, created_by_tx=None, block_height=-1,
                        timestamp=0, is_coinbase=False)
                    output_of[key] = oid = next_out
                    next_out += 1
                members.append(oid)
            rings.append(members)
        txs[tx_id].rings = rings
    return PublicChain(blocks=[], transactions=txs, outputs=outs)


@st.composite
def valid_dumps(draw):
    """Records in an order unrelated to height, some without outputs or
    rings; members resolve below their height or fall outside the window,
    where a few (tx_hash, output_index) keys recur across rings."""
    n = draw(st.integers(0, 8))
    heights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    n_outputs = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    outside = st.tuples(st.sampled_from(["zz", "yy"]), st.integers(0, 1))
    records = []
    for i in range(n):
        below = [(f"t{j}", k) for j in range(n) if heights[j] < heights[i]
                 for k in range(n_outputs[j])]
        members = st.one_of(outside, st.sampled_from(below)) if below else outside
        rings = draw(st.lists(st.lists(members, min_size=1, max_size=3), max_size=3))
        records.append(record(f"t{i}", heights[i], draw(st.integers(0, 10**6)),
                              rings=[[member(h, k) for h, k in ring] for ring in rings],
                              num_outputs=n_outputs[i]))
    return records


@given(valid_dumps())
def test_parsed_chain_matches_the_two_pass_converter(records):
    parsed = parse_dump(records)
    pub, hashes = dump_to_public_chain(parsed)
    expected = two_pass_public_chain(parsed)
    assert hashes == [r["tx_hash"] for r in records]
    assert pub.blocks == expected.blocks == []
    assert list(pub.transactions.items()) == list(expected.transactions.items())
    assert list(pub.outputs.items()) == list(expected.outputs.items())


# labels ------------------------------------------------------------------------


TWO_TREES = ModelSpec("forest", "classify", {"n_trees": 2, "max_depth": 3})


def test_join_labels_counts():
    records = FIXTURE + [record("ff", 5, 700, rings=[[member("cc", 0)]]),
                         record("gg", 6, 800, rings=[[member("dd", 0)]])]
    labels = {"cc": "shapeshift", "ff": "shapeshift", "qq": "shapeshift"}
    report, fm = external_pipeline(parse_dump(records), labels, TWO_TREES,
                                   SearchSpec(budget=1, folds=2, seed=1))
    assert fm.tx_ids == [2, 3, 4, 5, 6]
    assert report.extras["positive_rate"] == pytest.approx(2 / 7)
    assert report.extras["unmatched_labels"] == 1


def test_positive_rate_at_scaled_fixture():
    # 20 positives among 1700 records, the published imbalance in miniature;
    # the rate counts every record, the ring-less labelled t0 too
    records = [record(f"t{i}", i, 100 + i, rings=[[member(f"t{i - 1}")]] if i else ())
               for i in range(1700)]
    labels = {f"t{i}": "shapeshift" for i in range(0, 1700, 85)}
    assert len(labels) == 20
    report, fm = external_pipeline(parse_dump(records), labels, TWO_TREES,
                                   SearchSpec(budget=1, folds=2, seed=1))
    assert len(fm.tx_ids) == 1699
    assert report.extras["positive_rate"] == pytest.approx(20 / 1700)
    assert report.extras["unmatched_labels"] == 0


def test_join_no_matches_warns():
    parsed = parse_dump(FIXTURE)
    with pytest.warns(UserWarning, match="no label matched"):
        with pytest.raises(DegenerateLabels):
            external_pipeline(parsed, {"zz9": "x"}, TWO_TREES,
                              SearchSpec(budget=1, folds=2, seed=1))


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
