"""Ledger state machine: rings, blocks, projection, validation."""

import copy
import json
import math
from dataclasses import asdict, fields, is_dataclass, replace
from types import UnionType
from typing import get_args, get_origin

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ringtrace import economy, features, ingest, ledger, records
from ringtrace.errors import DoubleSpend, InsufficientFunds, PoolTooSmall
from ringtrace.ledger import (
    Chain,
    DecoyPolicy,
    apply_block,
    build_transaction,
    load_chain,
    load_public_chain,
    public_view,
    save_chain,
    save_public_chain,
    select_decoys,
    validate_chain,
)
from ringtrace.rng import Rng

from conftest import UNIFORM, mine_empty, send, wallet_of


# select_decoys -------------------------------------------------------------


def test_ring_contains_real_ordered_distinct(funded_chain):
    rng = Rng(1)
    real = sorted(funded_chain.outputs)[5]
    ring = select_decoys(funded_chain, real, 11, UNIFORM, rng)
    assert ring.ring_size == 11
    assert len(set(ring.members)) == 11
    assert real in ring.members
    keys = [(funded_chain.outputs[o].block_height, o) for o in ring.members]
    assert keys == sorted(keys)
    assert ring.members[ring.real_index] == real


def test_degenerate_ring_size_one(funded_chain):
    real = sorted(funded_chain.outputs)[0]
    ring = select_decoys(funded_chain, real, 1, UNIFORM, Rng(2))
    assert ring.members == [real]
    assert ring.real_index == 0


def test_pool_too_small(funded_chain):
    # 16 coinbase outputs are mature at height 20: the real one + 15 decoys
    assert funded_chain.eligible_decoy_count(funded_chain.next_height) == 16
    real = sorted(funded_chain.outputs)[0]
    with pytest.raises(PoolTooSmall):
        select_decoys(funded_chain, real, 17, UNIFORM, Rng(3))
    # boundary: exactly enough is fine
    select_decoys(funded_chain, real, 16, UNIFORM, Rng(3))


def test_uniform_sampling_chi_square_oracle():
    # 100-output pool, ring 11: each of the 99 decoys should appear with
    # frequency 10/99; check every output within 5 sigma plus a chi-square.
    chain = Chain(block_interval=10, coinbase_maturity=0, seed=0)
    mine_empty(chain, 100, reward=100, miners=[0])
    pool = sorted(chain.outputs)
    assert len(pool) == 100
    real = pool[50]
    rng = Rng(12345)
    n_rings = 100_000
    counts = {oid: 0 for oid in pool}
    for _ in range(n_rings):
        ring = select_decoys(chain, real, 11, UNIFORM, rng)
        for m in ring.members:
            if m != real:
                counts[m] += 1
    assert counts[real] == 0
    p = 10 / 99
    sigma = math.sqrt(n_rings * p * (1 - p))
    chi2 = 0.0
    for oid in pool:
        if oid == real:
            continue
        assert abs(counts[oid] - n_rings * p) < 5 * sigma
        chi2 += (counts[oid] - n_rings * p) ** 2 / (n_rings * p)
    # 98 df: mean 98, sd sqrt(196)
    assert chi2 < 98 + 6 * math.sqrt(2 * 98)


def test_decoys_never_immature_coinbase():
    chain = Chain(block_interval=10, coinbase_maturity=50, seed=0)
    mine_empty(chain, 60, reward=100)
    rng = Rng(9)
    real = sorted(chain.outputs)[0]
    h = chain.next_height
    for _ in range(200):
        ring = select_decoys(chain, real, 5, UNIFORM, rng)
        for m in ring.members:
            out = chain.outputs[m]
            assert out.block_height + 50 <= h or m == real


def test_recency_weighted_prefers_young_outputs():
    chain = Chain(block_interval=10, coinbase_maturity=0, seed=0)
    mine_empty(chain, 200, reward=100)
    real = sorted(chain.outputs)[0]
    uni, rec = Rng(4), Rng(4)
    heavy = DecoyPolicy("recency_weighted", recency_shape=2.0)
    mean_h = lambda rings: sum(
        chain.outputs[m].block_height for r in rings for m in r.members if m != real
    ) / sum(len(r.members) - 1 for r in rings)
    uni_rings = [select_decoys(chain, real, 11, UNIFORM, uni) for _ in range(300)]
    rec_rings = [select_decoys(chain, real, 11, heavy, rec) for _ in range(300)]
    assert mean_h(rec_rings) > mean_h(uni_rings)


# build_transaction ----------------------------------------------------------


def test_build_single_input_with_change(funded_chain):
    rng = Rng(5)
    h = funded_chain.next_height
    funded_chain.unspent[0][0].amount = 60
    tx = build_transaction(funded_chain, 0, 50, dest=1, fee=1, height=h,
                           time=h * 10, ring_size=3, policy=UNIFORM, rng=rng)
    assert len(tx.inputs) == 1
    staged = funded_chain._staged_outputs[tx.tx_id]
    assert [(o.amount, o.owner) for o in staged] == [(50, 1), (9, 0)]
    assert tx.intended_amount == 50 and tx.sender == 0 and tx.receiver == 1


def test_build_multi_ring_oldest_first(funded_chain):
    rng = Rng(6)
    h = funded_chain.next_height
    wallet = list(funded_chain.unspent[0])
    wallet[0].amount = 30
    wallet[1].amount = 30
    wallet[2].amount = 500
    tx = build_transaction(funded_chain, 0, 50, dest=1, fee=1, height=h,
                           time=h * 10, ring_size=3, policy=UNIFORM, rng=rng)
    # oldest-first coin selection stops after the two 30s cover 51
    assert len(tx.inputs) == 2
    reals = {r.members[r.real_index] for r in tx.inputs}
    assert reals == {wallet[0].output_id, wallet[1].output_id}
    staged = funded_chain._staged_outputs[tx.tx_id]
    assert [(o.amount, o.owner) for o in staged] == [(50, 1), (9, 0)]
    # the picked outputs left the unspent list; the 500 is next in line
    assert funded_chain.unspent[0] == wallet[2:]


def test_build_insufficient_funds(funded_chain):
    h = funded_chain.next_height
    # 8 of agent 0's 10 coinbases are mature at height 20; the two immature
    # ones still hold 1000 each and must be skipped
    mature = [o for o in funded_chain.unspent[0] if funded_chain.is_mature(o, h)]
    assert len(mature) == 8
    for out in mature:
        out.amount = 5
    with pytest.raises(InsufficientFunds):
        build_transaction(funded_chain, 0, 50, dest=1, fee=1, height=h, time=0,
                          ring_size=3, policy=UNIFORM, rng=Rng(7))


@pytest.mark.parametrize("amount, ring_size, error", [
    (10, 17, PoolTooSmall),         # 16 eligible outputs at height 20
    (10_000, 3, InsufficientFunds),  # 8 mature coinbases hold 8000
])
def test_failed_build_leaves_unspent_untouched(funded_chain, amount, ring_size, error):
    # the event loop retries a failed transfer every block, so a raise must
    # not consume the outputs it had picked
    h = funded_chain.next_height
    before = list(funded_chain.unspent[0])
    with pytest.raises(error):
        build_transaction(funded_chain, 0, amount, 1, 1, h, h * 10, ring_size,
                          UNIFORM, Rng(23))
    assert funded_chain.unspent[0] == before
    tx = build_transaction(funded_chain, 0, 10, 1, 1, h, h * 10, 3, UNIFORM, Rng(23))
    assert tx.inputs[0].members[tx.inputs[0].real_index] == before[0].output_id
    assert funded_chain.unspent[0] == before[1:]


def test_no_change_output_when_exact(funded_chain):
    rng = Rng(8)
    h = funded_chain.next_height
    funded_chain.unspent[0][0].amount = 51
    tx = build_transaction(funded_chain, 0, 50, dest=1, fee=1, height=h,
                           time=h * 10, ring_size=3, policy=UNIFORM, rng=rng)
    staged = funded_chain._staged_outputs[tx.tx_id]
    assert [(o.amount, o.owner) for o in staged] == [(50, 1)]


# apply_block ----------------------------------------------------------------


def test_empty_block_has_only_coinbase():
    chain = Chain(seed=1)
    block = apply_block(chain, [], miner=3, time=0, block_reward=700)
    assert len(block.tx_ids) == 1
    cb = chain.transactions[block.tx_ids[0]]
    assert cb.kind == "coinbase" and cb.inputs == []
    out = chain.outputs[cb.outputs[0]]
    assert out.amount == 700 and out.owner == 3


def test_double_spend_rejected(funded_chain):
    rng = Rng(10)
    h = funded_chain.next_height
    tx1 = build_transaction(funded_chain, 0, 10, 1, 1, h, h * 10, 3, UNIFORM, rng)
    tx2 = build_transaction(funded_chain, 0, 10, 1, 1, h, h * 10, 3, UNIFORM, rng)
    # coin selection never picks an output twice; forge the second spend
    tx2.inputs = copy.deepcopy(tx1.inputs)
    with pytest.raises(DoubleSpend):
        apply_block(funded_chain, [tx1, tx2], 0, h * 10, 1000)


def test_nonexistent_ring_member_rejected(funded_chain):
    from ringtrace.errors import InvalidRing
    rng = Rng(22)
    h = funded_chain.next_height
    tx = build_transaction(funded_chain, 0, 10, 1, 1, h, h * 10, 3, UNIFORM, rng)
    tx.inputs[0].members[0] = 999_999
    with pytest.raises(InvalidRing):
        apply_block(funded_chain, [tx], 0, h * 10, 1000)


def test_n_blocks_reach_height_n_minus_1():
    chain = Chain(seed=2)
    mine_empty(chain, 238, reward=10)
    assert chain.height == 237
    assert [b.height for b in chain.blocks] == list(range(238))


def test_miner_paid_in_its_own_block_lists_the_transfer_output_first(funded_chain):
    # the payment's id is drawn when the transfer is built, before the id of
    # the coinbase that apply_block registers first, so it cannot be appended
    h = funded_chain.next_height
    tx = build_transaction(funded_chain, 0, 10, 1, 1, h, h * 10, 3, UNIFORM, Rng(23))
    block = apply_block(funded_chain, [tx], miner=1, time=h * 10, block_reward=1000)
    coinbase = funded_chain.transactions[block.tx_ids[0]].outputs[0]
    assert funded_chain.unspent[1][-2:] == [funded_chain.outputs[tx.outputs[0]],
                                            funded_chain.outputs[coinbase]]
    assert funded_chain.unspent[1] == wallet_of(funded_chain, 1)


def test_fees_recycle_into_coinbase(funded_chain):
    rng = Rng(11)
    h = funded_chain.next_height
    tx = build_transaction(funded_chain, 0, 10, 1, 7, h, h * 10, 3, UNIFORM, rng)
    block = apply_block(funded_chain, [tx], miner=1, time=h * 10, block_reward=1000)
    cb = funded_chain.transactions[block.tx_ids[0]]
    assert funded_chain.outputs[cb.outputs[0]].amount == 1007


# public_view ----------------------------------------------------------------


def test_public_view_of_coinbase_chain():
    chain = Chain(seed=3)
    mine_empty(chain, 1, reward=5)
    pub = public_view(chain)
    tx = list(pub.transactions.values())[0]
    assert tx.rings == [] and len(tx.outputs) == 1
    assert not hasattr(tx, "intended_amount")


def test_public_view_preserves_structure(funded_chain):
    rng = Rng(12)
    send(funded_chain, 0, 1, 25, rng)
    pub = public_view(funded_chain)
    assert set(pub.transactions) == set(funded_chain.transactions)
    assert len(pub.blocks) == len(funded_chain.blocks)
    for tx_id, tx in funded_chain.transactions.items():
        ptx = pub.transactions[tx_id]
        assert ptx.timestamp == tx.timestamp
        assert ptx.rings == [r.members for r in tx.inputs]
        assert len(ptx.outputs) == len(tx.outputs)


def test_public_serialization_contains_no_secret_fields(funded_chain, tmp_path):
    # schema-scan oracle: the serialized public view must not mention any
    # secret field name anywhere
    send(funded_chain, 0, 1, 25, Rng(13))
    save_public_chain(public_view(funded_chain), tmp_path / "public_chain.json")
    blob = (tmp_path / "public_chain.json").read_text()
    for secret in ("owner", "amount", "real_index", "sender", "receiver", "spent_by",
                   "miner", "seed"):
        assert secret not in blob


def test_public_view_idempotent_round_trip(funded_chain, tmp_path):
    send(funded_chain, 0, 1, 25, Rng(14))
    save_public_chain(public_view(funded_chain), tmp_path / "a.json")
    save_public_chain(load_public_chain(tmp_path / "a.json"), tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_public_chain_with_miner_and_seed_still_loads(funded_chain, tmp_path):
    # files written before the public view dropped both keys
    send(funded_chain, 0, 1, 25, Rng(24))
    save_public_chain(public_view(funded_chain), tmp_path / "public_chain.json")
    old = json.loads((tmp_path / "public_chain.json").read_text())
    old["seed"] = funded_chain.seed
    for block in old["blocks"]:
        block["miner"] = funded_chain.blocks[block["height"]].miner
    (tmp_path / "old.json").write_text(json.dumps(old, sort_keys=True))
    save_public_chain(load_public_chain(tmp_path / "old.json"), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == \
        (tmp_path / "public_chain.json").read_bytes()


# validate_chain -------------------------------------------------------------


def test_valid_chain_produces_empty_report(funded_chain):
    rng = Rng(15)
    for i in range(5):
        send(funded_chain, i % 2, (i + 1) % 2, 10 + i, rng)
    assert validate_chain(funded_chain).ok


def test_tampered_real_index_detected(funded_chain):
    tx = send(funded_chain, 0, 1, 25, Rng(16))
    tx.inputs[0].real_index = 99
    report = validate_chain(funded_chain)
    assert any(v.code == "real_index_range" for v in report.violations)


def test_mutated_amount_breaks_conservation(funded_chain):
    # mutate-and-detect oracle: corrupt one spent output's amount and expect a
    # conservation violation on the spending transaction
    tx = send(funded_chain, 0, 1, 25, Rng(17))
    real = tx.inputs[0].members[tx.inputs[0].real_index]
    funded_chain.outputs[real].amount += 13
    report = validate_chain(funded_chain)
    bad = [v for v in report.violations if v.code == "conservation"]
    assert len(bad) == 1 and bad[0].subject == tx.tx_id


def test_unsorted_ring_detected(funded_chain):
    tx = send(funded_chain, 0, 1, 25, Rng(18))
    ring = tx.inputs[0]
    real = ring.members[ring.real_index]
    ring.members.reverse()
    ring.real_index = ring.members.index(real)
    report = validate_chain(funded_chain)
    assert any(v.code == "ring_order" for v in report.violations)


def test_timestamp_after_its_block_detected(funded_chain):
    tx = send(funded_chain, 0, 1, 25, Rng(22))
    tx.timestamp = funded_chain.blocks[tx.block_height].timestamp + 1
    report = validate_chain(funded_chain)
    assert [(v.code, v.subject) for v in report.violations] == [("late_timestamp", tx.tx_id)]


# serialization --------------------------------------------------------------


def test_chain_round_trip(funded_chain, tmp_path):
    send(funded_chain, 0, 1, 25, Rng(19))
    save_chain(funded_chain, tmp_path / "a.json")
    save_chain(load_chain(tmp_path / "a.json"), tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    d1 = json.loads((tmp_path / "a.json").read_text())
    assert d1["format_version"] == 1 and d1["seed"] == 42


def test_loaded_chain_can_keep_building(funded_chain, tmp_path):
    send(funded_chain, 0, 1, 25, Rng(20))
    save_chain(funded_chain, tmp_path / "chain.json")
    clone = load_chain(tmp_path / "chain.json")
    send(clone, 1, 0, 5, Rng(21))
    assert validate_chain(clone).ok


# record codec ---------------------------------------------------------------

CODEC_RECORDS = [
    ledger.Output, ledger.RingInput, ledger.Transaction, ledger.Block,
    ledger.PublicBlock, ledger.PublicOutput, ledger.PublicTx,
    ledger._ChainFile, ledger._PublicChainFile,
    economy.AgentProfile, economy.SimParams, economy.ScheduledTx,
    economy._SpecFile, economy._EconomyFile,
    features.ColumnStats, features._NormStatsFile,
    ingest.DumpMember, ingest.ExternalTx, ingest._DumpFile,
]


def _values(ann):
    """Values of annotation `ann`, edge cases included: floats at the ends
    of their range and of both signs of zero, ints in float fields,
    non-ASCII text and keys that sort differently as strings and numbers."""
    if ann is bool:
        return st.booleans()
    if ann is int:
        return st.integers()
    if ann is float:
        return (st.floats(allow_nan=False, allow_infinity=False) | st.integers()
                | st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308]))
    if ann is str:
        return st.text(max_size=6) | st.sampled_from(["naïve", "日本", '"\\\x00/'])
    if is_dataclass(ann):
        return st.builds(ann, *[_values(f.type) for f in fields(ann)])
    args = get_args(ann)
    if isinstance(ann, UnionType):
        return st.none() | _values(args[0])
    if get_origin(ann) is list:
        return st.lists(_values(args[0]), max_size=3)
    if get_origin(ann) is tuple:
        return st.tuples(*map(_values, args))
    assert get_origin(ann) is dict, ann
    return st.dictionaries(st.sampled_from(["9", "10", "2", "é"]) | st.text(max_size=3),
                           _values(args[1]), max_size=4)


@pytest.mark.parametrize("cls", CODEC_RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=40)
@given(data=st.data())
def test_codec_writes_json_dumps_text_and_reads_it_back(cls, data):
    rec = data.draw(_values(cls))
    text = records._json_writer(cls)(rec)
    assert text == json.dumps(asdict(rec), sort_keys=True, separators=(",", ":"))
    assert records._json_reader(cls)(json.loads(text)) == rec



FILE_RECORDS = [cls for cls in CODEC_RECORDS if "format_version" in records._field_names(cls)]


@pytest.mark.parametrize("cls", FILE_RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), block=st.integers(1, 40), indent=st.sampled_from([None, 2]))
def test_load_record_reads_any_block_size_and_layout(cls, data, block, indent, tmp_path,
                                                     monkeypatch):
    # blocks of a few characters cut numbers, strings and items short
    rec = replace(data.draw(_values(cls)), format_version=records.FORMAT_VERSION)
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(asdict(rec), indent=indent))
    monkeypatch.setattr(records._Stream, "BLOCK", block)
    # no fallback to the whole-text parse
    monkeypatch.delattr(records, "load_json", raising=False)
    assert records.load_record(cls, path) == rec


def test_loaded_chain_shares_one_int_per_value(tmp_path):
    pub = ledger.PublicChain(
        blocks=[ledger.PublicBlock(height=300, timestamp=9000, tx_ids=[400])],
        transactions={400: ledger.PublicTx(tx_id=400, timestamp=9000, block_height=300,
                                           rings=[], outputs=[500], fee=0, kind="coinbase")},
        outputs={500: ledger.PublicOutput(output_id=500, created_by_tx=400, block_height=300,
                                          timestamp=9000, is_coinbase=True)})
    save_public_chain(pub, tmp_path / "pub.json")
    back = load_public_chain(tmp_path / "pub.json")
    block, tx, out = back.blocks[0], back.transactions[400], back.outputs[500]
    assert block.tx_ids[0] is tx.tx_id is out.created_by_tx
    assert block.height is tx.block_height is out.block_height
    assert block.timestamp is tx.timestamp is out.timestamp
    assert tx.outputs[0] is out.output_id
