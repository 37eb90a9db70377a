"""Scenario presets, schedule generation, and the simulation loop."""

import gc
import json
import math
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringtrace.economy import (
    AgentProfile,
    EconomySpec,
    SimParams,
    export_ground_truth,
    gen_economy,
    graph_edges,
    load_economy,
    run_simulation,
    save_economy,
    scenario_preset,
    shift_into_windows,
)
from ringtrace import economy
from ringtrace.errors import (
    InvalidSimParams,
    ModeRequiresSecrets,
    NoScheduleWarning,
    UnknownScenario,
)
from ringtrace.ledger import (
    load_chain,
    load_public_chain,
    public_view,
    save_chain,
    save_public_chain,
    validate_chain,
)
from ringtrace.rng import Rng

from conftest import wallet_of


def small_spec(n_agents=4, pools=1, target=60, windows=None, seed=7, **sim_kw):
    """Fast scenario for loop-level tests."""
    sim = SimParams(block_interval=10, coinbase_maturity=5, warmup_blocks=12,
                    block_reward=2000, **sim_kw)
    agents = []
    per_pool = n_agents // pools
    for i in range(n_agents):
        pool = i // per_pool
        win = windows[pool] if windows else []
        agents.append(AgentProfile(i, pool, wait_lambda=40.0, amount_lambda=30.0,
                                   active_windows=win))
    return EconomySpec("tiny", agents, target, ring_size=3, seed=seed, sim=sim)


# scenario_preset ------------------------------------------------------------


def test_preset_s03_shape():
    spec = scenario_preset("s03")
    assert len(spec.agents) == 10
    assert spec.pools == {0: list(range(10))}
    assert spec.target_tx_count == 4898
    waits = [a.wait_lambda for a in spec.agents]
    assert math.isclose(min(waits), 45) and math.isclose(max(waits), 90_000)
    assert len({a.amount_lambda for a in spec.agents}) == 1


def test_preset_s04_varied_amounts():
    spec = scenario_preset("s04")
    assert spec.target_tx_count == 4923
    assert len({a.amount_lambda for a in spec.agents}) == 10


def test_preset_s05_two_pools():
    spec = scenario_preset("s05")
    assert spec.target_tx_count == 4923
    assert sorted(len(v) for v in spec.pools.values()) == [5, 5]


def test_preset_s06_windows():
    spec = scenario_preset("s06")
    assert len(spec.agents) == 50
    assert spec.target_tx_count == 24_807
    assert sorted(len(v) for v in spec.pools.values()) == [25, 25]
    win = {a.pool_id: a.active_windows for a in spec.agents}
    assert win[0] == [(0.0, 12.0)] and win[1] == [(12.0, 24.0)]


def test_preset_s07_five_pools():
    spec = scenario_preset("s07")
    assert len(spec.agents) == 50
    assert spec.target_tx_count == 7_070
    assert sorted(len(v) for v in spec.pools.values()) == [10] * 5


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        scenario_preset("s99")


# gen_economy ----------------------------------------------------------------


def test_wait_mean_matches_poisson_oracle():
    # one pair of agents, lambda 100: empirical mean within 3 sigma of 100
    agents = [AgentProfile(0, 0, 100.0, 10.0), AgentProfile(1, 0, 100.0, 10.0)]
    spec = EconomySpec("pair", agents, target_tx_count=10_000, seed=3)
    files = gen_economy(spec, Rng(3))
    waits = [s.wait for sched in files.values() for s in sched]
    assert len(waits) == 10_000
    mean = sum(waits) / len(waits)
    assert abs(mean - 100) < 3 * math.sqrt(100 / len(waits))


def test_amounts_at_least_one_and_destinations_in_pool():
    spec = scenario_preset("s05", seed=5)
    files = gen_economy(spec, Rng(5))
    pools = spec.pools
    pool_of = {a: p for p, ids in pools.items() for a in ids}
    total = 0
    for agent, sched in files.items():
        for s in sched:
            total += 1
            assert s.amount >= 1
            assert s.dest != agent
            assert pool_of[s.dest] == pool_of[agent]
    assert total == spec.target_tx_count


def test_apportionment_favors_fast_agents():
    spec = scenario_preset("s03", seed=1)
    files = gen_economy(spec, Rng(1))
    counts = [len(files[a.agent_id]) for a in spec.agents]
    assert counts == sorted(counts, reverse=True)
    assert sum(counts) == 4898


def test_singleton_pool_warns_and_schedules_nothing():
    agents = [AgentProfile(0, 0, 50.0, 10.0),
              AgentProfile(1, 1, 50.0, 10.0), AgentProfile(2, 1, 50.0, 10.0)]
    spec = EconomySpec("lonely", agents, target_tx_count=20, seed=2)
    with pytest.warns(NoScheduleWarning):
        files = gen_economy(spec, Rng(2))
    assert files[0] == []
    assert sum(len(v) for v in files.values()) == 20


# window arithmetic ----------------------------------------------------------


def test_shift_into_windows():
    win = [(3600, 7200)]  # 01:00-02:00 daily
    assert shift_into_windows(3600, win) == 3600
    assert shift_into_windows(5000, win) == 5000
    assert shift_into_windows(7200, win) == 86_400 + 3600  # end is exclusive
    assert shift_into_windows(100, win) == 3600
    assert shift_into_windows(86_400 + 10_000, win) == 2 * 86_400 + 3600
    assert shift_into_windows(123, []) == 123


# run_simulation -------------------------------------------------------------


def test_simulation_realizes_schedule_and_validates():
    spec = small_spec()
    files = gen_economy(spec, Rng(spec.seed))
    chain, gt = run_simulation(files, spec)
    transfers = [t for t in chain.transactions.values() if t.kind == "transfer"]
    assert len(transfers) == spec.target_tx_count
    assert len(gt.labels) == spec.target_tx_count
    assert validate_chain(chain).ok


SECRET_KEYS = {"owner", "amount", "real_index", "sender", "receiver",
               "intended_amount", "spent_by", "miner", "seed"}


def _keys(node) -> set:
    """Every dict key at any depth of a JSON-like value."""
    if isinstance(node, dict):
        return set(node).union(*map(_keys, node.values()))
    if isinstance(node, list):
        return set().union(*map(_keys, node))
    return set()


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32), pools=st.integers(1, 3), per_pool=st.integers(2, 3),
       maturity=st.integers(0, 20), delay=st.integers(0, 60),
       decoy_kind=st.sampled_from(["uniform", "recency_weighted"]),
       reward=st.integers(5, 60))
def test_simulated_chain_invariants(tmp_path_factory, seed, pools, per_pool, maturity,
                                    delay, decoy_kind, reward):
    # rewards this low leave wallets short of the ~30-unit transfers, so
    # about half of the draws retry after InsufficientFunds
    spec = small_spec(n_agents=pools * per_pool, pools=pools, target=40, seed=seed,
                      processing_delay=delay, decoy_kind=decoy_kind)
    spec.sim.coinbase_maturity = maturity
    spec.sim.block_reward = reward
    chain, _ = run_simulation(gen_economy(spec, Rng(seed)), spec)
    assert validate_chain(chain).ok
    assert all(len(set(ring.members)) == len(ring.members) == spec.ring_size
               for tx in chain.transactions.values() for ring in tx.inputs)
    assert all(chain.unspent.get(a.agent_id, []) == wallet_of(chain, a.agent_id)
               for a in spec.agents)
    d = tmp_path_factory.mktemp("round_trip")
    pub = public_view(chain)
    save_chain(chain, d / "chain.json")
    save_public_chain(pub, d / "public_chain.json")
    assert not SECRET_KEYS & _keys(json.loads((d / "public_chain.json").read_text()))
    # the writers spell each file as json.dumps does over the records' fields
    assert (d / "chain.json").read_text() == _reference_text({
        "format_version": 1, "seed": chain.seed, "block_interval": chain.block_interval,
        "coinbase_maturity": chain.coinbase_maturity, "blocks": chain.blocks,
        "transactions": _by_key(chain.transactions), "outputs": _by_key(chain.outputs)})
    assert (d / "public_chain.json").read_text() == _reference_text({
        "format_version": 1, "blocks": pub.blocks,
        "transactions": _by_key(pub.transactions), "outputs": _by_key(pub.outputs)})
    # save -> load -> save is byte-identical, and the loaded chain rebuilds unspent
    loaded = load_chain(d / "chain.json")
    save_chain(loaded, d / "chain2.json")
    save_public_chain(load_public_chain(d / "public_chain.json"), d / "public_chain2.json")
    assert (d / "chain.json").read_bytes() == (d / "chain2.json").read_bytes()
    assert (d / "public_chain.json").read_bytes() == (d / "public_chain2.json").read_bytes()
    assert all(loaded.unspent.get(a.agent_id, []) == chain.unspent.get(a.agent_id, [])
               for a in spec.agents)


def _by_key(records: dict) -> list:
    return [rec for _, rec in sorted(records.items())]


def _reference_text(payload: dict) -> str:
    """The chain-file encoding the generated writers replace: json.dumps over
    `dataclasses.asdict` of every record."""
    payload = {key: [asdict(rec) for rec in value] if isinstance(value, list) else value
               for key, value in payload.items()}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def test_simulation_deterministic():
    spec = small_spec(seed=11)
    files = gen_economy(spec, Rng(spec.seed))
    c1, g1 = run_simulation(files, spec)
    c2, g2 = run_simulation(files, spec)
    assert g1 == g2
    assert (c1.seed, c1.blocks, c1.transactions, c1.outputs) == \
        (c2.seed, c2.blocks, c2.transactions, c2.outputs)


@pytest.mark.parametrize("enabled", [True, False])
def test_simulation_pauses_and_restores_the_collector(monkeypatch, enabled):
    spec = small_spec(target=10)
    files = gen_economy(spec, Rng(spec.seed))
    seen = set()
    inner = economy.apply_block
    monkeypatch.setattr(economy, "apply_block",
                        lambda *a, **k: seen.add(gc.isenabled()) or inner(*a, **k))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        run_simulation(files, spec)
        assert gc.isenabled() is enabled
        with pytest.raises(InvalidSimParams):
            run_simulation(files, replace(spec, sim=replace(spec.sim, block_interval=0)))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == {False}


def test_empty_schedule_gives_pure_coinbase_chain():
    spec = small_spec(target=0)
    chain, gt = run_simulation({a.agent_id: [] for a in spec.agents}, spec)
    assert all(t.kind == "coinbase" for t in chain.transactions.values())
    assert gt.labels == {}


def test_window_compliance():
    spec = small_spec(n_agents=4, pools=2, target=80,
                      windows=[[(0.0, 12.0)], [(12.0, 24.0)]])
    files = gen_economy(spec, Rng(spec.seed))
    chain, gt = run_simulation(files, spec)
    win = {0: (0, 43_200), 1: (43_200, 86_400)}
    for lab in gt.labels.values():
        lo, hi = win[gt.agent_pools[lab.sender]]
        assert lo <= lab.request_time % 86_400 < hi


def test_pool_closure_in_simulated_chain():
    spec = small_spec(n_agents=6, pools=2, target=90)
    files = gen_economy(spec, Rng(spec.seed))
    chain, gt = run_simulation(files, spec)
    for lab in gt.labels.values():
        assert gt.agent_pools[lab.sender] == gt.agent_pools[lab.receiver]


def test_candidate_delta_positive_everywhere():
    # every ring member's creating tx predates the spending tx's timestamp
    spec = small_spec(target=120)
    files = gen_economy(spec, Rng(spec.seed))
    chain, _ = run_simulation(files, spec)
    for tx in chain.transactions.values():
        for ring in tx.inputs:
            for oid in ring.members:
                creator = chain.transactions[chain.outputs[oid].created_by_tx]
                assert creator.timestamp < tx.timestamp


# exports ---------------------------------------------------------------------


def test_export_ground_truth(tmp_path):
    spec = small_spec(target=30)
    files = gen_economy(spec, Rng(spec.seed))
    chain, gt = run_simulation(files, spec)
    labels_path, ri_path = export_ground_truth(gt, tmp_path)
    lines = labels_path.read_text().strip().split("\n")
    assert lines[0] == "tx_id,sender,receiver,receiver_pool,value"
    assert len(lines) - 1 == 30
    ri_lines = ri_path.read_text().strip().split("\n")
    assert ri_lines[0] == "tx_id,ring_index_within_tx,real_index"
    n_rings = sum(len(v) for v in gt.real_indices.values())
    assert len(ri_lines) - 1 == n_rings


def test_graph_edges_counts():
    spec = small_spec(target=40)
    files = gen_economy(spec, Rng(spec.seed))
    chain, _ = run_simulation(files, spec)
    all_edges = graph_edges(chain, "all")
    true_edges = graph_edges(chain, "true")
    n_rings = sum(len(t.inputs) for t in chain.transactions.values())
    assert len(all_edges) == n_rings * spec.ring_size
    assert len(true_edges) == n_rings
    assert len(true_edges) / len(all_edges) == pytest.approx(1 / spec.ring_size)
    assert set(true_edges) <= set(all_edges)


def test_true_edges_need_secrets():
    spec = small_spec(target=10)
    files = gen_economy(spec, Rng(spec.seed))
    chain, _ = run_simulation(files, spec)
    with pytest.raises(ModeRequiresSecrets):
        graph_edges(public_view(chain), "true")


def test_economy_round_trip(tmp_path):
    # s06 agents carry trading windows
    for name in ("s03", "s06"):
        spec = scenario_preset(name, seed=9)
        files = gen_economy(spec, Rng(9))
        path = tmp_path / f"{name}.json"
        save_economy(spec, files, path)
        spec2, files2 = load_economy(path)
        assert (spec2, files2) == (spec, files)
        save_economy(spec2, files2, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
        payload = json.loads(path.read_text())
        payload["spec"]["sim"]["bogus"] = 1  # ignored like any record's unknown key
        path.write_text(json.dumps(payload))
        assert load_economy(path) == (spec, files)
