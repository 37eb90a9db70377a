"""Stochastic agent economies and the event loop that turns them into chains.

Scenario presets s03..s07 reproduce the published dataset scale: transfer
totals are exact targets and per-scenario block spacing is calibrated so the
realized block counts land near the published ones (testnets mine far faster
than mainnet's two-minute cadence).
"""

import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    InsufficientFunds,
    InvalidSimParams,
    ModeRequiresSecrets,
    NoScheduleWarning,
    PoolTooSmall,
    StalledWarning,
    UnknownScenario,
)
from .ledger import (
    FORMAT_VERSION,
    Chain,
    DecoyPolicy,
    PublicChain,
    apply_block,
    build_transaction,
    collector_paused,
    dump_csv,
    load_record,
    save_record,
)
from .rng import Rng

SCENARIOS = ("s03", "s04", "s05", "s06", "s07")


@dataclass
class AgentProfile:
    agent_id: int
    pool_id: int
    wait_lambda: float
    amount_lambda: float
    active_windows: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class SimParams:
    """Timing and funding knobs for the event loop."""

    block_interval: int = 120
    block_reward: int = 5000
    fee: int = 1
    coinbase_maturity: int = 60
    warmup_blocks: int = 120
    processing_delay: int = 0
    stall_limit: int = 720
    drain_blocks: int = 60
    decoy_kind: str = "uniform"
    recency_shape: float = 1.0

    def policy(self) -> DecoyPolicy:
        return DecoyPolicy(self.decoy_kind, self.recency_shape)


@dataclass
class EconomySpec:
    name: str
    agents: list[AgentProfile]
    target_tx_count: int
    ring_size: int = 11
    seed: int = 0
    sim: SimParams = field(default_factory=SimParams)

    @property
    def pools(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for a in self.agents:
            out.setdefault(a.pool_id, []).append(a.agent_id)
        return {p: sorted(ids) for p, ids in sorted(out.items())}


@dataclass
class ScheduledTx:
    wait: int  # seconds after the agent's previous request
    dest: int
    amount: int


EconomyFile = dict[int, list[ScheduledTx]]


@dataclass
class TxLabel:
    tx_id: int
    sender: int
    receiver: int
    receiver_pool: int
    intended_amount: int
    request_time: int


@dataclass
class GroundTruth:
    labels: dict[int, TxLabel]
    real_indices: dict[int, list[int]]
    agent_pools: dict[int, int]
    profiles: dict[int, AgentProfile]


# Scenario presets ---------------------------------------------------------------

def _log_spaced(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    ratio = hi / lo
    return [lo * ratio ** (i / (n - 1)) for i in range(n)]


def scenario_preset(name: str, seed: int = 0) -> EconomySpec:
    """Published scenario presets; block spacing tuned to the dataset sizes."""
    if name not in SCENARIOS:
        raise UnknownScenario(f"unknown scenario {name!r}; expected one of {SCENARIOS}")

    if name == "s03":
        waits = _log_spaced(45, 90_000, 10)
        agents = [AgentProfile(i, 0, waits[i], 100.0) for i in range(10)]
        sim = SimParams(block_interval=5)
        return EconomySpec("s03", agents, 4898, seed=seed, sim=sim)

    if name == "s04":
        waits = _log_spaced(45, 90_000, 10)
        amounts = _log_spaced(20, 500, 10)
        agents = [AgentProfile(i, 0, waits[i], amounts[i]) for i in range(10)]
        sim = SimParams(block_interval=5)
        return EconomySpec("s04", agents, 4923, seed=seed, sim=sim)

    if name == "s05":
        waits = _log_spaced(45, 90_000, 10)
        agents = [AgentProfile(i, i // 5, waits[i], 100.0) for i in range(10)]
        sim = SimParams(block_interval=3)
        return EconomySpec("s05", agents, 4923, seed=seed, sim=sim)

    if name == "s06":
        waits = _log_spaced(45, 90_000, 25)
        agents = []
        for pool, window in ((0, (0.0, 12.0)), (1, (12.0, 24.0))):
            for i in range(25):
                agents.append(AgentProfile(pool * 25 + i, pool, waits[i], 100.0,
                                           [window]))
        sim = SimParams(block_interval=9)
        return EconomySpec("s06", agents, 24_807, seed=seed, sim=sim)

    # s07: five ten-agent pools on staggered 4.8-hour cycles
    waits = _log_spaced(45, 90_000, 10)
    agents = []
    for pool in range(5):
        window = (4.8 * pool, 4.8 * (pool + 1))
        for i in range(10):
            agents.append(AgentProfile(pool * 10 + i, pool, waits[i], 100.0,
                                       [window]))
    sim = SimParams(block_interval=4)
    return EconomySpec("s07", agents, 7_070, seed=seed, sim=sim)


# Schedule generation ------------------------------------------------------------

def _apportion(target: int, rates: list[float]) -> list[int]:
    """Largest-remainder split of target proportional to rates."""
    total = sum(rates)
    raw = [target * r / total for r in rates]
    counts = [int(x) for x in raw]
    remainder = target - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def gen_economy(spec: EconomySpec, rng: Rng) -> EconomyFile:
    """Draw per-agent schedules: Poisson waits and amounts, pool-mate targets.

    The total scheduled transfer count equals spec.target_tx_count, split
    across agents proportional to their natural rate 1/wait_lambda.  Pools of
    one admit no destination and get an empty schedule with a warning.
    """
    pools = spec.pools
    agents = sorted(spec.agents, key=lambda a: a.agent_id)
    schedulable = []
    for a in agents:
        if len(pools[a.pool_id]) < 2:
            warnings.warn(
                f"agent {a.agent_id} has no pool-mates; scheduling nothing",
                NoScheduleWarning,
            )
        else:
            schedulable.append(a)
    if not schedulable:
        return {a.agent_id: [] for a in agents}

    counts = _apportion(spec.target_tx_count, [1.0 / a.wait_lambda for a in schedulable])
    files: EconomyFile = {a.agent_id: [] for a in agents}
    for a, count in zip(schedulable, counts):
        stream = rng.fork("schedule", a.agent_id)
        mates = [m for m in pools[a.pool_id] if m != a.agent_id]
        for _ in range(count):
            wait = stream.poisson(a.wait_lambda)
            amount = 1 + stream.poisson(a.amount_lambda)
            dest = mates[stream.randrange(len(mates))]
            files[a.agent_id].append(ScheduledTx(wait, dest, amount))
    return files


# Window arithmetic ---------------------------------------------------------------

_DAY = 86_400


def _window_seconds(profile: AgentProfile) -> list[tuple[int, int]]:
    out = []
    for start, end in profile.active_windows:
        s, e = int(round(start * 3600)), int(round(end * 3600))
        if not (0 <= s < e <= _DAY):
            raise InvalidSimParams(f"agent {profile.agent_id}: active_windows "
                                   f"[{start}, {end}) is not inside one day")
        out.append((s, e))
    return sorted(out)


def shift_into_windows(t: int, windows: list[tuple[int, int]]) -> int:
    """Smallest time >= t whose time-of-day falls inside a window."""
    if not windows:
        return t
    day, sec = divmod(t, _DAY)
    for s, e in windows:
        if s <= sec < e:
            return t
    for s, e in windows:
        if sec < s:
            return day * _DAY + s
    return (day + 1) * _DAY + windows[0][0]


# Simulation ----------------------------------------------------------------------

@collector_paused()
def run_simulation(files: EconomyFile, spec: EconomySpec) -> tuple[Chain, GroundTruth]:
    """Event loop: mine on a fixed cadence, build transfers as they come due.

    Request times are the cumulative Poisson waits shifted into each agent's
    trading windows.  A due transfer the agent cannot yet afford is retried
    every block; mining income makes it affordable eventually, and persistent
    failure triggers a StalledWarning with partial output returned.
    """
    params = spec.sim
    if params.block_interval < 1:
        # block times would not advance, so no request would come due
        raise InvalidSimParams(f"block_interval must be >= 1, got {params.block_interval}")
    if spec.ring_size < 1:
        raise InvalidSimParams(f"ring_size must be >= 1, got {spec.ring_size}")
    profiles = {a.agent_id: a for a in spec.agents}
    unknown = sorted(set(files) - set(profiles))
    if unknown:
        raise InvalidSimParams(f"files: {unknown[0]} names no agent")
    sim_rng = Rng(spec.seed).fork("simulation")
    interval = params.block_interval
    chain = Chain(block_interval=interval, coinbase_maturity=params.coinbase_maturity,
                  seed=spec.seed)
    agents = sorted(a.agent_id for a in spec.agents)
    policy = params.policy()

    start = params.warmup_blocks * interval
    queues: dict[int, deque] = {}
    for a in agents:
        win = _window_seconds(profiles[a])
        t = start
        q: deque = deque()
        for item in files.get(a, []):
            if item.wait < 0:
                raise InvalidSimParams(f"files: {a}: wait must be >= 0, got {item.wait}")
            if item.amount < 1:
                raise InvalidSimParams(f"files: {a}: amount must be >= 1, got {item.amount}")
            if item.dest not in profiles:
                raise InvalidSimParams(f"files: {a}: dest {item.dest} names no agent")
            t = shift_into_windows(t + item.wait, win)
            q.append((t, item.dest, item.amount))
        queues[a] = q

    for h in range(params.warmup_blocks):
        apply_block(chain, [], agents[h % len(agents)], h * interval,
                    params.block_reward)

    labels: dict[int, TxLabel] = {}
    real_indices: dict[int, list[int]] = {}
    stall = 0

    while any(queues[a] for a in agents):
        h = chain.next_height
        block_time = h * interval
        pending = []
        blocked_due = False
        for a in agents:
            q = queues[a]
            while q and q[0][0] + params.processing_delay <= block_time:
                req, dest, amount = q[0]
                ts = max(req, (h - 1) * interval + 1)
                try:
                    tx = build_transaction(chain, a, amount, dest, params.fee, h,
                                           ts, spec.ring_size, policy, sim_rng)
                except (InsufficientFunds, PoolTooSmall):
                    blocked_due = True
                    break
                q.popleft()
                pending.append(tx)
                labels[tx.tx_id] = TxLabel(tx.tx_id, a, dest,
                                           profiles[dest].pool_id, amount, req)
                real_indices[tx.tx_id] = [r.real_index for r in tx.inputs]
        apply_block(chain, pending, agents[h % len(agents)], block_time,
                    params.block_reward)
        if pending:
            stall = 0
        elif blocked_due:
            stall += 1
            if stall >= params.stall_limit:
                left = sum(len(queues[a]) for a in agents)
                warnings.warn(
                    f"no progress for {stall} blocks; {left} transfers unscheduled",
                    StalledWarning,
                )
                break
        else:
            stall = 0

    for _ in range(params.drain_blocks):
        h = chain.next_height
        apply_block(chain, [], agents[h % len(agents)], h * interval,
                    params.block_reward)

    gt = GroundTruth(
        labels=labels,
        real_indices=real_indices,
        agent_pools={a: profiles[a].pool_id for a in agents},
        profiles=profiles,
    )
    return chain, gt


# Exports -------------------------------------------------------------------------

def export_ground_truth(gt: GroundTruth, out_dir: Path) -> tuple[Path, Path]:
    """Write labels.csv and real_inputs.csv, one row per transfer (and ring)."""
    labels_path = Path(out_dir) / "labels.csv"
    dump_csv(["tx_id", "sender", "receiver", "receiver_pool", "value"],
             ([tx_id, lab.sender, lab.receiver, lab.receiver_pool, lab.intended_amount]
              for tx_id, lab in sorted(gt.labels.items())),
             labels_path)
    ri_path = Path(out_dir) / "real_inputs.csv"
    dump_csv(["tx_id", "ring_index_within_tx", "real_index"],
             ([tx_id, ring_i, real_i]
              for tx_id, reals in sorted(gt.real_indices.items())
              for ring_i, real_i in enumerate(reals)),
             ri_path)
    return labels_path, ri_path


def graph_edges(chain, mode: str = "all") -> list[tuple[int, int]]:
    """Spending-tx -> member-creating-tx edges; `true` keeps only real members."""
    if mode not in ("all", "true"):
        raise ValueError(f"mode must be 'all' or 'true', got {mode!r}")
    is_public = isinstance(chain, PublicChain)
    if mode == "true" and is_public:
        raise ModeRequiresSecrets("true edges need the ground-truth chain")
    edges: list[tuple[int, int]] = []
    for tx_id in sorted(chain.transactions):
        tx = chain.transactions[tx_id]
        rings = tx.rings if is_public else [r.members for r in tx.inputs]
        for ring_i, members in enumerate(rings):
            if mode == "all":
                for oid in members:
                    edges.append((tx_id, chain.outputs[oid].created_by_tx))
            else:
                real = members[tx.inputs[ring_i].real_index]
                edges.append((tx_id, chain.outputs[real].created_by_tx))
    return edges


def write_edges(edges: list[tuple[int, int]], path: Path) -> None:
    dump_csv(["src_tx", "dst_tx"], edges, path)


# economy.json --------------------------------------------------------------------
# The file's layout; fields in the order they are checked, so a file of
# another kind is reported by its first missing field, `spec`.


@dataclass
class _SpecFile:
    name: str
    target_tx_count: int
    ring_size: int
    sim: SimParams
    agents: list[AgentProfile]


@dataclass
class _EconomyFile:
    format_version: int
    spec: _SpecFile
    seed: int
    files: dict[str, list[ScheduledTx]]


def save_economy(spec: EconomySpec, files: EconomyFile, path: Path) -> None:
    save_record(_EconomyFile(
        format_version=FORMAT_VERSION, seed=spec.seed,
        spec=_SpecFile(name=spec.name, target_tx_count=spec.target_tx_count,
                       ring_size=spec.ring_size, sim=spec.sim,
                       agents=sorted(spec.agents, key=lambda a: a.agent_id)),
        files={str(agent): schedule for agent, schedule in files.items()}), path)


def load_economy(path: Path) -> tuple[EconomySpec, EconomyFile]:
    rec = load_record(_EconomyFile, path)
    s = rec.spec
    spec = EconomySpec(name=s.name, agents=s.agents, target_tx_count=s.target_tx_count,
                       ring_size=s.ring_size, seed=rec.seed, sim=s.sim)
    return spec, {_agent_key(path, key): schedule for key, schedule in rec.files.items()}


def _agent_key(path: Path, key: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise InvalidSimParams(f"{path}: files: key {key!r} is not an agent id") from None
