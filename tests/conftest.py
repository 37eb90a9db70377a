"""Shared builders for hand-sized chains used across the suite."""

import pytest
from hypothesis import settings

from ringtrace.ledger import Chain, DecoyPolicy, apply_block, build_transaction
from ringtrace.rng import Rng

UNIFORM = DecoyPolicy("uniform")

# property tests draw the same examples on every run, like every other test
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def mine_empty(chain: Chain, n: int, reward: int = 1000, miners=None) -> None:
    """Append n blocks with only coinbases, round-robin over miners."""
    if miners is None:
        miners = [0]
    for _ in range(n):
        h = chain.next_height
        apply_block(chain, [], miners[h % len(miners)], h * chain.block_interval, reward)


def wallet_of(chain: Chain, agent: int):
    """Unspent outputs owned by agent, oldest first."""
    outs = [o for o in chain.outputs.values() if o.owner == agent and o.spent_by is None]
    outs.sort(key=lambda o: (o.block_height, o.output_id))
    return outs


@pytest.fixture
def funded_chain():
    """Chain with enough mature coinbase for two agents to transact."""
    chain = Chain(block_interval=10, coinbase_maturity=5, seed=42)
    mine_empty(chain, 20, reward=1000, miners=[0, 1])
    return chain


def send(chain: Chain, sender: int, dest: int, amount: int, rng: Rng,
         fee: int = 1, ring_size: int = 3, policy: DecoyPolicy = UNIFORM):
    """Build one transfer and mine it into the next block."""
    h = chain.next_height
    tx = build_transaction(chain, sender, amount, dest, fee, h,
                           h * chain.block_interval, ring_size, policy, rng)
    apply_block(chain, [tx], 0, h * chain.block_interval, 1000)
    return tx
