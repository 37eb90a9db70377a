"""Ring-confidential ledger state machine.

Ground-truth chains know owners, amounts, and which ring member is real; the
adversary sees only the projection produced by :func:`public_view`.  Chain
construction is strictly sequential; a built chain and its public view are
immutable by convention and safe for concurrent readers.

Every JSON file that is read back (`chain.json`, `public_chain.json`,
`economy.json`, `norm_stats.json`) is a dataclass record written by
:func:`save_record` and read by :func:`load_record`: one generated JSON-text
writer per record class, and one generated reader per class that checks
each field's JSON type, both driven by the dataclass annotations.
:func:`load_record` reads a file a block of text at a time and turns each
item of a record list into its record as soon as it is parsed, with one int
object per distinct value, so loading never holds the whole text or every
item's dict.  Simulation, the public view and the chain-file savers and
loaders run with the cyclic garbage collector paused
(:func:`collector_paused`).  That is
safe because the records hold no reference cycles: a block, transaction or
output refers to others by id, never by object, so reference counting frees
them all, and the paused collection passes would only rescan a million live
objects and find nothing.
"""

import bisect
import contextlib
import csv
import functools
import gc
import json
import json.scanner
import re
from dataclasses import dataclass, field, fields, is_dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin

from .errors import (
    DoubleSpend,
    InsufficientFunds,
    InvalidRing,
    InvalidSimParams,
    PoolTooSmall,
    SchemaError,
)
from .rng import Rng

FORMAT_VERSION = 1

COINBASE = "coinbase"
TRANSFER = "transfer"


@contextlib.contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, restoring its previous state on exit.

    Usable as a decorator.  Building or reading a chain allocates about a
    million records, lists and dicts that hold no cycles (see the module
    docstring); on s05 the collection passes over them took a third of
    `simulate`.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass
class Output:
    output_id: int
    created_by_tx: int
    owner: int
    amount: int
    block_height: int
    timestamp: int
    is_coinbase: bool
    spent_by: int | None = None


@dataclass
class RingInput:
    members: list[int]
    real_index: int

    @property
    def ring_size(self) -> int:
        return len(self.members)


@dataclass
class Transaction:
    tx_id: int
    timestamp: int
    block_height: int
    inputs: list[RingInput]
    outputs: list[int]
    fee: int
    sender: int | None
    receiver: int | None
    intended_amount: int | None
    kind: str


@dataclass
class Block:
    height: int
    timestamp: int
    miner: int
    tx_ids: list[int]


@dataclass
class DecoyPolicy:
    """How decoys are drawn from the eligible pool.

    uniform: every eligible output equally likely.
    recency_weighted: weight proportional to age_rank**-recency_shape with
    age_rank 1 for the newest eligible output, biasing recent history the way
    deployed wallets do.
    """

    kind: str = "uniform"
    recency_shape: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "recency_weighted"):
            raise InvalidSimParams(f"decoy_kind must be 'uniform' or 'recency_weighted', "
                                   f"got {self.kind!r}")
        if self.recency_shape <= 0:
            raise InvalidSimParams(f"recency_shape must be positive, got {self.recency_shape}")


@dataclass
class Violation:
    code: str
    subject: int
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, subject: int, message: str) -> None:
        self.violations.append(Violation(code, subject, message))


class Chain:
    """Ground-truth ledger plus the indexes the simulator samples from.

    `unspent` maps each owner to the outputs no built transaction has spent
    yet, oldest first by (block_height, output_id); coin selection in
    build_transaction reads and consumes it.
    """

    def __init__(self, block_interval: int = 120, coinbase_maturity: int = 60,
                 seed: int = 0):
        self.block_interval = block_interval
        self.coinbase_maturity = coinbase_maturity
        self.seed = seed
        self.blocks: list[Block] = []
        self.transactions: dict[int, Transaction] = {}
        self.outputs: dict[int, Output] = {}
        self._next_tx_id = 0
        self._next_output_id = 0
        # creation-ordered ids and heights, split by coinbase maturity rule
        self._plain_ids: list[int] = []
        self._plain_heights: list[int] = []
        self._cb_ids: list[int] = []
        self._cb_heights: list[int] = []
        # pending outputs per built-but-unapplied transaction
        self._staged_outputs: dict[int, list[Output]] = {}
        self.unspent: dict[int, list[Output]] = {}

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    @property
    def next_height(self) -> int:
        return len(self.blocks)

    def new_tx_id(self) -> int:
        tx_id = self._next_tx_id
        self._next_tx_id += 1
        return tx_id

    def new_output_id(self) -> int:
        oid = self._next_output_id
        self._next_output_id += 1
        return oid

    def is_mature(self, out: Output, height: int) -> bool:
        if not out.is_coinbase:
            return out.block_height < height
        return out.block_height + self.coinbase_maturity <= height

    def eligible_decoy_count(self, spend_height: int) -> int:
        """Outputs usable as ring members at spend_height (real not excluded)."""
        n_plain = bisect.bisect_left(self._plain_heights, spend_height)
        n_cb = bisect.bisect_right(self._cb_heights, spend_height - self.coinbase_maturity)
        return n_plain + n_cb

    def _eligible_at(self, index: int, spend_height: int):
        """Map a rank in the merged eligible pool to an output id.

        Plain outputs come first, then mature coinbase; both slices are
        creation-ordered so uniform sampling over ranks is uniform over the
        eligible pool.
        """
        n_plain = bisect.bisect_left(self._plain_heights, spend_height)
        if index < n_plain:
            return self._plain_ids[index]
        return self._cb_ids[index - n_plain]

    def eligible_ids_chronological(self, spend_height: int) -> list[int]:
        """All eligible ids ordered by (creating height, output_id)."""
        n_plain = bisect.bisect_left(self._plain_heights, spend_height)
        n_cb = bisect.bisect_right(self._cb_heights, spend_height - self.coinbase_maturity)
        merged = sorted(
            self._plain_ids[:n_plain] + self._cb_ids[:n_cb],
            key=lambda oid: (self.outputs[oid].block_height, oid),
        )
        return merged

    def _register_output(self, out: Output) -> None:
        self.outputs[out.output_id] = out
        if out.is_coinbase:
            self._cb_ids.append(out.output_id)
            self._cb_heights.append(out.block_height)
        else:
            self._plain_ids.append(out.output_id)
            self._plain_heights.append(out.block_height)
        if out.spent_by is None:
            wallet = self.unspent.setdefault(out.owner, [])
            # outputs arrive oldest first, so the keyed insort is the rare path
            if wallet and ((wallet[-1].block_height, wallet[-1].output_id)
                           > (out.block_height, out.output_id)):
                bisect.insort(wallet, out, key=lambda o: (o.block_height, o.output_id))
            else:
                wallet.append(out)


def select_decoys(chain: Chain, real: int, ring_size: int, policy: DecoyPolicy,
                  rng: Rng, spend_height: int | None = None) -> RingInput:
    """Hide `real` among ring_size-1 decoys drawn from the eligible pool.

    Eligible means created strictly below spend_height and, for coinbase,
    mature.  Members come back ordered ascending by (creating height, id);
    real_index is the real output's rank after ordering.
    """
    if ring_size < 1:
        raise ValueError("ring_size must be >= 1")
    if spend_height is None:
        spend_height = chain.next_height
    if real not in chain.outputs:
        raise InvalidRing(f"real output {real} does not exist")

    need = ring_size - 1
    if need == 0:
        return RingInput(members=[real], real_index=0)

    total = chain.eligible_decoy_count(spend_height)
    real_out = chain.outputs[real]
    real_eligible = (real_out.block_height < spend_height
                     and chain.is_mature(real_out, spend_height))
    avail = total - (1 if real_eligible else 0)
    if avail < need:
        raise PoolTooSmall(f"{avail} eligible decoys, ring of {ring_size} needs {need}")

    chosen: set[int] = set()
    decoys: list[int] = []
    if policy.kind == "uniform":
        while len(decoys) < need:
            oid = chain._eligible_at(rng.randrange(total), spend_height)
            if oid != real and oid not in chosen:
                chosen.add(oid)
                decoys.append(oid)
    else:
        ordered = chain.eligible_ids_chronological(spend_height)
        decoys = _weighted_decoys([o for o in ordered if o != real], need, policy, rng)
    members = sorted(decoys + [real], key=lambda oid: (chain.outputs[oid].block_height, oid))
    return RingInput(members=members, real_index=members.index(real))


def _weighted_decoys(ordered: list[int], need: int, policy: DecoyPolicy,
                     rng: Rng) -> list[int]:
    """Rank-weighted sampling without replacement over ids ordered oldest
    first by (creating height, id); rank 1 is the newest."""
    n = len(ordered)
    weights = [(n - i) ** -policy.recency_shape for i in range(n)]
    cum = []
    acc = 0.0
    for w in weights:
        acc += w
        cum.append(acc)
    chosen: set[int] = set()
    decoys: list[int] = []
    while len(decoys) < need:
        u = rng.random() * acc
        i = bisect.bisect_left(cum, u)
        i = min(i, n - 1)
        if i not in chosen:
            chosen.add(i)
            decoys.append(ordered[i])
    return decoys


def build_transaction(chain: Chain, sender: int, amount: int, dest: int,
                      fee: int, height: int, time: int, ring_size: int,
                      policy: DecoyPolicy, rng: Rng) -> Transaction:
    """Assemble a transfer spending the sender's oldest mature outputs.

    Walks `chain.unspent[sender]` oldest first, skipping immature outputs,
    until amount+fee is covered, wraps each picked output in its own ring,
    and stages a payment output plus change when positive.  The picked
    outputs leave the unspent list only once every ring is built, so a
    raise leaves it untouched.  The staged outputs materialize when
    apply_block accepts the transaction.
    """
    if amount <= 0:
        raise ValueError("amount must be positive")
    unspent = chain.unspent.get(sender, [])
    needed = amount + fee
    picked: list[int] = []  # positions in unspent
    covered = 0
    for i, out in enumerate(unspent):
        if covered >= needed:
            break
        if chain.is_mature(out, height):
            picked.append(i)
            covered += out.amount
    if covered < needed:
        raise InsufficientFunds(f"spendable {covered} < amount+fee {needed}")

    rings = [
        select_decoys(chain, unspent[i].output_id, ring_size, policy, rng,
                      spend_height=height)
        for i in picked
    ]
    for i in reversed(picked):
        del unspent[i]

    tx_id = chain.new_tx_id()
    change = covered - needed
    staged = [Output(chain.new_output_id(), tx_id, dest, amount, height, time, False)]
    if change > 0:
        staged.append(Output(chain.new_output_id(), tx_id, sender, change, height, time, False))
    tx = Transaction(
        tx_id=tx_id, timestamp=time, block_height=height, inputs=rings,
        outputs=[o.output_id for o in staged], fee=fee, sender=sender,
        receiver=dest, intended_amount=amount, kind=TRANSFER,
    )
    chain._staged_outputs[tx_id] = staged
    return tx


def apply_block(chain: Chain, pending_txs: list[Transaction], miner: int,
                time: int, block_reward: int) -> Block:
    """Append a block: coinbase first, then the pending transfers.

    Fees are recycled into the coinbase so total supply is the sum of block
    rewards.  Real inputs get their spent_by mark here.
    """
    height = chain.next_height
    # validate before mutating anything
    spent_now: set[int] = set()
    for tx in pending_txs:
        for ring in tx.inputs:
            for oid in ring.members:
                if oid not in chain.outputs:
                    raise InvalidRing(f"tx {tx.tx_id}: ring member {oid} does not exist")
                if chain.outputs[oid].block_height >= height:
                    raise InvalidRing(f"tx {tx.tx_id}: member {oid} not below height {height}")
            real = ring.members[ring.real_index]
            if chain.outputs[real].spent_by is not None or real in spent_now:
                raise DoubleSpend(f"tx {tx.tx_id}: output {real} already spent")
            spent_now.add(real)

    fees = sum(tx.fee for tx in pending_txs)
    cb_id = chain.new_tx_id()
    cb_out = Output(chain.new_output_id(), cb_id, miner, block_reward + fees,
                    height, time, True)
    coinbase = Transaction(
        tx_id=cb_id, timestamp=time, block_height=height, inputs=[],
        outputs=[cb_out.output_id], fee=0, sender=None, receiver=miner,
        intended_amount=None, kind=COINBASE,
    )
    chain.transactions[cb_id] = coinbase
    chain._register_output(cb_out)

    for tx in pending_txs:
        tx.block_height = height
        for ring in tx.inputs:
            real = ring.members[ring.real_index]
            chain.outputs[real].spent_by = tx.tx_id
        for out in chain._staged_outputs.pop(tx.tx_id):
            out.block_height = height
            chain._register_output(out)
        chain.transactions[tx.tx_id] = tx

    block = Block(height=height, timestamp=time, miner=miner,
                  tx_ids=[cb_id] + [tx.tx_id for tx in pending_txs])
    chain.blocks.append(block)
    return block


# Public (adversary) projection -------------------------------------------------

@dataclass(slots=True)
class PublicBlock:
    height: int
    timestamp: int
    tx_ids: list[int]


@dataclass(slots=True)
class PublicOutput:
    output_id: int
    created_by_tx: int | None
    block_height: int
    timestamp: int
    is_coinbase: bool


@dataclass(slots=True)
class PublicTx:
    tx_id: int
    timestamp: int
    block_height: int
    rings: list[list[int]]
    outputs: list[int]
    fee: int
    kind: str


class PublicChain:
    """What the adversary can see: structure and timing, no secrets."""

    def __init__(self, blocks: list[PublicBlock], transactions: dict[int, PublicTx],
                 outputs: dict[int, PublicOutput]):
        self.blocks = blocks
        self.transactions = transactions
        self.outputs = outputs

    def creating_tx(self, output_id: int) -> PublicTx | None:
        tx_id = self.outputs[output_id].created_by_tx
        return None if tx_id is None else self.transactions[tx_id]

    def transfer_ids(self) -> list[int]:
        return sorted(t for t, tx in self.transactions.items() if tx.kind == TRANSFER)


@collector_paused()
def public_view(chain: Chain) -> PublicChain:
    """Strip every secret field; everything else is preserved bit for bit.

    The secrets include each block's miner, who owns its coinbase output,
    and the simulation seed, which regenerates the whole ground truth.
    """
    txs = {
        tx.tx_id: PublicTx(
            tx_id=tx.tx_id, timestamp=tx.timestamp, block_height=tx.block_height,
            rings=[list(r.members) for r in tx.inputs], outputs=list(tx.outputs),
            fee=tx.fee, kind=tx.kind,
        )
        for tx in chain.transactions.values()
    }
    outs = {
        o.output_id: PublicOutput(
            output_id=o.output_id, created_by_tx=o.created_by_tx,
            block_height=o.block_height, timestamp=o.timestamp,
            is_coinbase=o.is_coinbase,
        )
        for o in chain.outputs.values()
    }
    blocks = [PublicBlock(b.height, b.timestamp, list(b.tx_ids)) for b in chain.blocks]
    return PublicChain(blocks=blocks, transactions=txs, outputs=outs)


def validate_chain(chain: Chain) -> ValidationReport:
    """Structural and conservation audit; violations are data, not errors."""
    report = ValidationReport()

    for i, block in enumerate(chain.blocks):
        if block.height != i:
            report.add("height_gap", block.height, f"block at index {i} has height {block.height}")
        if i > 0 and block.timestamp < chain.blocks[i - 1].timestamp:
            report.add("time_regression", block.height, "block timestamp decreased")
        if not block.tx_ids:
            report.add("empty_block", block.height, "block has no transactions")
            continue
        first = chain.transactions.get(block.tx_ids[0])
        if first is None or first.kind != COINBASE:
            report.add("missing_coinbase", block.height, "first tx is not a coinbase")
        for pos, tx_id in enumerate(block.tx_ids):
            tx = chain.transactions.get(tx_id)
            if tx is not None and pos and tx.kind == COINBASE:
                report.add("extra_coinbase", block.height, f"tx {tx_id} is a second coinbase")
            if tx is not None and tx.timestamp > block.timestamp:
                report.add("late_timestamp", tx_id, f"timestamp {tx.timestamp} is after "
                           f"block {block.height}'s {block.timestamp}")

    spenders: dict[int, int] = {}
    for tx_id in sorted(chain.transactions):
        tx = chain.transactions[tx_id]
        if tx.kind == COINBASE and tx.inputs:
            report.add("coinbase_inputs", tx_id, "coinbase has ring inputs")
        if tx.kind == TRANSFER and not tx.inputs:
            report.add("no_inputs", tx_id, "transfer has no ring inputs")
        for ring_i, ring in enumerate(tx.inputs):
            if len(set(ring.members)) != len(ring.members):
                report.add("dup_members", tx_id, f"ring {ring_i} repeats a member")
            if not (0 <= ring.real_index < len(ring.members)):
                report.add("real_index_range", tx_id,
                           f"ring {ring_i} real_index {ring.real_index} out of range")
                continue
            keys = []
            for oid in ring.members:
                out = chain.outputs.get(oid)
                if out is None:
                    report.add("dangling_member", tx_id, f"ring {ring_i} member {oid} missing")
                    continue
                keys.append((out.block_height, oid))
                if out.block_height >= tx.block_height:
                    report.add("future_member", tx_id,
                               f"ring {ring_i} member {oid} not below spending height")
                if out.is_coinbase and not chain.is_mature(out, tx.block_height):
                    report.add("immature_member", tx_id,
                               f"ring {ring_i} references immature coinbase {oid}")
            if keys != sorted(keys):
                report.add("ring_order", tx_id, f"ring {ring_i} not age-ordered")
            real = ring.members[ring.real_index]
            if real in chain.outputs:
                prev = spenders.get(real)
                if prev is not None:
                    report.add("double_spend", tx_id,
                               f"output {real} spent by {prev} and {tx_id}")
                spenders[real] = tx_id
        # conservation over ground truth
        if tx.kind == TRANSFER:
            in_sum = 0
            resolvable = True
            for ring in tx.inputs:
                if not (0 <= ring.real_index < len(ring.members)):
                    resolvable = False
                    break
                real_out = chain.outputs.get(ring.members[ring.real_index])
                if real_out is None:
                    resolvable = False
                    break
                in_sum += real_out.amount
            out_sum = sum(chain.outputs[o].amount for o in tx.outputs if o in chain.outputs)
            if resolvable and in_sum != out_sum + tx.fee:
                report.add("conservation", tx_id,
                           f"inputs {in_sum} != outputs {out_sum} + fee {tx.fee}")

    for oid in sorted(chain.outputs):
        out = chain.outputs[oid]
        if out.amount <= 0:
            report.add("nonpositive_amount", oid, f"output {oid} amount {out.amount}")
        if out.block_height < 0:
            report.add("negative_height", oid, f"output {oid} height {out.block_height}")
        if out.spent_by is not None:
            spender = chain.transactions.get(out.spent_by)
            if spender is None:
                report.add("dangling_spender", oid, f"spent_by {out.spent_by} missing")
            elif spender.block_height <= out.block_height:
                report.add("same_height_spend", oid,
                           f"output {oid} spent at height {spender.block_height}")
            if spenders.get(oid) != out.spent_by:
                report.add("spender_mismatch", oid,
                           f"spent_by {out.spent_by} disagrees with ring evidence")

    return report


# Serialization -----------------------------------------------------------------

def load_json(path: Path):
    """Parse a JSON input file; malformed text raises SchemaError naming the
    file, line and column."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: line {err.lineno} column {err.colno}: "
                          f"{err.msg}") from None


def dump_json(payload: dict, path: Path) -> None:
    """Write free-form JSON (manifests, reports), keys sorted; records that
    are read back go through save_record."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def dump_csv(header: list[str], rows, path: Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# Record codec -----------------------------------------------------------------
#
# A dataclass's annotations are its JSON layout.  The kinds understood are
# bool, int, float, str, `X | None`, fixed-length tuples of numbers, lists,
# `dict[str, X]` and nested records.


def save_record(rec, path: Path) -> None:
    """Write a dataclass record as one line of JSON text: the bytes of
    `json.dumps(asdict(rec), sort_keys=True, separators=(",", ":"))` and a
    newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json_writer(type(rec))(rec) + "\n")


def load_record(cls, path: Path):
    """The `cls` record of a JSON file that carries FORMAT_VERSION.

    A file of another version or kind, a missing field or a field of the
    wrong JSON type raises SchemaError naming the file, the path to the
    field and the field; unknown keys are ignored.
    """
    path = Path(path)
    try:
        with path.open() as fh:
            payload, streamed = _streamed_payload(cls, fh)
    except (_NotStreamed, _BadField):
        # the whole-text parse reports the error, or reads what the
        # streaming scanner does not take
        payload, streamed = load_json(path), {}
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != FORMAT_VERSION:
        raise SchemaError(f"{path}: unsupported format_version {version!r}",
                          field="format_version")
    try:
        rec = _json_reader(cls)(payload | dict.fromkeys(streamed, []))
    except _BadField as err:
        raise SchemaError(f"{path}: {err}", field=err.field) from None
    for name, items in streamed.items():
        setattr(rec, name, items)
    return rec


class _NotStreamed(Exception):
    """JSON text that _streamed_payload leaves to the whole-text parser."""


class _Ints(dict):
    """JSON int text -> one int object per value, so a file's repeated ids
    and heights share one object each: an s05 public chain has 612k int
    values but 82k distinct ones."""

    def __missing__(self, text: str) -> int:
        value = self[text] = int(text)
        return value


_SPACE = re.compile(r"[ \t\n\r]*")
# what may follow a complete JSON value
_VALUE_ENDS = frozenset(",:]} \t\n\r")


class _Stream:
    """JSON text read from a file one block at a time."""

    BLOCK = 1 << 20

    def __init__(self, fh):
        self.fh = fh
        self.scan = json.scanner.make_scanner(
            json.JSONDecoder(parse_int=_Ints().__getitem__))
        self.text, self.pos, self.done = "", 0, False

    def _read(self) -> None:
        block = self.fh.read(self.BLOCK)
        self.done = not block
        self.text, self.pos = self.text[self.pos:] + block, 0

    def peek(self) -> str:
        """The next character that is not space, or "" at the end."""
        while True:
            c = self.text[self.pos:self.pos + 1]
            if c and c not in " \t\n\r":
                return c
            if c:
                self.pos = _SPACE.match(self.text, self.pos).end()
            elif self.done:
                return ""
            else:
                self._read()

    def opens(self, start: str, stop: str) -> bool:
        """Take `start`, and `stop` too when it follows at once (empty)."""
        if self.peek() != start:
            raise _NotStreamed
        self.pos += 1
        if self.peek() != stop:
            return False
        self.pos += 1
        return True

    def closes(self, stop: str) -> bool:
        """Take a "," (False) or `stop` (True)."""
        c = self.peek()
        if c != "," and c != stop:
            raise _NotStreamed
        self.pos += 1
        return c == stop

    def value(self):
        """The next JSON value.  A block may end inside it, or cut a number
        short, so it is taken only when the text after it shows its end."""
        self.peek()
        while True:
            try:
                value, end = self.scan(self.text, self.pos)
                if self.done or self.text[end:end + 1] in _VALUE_ENDS:
                    self.pos = end
                    return value
            except (StopIteration, json.JSONDecodeError):
                if self.done:
                    raise _NotStreamed from None
            self._read()

    def records(self, read) -> list:
        """The records `read` makes of a JSON array of objects."""
        items = []
        end_of_array = self.opens("[", "]")
        while not end_of_array:
            item = self.value()
            if type(item) is not dict:
                raise _NotStreamed
            items.append(read(item))
            end_of_array = self.closes("]")
        return items


def _streamed_payload(cls, fh) -> tuple[dict, dict]:
    """The JSON object in `fh` as a dict without its list-of-records fields,
    and those fields' records, read one item at a time.

    A chain file's item dicts are most of its parsed size, and its text is
    the rest; reading the text a block at a time, and each item into its
    record as soon as it is parsed, keeps neither whole in memory.  Any
    text but a JSON object whose record-list fields are arrays of objects,
    and any item its reader rejects, raises.
    """
    readers = {f.name: _json_reader(_item(f.type)) for f in fields(cls)
               if is_dataclass(_item(f.type))}
    s = _Stream(fh)
    payload, streamed = {}, {}
    done = s.opens("{", "}")
    while not done:
        key = s.value()
        if type(key) is not str or s.peek() != ":":
            raise _NotStreamed
        s.pos += 1
        if key in readers:
            streamed[key] = s.records(readers[key])
        else:
            payload[key] = s.value()
        done = s.closes("}")
    if s.peek():
        raise _NotStreamed
    return payload, streamed


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    # fields() per record made chain loading a third slower
    return tuple(f.name for f in fields(cls))


class _BadField(Exception):
    """A record field missing from its JSON object or of the wrong JSON type.

    `where` is the path to the record holding it, outermost first: list items
    by their record name, other values by their field name or key.  The
    outermost entry is the file itself and is not shown.
    """

    def __init__(self, where: list[str], field: str, problem: str):
        super().__init__(field)
        self.where, self.field, self.problem = where, field, problem

    def __str__(self) -> str:
        return "".join(f"{name}: " for name in self.where[1:]) + self.problem


def _optional(ann):
    """X for an `X | None` annotation, else None."""
    args = get_args(ann)
    if isinstance(ann, UnionType) and len(args) == 2 and args[1] is NoneType:
        return args[0]
    return None


def _item(ann):
    """X for a `list[X]` annotation, else None."""
    return get_args(ann)[0] if get_origin(ann) is list else None


def _int_list(ann) -> bool:
    item = _item(ann)
    return item is int or (item is not None and _int_list(item))


def _spelling(ann, v: str, env: dict) -> str:
    """Expression text that spells `v`, of type `ann`, the way
    `json.dumps(..., sort_keys=True, separators=(",", ":"))` does."""
    if ann is bool:
        return f'"true" if {v} else "false"'
    if ann is int:
        return v
    if ann is str:
        return f"_enc({v})"
    if ann is float or get_origin(ann) is tuple:
        return f"_compact({v})"
    if _optional(ann) is not None:
        return f'"null" if {v} is None else {_spelling(_optional(ann), v, env)}'
    if is_dataclass(ann):
        return f"{_writer(ann, env)}({v})"
    if _int_list(ann):
        return f'repr({v}).replace(" ", "")'
    if _item(ann) is not None:
        return f'"[" + ",".join(map({_writer(_item(ann), env)}, {v})) + "]"'
    if get_origin(ann) is dict and get_args(ann)[0] is str:
        w = _writer(get_args(ann)[1], env)
        return (f'"{{" + ",".join([_enc(k) + ":" + {w}(x) '
                f'for k, x in sorted({v}.items())]) + "}}"')
    raise TypeError(f"no JSON spelling for {ann}")


def _writer(ann, env: dict) -> str:
    """The name in `env` of a function spelling one value of type `ann`."""
    if is_dataclass(ann):
        name = f"_w_{ann.__name__}"
        env[name] = _json_writer(ann)
    else:
        name = f"_w{len(env)}"
        env[name] = eval(f"lambda x: {_spelling(ann, 'x', env)}", env)
    return name


@functools.cache
def _json_writer(cls):
    """`rec -> str`: the JSON text of a `cls` record, keys sorted, built once.

    One f-string per class writes the s05 records in a third to a quarter
    of the time that their field dicts plus `json.dumps(sort_keys=True)`
    take.
    """
    env = {"_enc": encode_basestring_ascii,
           "_compact": functools.partial(json.dumps, separators=(",", ":"))}
    items = ",".join(f"{json.dumps(f.name)}:{{{_spelling(f.type, 'r.' + f.name, env)}}}"
                     for f in sorted(fields(cls), key=lambda f: f.name))
    return eval(f"lambda r: f'{{{{{items}}}}}'", env)


_INT = frozenset([int])
_NUM = frozenset([int, float])


def _check(ann, v: str, depth: int = 0) -> str:
    """Expression text true when the parsed JSON value `v` fits `ann`; a
    float field takes any JSON number.  The fields of a nested record are
    checked by the record's own reader."""
    if ann in (bool, int, str):
        return f"type({v}) is {ann.__name__}"
    if ann is float:
        return f"type({v}) in _NUM"
    if _optional(ann) is not None:
        return f"({v} is None or {_check(_optional(ann), v, depth)})"
    if is_dataclass(ann):
        return f"type({v}) is dict"
    args, x = get_args(ann), f"x{depth}"
    if get_origin(ann) is tuple:
        return (f"(type({v}) is list and len({v}) == {len(args)} and "
                + " and ".join(_check(a, f"{v}[{i}]", depth) for i, a in enumerate(args))
                + ")")
    if _item(ann) is int:
        return f"(type({v}) is list and _INT.issuperset(map(type, {v})))"
    if _item(ann) is not None:
        return f"(type({v}) is list and all({_check(args[0], x, depth + 1)} for {x} in {v}))"
    if get_origin(ann) is dict and args[0] is str:
        return (f"(type({v}) is dict and "
                f"all({_check(args[1], x, depth + 1)} for {x} in {v}.values()))")
    raise TypeError(f"no JSON check for {ann}")


def _reader(cls, env: dict) -> str:
    """The name in `env` of the reader of record class `cls`."""
    name = f"_r_{cls.__name__}"
    env[name] = _json_reader(cls)
    return name


def _value(ann, v: str, env: dict, depth: int = 0) -> str:
    """Expression text that builds the value of type `ann` from the checked
    JSON value `v`: records from objects, tuples from arrays."""
    if is_dataclass(ann):
        return f"{_reader(ann, env)}({v})"
    if get_origin(ann) is tuple:
        return f"tuple({v})"
    x = f"x{depth}"
    if _item(ann) is not None:
        inner = _value(_item(ann), x, env, depth + 1)
        return v if inner == x else f"[{inner} for {x} in {v}]"
    return v


def _field_value(f, env: dict) -> str:
    """`_value` of a record field.  A nested record's errors are labelled
    with the field's name, a mapping's with the field's name and the key,
    so no message names a file layout's private record class."""
    if is_dataclass(f.type):
        return f"_nested({f.name!r}, {_reader(f.type, env)}, {f.name})"
    if get_origin(f.type) is dict:
        convert = _value(get_args(f.type)[1], "x0", env, 1)
        return f"_keyed({f.name!r}, lambda x0: {convert}, {f.name})"
    return _value(f.type, f.name, env)


def _nested(name: str, read, payload: dict):
    try:
        return read(payload)
    except _BadField as err:
        err.where[0] = name
        raise


def _keyed(name: str, convert, payload: dict) -> dict:
    out = {}
    for key, value in payload.items():
        try:
            out[key] = convert(value)
        except _BadField as err:
            err.where[:0] = [name, key]
            raise
    return out


@functools.cache
def _json_reader(cls):
    """`payload -> cls`: the record of a parsed JSON object, built once.

    A missing field or a field of another JSON type raises _BadField;
    unknown keys are ignored.
    """
    env = {"_cls": cls, "_INT": _INT, "_NUM": _NUM, "_BadField": _BadField,
           "_missing": _missing, "_mistyped": _mistyped, "_record_name": _record_name,
           "_nested": _nested, "_keyed": _keyed}
    names = _field_names(cls)
    args = [_field_value(f, env) for f in fields(cls)]
    checks = " and ".join(_check(f.type, f.name) for f in fields(cls))
    exec(f"""def read(p):
    try:
        {", ".join(names)}, = {", ".join(f"p[{n!r}]" for n in names)},
    except KeyError as err:
        _missing(_cls, p, err.args[0])
    if not ({checks}):
        _mistyped(_cls, p)
    try:
        return _cls({", ".join(args)})
    except _BadField as err:
        err.where.insert(0, _record_name(_cls, p))
        raise
""", env)
    return env["read"]


def _record_name(cls, payload: dict) -> str:
    """The class name and, when the first field is an int id (`height` or
    `..._id`), its value, or when it is a string `name`, that name quoted."""
    first = fields(cls)[0]
    key = payload.get(first.name)
    if (first.type is int and type(key) is int
            and (first.name == "height" or first.name.endswith("_id"))):
        return f"{cls.__name__} {key}"
    if first.name == "name" and type(key) is str:
        return f"{cls.__name__} {json.dumps(key)}"
    return cls.__name__


def _type_name(ann) -> str:
    """`ann` as messages print it: without module paths, and a file layout's
    private record class as `object`."""
    if isinstance(ann, type):
        return "object" if ann.__name__.startswith("_") else ann.__name__
    if _optional(ann) is not None:
        return f"{_type_name(_optional(ann))} | None"
    return f"{get_origin(ann).__name__}[{', '.join(map(_type_name, get_args(ann)))}]"


def _missing(cls, payload: dict, name: str):
    raise _BadField([_record_name(cls, payload)], name, "missing field")


def _mistyped(cls, payload: dict):
    """Raise _BadField for the first field of `payload` its check rejects."""
    for f in fields(cls):
        value = payload[f.name]
        fits = eval(f"lambda {f.name}: {_check(f.type, f.name)}", {"_INT": _INT, "_NUM": _NUM})
        if not fits(value):
            if isinstance(value, (dict, list)):
                shown = "an object" if isinstance(value, dict) else "an array"
            else:
                shown = json.dumps(value)
                shown = shown if len(shown) <= 40 else shown[:37] + "..."
            raise _BadField([_record_name(cls, payload)], f.name,
                            f"{f.name} is {shown}, expected {_type_name(f.type)}")


# Chain files ------------------------------------------------------------------


@dataclass
class _ChainFile:
    format_version: int
    block_interval: int
    coinbase_maturity: int
    seed: int
    blocks: list[Block]
    transactions: list[Transaction]
    outputs: list[Output]


@dataclass
class _PublicChainFile:
    format_version: int
    blocks: list[PublicBlock]
    transactions: list[PublicTx]
    outputs: list[PublicOutput]


@collector_paused()
def save_chain(chain: Chain, path: Path) -> None:
    save_record(_ChainFile(
        format_version=FORMAT_VERSION, seed=chain.seed,
        block_interval=chain.block_interval, coinbase_maturity=chain.coinbase_maturity,
        blocks=chain.blocks,
        transactions=[tx for _, tx in sorted(chain.transactions.items())],
        outputs=[o for _, o in sorted(chain.outputs.items())]), path)


@collector_paused()
def load_chain(path: Path) -> Chain:
    rec = load_record(_ChainFile, path)
    chain = Chain(block_interval=rec.block_interval,
                  coinbase_maturity=rec.coinbase_maturity, seed=rec.seed)
    chain.blocks = rec.blocks
    chain.transactions = {tx.tx_id: tx for tx in rec.transactions}
    for o in rec.outputs:
        chain._register_output(o)
    if chain.transactions:
        chain._next_tx_id = max(chain.transactions) + 1
    if chain.outputs:
        chain._next_output_id = max(chain.outputs) + 1
    return chain


@collector_paused()
def save_public_chain(pub: PublicChain, path: Path) -> None:
    save_record(_PublicChainFile(
        format_version=FORMAT_VERSION, blocks=pub.blocks,
        transactions=[tx for _, tx in sorted(pub.transactions.items())],
        outputs=[o for _, o in sorted(pub.outputs.items())]), path)


@collector_paused()
def load_public_chain(path: Path) -> PublicChain:
    rec = load_record(_PublicChainFile, path)
    return PublicChain(blocks=rec.blocks,
                       transactions={tx.tx_id: tx for tx in rec.transactions},
                       outputs={o.output_id: o for o in rec.outputs})
