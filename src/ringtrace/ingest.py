"""External transaction dumps: parse, join labels, run the standard pipeline.

The documented `xmr-dump.json` schema (schemas/xmr-dump.schema.json) is the
integration boundary for real-chain data.  The record codec of
:mod:`ringtrace.records` reads it as `ExternalTx` records and checks their
types; :func:`parse_dump` checks the values.  A parsed dump converts into the
same public-chain structure the simulator produces, so featurization and
training are byte-for-byte the native code paths.  Ring references that point
outside the dump window stay as opaque members with zero-filled neighbor
features and a per-row coverage fraction for filtering.
"""

import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DegenerateLabels, SchemaError
from .features import FeatureMatrix, featurize_chain
from .ledger import PublicChain, PublicOutput, PublicTx
from .ml.crossval import ModelSpec, SearchSpec
# not called here: perfbench/spans.py traces ingest runs through these names
from .ml.crossval import fit_model, kfold_eval  # noqa: F401
from .ml.tasks import ModelReport, group_task
from .records import FORMAT_VERSION, _Stream, dump_json, load_csv, load_json
from .records import load_record, read_record


@dataclass(slots=True)
class DumpMember:
    """A ring member: its creating transaction's hash and its index among
    that transaction's outputs."""

    tx_hash: str
    output_index: int


@dataclass(slots=True)
class ExternalTx:
    tx_hash: str
    block_height: int
    timestamp: int
    rings: list[list[DumpMember]]
    num_outputs: int


@dataclass
class _DumpFile:
    format_version: int
    transactions: list[ExternalTx]


@dataclass
class ParsedDump:
    txs: list[ExternalTx]
    dangling: list[tuple[str, int]] = field(default_factory=list)

    @property
    def hashes(self) -> list[str]:
        return [t.tx_hash for t in self.txs]


def _read_dump(path_or_payload) -> _DumpFile:
    """The dump of a file or payload: an object with `transactions`, read a
    block at a time from a file, or a bare array, wrapped as that object."""
    if isinstance(path_or_payload, (str, Path)):
        with open(path_or_payload) as fh:
            bare = _Stream(fh).peek() == "["
        if not bare:
            return load_record(_DumpFile, path_or_payload)
        payload, source = load_json(path_or_payload), path_or_payload
    else:
        payload, source = path_or_payload, "xmr-dump.json"
    if isinstance(payload, list):
        payload = {"format_version": FORMAT_VERSION, "transactions": payload}
    return read_record(_DumpFile, payload, source)


def parse_dump(path_or_payload) -> ParsedDump:
    """Validate an xmr-dump.json file, or its parsed payload, into ExternalTx
    records.

    Dangling ring references (hashes outside the window) are collected, not
    fatal.  A missing or mistyped field raises SchemaError naming the
    transaction by its hash; a negative or empty value, a repeated hash, or a
    resolvable reference to the future or to a nonexistent output index
    raises it naming the record's position.  Either names the field.
    """
    txs = _read_dump(path_or_payload).transactions
    by_hash: dict[str, ExternalTx] = {}
    for i, tx in enumerate(txs):
        if not tx.tx_hash:
            raise SchemaError("empty tx_hash", record=i, field="tx_hash")
        if tx.tx_hash in by_hash:
            raise SchemaError(f"duplicate tx_hash {tx.tx_hash!r}", record=i, field="tx_hash")
        by_hash[tx.tx_hash] = tx
        for key in ("block_height", "timestamp", "num_outputs"):
            if getattr(tx, key) < 0:
                raise SchemaError("negative value", record=i, field=key)
        for ring in tx.rings:
            if not ring:
                raise SchemaError("ring must be a non-empty array", record=i, field="rings")
            for m in ring:
                if not m.tx_hash:
                    raise SchemaError("empty ring member tx_hash", record=i, field="rings")
                if m.output_index < 0:
                    raise SchemaError("negative output_index", record=i, field="rings")

    dangling: list[tuple[str, int]] = []
    for i, tx in enumerate(txs):
        for ring in tx.rings:
            for m in ring:
                ref = by_hash.get(m.tx_hash)
                if ref is None:
                    dangling.append((m.tx_hash, m.output_index))
                    continue
                if ref.block_height >= tx.block_height:
                    raise SchemaError(
                        f"ring references {m.tx_hash!r} at height {ref.block_height},"
                        f" not below {tx.block_height}", record=i, field="rings")
                if m.output_index >= ref.num_outputs:
                    raise SchemaError(
                        f"output_index {m.output_index} out of range for {m.tx_hash!r}",
                        record=i, field="rings")
    return ParsedDump(txs=txs, dangling=dangling)


def dump_to_public_chain(parsed: ParsedDump) -> tuple[PublicChain, list[str]]:
    """Convert records to the native public-chain structure.

    Sequential ids follow file order; unknown references become outputs with
    no creating transaction.  Returns the chain and tx_hash per tx_id.
    """
    txs: dict[int, PublicTx] = {}
    outs: dict[int, PublicOutput] = {}
    output_of: dict[tuple[str, int], int] = {}
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
    # second pass: resolve members now that all outputs exist
    for tx_id, rec in enumerate(parsed.txs):
        rings = []
        for ring in rec.rings:
            members = []
            for m in ring:
                key = (m.tx_hash, m.output_index)
                oid = output_of.get(key)
                if oid is None:  # opaque member outside the window
                    outs[next_out] = PublicOutput(
                        output_id=next_out, created_by_tx=None, block_height=-1,
                        timestamp=0, is_coinbase=False)
                    output_of[key] = next_out
                    oid = next_out
                    next_out += 1
                members.append(oid)
            rings.append(members)
        txs[tx_id].rings = rings
    return PublicChain(blocks=[], transactions=txs, outputs=outs), parsed.hashes


def export_dump(pub: PublicChain, path: Path | None = None) -> dict:
    """Write a public chain in the dump schema (the round-trip direction)."""
    hash_of = {tx_id: f"{tx_id:016x}" for tx_id in pub.transactions}

    def member(oid: int) -> dict:
        creator = pub.outputs[oid].created_by_tx
        return {"tx_hash": hash_of[creator],
                "output_index": pub.transactions[creator].outputs.index(oid)}

    payload = {"format_version": FORMAT_VERSION, "transactions": [
        {"tx_hash": hash_of[tx_id], "block_height": tx.block_height, "timestamp": tx.timestamp,
         "rings": [list(map(member, ring)) for ring in tx.rings], "num_outputs": len(tx.outputs)}
        for tx_id, tx in sorted(pub.transactions.items())]}
    if path is not None:
        dump_json(payload, path)
    return payload


# Labels ---------------------------------------------------------------------


def load_labels(path: Path) -> dict[str, str]:
    """labels.csv with header tx_hash,label; duplicates keep the first row."""
    rows, _, _ = load_csv(path, ("tx_hash", "label"), (), dtype=object)
    labels = dict(reversed(rows.tolist()))  # reversed: a hash's first row wins
    if len(labels) < len(rows):
        warnings.warn(f"{len(rows) - len(labels)} duplicate label hashes ignored",
                      UserWarning)
    return labels


@dataclass
class JoinedDataset:
    hashes: list[str]
    y: np.ndarray  # 1 = labeled positive
    positive_rate: float
    unmatched: list[str]


def join_labels(parsed: ParsedDump, labels: dict[str, str]) -> JoinedDataset:
    """Binary-label the dump; unlabeled transactions are the negative class."""
    have = set(parsed.hashes)
    y = np.array([1 if h in labels else 0 for h in parsed.hashes], dtype=np.int64)
    unmatched = sorted(h for h in labels if h not in have)
    rate = float(y.mean()) if y.size else 0.0
    if y.size and y.sum() == 0:
        warnings.warn("no label matched any transaction; all rows negative",
                      UserWarning)
    return JoinedDataset(hashes=parsed.hashes, y=y, positive_rate=rate,
                         unmatched=unmatched)


# Pipeline --------------------------------------------------------------------


def external_pipeline(parsed: ParsedDump, labels: dict[str, str], model_spec: ModelSpec,
                      search: SearchSpec) -> tuple[ModelReport, FeatureMatrix]:
    """Featurize the dump and classify labeled vs unlabeled transactions.

    Rows are ring-bearing transactions, exactly as the native featurization
    would produce; rows with unresolved neighbors carry a coverage fraction
    below one.  The report is the group task's under the name
    external_label, with the dump's own extras: per-class precision and
    recall with fold means and SDs, plus the importance ranking.
    """
    pub, hashes = dump_to_public_chain(parsed)
    fm = featurize_chain(pub)
    joined = join_labels(parsed, labels)
    y = np.array([hashes[t] in labels for t in fm.tx_ids], dtype=np.int64)
    if np.unique(y).size < 2:
        raise DegenerateLabels("need both labeled and unlabeled transactions")

    report = replace(group_task(fm, y, model_spec, search), task="external_label", extras={
        "positive_rate": joined.positive_rate,
        "unmatched_labels": len(joined.unmatched),
        "dangling_references": len(parsed.dangling),
        "mean_coverage": float(fm.coverage.mean()),
    })
    return report, fm
