"""External transaction dumps: parse, label, run the standard pipeline.

The documented `xmr-dump.json` schema (schemas/xmr-dump.schema.json) is the
integration boundary for real-chain data.  The record codec of
:mod:`ringtrace.records` reads it as `ExternalTx` records and checks their
types; :func:`parse_dump` checks the values and, in the same walk over the
ring members, builds the public-chain structure the simulator produces, so
featurization and training are byte-for-byte the native code paths.  Ring
references that point outside the dump window stay as opaque members with
zero-filled neighbor features and a per-row coverage fraction for filtering.
Transactions named in a label file are the positive class, the rest negative.
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
    dangling: list[tuple[str, int]]
    chain: PublicChain = field(compare=False, repr=False)  # made from txs

    @property
    def hashes(self) -> list[str]:
        return [t.tx_hash for t in self.txs]


def _read_dump(path_or_payload) -> tuple[list[ExternalTx], str | Path]:
    """The records of a file or payload, and the name its errors give: an
    object with `transactions`, read a block at a time from a file, or a bare
    array, wrapped as that object."""
    if isinstance(path_or_payload, (str, Path)):
        source = Path(path_or_payload)
        with open(source) as fh:
            bare = _Stream(fh).peek() == "["
        if not bare:
            return load_record(_DumpFile, source).transactions, source
        payload = load_json(source)
    else:
        payload, source = path_or_payload, "xmr-dump.json"
    if isinstance(payload, list):
        payload = {"format_version": FORMAT_VERSION, "transactions": payload}
    return read_record(_DumpFile, payload, source).transactions, source


def parse_dump(path_or_payload) -> ParsedDump:
    """Validate an xmr-dump.json file, or its parsed payload, into ExternalTx
    records and the native public chain they describe.

    Transaction and output ids follow file order.  Ring members outside the
    window (dangling references, collected per occurrence, not fatal) become
    one output with no creating transaction per distinct (tx_hash,
    output_index), numbered after every record's outputs.  A missing or
    mistyped field raises SchemaError naming the transaction by its hash; a
    negative or empty value, a repeated hash, or a resolvable reference to
    the future or to a nonexistent output index raises it naming the
    record's position.  Either names the file (or `xmr-dump.json` for a
    payload) and the field.
    """
    txs, source = _read_dump(path_or_payload)

    def error(message: str, record: int, key: str = "rings") -> SchemaError:
        return SchemaError(f"{source}: {message}", record=record, field=key)

    tx_id_of: dict[str, int] = {}
    pub_txs: dict[int, PublicTx] = {}
    outs: dict[int, PublicOutput] = {}
    for i, tx in enumerate(txs):
        if not tx.tx_hash:
            raise error("empty tx_hash", i, "tx_hash")
        if tx.tx_hash in tx_id_of:
            raise error(f"duplicate tx_hash {tx.tx_hash!r}", i, "tx_hash")
        tx_id_of[tx.tx_hash] = i
        for key in ("block_height", "timestamp", "num_outputs"):
            if getattr(tx, key) < 0:
                raise error("negative value", i, key)
        for ring in tx.rings:
            if not ring:
                raise error("ring must be a non-empty array", i)
            for m in ring:
                if not m.tx_hash:
                    raise error("empty ring member tx_hash", i)
                if m.output_index < 0:
                    raise error("negative output_index", i)
        ids = range(len(outs), len(outs) + tx.num_outputs)
        for oid in ids:
            outs[oid] = PublicOutput(output_id=oid, created_by_tx=i,
                                     block_height=tx.block_height, timestamp=tx.timestamp,
                                     is_coinbase=not tx.rings)
        pub_txs[i] = PublicTx(tx_id=i, timestamp=tx.timestamp, block_height=tx.block_height,
                              rings=[], outputs=list(ids), fee=0,
                              kind="transfer" if tx.rings else "coinbase")

    dangling: list[tuple[str, int]] = []
    opaque: dict[tuple[str, int], int] = {}
    for i, tx in enumerate(txs):
        for ring in tx.rings:
            members = []
            for m in ring:
                ref = tx_id_of.get(m.tx_hash)
                if ref is None:
                    key = (m.tx_hash, m.output_index)
                    dangling.append(key)
                    if key not in opaque:
                        oid = opaque[key] = len(outs)
                        outs[oid] = PublicOutput(output_id=oid, created_by_tx=None,
                                                 block_height=-1, timestamp=0,
                                                 is_coinbase=False)
                    members.append(opaque[key])
                    continue
                ref_tx = pub_txs[ref]
                if ref_tx.block_height >= tx.block_height:
                    raise error(f"ring references {m.tx_hash!r} at height"
                                f" {ref_tx.block_height}, not below {tx.block_height}", i)
                if m.output_index >= len(ref_tx.outputs):
                    raise error(f"output_index {m.output_index} out of range"
                                f" for {m.tx_hash!r}", i)
                members.append(ref_tx.outputs[m.output_index])
            pub_txs[i].rings.append(members)
    return ParsedDump(txs=txs, dangling=dangling,
                      chain=PublicChain(blocks=[], transactions=pub_txs, outputs=outs))


def dump_to_public_chain(parsed: ParsedDump) -> tuple[PublicChain, list[str]]:
    """The dump's native public chain and the tx_hash of each tx_id."""
    return parsed.chain, parsed.hashes


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
    positives = sum(h in labels for h in hashes)
    if hashes and not positives:
        warnings.warn("no label matched any transaction; all rows negative", UserWarning)
    y = np.array([hashes[t] in labels for t in fm.tx_ids], dtype=np.int64)
    if np.unique(y).size < 2:
        raise DegenerateLabels("need both labeled and unlabeled transactions")

    report = replace(group_task(fm, y, model_spec, search), task="external_label", extras={
        "positive_rate": positives / len(hashes) if hashes else 0.0,
        "unmatched_labels": len(labels.keys() - set(hashes)),
        "dangling_references": len(parsed.dangling),
        "mean_coverage": float(fm.coverage.mean()),
    })
    return report, fm
