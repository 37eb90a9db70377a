"""External transaction dumps: parse, join labels, run the standard pipeline.

The documented `xmr-dump.json` schema (schemas/xmr-dump.schema.json) is the
integration boundary for real-chain data.  A parsed dump converts into the
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
from .features import FeatureMatrix, featurize_chain, load_csv
from .ledger import PublicChain, PublicOutput, PublicTx, dump_json, load_json
from .ml.crossval import ModelSpec, SearchSpec
# not called here: perfbench/spans.py traces ingest runs through these names
from .ml.crossval import fit_model, kfold_eval  # noqa: F401
from .ml.tasks import ModelReport, group_task

FORMAT_VERSION = 1


@dataclass
class ExternalTx:
    tx_hash: str
    block_height: int
    timestamp: int
    rings: list[list[tuple[str, int]]]
    num_outputs: int


@dataclass
class ParsedDump:
    txs: list[ExternalTx]
    dangling: list[tuple[str, int]] = field(default_factory=list)

    @property
    def hashes(self) -> list[str]:
        return [t.tx_hash for t in self.txs]


def _need(record: dict, index: int, key: str, types):
    if key not in record:
        raise SchemaError("missing required field", record=index, field=key)
    value = record[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(f"wrong type {type(value).__name__}", record=index,
                          field=key)
    return value


def parse_dump(path_or_payload) -> ParsedDump:
    """Validate an xmr-dump.json file into ExternalTx records.

    Dangling ring references (hashes outside the window) are collected, not
    fatal.  Structural problems raise SchemaError naming the record and
    field; a resolvable reference to the future or to a nonexistent output
    index is structural.
    """
    if isinstance(path_or_payload, (str, Path)):
        payload = load_json(path_or_payload)
    else:
        payload = path_or_payload
    if isinstance(payload, dict):
        if payload.get("format_version") != FORMAT_VERSION:
            raise SchemaError(
                f"unsupported format_version {payload.get('format_version')!r}",
                field="format_version")
        records = payload.get("transactions")
    else:
        records = payload
    if not isinstance(records, list):
        raise SchemaError("top level must be an array of transactions")

    txs: list[ExternalTx] = []
    seen: dict[str, int] = {}
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise SchemaError("transaction record must be an object", record=i)
        tx_hash = _need(rec, i, "tx_hash", str)
        if tx_hash in seen:
            raise SchemaError(f"duplicate tx_hash {tx_hash!r}", record=i,
                              field="tx_hash")
        fields = {key: _need(rec, i, key, int)
                  for key in ("block_height", "timestamp", "num_outputs")}
        for key, value in fields.items():
            if value < 0:
                raise SchemaError("negative value", record=i, field=key)
        raw_rings = _need(rec, i, "rings", list)
        rings: list[list[tuple[str, int]]] = []
        for ring in raw_rings:
            if not isinstance(ring, list) or not ring:
                raise SchemaError("ring must be a non-empty array", record=i,
                                  field="rings")
            members = []
            for m in ring:
                if not isinstance(m, dict):
                    raise SchemaError("ring member must be an object", record=i,
                                      field="rings")
                mh = _need(m, i, "tx_hash", str)
                mi = _need(m, i, "output_index", int)
                if mi < 0:
                    raise SchemaError("negative output_index", record=i,
                                      field="rings")
                members.append((mh, mi))
            rings.append(members)
        seen[tx_hash] = i
        txs.append(ExternalTx(tx_hash=tx_hash, rings=rings, **fields))

    by_hash = {t.tx_hash: t for t in txs}
    dangling: list[tuple[str, int]] = []
    for i, tx in enumerate(txs):
        for ring in tx.rings:
            for mh, mi in ring:
                ref = by_hash.get(mh)
                if ref is None:
                    dangling.append((mh, mi))
                    continue
                if ref.block_height >= tx.block_height:
                    raise SchemaError(
                        f"ring references {mh!r} at height {ref.block_height},"
                        f" not below {tx.block_height}", record=i, field="rings")
                if mi >= ref.num_outputs:
                    raise SchemaError(
                        f"output_index {mi} out of range for {mh!r}", record=i,
                        field="rings")
    return ParsedDump(txs=txs, dangling=dangling)


def dump_to_public_chain(parsed: ParsedDump) -> tuple[PublicChain, list[str]]:
    """Convert records to the native public-chain structure.

    Sequential ids follow file order; unknown references become outputs with
    no creating transaction.  Returns the chain and tx_hash per tx_id.
    """
    txs: dict[int, PublicTx] = {}
    outs: dict[int, PublicOutput] = {}
    hash_to_tx: dict[str, int] = {}
    output_of: dict[tuple[str, int], int] = {}
    next_out = 0
    hashes: list[str] = []
    for tx_id, rec in enumerate(parsed.txs):
        hash_to_tx[rec.tx_hash] = tx_id
        hashes.append(rec.tx_hash)
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
            for mh, mi in ring:
                oid = output_of.get((mh, mi))
                if oid is None:  # opaque member outside the window
                    outs[next_out] = PublicOutput(
                        output_id=next_out, created_by_tx=None, block_height=-1,
                        timestamp=0, is_coinbase=False)
                    output_of[(mh, mi)] = next_out
                    oid = next_out
                    next_out += 1
                members.append(oid)
            rings.append(members)
        txs[tx_id].rings = rings
    return PublicChain(blocks=[], transactions=txs, outputs=outs), hashes


def export_dump(pub: PublicChain, path: Path | None = None) -> dict:
    """Write a public chain in the dump schema (the round-trip direction)."""
    hash_of = {tx_id: f"{tx_id:016x}" for tx_id in pub.transactions}
    records = []
    for tx_id in sorted(pub.transactions):
        tx = pub.transactions[tx_id]
        rings = []
        for ring in tx.rings:
            members = []
            for oid in ring:
                creator = pub.outputs[oid].created_by_tx
                index = pub.transactions[creator].outputs.index(oid)
                members.append({"tx_hash": hash_of[creator], "output_index": index})
            rings.append(members)
        records.append({
            "tx_hash": hash_of[tx_id],
            "block_height": tx.block_height,
            "timestamp": tx.timestamp,
            "rings": rings,
            "num_outputs": len(tx.outputs),
        })
    payload = {"format_version": FORMAT_VERSION, "transactions": records}
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
