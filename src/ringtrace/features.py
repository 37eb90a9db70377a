"""Per-transaction featurization of the public chain.

Everything here is a pure function of the adversary-visible projection: 7
intrinsic features per transaction, plus 175 aggregates over the transactions
that created its ring members (5 within-ring statistics crossed with 5
across-ring statistics for each base feature).  Feature rows never depend on
storage order.
"""

import csv
import functools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyChain, NoRings, NoTwoRingTxs, SchemaError
from .ledger import (
    FORMAT_VERSION,
    TRANSFER,
    PublicChain,
    PublicTx,
    dump_csv,
    load_record,
    save_record,
)

ZERO_HOP_NAMES = (
    "epoch_time",
    "num_rings",
    "ring_size",
    "day_of_week",
    "hour_of_day",
    "minute_of_hour",
    "second_of_minute",
)

RING_STATS = ("min", "max", "mean", "std", "sum")
CROSS_STATS = ("min", "max", "mean", "median", "sum")

ONE_HOP_NAMES = tuple(
    f"cross_{c}_ring_{s}_{f}"
    for f in ZERO_HOP_NAMES
    for s in RING_STATS
    for c in CROSS_STATS
)

FEATURE_NAMES = ZERO_HOP_NAMES + ONE_HOP_NAMES
N_FEATURES = len(FEATURE_NAMES)  # 182

CANDIDATE_NAMES = tuple(f"member_{f}" for f in ZERO_HOP_NAMES) + ("delta_time", "age_rank")

_DAY = 86_400


def time_of_day_fields(t: int) -> tuple[int, int, int, int]:
    """(day_of_week, hour, minute, second); epoch is a Monday midnight."""
    return ((t // _DAY) % 7, (t % _DAY) // 3600, (t % 3600) // 60, t % 60)


def zero_hop(tx: PublicTx) -> np.ndarray:
    """The 7 intrinsic features; coinbase rows carry zero ring structure."""
    dow, hour, minute, second = time_of_day_fields(tx.timestamp)
    n_rings = len(tx.rings)
    ring_size = (sum(len(r) for r in tx.rings) / n_rings) if n_rings else 0.0
    return np.array(
        [tx.timestamp, n_rings, ring_size, dow, hour, minute, second], dtype=np.float64
    )


def _member_zero_hop(chain: PublicChain, output_id: int) -> np.ndarray:
    creator = chain.creating_tx(output_id)
    if creator is None:  # dangling reference in a partial dump
        return np.zeros(7, dtype=np.float64)
    return zero_hop(creator)


def one_hop(tx: PublicTx, chain: PublicChain) -> np.ndarray:
    """175 aggregates over the ring members' creating transactions.

    Within each ring the members' zero-hop vectors reduce with
    min/max/mean/std/sum (population std); the per-ring values then reduce
    across rings with min/max/mean/median/sum.  Output order is (base
    feature, ring stat, cross stat), matching ONE_HOP_NAMES.
    """
    if not tx.rings:
        raise NoRings(f"tx {tx.tx_id} has no ring inputs")
    per_ring = np.empty((len(tx.rings), 5, 7), dtype=np.float64)
    for r, members in enumerate(tx.rings):
        vecs = np.stack([_member_zero_hop(chain, oid) for oid in members])
        per_ring[r, 0] = vecs.min(axis=0)
        per_ring[r, 1] = vecs.max(axis=0)
        per_ring[r, 2] = vecs.mean(axis=0)
        per_ring[r, 3] = vecs.std(axis=0)
        per_ring[r, 4] = vecs.sum(axis=0)
    cross = np.stack([
        per_ring.min(axis=0),
        per_ring.max(axis=0),
        per_ring.mean(axis=0),
        np.median(per_ring, axis=0),
        per_ring.sum(axis=0),
    ])  # (5 cross, 5 ring, 7 feature)
    return cross.transpose(2, 1, 0).reshape(-1)


def ring_coverage(tx: PublicTx, chain: PublicChain) -> float:
    """Fraction of ring members whose creating transaction is known."""
    members = [oid for ring in tx.rings for oid in ring]
    if not members:
        return 1.0
    known = sum(1 for oid in members if chain.creating_tx(oid) is not None)
    return known / len(members)


@dataclass
class FeatureMatrix:
    """Raw feature rows.  `normalized`, `norm_means` and `norm_stds` are
    `normalize_columns(raw)`, computed on first use, so a
    `dataclasses.replace(fm, raw=...)` never sees another matrix's transform."""

    tx_ids: list[int]
    names: tuple[str, ...]
    raw: np.ndarray
    coverage: np.ndarray | None = None

    @functools.cached_property
    def _normalization(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return normalize_columns(self.raw)

    normalized = property(lambda self: self._normalization[0])
    norm_means = property(lambda self: self._normalization[1])
    norm_stds = property(lambda self: self._normalization[2])


def normalize_columns(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-wise Z-normalization; constant columns are zeroed with std 0."""
    means = raw.mean(axis=0)
    means = means + (raw - means).mean(axis=0)  # second pass kills residual
    centered = raw - means
    stds = np.sqrt((centered * centered).mean(axis=0))
    return _scale(centered, stds), means, stds


def apply_normalization(raw: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    return _scale(np.subtract(raw, means, dtype=np.float64), stds)


def _scale(centered: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """centered / stds in place, with the columns of std 0 zeroed."""
    nz = stds > 0
    np.divide(centered, stds, out=centered, where=nz)
    centered[:, ~nz] = 0.0
    return centered


def featurize_chain(chain: PublicChain, include_coinbase: bool = False) -> FeatureMatrix:
    """Full 182-column matrix over transfer rows (coinbase rows optional).

    Rows are ordered by tx_id.  Coinbase rows, when requested, zero-fill the
    one-hop block.  Rows are pure per-transaction functions.
    """
    tx_ids = sorted(
        t for t, tx in chain.transactions.items()
        if tx.kind == TRANSFER or include_coinbase
    )
    if not tx_ids:
        raise EmptyChain("no transactions to featurize")

    raw = np.zeros((len(tx_ids), N_FEATURES), dtype=np.float64)
    for row, tx in zip(raw, map(chain.transactions.get, tx_ids)):
        row[:7] = zero_hop(tx)
        if tx.rings:
            row[7:] = one_hop(tx, chain)
    cov = np.array([ring_coverage(chain.transactions[t], chain) for t in tx_ids])
    return FeatureMatrix(tx_ids=tx_ids, names=FEATURE_NAMES, raw=raw, coverage=cov)


@dataclass
class CandidateTable:
    """Candidate rows of every transfer ring, rings in (tx_id, ring_index)
    order, each ring's rows contiguous and in candidate_index order 0, 1, ..."""

    keys: np.ndarray  # (rows, 3) int64: tx_id, ring_index, candidate_index
    names: tuple[str, ...]
    raw: np.ndarray

    def __post_init__(self):
        self.keys = np.asarray(self.keys, dtype=np.int64).reshape(-1, 3)
        step = np.diff(self.keys, axis=0)
        next_ring = (step[:, 0] > 0) | (step[:, 0] == 0) & (step[:, 1] > 0)
        ok = np.where(self.keys[1:, 2] == 0, next_ring, (step == (0, 0, 1)).all(axis=1))
        bad = np.flatnonzero(~np.r_[self.keys[:1, 2] == 0, ok])
        if bad.size:
            raise SchemaError(f"tx_id {self.keys[bad[0], 0]} ring {self.keys[bad[0], 1]}:"
                              " rows out of ring order", field="candidate_index")


def candidate_table(chain: PublicChain) -> CandidateTable:
    """Per ring member, its creating tx's zero_hop row, then delta_time
    (spend minus creation) and age_rank (candidate index, 0 = oldest); a
    dangling member has zeros but age_rank."""
    rings = [(tx, ring_i, ring)
             for tx in map(chain.transactions.get, chain.transfer_ids())
             for ring_i, ring in enumerate(tx.rings)]
    if not rings:
        raise EmptyChain("no rings to build candidates from")
    sizes = [len(ring) for _, _, ring in rings]
    keys = np.repeat([(tx.tx_id, ring_i, 0) for tx, ring_i, _ in rings], sizes, axis=0)
    keys[:, 2] = np.arange(len(keys)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    made_by = np.array([-1 if (t := chain.outputs[oid].created_by_tx) is None else t
                        for _, _, ring in rings for oid in ring], dtype=np.int64)
    creators = np.unique(made_by[made_by >= 0])
    # creator rows with room for delta_time and age_rank, then a zero row
    profiles = np.zeros((creators.size + 1, len(CANDIDATE_NAMES)), dtype=np.float64)
    for row, tx in zip(profiles, map(chain.transactions.get, creators.tolist())):
        row[:7] = zero_hop(tx)
    raw = profiles[np.where(made_by >= 0, np.searchsorted(creators, made_by), -1)]
    spent_at = np.repeat([tx.timestamp for tx, _, _ in rings], sizes)
    raw[:, 7] = np.where(made_by >= 0, spent_at - raw[:, 0], 0.0)
    raw[:, 8] = keys[:, 2]
    return CandidateTable(keys=keys, names=CANDIDATE_NAMES, raw=raw)


@dataclass
class RingCorrelationMatrix:
    binning: str
    bins: int
    values: np.ndarray  # NaN where support < 2 or variance vanishes
    support: np.ndarray


def ring_pair_correlation(chain: PublicChain, binning: str = "by_rank",
                          bins: int | None = None) -> RingCorrelationMatrix:
    """Correlation of member timestamps over transactions with exactly two rings.

    For each such transaction, every (i-th oldest of ring one, j-th oldest of
    ring two) pair contributes its two creating-transaction timestamps to one
    cell; by_rank bins on (i, j), by_hour_of_day on the members' hours.  Each
    cell reports the Pearson correlation of its accumulated pairs.
    """
    if binning not in ("by_rank", "by_hour_of_day"):
        raise ValueError(f"unknown binning {binning!r}")
    two_ring = [tx for _, tx in sorted(chain.transactions.items())
                if len(tx.rings) == 2]
    if not two_ring:
        raise NoTwoRingTxs("chain has no two-ring transactions")
    if bins is None:
        bins = 24 if binning == "by_hour_of_day" else max(
            max(len(r) for r in tx.rings) for tx in two_ring)

    pairs = []  # (i, j, creation times of member i of ring one and j of ring two)
    for tx in two_ring:
        known = [[(k, c.timestamp) for k, oid in enumerate(ring)
                  if (c := chain.creating_tx(oid))] for ring in tx.rings]
        pairs += [(i, j, ti, tj) for i, ti in known[0] for j, tj in known[1]]
    i, j, ti, tj = np.array(pairs, dtype=np.int64).reshape(-1, 4).T
    if binning == "by_hour_of_day":
        i, j = ti % _DAY * bins // _DAY, tj % _DAY * bins // _DAY
    keep = (i < bins) & (j < bins)
    cell = (i * bins + j)[keep]
    support = np.bincount(cell, minlength=bins * bins)
    # each cell's (x, y) pairs in the order met above
    xy = np.stack([ti, tj], axis=1)[keep][np.argsort(cell, kind="stable")]
    values = np.full(bins * bins, np.nan)
    for c, pair in enumerate(np.split(xy.astype(np.float64), np.cumsum(support)[:-1])):
        if len(pair) < 2:
            continue
        x, y = pair[:, 0], pair[:, 1]
        sx, sy = x.std(), y.std()
        if sx == 0 or sy == 0:
            # degenerate but fully aligned pairs count as perfect correlation
            values[c] = 1.0 if np.array_equal(x, y) else np.nan
            continue
        values[c] = float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))
    return RingCorrelationMatrix(binning, bins, values.reshape(bins, bins),
                                 support.reshape(bins, bins))


# File formats --------------------------------------------------------------------

@dataclass
class ColumnStats:
    """One feature column's z-normalization, as norm_stats.json lists it."""

    name: str
    mean: float
    std: float


@dataclass
class _NormStatsFile:
    format_version: int
    columns: list[ColumnStats]


def write_feature_matrix(fm: FeatureMatrix, out_dir: Path,
                         include_coverage: bool = False) -> dict[str, Path]:
    """features.csv (normalized), features_raw.csv, norm_stats.json.

    Each CSV is a `tx_id` column and the feature columns, written by
    _write_table as csv.writer writes the int ids and the float cells.
    include_coverage appends the per-row neighbor-coverage fraction as a
    trailing column outside the feature contract (partial external dumps).
    """
    out_dir = Path(out_dir)
    extra = [fm.coverage] if include_coverage and fm.coverage is not None else []
    header = ["tx_id", *fm.names] + ["coverage"] * len(extra)
    tx_ids = np.asarray(fm.tx_ids, dtype=np.int64)
    paths = {}
    for fname, mat in (("features.csv", fm.normalized), ("features_raw.csv", fm.raw)):
        paths[fname] = out_dir / fname
        _write_table(paths[fname], header, [tx_ids, *mat.T, *extra])
    paths["norm_stats.json"] = out_dir / "norm_stats.json"
    save_record(_NormStatsFile(FORMAT_VERSION, [
        ColumnStats(n, float(m), float(s))
        for n, m, s in zip(fm.names, fm.norm_means, fm.norm_stds)]),
        paths["norm_stats.json"])
    return paths


def load_csv(path: Path, keys: tuple[str, ...], names: tuple[str, ...] | None = None,
             dtype=np.float64) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Parse a CSV input file in one np.loadtxt pass, checked against its header.

    `keys` must be the leading columns, in order; `names` picks the value
    columns by header name (default: every column after the keys), so
    trailing extras such as coverage are skipped.  Every cell read parses as
    `dtype` (object keeps the text); blank lines are skipped.  A wrong
    header or an unreadable cell raises SchemaError naming the file, the line
    and the column, and so does a non-finite float (nan, inf, -inf), which
    would otherwise wipe its column in normalization.  Returns the key
    columns, the C-contiguous value matrix and the value column names.
    """
    path = Path(path)
    with path.open() as fh:
        header = next(csv.reader(fh), [])
        for i, key in enumerate(keys):
            if header[i:i + 1] != [key]:
                raise SchemaError(f"{path}: line 1: column {i + 1} must be {key!r}",
                                  field=key)
        if names is None:
            names = tuple(header[len(keys):])
        missing = [n for n in names if n not in header]
        if missing:
            raise SchemaError(f"{path}: line 1: missing column", field=missing[0])
        cols = list(range(len(keys))) + [header.index(n) for n in names]
        try:
            with warnings.catch_warnings():
                # a header-only file is the caller's to report
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", usecols=cols, ndmin=2,
                                  dtype=dtype, comments=None, quotechar='"')
        except ValueError as err:
            # np.loadtxt numbers rows without blank lines; find the file line
            raise (_bad_cell(path, header, cols, dtype)
                   or SchemaError(f"{path}: {err}")) from None
    if data.dtype.kind == "f" and not np.isfinite(data).all():
        raise _bad_cell(path, header, cols, dtype)
    return data[:, :len(keys)], np.ascontiguousarray(data[:, len(keys):]), names


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _bad_cell(path: Path, header: list[str], cols: list[int], dtype) -> SchemaError | None:
    """The error for the first cell in `cols` that does not parse as `dtype`
    (a finite value, for floats)."""
    parse = {"f": _finite, "i": int}.get(np.dtype(dtype).kind, str)
    with path.open() as fh:
        rows = csv.reader(fh)
        next(rows)
        for row in filter(None, rows):  # blank lines hold no cells
            for c in cols:
                try:
                    parse(row[c])
                except (IndexError, ValueError):
                    finite = "a finite " if parse is _finite else ""
                    problem = (f"{row[c]!r} is not {finite}{np.dtype(dtype).name}"
                               if c < len(row) else "no value")
                    return SchemaError(f"{path}: line {rows.line_num}: {problem}",
                                       field=header[c])
    return None


def read_feature_matrix(out_dir: Path) -> FeatureMatrix:
    """features_raw.csv, with the column names of norm_stats.json."""
    out_dir = Path(out_dir)
    stats = load_record(_NormStatsFile, out_dir / "norm_stats.json")
    names = tuple(c.name for c in stats.columns)
    ids, raw, _ = load_csv(out_dir / "features_raw.csv", ("tx_id",), names)
    return FeatureMatrix(tx_ids=ids[:, 0].astype(np.int64).tolist(), names=names,
                         raw=raw)


def write_candidates(table: CandidateTable, path: Path) -> None:
    _write_table(Path(path), ["tx_id", "ring_index", "candidate_index", *table.names],
                 [*table.keys.T, *table.raw.T])


_CHUNK_CELLS = 2**18  # cells formatted per write: bounds the text held at once


def _write_table(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """A CSV of int64 and float64 columns, as csv.writer writes the header
    and Python ints and floats: each cell its value's repr, comma-separated,
    CRLF-ended.

    Rows go out in chunks of about _CHUNK_CELLS cells, so the text held at
    once does not grow with the file.  Within a chunk each distinct value of
    a column is formatted once; values are told apart by their bits, since
    0.0 and -0.0 are equal but print differently.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    step = max(1, _CHUNK_CELLS // len(columns))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), step):
            texts = []
            for col in columns:
                distinct, cell = np.unique(col[start:start + step].view(np.int64),
                                           return_inverse=True)
                text = np.array(list(map(repr, distinct.view(col.dtype).tolist())),
                                dtype=object)
                texts.append(text[cell].tolist())
            fh.write("".join(",".join(row) + "\r\n" for row in zip(*texts)))


def read_candidates(path: Path) -> CandidateTable:
    keys, raw, names = load_csv(path, ("tx_id", "ring_index", "candidate_index"))
    try:
        return CandidateTable(keys=keys, names=names, raw=raw)
    except SchemaError as err:
        raise SchemaError(f"{path}: {err}") from None


def write_correlation(mat: RingCorrelationMatrix, path: Path) -> None:
    dump_csv(["bin_i", "bin_j", "value", "support"],
             ([i, j, "" if np.isnan(v) else float(v), int(n)] for (i, j), v, n
              in zip(np.ndindex(mat.bins, mat.bins), mat.values.flat, mat.support.flat)),
             path)
