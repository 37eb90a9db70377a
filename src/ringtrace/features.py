"""Per-transaction featurization of the public chain.

Everything here is a pure function of the adversary-visible projection: 7
intrinsic features per transaction, plus 175 aggregates over the transactions
that created its ring members (5 within-ring statistics crossed with 5
across-ring statistics for each base feature).  One gather of the ring
members' creating transactions feeds the aggregates, the row coverage and the
spoof candidates.  Feature rows never depend on storage order.
"""

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyChain, NoRings, NoTwoRingTxs, SchemaError
from .ledger import PublicChain, PublicTx
from .records import FORMAT_VERSION, _write_table, dump_csv, load_csv, load_record, save_record

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


def _member_rows(chain: PublicChain, members: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per ring member (an output id), the zero_hop row of its creating
    transaction, and whether that transaction is known; a dangling member
    of a partial dump has a zero row."""
    made_by = np.array([-1 if (t := chain.outputs[oid].created_by_tx) is None else t
                        for oid in members], dtype=np.int64)
    known = made_by >= 0
    creators = np.unique(made_by[known])
    # one row per distinct creator, then the zero row of the dangling members
    profiles = np.array([*map(zero_hop, map(chain.transactions.get, creators.tolist())),
                         np.zeros(len(ZERO_HOP_NAMES))])
    return profiles[np.where(known, np.searchsorted(creators, made_by), -1)], known


def _one_hop_rows(chain: PublicChain, txs: list[PublicTx]) -> tuple[np.ndarray, np.ndarray]:
    """one_hop's row and the coverage (known members over members) of each
    of `txs`, which all have rings.  Rings of one size reduce together, then
    transactions of one ring count: numpy sums axis 1 of (n, k, ...) in its
    order along axis 0 of (k, ...), so each row is one_hop's for it alone."""
    rings = [ring for tx in txs for ring in tx.rings]
    reduced, known = _member_rows(chain, [oid for ring in rings for oid in ring])
    for sizes, stats in (([len(r) for r in rings], RING_STATS),
                         ([len(tx.rings) for tx in txs], CROSS_STATS)):
        sizes = np.array(sizes, dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        out = np.empty((len(sizes), len(stats), *reduced.shape[1:]), dtype=np.float64)
        for size in np.unique(sizes):
            which = np.flatnonzero(sizes == size)
            group = reduced[starts[which, None] + np.arange(size)]
            for s, name in enumerate(stats):
                out[which, s] = getattr(np, name)(group, axis=1)
        reduced = out
    members = np.array([sum(map(len, tx.rings)) for tx in txs], dtype=np.int64)
    known_members = np.add.reduceat(known, np.cumsum(members) - members, dtype=np.int64)
    # (tx, cross stat, ring stat, feature) -> ONE_HOP_NAMES order
    return (reduced.transpose(0, 3, 2, 1).reshape(len(txs), len(ONE_HOP_NAMES)),
            known_members / members)


def one_hop(tx: PublicTx, chain: PublicChain) -> np.ndarray:
    """175 aggregates over the ring members' creating transactions.

    Within each ring the members' zero-hop vectors reduce with
    min/max/mean/std/sum (population std); the per-ring values then reduce
    across rings with min/max/mean/median/sum.  Output order is (base
    feature, ring stat, cross stat), matching ONE_HOP_NAMES.
    """
    if not tx.rings:
        raise NoRings(f"tx {tx.tx_id} has no ring inputs")
    return _one_hop_rows(chain, [tx])[0][0]


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


def featurize_chain(chain: PublicChain) -> FeatureMatrix:
    """Full 182-column matrix and ring coverage of the transfer rows, ordered
    by tx_id; a transfer without rings zero-fills its one-hop block and has
    coverage 1.  Rows are pure per-transaction functions."""
    tx_ids = chain.transfer_ids()
    if not tx_ids:
        raise EmptyChain("no transactions to featurize")

    txs = list(map(chain.transactions.get, tx_ids))
    raw = np.zeros((len(txs), N_FEATURES), dtype=np.float64)
    raw[:, :7] = [zero_hop(tx) for tx in txs]
    cov = np.ones(len(txs))
    ringed = np.flatnonzero([bool(tx.rings) for tx in txs])
    raw[ringed, 7:], cov[ringed] = _one_hop_rows(chain, [txs[i] for i in ringed])
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
    rows, known = _member_rows(chain, [oid for _, _, ring in rings for oid in ring])
    spent_at = np.repeat([tx.timestamp for tx, _, _ in rings], sizes)
    raw = np.column_stack([rows, np.where(known, spent_at - rows[:, 0], 0.0), keys[:, 2]])
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
