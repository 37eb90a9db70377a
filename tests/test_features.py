"""Featurization against independent oracles."""

import csv
import dataclasses
import datetime
import io
import statistics
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ringtrace import features
from ringtrace.economy import gen_economy, run_simulation
from ringtrace.errors import EmptyChain, NoRings, NoTwoRingTxs, SchemaError
from ringtrace.features import (
    CANDIDATE_NAMES,
    FEATURE_NAMES,
    ONE_HOP_NAMES,
    ZERO_HOP_NAMES,
    CandidateTable,
    FeatureMatrix,
    apply_normalization,
    candidate_table,
    featurize_chain,
    normalize_columns,
    one_hop,
    read_candidates,
    read_feature_matrix,
    ring_pair_correlation,
    write_candidates,
    write_feature_matrix,
    zero_hop,
)
from ringtrace.ingest import dump_to_public_chain, export_dump, parse_dump
from ringtrace.ledger import PublicChain, PublicOutput, PublicTx, public_view
from ringtrace.rng import Rng

from test_economy import small_spec


def build_public(creator_times, ring_lists, tx_times):
    """Hand-built public chain: creators own one output each, then ring txs."""
    n = len(creator_times)
    order = sorted(range(n), key=lambda i: creator_times[i])
    txs, outs = {}, {}
    for height, idx in enumerate(order):
        t = creator_times[idx]
        txs[idx] = PublicTx(tx_id=idx, timestamp=t, block_height=height,
                            rings=[], outputs=[idx], fee=0, kind="coinbase")
        outs[idx] = PublicOutput(output_id=idx, created_by_tx=idx,
                                 block_height=height, timestamp=t, is_coinbase=True)
    for k, (rings, t) in enumerate(zip(ring_lists, tx_times)):
        tx_id = n + k
        ordered = [sorted(r, key=lambda oid: (outs[oid].block_height, oid))
                   for r in rings]
        txs[tx_id] = PublicTx(tx_id=tx_id, timestamp=t, block_height=n + k,
                              rings=ordered, outputs=[], fee=1, kind="transfer")
    return PublicChain(blocks=[], transactions=txs, outputs=outs)


@pytest.fixture(scope="module")
def sim_public():
    spec = small_spec(target=150, seed=3)
    files = gen_economy(spec, Rng(spec.seed))
    chain, _ = run_simulation(files, spec)
    return public_view(chain)


@pytest.fixture(scope="module")
def window_public():
    """The later half of a dump: early ring members dangle."""
    spec = small_spec(target=60, seed=14)
    chain, _ = run_simulation(gen_economy(spec, Rng(spec.seed)), spec)
    payload = export_dump(public_view(chain))
    pub, _ = dump_to_public_chain(parse_dump(
        payload["transactions"][len(payload["transactions"]) // 2:]))
    return pub


# zero_hop --------------------------------------------------------------------


def test_zero_hop_two_rings_of_eleven():
    # 90 061 s past a Monday-midnight epoch: Tuesday 01:01:01
    chain = build_public(list(range(22)), [[list(range(11)),
                                            list(range(11, 22))]], [90_061])
    tx = chain.transactions[22]
    assert list(zero_hop(tx)) == [90_061, 2, 11, 1, 1, 1, 1]


def test_zero_hop_against_datetime_oracle():
    # epoch is Monday 1973-01-01-like; use any Monday-midnight anchored base
    base = datetime.datetime(2024, 1, 1)  # a Monday
    rng = Rng(17)
    chain = build_public([0], [], [])
    for _ in range(300):
        t = rng.randrange(40 * 86_400)
        moment = base + datetime.timedelta(seconds=t)
        tx = PublicTx(tx_id=1, timestamp=t, block_height=1, rings=[[0]],
                      outputs=[], fee=0, kind="transfer")
        vec = zero_hop(tx)
        assert vec[3] == moment.weekday()
        assert vec[4] == moment.hour
        assert vec[5] == moment.minute
        assert vec[6] == moment.second


def test_zero_hop_coinbase_zeroes():
    tx = PublicTx(tx_id=0, timestamp=0, block_height=0, rings=[], outputs=[0],
                  fee=0, kind="coinbase")
    assert list(zero_hop(tx)) == [0, 0, 0, 0, 0, 0, 0]


def test_num_rings_is_a_zero_hop_column():
    assert "num_rings" in ZERO_HOP_NAMES


# one_hop ---------------------------------------------------------------------


def naive_one_hop(tx, chain):
    """Independent double-loop recomputation with stdlib statistics."""
    ring_stats = []
    for ring in tx.rings:
        vecs = []
        for oid in ring:
            ct = chain.creating_tx(oid)
            t = ct.timestamp
            nr = len(ct.rings)
            rs = sum(len(r) for r in ct.rings) / nr if nr else 0.0
            vecs.append([float(t), float(nr), rs, float((t // 86_400) % 7),
                         float((t % 86_400) // 3600), float((t % 3600) // 60),
                         float(t % 60)])
        cols = list(zip(*vecs))
        k = len(vecs)
        stats = {}
        for f, col in enumerate(cols):
            m = sum(col) / k
            var = sum((x - m) ** 2 for x in col) / k
            stats[f] = {"min": min(col), "max": max(col), "mean": m,
                        "std": var ** 0.5, "sum": sum(col)}
        ring_stats.append(stats)
    out = []
    for f in range(7):
        for s in ("min", "max", "mean", "std", "sum"):
            vals = [rs[f][s] for rs in ring_stats]
            r = len(vals)
            out.extend([
                min(vals), max(vals), sum(vals) / r,
                statistics.median(vals), sum(vals),
            ])
    return out


def test_one_hop_single_member_ring():
    chain = build_public([100], [[[0]]], [500])
    tx = chain.transactions[1]
    vec = one_hop(tx, chain)
    member = zero_hop(chain.transactions[0])
    named = dict(zip(ONE_HOP_NAMES, vec))
    for f_i, f in enumerate(ZERO_HOP_NAMES):
        for s in ("min", "max", "mean", "sum"):
            for c in ("min", "max", "mean", "median", "sum"):
                assert named[f"cross_{c}_ring_{s}_{f}"] == member[f_i]
        for c in ("min", "max", "mean", "median", "sum"):
            assert named[f"cross_{c}_ring_std_{f}"] == 0.0


def test_two_ring_sum_of_means():
    # the "sum of average input minutes" construction
    chain = build_public([65, 125, 185, 245], [[[0, 1], [2, 3]]], [1000])
    tx = chain.transactions[4]
    named = dict(zip(ONE_HOP_NAMES, one_hop(tx, chain)))
    m1 = ((65 % 3600) // 60 + (125 % 3600) // 60) / 2
    m2 = ((185 % 3600) // 60 + (245 % 3600) // 60) / 2
    assert named["cross_sum_ring_mean_minute_of_hour"] == m1 + m2
    assert named["cross_mean_ring_mean_minute_of_hour"] == (m1 + m2) / 2


def test_one_hop_matches_naive_oracle_exactly(sim_public):
    # exact equality on a simulated chain (ring size <= 7 keeps float
    # summation order identical between numpy and the left-fold oracle)
    checked = 0
    for tx_id in sim_public.transfer_ids()[:60]:
        tx = sim_public.transactions[tx_id]
        assert list(one_hop(tx, sim_public)) == naive_one_hop(tx, sim_public)
        checked += 1
    assert checked >= 50


def test_one_hop_rejects_coinbase(sim_public):
    cb = next(tx for tx in sim_public.transactions.values() if tx.kind == "coinbase")
    with pytest.raises(NoRings):
        one_hop(cb, sim_public)


# featurize_chain -------------------------------------------------------------


def test_featurize_has_exactly_182_columns(sim_public):
    fm = featurize_chain(sim_public)
    assert len(FEATURE_NAMES) == 182
    assert fm.raw.shape[1] == 182
    assert fm.normalized.shape == fm.raw.shape
    assert len(fm.tx_ids) == len(sim_public.transfer_ids())


def test_normalization_contract(sim_public):
    fm = featurize_chain(sim_public)
    const = fm.norm_stds == 0
    nz = ~const
    assert np.all(np.abs(fm.normalized[:, nz].mean(axis=0)) < 1e-9)
    assert np.all(np.abs(fm.normalized[:, nz].std(axis=0) - 1) < 1e-9)
    assert np.all(fm.normalized[:, const] == 0)


def test_normalization_inverts(sim_public):
    fm = featurize_chain(sim_public)
    nz = fm.norm_stds > 0
    restored = fm.normalized * fm.norm_stds + fm.norm_means
    scale = np.abs(fm.raw[:, nz]).max(axis=0) + 1
    err = np.abs(restored[:, nz] - fm.raw[:, nz]) / scale
    assert err.max() < 1e-12


def test_replaced_raw_renormalizes(sim_public):
    # the normalized view follows `raw`; it is never a stale copy
    fm = featurize_chain(sim_public)
    part = dataclasses.replace(fm, raw=fm.raw[:, :7], names=fm.names[:7])
    assert np.array_equal(part.normalized, normalize_columns(fm.raw[:, :7])[0])
    assert part.norm_means.shape == part.norm_stds.shape == (7,)


def _normalize_reference(raw):
    """The normalizer as first written: a zero matrix, then the columns of
    nonzero std."""
    means = raw.mean(axis=0)
    means = means + (raw - means).mean(axis=0)
    centered = raw - means
    stds = np.sqrt((centered * centered).mean(axis=0))
    out = np.zeros_like(raw)
    nz = stds > 0
    out[:, nz] = centered[:, nz] / stds[nz]
    return out, means, stds


def _apply_reference(raw, means, stds):
    out = np.zeros_like(raw, dtype=np.float64)
    nz = stds > 0
    out[:, nz] = (raw[:, nz] - means[nz]) / stds[nz]
    return out


# few values, so most columns are constant or within an ulp or two of it
_NEAR_CONSTANT = st.sampled_from([3.7, 3.7000000000000006, 0.1, 1e16, 1e16 + 2.0,
                                  0.0, -0.0, 5e-324, -1e-300])


@settings(max_examples=150)
@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)),
              elements=_NEAR_CONSTANT | st.floats(-1e6, 1e6)))
def test_in_place_normalization_matches_the_reference_bit_for_bit(raw):
    new, reference = normalize_columns(raw), _normalize_reference(raw)
    for got, want in zip(new, reference):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # held-out rows: the fitted statistics on other values
    other = raw[::-1] * 3.0 - 1.0
    got = apply_normalization(other, new[1], new[2])
    want = _apply_reference(other, new[1], new[2])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_identical_txs_identical_rows():
    chain = build_public([10, 20, 30], [[[0, 1]], [[0, 1]]], [400, 400])
    fm = featurize_chain(chain)
    assert np.array_equal(fm.raw[0], fm.raw[1])


def test_block_order_does_not_matter(sim_public):
    fm1 = featurize_chain(sim_public)
    # permute tx order within each block of a structural copy
    shuffled = PublicChain(
        blocks=[type(b)(b.height, b.timestamp, list(reversed(b.tx_ids)))
                for b in sim_public.blocks],
        transactions=sim_public.transactions,
        outputs=sim_public.outputs,
    )
    fm2 = featurize_chain(shuffled)
    assert fm1.tx_ids == fm2.tx_ids
    assert np.array_equal(fm1.raw, fm2.raw)


def test_featurize_empty_chain():
    chain = build_public([5], [], [])
    with pytest.raises(EmptyChain):
        featurize_chain(chain)


def test_featurize_on_round_tripped_public_chain(sim_public, tmp_path):
    from ringtrace.ledger import load_public_chain, save_public_chain
    save_public_chain(sim_public, tmp_path / "public_chain.json")
    clone = load_public_chain(tmp_path / "public_chain.json")
    fm1 = featurize_chain(sim_public)
    fm2 = featurize_chain(clone)
    assert np.array_equal(fm1.raw, fm2.raw)


# candidate_table ---------------------------------------------------------------


def check_candidate_rows(pub: PublicChain, step: int = 7) -> np.ndarray:
    """Every `step`-th row of candidate_table(pub) against its member's
    creator; returns whether each sampled member dangles."""
    table = candidate_table(pub)
    delta, rank = CANDIDATE_NAMES.index("delta_time"), CANDIDATE_NAMES.index("age_rank")
    assert table.raw.shape == (len(table.keys), len(CANDIDATE_NAMES))
    assert np.array_equal(table.raw[:, rank], table.keys[:, 2])
    dangling = []
    for (tx_id, ring_i, cand), row in zip(table.keys[::step], table.raw[::step]):
        tx = pub.transactions[tx_id]
        creator = pub.creating_tx(tx.rings[ring_i][cand])
        dangling.append(creator is None)
        if creator is None:
            want, spent = np.zeros(len(FEATURE_NAMES)), 0
        else:
            want = np.concatenate([zero_hop(creator), one_hop(creator, pub)
                                   if creator.rings else np.zeros(len(ONE_HOP_NAMES))])
            spent = tx.timestamp - creator.timestamp
            assert spent > 0
        assert row[delta] == spent
        assert np.array_equal(np.delete(row, [delta, rank]), want)
    return np.array(dangling)


def test_candidate_rows_one_per_member(sim_public):
    n_members = sum(len(ring) for t in sim_public.transfer_ids()
                    for ring in sim_public.transactions[t].rings)
    assert len(candidate_table(sim_public).keys) == n_members
    assert not check_candidate_rows(sim_public).any()


def test_candidate_rows_of_dump_window_with_dangling_members(window_public):
    dangling = check_candidate_rows(window_public, step=1)
    assert dangling.any() and not dangling.all()


@settings(max_examples=8)
@given(st.randoms(use_true_random=False))
def test_candidate_table_ignores_storage_order(sim_public, rnd):
    txs, outs = list(sim_public.transactions.items()), list(sim_public.outputs.items())
    rnd.shuffle(txs)
    rnd.shuffle(outs)
    shuffled = PublicChain(blocks=sim_public.blocks, transactions=dict(txs),
                           outputs=dict(outs))
    a, b = candidate_table(sim_public), candidate_table(shuffled)
    assert a.keys.tobytes() == b.keys.tobytes() and a.raw.tobytes() == b.raw.tobytes()


def test_candidate_table_rejects_rings_out_of_order():
    ok = [(5, 0, 0), (5, 0, 1), (5, 1, 0), (6, 0, 0)]
    CandidateTable(keys=ok, names=("x",), raw=np.zeros((4, 1)))
    for keys, where in (
            ([(5, 0, 1), (5, 0, 0), (5, 1, 0), (6, 0, 0)], "tx_id 5 ring 0"),
            ([(5, 0, 0), (5, 1, 1), (5, 1, 0), (6, 0, 0)], "tx_id 5 ring 1"),
            ([(5, 0, 0), (5, 0, 1), (5, 0, 0), (6, 0, 0)], "tx_id 5 ring 0"),
            ([(5, 0, 0), (5, 1, 0), (5, 0, 0), (6, 0, 0)], "tx_id 5 ring 0"),
            ([(5, 0, 0), (5, 0, 1), (5, 1, 0), (6, 0, 2)], "tx_id 6 ring 0")):
        with pytest.raises(SchemaError, match=where) as err:
            CandidateTable(keys=keys, names=("x",), raw=np.zeros((4, 1)))
        assert err.value.field == "candidate_index"


def test_candidate_table_covers_every_ring(sim_public):
    table = candidate_table(sim_public)
    n_rings = sum(len(sim_public.transactions[t].rings)
                  for t in sim_public.transfer_ids())
    ring_keys = {(k[0], k[1]) for k in table.keys}
    assert len(ring_keys) == n_rings
    assert table.raw.shape[0] == len(table.keys)


# ring_pair_correlation ---------------------------------------------------------


def test_identical_timestamps_give_unit_diagonal():
    rng = Rng(5)
    creators, rings, times = [], [], []
    oid = 0
    for k in range(50):
        t = 1000 * (k + 1)
        ids = []
        for _ in range(3):  # shared timestamps across both rings
            creators.append(t)
            ids.append(oid)
            oid += 1
        rings.append([ids, list(ids)])
        times.append(t + 500)
    chain = build_public(creators, rings, times)
    mat = ring_pair_correlation(chain, binning="by_rank", bins=3)
    for i in range(3):
        assert mat.support[i, i] == 50
        assert mat.values[i, i] == pytest.approx(1.0)


def test_low_support_cells_are_missing():
    chain = build_public([10, 20], [[[0], [1]]], [100])
    mat = ring_pair_correlation(chain, binning="by_rank", bins=1)
    assert mat.support[0, 0] == 1
    assert np.isnan(mat.values[0, 0])


def test_null_hypothesis_monte_carlo():
    # independent uniform creator timestamps: every cell's correlation ~ 0
    rng = Rng(99)
    n_txs = 10_000
    creators, rings, times = [], [], []
    oid = 0
    for _ in range(n_txs):
        r1, r2 = [], []
        for ring in (r1, r2):
            for _ in range(3):
                creators.append(rng.randrange(30 * 86_400))
                ring.append(oid)
                oid += 1
        rings.append([r1, r2])
        times.append(31 * 86_400)
    chain = build_public(creators, rings, times)
    mat = ring_pair_correlation(chain, binning="by_rank", bins=3)
    assert mat.support.min() == n_txs
    assert np.nanmax(np.abs(mat.values)) < 0.05
    hours = ring_pair_correlation(chain, binning="by_hour_of_day", bins=4)
    assert np.nanmax(np.abs(hours.values)) < 0.05


@pytest.mark.parametrize("chain_name, binning, bins", [
    ("sim_public", "by_rank", None), ("sim_public", "by_rank", 4),
    ("sim_public", "by_hour_of_day", 6), ("window_public", "by_hour_of_day", 24),
])
def test_ring_pair_correlation_matches_pair_loop(request, chain_name, binning, bins):
    chain = request.getfixturevalue(chain_name)
    mat = ring_pair_correlation(chain, binning=binning, bins=bins)
    cells = {}
    for _, tx in sorted(chain.transactions.items()):
        if len(tx.rings) != 2:
            continue
        for i, a in enumerate(map(chain.creating_tx, tx.rings[0])):
            for j, b in enumerate(map(chain.creating_tx, tx.rings[1])):
                if a is None or b is None:
                    continue
                key = (i, j) if binning == "by_rank" else tuple(
                    t % 86_400 * mat.bins // 86_400 for t in (a.timestamp, b.timestamp))
                if max(key) < mat.bins:
                    cells.setdefault(key, []).append((a.timestamp, b.timestamp))
    assert mat.support.sum() == sum(len(p) for p in cells.values())
    for (i, j), pairs in cells.items():
        assert mat.support[i, j] == len(pairs)
        x, y = zip(*pairs)
        if len(pairs) > 1 and len(set(x)) > 1 and len(set(y)) > 1:
            assert mat.values[i, j] == pytest.approx(statistics.correlation(x, y),
                                                     rel=1e-9, abs=1e-12)


def test_no_two_ring_txs():
    chain = build_public([10, 20], [[[0, 1]]], [100])
    with pytest.raises(NoTwoRingTxs):
        ring_pair_correlation(chain)


# file round trips ----------------------------------------------------------------


def test_feature_files_round_trip_bit_identical(sim_public, tmp_path):
    fm = featurize_chain(sim_public)
    write_feature_matrix(fm, tmp_path, include_coverage=True)
    back = read_feature_matrix(tmp_path)  # skips the trailing coverage column
    assert back.tx_ids == fm.tx_ids and back.names == fm.names
    assert np.array_equal(back.raw, fm.raw)
    assert np.array_equal(back.normalized, fm.normalized)
    table = candidate_table(sim_public)
    write_candidates(table, tmp_path / "candidates.csv")
    back = read_candidates(tmp_path / "candidates.csv")
    assert np.array_equal(back.keys, table.keys) and back.names == table.names
    assert np.array_equal(back.raw, table.raw)


def _reference_csv(header: list[str], rows) -> bytes:
    """The file csv.writer writes for the header and rows of Python values."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _reference_candidates_csv(table: CandidateTable) -> bytes:
    """candidates.csv as csv.writer writes the key ints and the raw floats."""
    return _reference_csv(["tx_id", "ring_index", "candidate_index"] + list(table.names),
                          (key + [float(v) for v in row]
                           for key, row in zip(table.keys.tolist(), table.raw)))


def _reference_feature_csvs(fm: FeatureMatrix, include_coverage: bool) -> dict[str, bytes]:
    """features.csv and features_raw.csv as csv.writer writes the tx_id ints,
    the feature floats and, with include_coverage, the coverage floats."""
    header = ["tx_id"] + list(fm.names) + (["coverage"] if include_coverage else [])
    extra = [[float(c)] if include_coverage else [] for c in fm.coverage]
    return {fname: _reference_csv(header, ([t] + [float(v) for v in row] + more
                                           for t, row, more in zip(fm.tx_ids, mat, extra)))
            for fname, mat in (("features.csv", fm.normalized), ("features_raw.csv", fm.raw))}


def _candidates_bytes(table: CandidateTable) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        write_candidates(table, Path(tmp) / "candidates.csv")
        return (Path(tmp) / "candidates.csv").read_bytes()


def _feature_bytes(fm: FeatureMatrix, include_coverage: bool) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        write_feature_matrix(fm, Path(tmp), include_coverage=include_coverage)
        return {f: (Path(tmp) / f).read_bytes() for f in ("features.csv", "features_raw.csv")}


def _ring_keys(rows: int, ring_size: int, first_tx: int, tx_step: int) -> np.ndarray:
    i = np.arange(rows)
    return np.column_stack([first_tx + i // ring_size * tx_step,
                            np.zeros(rows, dtype=np.int64), i % ring_size])


_TRICKY = st.sampled_from([0.0, -0.0, 1e-05, 1e16, 5e-324, -5e-324, 0.1, 1.0,
                           2.0**63, 123456789012345678.0, -2.5])
_CELLS = (_TRICKY | st.floats(allow_nan=False, allow_infinity=False)
          | st.integers(-10**18, 10**18).map(float))


def _with_both_zeros(raw: np.ndarray) -> np.ndarray:
    # both zeros in one column: equal floats that print differently
    return np.vstack([raw, np.zeros(raw.shape[1]), np.full(raw.shape[1], -0.0)])


@settings(max_examples=100)
@given(arrays(np.float64, st.tuples(st.integers(0, 15), st.integers(1, 5)), elements=_CELLS),
       st.integers(1, 4), st.integers(0, 2**62), st.integers(1, 2**20))
def test_candidates_writer_matches_csv_writer(raw, ring_size, first_tx, tx_step):
    raw = _with_both_zeros(raw)
    keys = _ring_keys(raw.shape[0], ring_size, first_tx, tx_step)
    table = CandidateTable(keys, tuple(f"c{j}" for j in range(raw.shape[1])), raw)
    assert _candidates_bytes(table) == _reference_candidates_csv(table)


@settings(max_examples=100)
@given(arrays(np.float64, st.tuples(st.integers(0, 15), st.integers(1, 5)), elements=_CELLS),
       st.data(), st.integers(0, 2**62), st.integers(1, 2**20), st.booleans())
def test_feature_writer_matches_csv_writer(raw, data, first_tx, tx_step, include_coverage):
    raw = _with_both_zeros(raw)
    rows = raw.shape[0]
    coverage = data.draw(arrays(np.float64, rows, elements=_CELLS))
    fm = FeatureMatrix(tx_ids=[first_tx + i * tx_step for i in range(rows)],
                       names=tuple(f"f{j}" for j in range(raw.shape[1])), raw=raw,
                       coverage=coverage)
    with np.errstate(all="ignore"):  # huge cells may overflow the normalization
        assert _feature_bytes(fm, include_coverage) == \
            _reference_feature_csvs(fm, include_coverage)


def _tricky_rows(real: np.ndarray) -> np.ndarray:
    """Rows of a real matrix between rows of tricky cells."""
    rng = np.random.default_rng(15)
    tricky = rng.choice([0.0, -0.0, 1e-05, 1e16, 5e-324, 0.1], size=(4000, real.shape[1]))
    return np.vstack([tricky, real, tricky[::-1], real])


def test_candidates_writer_across_row_chunks(sim_public):
    raw = _tricky_rows(candidate_table(sim_public).raw)
    table = CandidateTable(_ring_keys(raw.shape[0], 11, 10**12, 3),
                           CANDIDATE_NAMES, raw)
    assert raw.shape[0] > 2 * features._CHUNK_CELLS // (3 + raw.shape[1])
    assert _candidates_bytes(table) == _reference_candidates_csv(table)


@pytest.mark.parametrize("include_coverage", [False, True])
def test_feature_writer_across_row_chunks(sim_public, include_coverage):
    fm = featurize_chain(sim_public)
    raw = _tricky_rows(fm.raw)
    rng = np.random.default_rng(16)
    fm = FeatureMatrix(tx_ids=list(range(10**12, 10**12 + 3 * raw.shape[0], 3)),
                       names=fm.names, raw=raw,
                       coverage=rng.choice([0.0, 0.25, 1 / 3, 1.0], size=raw.shape[0]))
    assert raw.shape[1] == 182
    assert raw.shape[0] > 2 * features._CHUNK_CELLS // (2 + raw.shape[1])
    assert _feature_bytes(fm, include_coverage) == _reference_feature_csvs(fm, include_coverage)


def test_table_writer_memory_is_bounded(tmp_path):
    # all-distinct cells: formatting the whole file at once held every cell
    # as a string (220 MB here); a chunk holds about 30 MB
    rng = np.random.default_rng(17)
    columns = [np.arange(12_000, dtype=np.int64), *rng.normal(size=(182, 12_000))]
    header = [f"c{j}" for j in range(len(columns))]
    tracemalloc.start()
    try:
        features._write_table(tmp_path / "table.csv", header, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6


def test_feature_csv_without_tx_id_is_schema_error(sim_public, tmp_path):
    write_feature_matrix(featurize_chain(sim_public), tmp_path)
    path = tmp_path / "features_raw.csv"
    path.write_text("id" + path.read_text()[len("tx_id"):])
    with pytest.raises(SchemaError, match="features_raw.csv") as err:
        read_feature_matrix(tmp_path)
    assert err.value.field == "tx_id"
    table = candidate_table(sim_public)
    write_candidates(table, tmp_path / "candidates.csv")
    path = tmp_path / "candidates.csv"
    path.write_text(path.read_text().replace("ring_index", "ring", 1))
    with pytest.raises(SchemaError, match="candidates.csv") as err:
        read_candidates(path)
    assert err.value.field == "ring_index"


@pytest.mark.parametrize("spelling", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, column", [("features_raw.csv", "hour_of_day"),
                                          ("candidates.csv", "member_hour_of_day")])
def test_non_finite_csv_cell_is_schema_error(sim_public, tmp_path, name, column, spelling):
    write_feature_matrix(featurize_chain(sim_public), tmp_path)
    write_candidates(candidate_table(sim_public), tmp_path / "candidates.csv")
    path = tmp_path / name
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[lines[0].rstrip("\n").split(",").index(column)] = spelling
    lines[2] = ",".join(cells)
    path.write_text("".join(lines))
    read = read_feature_matrix if name == "features_raw.csv" else read_candidates
    with pytest.raises(SchemaError, match=f"{name}: line 3: '{spelling}' is not a finite") as err:
        read(tmp_path if name == "features_raw.csv" else path)
    assert err.value.field == column
