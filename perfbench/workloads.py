"""The four workloads: their inputs, the timed pass, and the output checks.

A workload is a set-up (steps that build its inputs from the seed), a pass
(the steps timed as one operation) and a check of the pass's outputs.  Each
check compares against a computation made here, apart from the program, or
against a property the method must have; none compares against stored
output.  `Ctx.transfers` shrinks every economy for the self-test; the
published-scale constants are checked only at full size.
"""

import csv
import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# `--folds` of train and ingest (the CLI default); forest sizes: steps.py
FOLDS = 5
JOBS = 2
# the explorer window starts at this fraction of the s05 chain's blocks
INGEST_CUT = 0.1
# the agent whose transfers play the leaked exchange hashes
INGEST_AGENT = 1

S05_TRANSFERS = 4923
S05_BLOCKS = 41_583
SECRET_KEYS = {"owner", "amount", "real_index", "sender", "receiver",
               "intended_amount", "spent_by"}


@dataclass(frozen=True)
class Ctx:
    seed: int
    work: Path  # set-up outputs
    transfers: int | None = None  # None: the preset's own transfer count


Step = tuple[str, dict]


class Workload(NamedTuple):
    setup: Callable[[Ctx], list[Step]]
    run: Callable[[Ctx, Path], list[Step]]
    check: Callable[[Ctx, Path], tuple[list[str], dict]]


def _cli(*argv) -> Step:
    return ("cli", {"argv": [str(a) for a in argv]})


def _generate(ctx: Ctx, scenario: str) -> Step:
    return ("generate", {"scenario": scenario, "seed": ctx.seed,
                         "out": str(ctx.work / "gen"), "transfers": ctx.transfers})


def _simulate(ctx: Ctx, out: Path) -> Step:
    return _cli("simulate", "--economy", ctx.work / "gen" / "economy.json", "--out", out)


def _gen_sim(ctx: Ctx, scenario: str) -> list[Step]:
    return [_generate(ctx, scenario), _simulate(ctx, ctx.work / "sim")]


def _load(path: Path):
    return json.loads(path.read_text())


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


# simulate-s05 --------------------------------------------------------------------

def _check_simulation(ctx: Ctx, out: Path) -> tuple[list[str], dict]:
    errors = []
    economy = _load(ctx.work / "gen" / "economy.json")["spec"]
    chain = _load(out / "chain.json")
    transfers = [t for t in chain["transactions"] if t["kind"] == "transfer"]
    blocks = len(chain["blocks"])
    want = S05_TRANSFERS if ctx.transfers is None else ctx.transfers
    if len(transfers) != want:
        errors.append(f"{len(transfers)} transfers, expected {want}")
    if ctx.transfers is None and abs(blocks - S05_BLOCKS) > 0.2 * S05_BLOCKS:
        errors.append(f"{blocks} blocks, not within 20% of {S05_BLOCKS}")

    unspent = sum(o["amount"] for o in chain["outputs"] if o["spent_by"] is None)
    supply = economy["sim"]["block_reward"] * blocks
    if unspent != supply:
        errors.append(f"unspent amounts sum to {unspent}, supply is {supply}")

    height = {o["output_id"]: o["block_height"] for o in chain["outputs"]}
    ring_size = economy["ring_size"]
    bad_rings = sum(
        1 for tx in transfers for ring in tx["inputs"]
        if len(set(ring["members"])) != ring_size or len(ring["members"]) != ring_size
        or any(height[m] >= tx["block_height"] for m in ring["members"]))
    if bad_rings:
        errors.append(f"{bad_rings} rings lack {ring_size} distinct earlier members")

    leaked = _keys(_load(out / "public_chain.json")) & SECRET_KEYS
    if leaked:
        errors.append(f"public_chain.json carries secret keys {sorted(leaked)}")
    return errors, {"blocks": blocks, "transfers": len(transfers)}


def _keys(obj) -> set[str]:
    if isinstance(obj, dict):
        return set(obj).union(*(_keys(v) for v in obj.values()))
    if isinstance(obj, list):
        return set().union(*(_keys(v) for v in obj))
    return set()


SIMULATE = Workload(
    setup=lambda ctx: [_generate(ctx, "s05")],
    run=lambda ctx, out: [_simulate(ctx, out)],
    check=_check_simulation,
)


# spoof-s03 -----------------------------------------------------------------------

def _naive_features(tx: dict, txs: dict, creator: dict) -> list[float]:
    """Zero-hop plus one-hop features of one transfer, in plain Python."""
    def zero_hop(t: dict) -> list[float]:
        ts, rings = t["timestamp"], t["rings"]
        size = sum(len(r) for r in rings) / len(rings) if rings else 0.0
        return [ts, len(rings), size, ts // 86_400 % 7, ts % 86_400 // 3600,
                ts % 3600 // 60, ts % 60]

    def ring_stats(col: list[float]) -> list[float]:
        mean = sum(col) / len(col)
        std = math.sqrt(sum((x - mean) ** 2 for x in col) / len(col))
        return [min(col), max(col), mean, std, sum(col)]

    per_ring = []  # per ring: [feature][ring stat]
    for ring in tx["rings"]:
        vecs = [zero_hop(txs[creator[oid]]) for oid in ring]
        per_ring.append([ring_stats([v[f] for v in vecs]) for f in range(7)])
    one_hop = []
    for f in range(7):
        for s in range(5):
            col = [r[f][s] for r in per_ring]
            one_hop += [min(col), max(col), sum(col) / len(col),
                        statistics.median(col), sum(col)]
    return zero_hop(tx) + one_hop


def _check_spoof(ctx: Ctx, out: Path) -> tuple[list[str], dict]:
    errors = []
    sizes: dict[tuple[str, str], int] = {}
    with (out / "fx" / "candidates.csv").open() as fh:
        next(fh)
        for line in fh:
            tx_id, ring, cand, _ = line.split(",", 3)
            if int(cand) != sizes.get((tx_id, ring), 0):
                errors.append(f"ring {tx_id}/{ring} candidates out of order")
                break
            sizes[(tx_id, ring)] = int(cand) + 1
    if set(sizes.values()) != {11}:
        errors.append(f"candidates per ring {sorted(set(sizes.values()))}, expected 11")

    report = _load(out / "spoof" / "report.json")
    top1 = report["summary"]["top1"]["mean"]
    n_rings = report["extras"]["n_rings"]
    if n_rings != len(sizes):
        errors.append(f"report covers {n_rings} rings, candidates {len(sizes)}")
    if not math.isclose(report["baseline"]["top1"], 1 / 11, rel_tol=1e-12):
        errors.append(f"baseline_top1 {report['baseline']['top1']} != 1/11")
    # twice chance, at full size only: on the self-test's tiny economies the
    # 2-tree forest is not significantly above chance
    lower = top1 - 1.96 * math.sqrt(top1 * (1 - top1) / n_rings)
    if ctx.transfers is None and lower < 2 / 11:
        errors.append(f"top1 {top1:.4f} lower 95% bound {lower:.4f} < 2/11")

    pub = _load(ctx.work / "sim" / "public_chain.json")
    txs = {t["tx_id"]: t for t in pub["transactions"]}
    creator = {o["output_id"]: o["created_by_tx"] for o in pub["outputs"]}
    _, rows = _read_rows(out / "fx" / "features_raw.csv")
    sample = random.Random(ctx.seed).sample(rows, min(40, len(rows)))
    off = sum(
        1 for row in sample
        for got, want in zip(map(float, row[1:]),
                             _naive_features(txs[int(row[0])], txs, creator))
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6))
    if off:
        errors.append(f"{off} sampled features_raw.csv values disagree with a "
                      "plain-Python one-hop recomputation")

    raw = np.loadtxt(out / "fx" / "features_raw.csv", delimiter=",", skiprows=1)[:, 1:]
    norm = np.loadtxt(out / "fx" / "features.csv", delimiter=",", skiprows=1)[:, 1:]
    live = raw.max(axis=0) > raw.min(axis=0)
    if (np.abs(norm.mean(axis=0)).max() > 1e-9
            or np.abs(norm[:, live].std(axis=0) - 1).max() > 1e-9
            or np.abs(norm[:, ~live]).max(initial=0) > 0):
        errors.append("normalized columns are not mean 0 / std 1")
    return errors, {"spoof_top1": top1, "spoof_top1_lower95": lower}


SPOOF = Workload(
    setup=lambda ctx: _gen_sim(ctx, "s03"),
    run=lambda ctx, out: [
        _cli("featurize", "--chain", ctx.work / "sim" / "public_chain.json",
             "--out", out / "fx", "--jobs", JOBS),
        _cli("train", "--task", "spoof", "--features", out / "fx",
             "--real-inputs", ctx.work / "sim" / "real_inputs.csv", "--folds", FOLDS,
             "--seed", ctx.seed, "--jobs", JOBS, "--out", out / "spoof")],
    check=_check_spoof,
)


# value-s03 -----------------------------------------------------------------------

def _check_value(ctx: Ctx, out: Path) -> tuple[list[str], dict]:
    from ringtrace.ml.crossval import contiguous_shuffle_folds

    errors = []
    report = _load(out / "report.json")
    r2 = report["summary"]["r2"]["mean"]
    if r2 > 0.1:
        errors.append(f"mean r2 {r2:.4f} > 0.1: the negative result does not hold")
    if report["baseline"]["r2_train"] != 0:
        errors.append(f"baseline_train_r2 {report['baseline']['r2_train']} != 0")
    _, rows = _read_rows(out / "importance.csv")
    weights = [float(r[2]) for r in rows]
    if min(weights) < 0 or not math.isclose(sum(weights), 1.0, rel_tol=1e-9):
        errors.append(f"importances min {min(weights)} sum {sum(weights)}")

    _, rows = _read_rows(ctx.work / "fx" / "features_raw.csv")
    n = len(rows)
    folds = contiguous_shuffle_folds(n, FOLDS, ctx.seed)
    joined = np.sort(np.concatenate(folds))
    if (not np.array_equal(joined, np.arange(n))
            or [f.size for f in folds] != [f["n_test"] for f in report["folds"]]
            or any(f["n_train"] + f["n_test"] != n for f in report["folds"])):
        errors.append("value test folds do not partition the rows")
    return errors, {"value_r2": r2}


VALUE = Workload(
    setup=lambda ctx: _gen_sim(ctx, "s03") + [("featurize_matrix", {
        "chain": str(ctx.work / "sim" / "public_chain.json"),
        "out": str(ctx.work / "fx")})],
    run=lambda ctx, out: [_cli(
        "train", "--task", "value", "--features", ctx.work / "fx",
        "--labels", ctx.work / "sim" / "labels.csv", "--folds", FOLDS,
        "--seed", ctx.seed, "--out", out)],
    check=_check_value,
)


# ingest-s05 ----------------------------------------------------------------------

def _check_ingest(ctx: Ctx, out: Path) -> tuple[list[str], dict]:
    from ringtrace import features, ledger

    errors = []
    report = _load(out / "report.json")
    pub = _load(ctx.work / "sim" / "public_chain.json")
    cut = int(len(pub["blocks"]) * INGEST_CUT)
    window = [t for t in pub["transactions"] if t["block_height"] >= cut]
    height = {o["output_id"]: o["block_height"] for o in pub["outputs"]}
    before = sum(1 for t in window for ring in t["rings"] for m in ring
                 if height[m] < cut)
    if report["extras"]["dangling_references"] != before:
        errors.append(f"{report['extras']['dangling_references']} dangling references,"
                      f" {before} members were created before the window")

    _, labels = _read_rows(ctx.work / "labels.csv")
    rate = len(labels) / len(window)
    if not math.isclose(report["extras"]["positive_rate"], rate, rel_tol=1e-12):
        errors.append(f"positive_rate {report['extras']['positive_rate']} != {rate}")

    native = ledger.load_public_chain(ctx.work / "sim" / "public_chain.json")
    raw = np.loadtxt(out / "features_raw.csv", delimiter=",", skiprows=1)
    full = raw[raw[:, -1] == 1.0]
    if not 0 < len(full) < len(raw):
        errors.append(f"{len(full)} of {len(raw)} rows have full coverage")
    mismatched = 0
    for row in full:
        tx = native.transactions[window[int(row[0])]["tx_id"]]
        want = np.concatenate([features.zero_hop(tx), features.one_hop(tx, native)])
        mismatched += not np.array_equal(row[1:-1], want)
    if mismatched:
        errors.append(f"{mismatched} full-coverage rows differ from native features")
    recall = report["summary"]["recall"]["1"]["mean"]
    return errors, {"ingest_recall": recall, "full_coverage_rows": len(full),
                    "rows": len(raw)}


INGEST = Workload(
    setup=lambda ctx: _gen_sim(ctx, "s05") + [("export_window", {
        "chain": str(ctx.work / "sim" / "public_chain.json"), "cut_fraction": INGEST_CUT,
        "agent": INGEST_AGENT, "dump": str(ctx.work / "dump.json"),
        "labels": str(ctx.work / "labels.csv"),
        "ground_truth_labels": str(ctx.work / "sim" / "labels.csv")})],
    run=lambda ctx, out: [_cli(
        "ingest", "--dump", ctx.work / "dump.json", "--labels", ctx.work / "labels.csv",
        "--folds", FOLDS, "--seed", ctx.seed, "--out", out)],
    check=_check_ingest,
)

WORKLOADS = {
    "spoof-s03": SPOOF,
    "simulate-s05": SIMULATE,
    "value-s03": VALUE,
    "ingest-s05": INGEST,
}
