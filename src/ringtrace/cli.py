"""Command-line entry point: generate -> simulate -> featurize -> train.

Every command writes a manifest.json capturing its parameters (the output
directory itself is implied), so a run can be reproduced byte-identically by
re-invoking with the recorded arguments.  Anticipated failures exit 2 with a
machine-readable JSON object on stderr; validation findings exit 1.
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import economy as econ
from . import features as feats
from . import ingest as ing
from . import ledger
from .errors import DegenerateLabels, InvalidSimParams, ModeRequiresSecrets, RingtraceError
from .ml import ModelSpec, SearchSpec, group_task, save_report, spoof_task, value_task
from .rng import Rng

FORMAT_VERSION = 1

TASK_DEFAULTS = {
    ("spoof", "forest"): {"n_trees": 24, "max_depth": 14, "max_features": 0.15,
                          "min_samples_split": 12},
    ("group", "forest"): {"n_trees": 60, "max_depth": 12},
    ("value", "forest"): {"n_trees": 60, "max_depth": 12},
    ("external", "forest"): {"n_trees": 60, "max_depth": 12},
    ("spoof", "mlp"): {"epochs": 60},
    ("group", "mlp"): {"epochs": 120},
    ("value", "mlp"): {"epochs": 150},
    ("external", "mlp"): {"epochs": 120},
}


BUDGET_HELP = ("search trials: trial 0 is the task defaults, then BUDGET-1 "
               "random draws around them; trials.csv logs every trial")


class CliError(RingtraceError):
    """Anticipated command failure; maps to exit code 2."""


def _write_manifest(out_dir: Path, command: str, parameters: dict) -> None:
    ledger.dump_json({"format_version": FORMAT_VERSION, "command": command,
                      "parameters": parameters}, out_dir / "manifest.json")


def _require_file(path: str | None, what: str) -> Path:
    if path is None:
        raise CliError(f"{what} not given")
    p = Path(path)
    if not p.is_file():
        raise CliError(f"{what} not found: {path}")
    return p


def _model_spec(task: str, model: str, jobs: int = 1) -> ModelSpec:
    params = dict(TASK_DEFAULTS.get((task, model), {}))
    ml_task = "regress" if task == "value" else "classify"
    if model == "linear" and ml_task != "regress":
        raise CliError("linear model supports only the value task")
    class_weight = "balanced" if task in ("spoof", "external") else None
    return ModelSpec(model, ml_task, params, class_weight, jobs=jobs)


# Commands -------------------------------------------------------------------


def cmd_generate(args) -> int:
    spec = econ.scenario_preset(args.scenario, seed=args.seed)
    files = econ.gen_economy(spec, Rng(args.seed))
    out = Path(args.out)
    econ.save_economy(spec, files, out / "economy.json")
    _write_manifest(out, "generate",
                    {"scenario": args.scenario, "seed": args.seed})
    print(f"wrote {out / 'economy.json'}")
    return 0


def cmd_simulate(args) -> int:
    path = _require_file(args.economy, "economy file")
    spec, files = econ.load_economy(path)
    params = spec.sim
    if args.block_interval is not None:
        if args.block_interval < 1:
            raise InvalidSimParams("--block-interval: block_interval must be >= 1, "
                                   f"got {args.block_interval}")
        params.block_interval = args.block_interval
    if args.processing_delay is not None:
        params.processing_delay = args.processing_delay
    try:
        chain, gt = econ.run_simulation(files, spec)
    except InvalidSimParams as err:
        # every other setting comes from the economy file
        raise InvalidSimParams(f"{path}: {err}") from None
    report = ledger.validate_chain(chain)
    out = Path(args.out)
    ledger.save_chain(chain, out / "chain.json")
    ledger.save_public_chain(ledger.public_view(chain), out / "public_chain.json")
    econ.export_ground_truth(gt, out)
    _write_manifest(out, "simulate", {
        "economy": str(args.economy),
        "block_interval": params.block_interval,
        "processing_delay": params.processing_delay,
    })
    transfers = sum(1 for t in chain.transactions.values() if t.kind == "transfer")
    print(f"blocks={len(chain.blocks)} transfers={transfers} "
          f"violations={len(report.violations)}")
    if not report.ok:
        _fail("ValidationFailed",
              f"{len(report.violations)} violations in simulated chain")
        return 1
    return 0


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {jobs}")


def cmd_featurize(args) -> int:
    if args.bins is not None and args.bins < 1:
        raise CliError("--bins must be >= 1")
    _check_jobs(args.jobs)
    path = _require_file(args.chain, "public chain")
    pub = ledger.load_public_chain(path)
    edge_modes = [m.strip() for m in args.edges.split(",") if m.strip()]
    for mode in edge_modes:
        if mode not in ("all", "true"):
            raise CliError(f"unknown edge mode {mode!r}")
    gt_chain = None
    if args.ground_truth:
        gt_chain = ledger.load_chain(_require_file(args.ground_truth,
                                                   "ground-truth chain"))
    if "true" in edge_modes and gt_chain is None:
        raise ModeRequiresSecrets("true edges need --ground-truth chain.json")

    out = Path(args.out)
    fm = feats.featurize_chain(pub, include_coinbase=args.include_coinbase)
    feats.write_feature_matrix(fm, out)
    feats.write_candidates(feats.candidate_table(pub), out / "candidates.csv")
    try:
        mat = feats.ring_pair_correlation(pub, binning=args.correlation_binning,
                                          bins=args.bins)
        feats.write_correlation(mat, out / "correlation.csv")
    except feats.NoTwoRingTxs:
        feats.write_correlation(
            feats.RingCorrelationMatrix(args.correlation_binning, 0,
                                        np.empty((0, 0)),
                                        np.empty((0, 0), dtype=np.int64)),
            out / "correlation.csv")
    for mode in edge_modes:
        source = gt_chain if mode == "true" else pub
        econ.write_edges(econ.graph_edges(source, mode),
                         out / f"edges_{mode}.csv")
    _write_manifest(out, "featurize", {
        "chain": str(args.chain),
        "ground_truth": str(args.ground_truth) if args.ground_truth else None,
        "include_coinbase": args.include_coinbase,
        "edges": edge_modes,
        "correlation_binning": args.correlation_binning,
        "bins": args.bins,
        "jobs": args.jobs,
    })
    print(f"featurized {fm.raw.shape[0]} txs x {fm.raw.shape[1]} columns")
    return 0


def _read_label_column(path: Path, column: str) -> dict[int, int]:
    ids, values, _ = feats.load_csv(path, ("tx_id",), (column,), dtype=np.int64)
    return dict(zip(ids[:, 0].tolist(), values[:, 0].tolist()))


def _labels_for(path: Path, column: str, tx_ids: list[int]) -> list[int]:
    """`column` of labels.csv in `tx_ids` order; every tx_id needs a row."""
    label_of = _read_label_column(path, column)
    missing = [t for t in tx_ids if t not in label_of]
    if missing:
        raise CliError(f"{path} has no row for tx_id {missing[0]}")
    return [label_of[t] for t in tx_ids]


def _read_real_indices(path: Path) -> dict[int, list[int]]:
    rows, _, _ = feats.load_csv(path, ("tx_id", "ring_index_within_tx", "real_index"),
                                (), dtype=np.int64)
    acc: dict[int, dict[int, int]] = {}
    for tx, ring, real in rows.tolist():
        acc.setdefault(tx, {})[ring] = real
    # a ring without a row reads -1, which spoof_task reports by its position
    return {tx: [rings.get(i, -1) for i in range(max(rings) + 1)]
            for tx, rings in acc.items()}


def cmd_train(args) -> int:
    if args.budget < 1:
        raise CliError("search budget must be >= 1")
    _check_jobs(args.jobs)
    search = SearchSpec(budget=args.budget, folds=args.folds, seed=args.seed)
    model_spec = _model_spec(args.task, args.model, jobs=args.jobs)
    out = Path(args.out)

    if args.task == "spoof":
        table = feats.read_candidates(
            _require_file(Path(args.features) / "candidates.csv", "candidates"))
        real_path = _require_file(args.real_inputs, "real inputs")
        try:
            report = spoof_task(table, _read_real_indices(real_path), model_spec,
                                search)
        except DegenerateLabels as err:
            raise DegenerateLabels(f"{real_path}: {err}") from err
    else:
        fm = feats.read_feature_matrix(Path(args.features))
        labels = _require_file(args.labels, "labels")
        if args.task == "group":
            y = np.array(_labels_for(labels, "receiver_pool", fm.tx_ids))
            report = group_task(fm, y, model_spec, search)
        else:
            y = np.array(_labels_for(labels, "value", fm.tx_ids), dtype=np.float64)
            report = value_task(fm, y, model_spec, search)

    save_report(report, out)
    _write_manifest(out, "train", {
        "task": args.task, "model": args.model, "features": str(args.features),
        "labels": str(args.labels) if args.labels else None,
        "real_inputs": str(args.real_inputs) if args.real_inputs else None,
        "budget": args.budget, "folds": args.folds, "seed": args.seed,
    })
    headline = {k: v for k, v in report.summary.items()
                if isinstance(v, dict) and "mean" in v and v["mean"] is not None}
    print(json.dumps({k: round(v["mean"], 4) for k, v in headline.items()
                      if isinstance(v.get("mean"), float)}))
    return 0


def cmd_ingest(args) -> int:
    if args.budget < 1:
        raise CliError("search budget must be >= 1")
    parsed = ing.parse_dump(_require_file(args.dump, "dump"))
    labels = ing.load_labels(_require_file(args.labels, "labels"))
    model_spec = _model_spec("external", args.model)
    search = SearchSpec(budget=args.budget, folds=args.folds, seed=args.seed)
    report, fm = ing.external_pipeline(parsed, labels, model_spec, search)
    out = Path(args.out)
    save_report(report, out)
    feats.write_feature_matrix(fm, out, include_coverage=True)
    _write_manifest(out, "ingest", {
        "dump": str(args.dump), "labels": str(args.labels),
        "model": args.model, "budget": args.budget, "folds": args.folds,
        "seed": args.seed,
    })
    rec = report.summary.get("recall", {}).get("1", {}).get("mean")
    print(json.dumps({"positive_recall": rec,
                      "positive_rate": report.extras["positive_rate"]}))
    return 0


def cmd_validate(args) -> int:
    chain = ledger.load_chain(_require_file(args.chain, "chain"))
    report = ledger.validate_chain(chain)
    payload = {"ok": report.ok,
               "violations": [asdict(v) for v in report.violations]}
    print(json.dumps(payload, sort_keys=True))
    return 0 if report.ok else 1


# Parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringtrace",
        description="Simulate ring-confidential economies and attack them",
    )
    parser.add_argument("--format-version", type=int, default=FORMAT_VERSION,
                        help="file format version (only 1 is supported)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write economy.json for a scenario")
    p.add_argument("scenario", help="one of s03, s04, s05, s06, s07")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="run an economy into a chain")
    p.add_argument("--economy", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--block-interval", type=int, default=None)
    p.add_argument("--processing-delay", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("featurize", help="featurize a public chain")
    p.add_argument("--chain", required=True, help="public_chain.json")
    p.add_argument("--out", required=True)
    p.add_argument("--ground-truth", default=None, help="chain.json for true edges")
    p.add_argument("--include-coinbase", action="store_true")
    p.add_argument("--edges", default="all", help="comma list of: all, true")
    p.add_argument("--correlation-binning", default="by_rank",
                   choices=["by_rank", "by_hour_of_day"])
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="recorded in the manifest only: featurization runs in "
                        "one process; train's --jobs sets forest worker processes")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train and evaluate one attack task")
    p.add_argument("--features", required=True,
                   help="featurize output directory")
    p.add_argument("--labels", default=None, help="labels.csv from simulate")
    p.add_argument("--real-inputs", default=None,
                   help="real_inputs.csv (spoof task)")
    p.add_argument("--task", required=True, choices=["spoof", "group", "value"])
    p.add_argument("--model", default="forest",
                   choices=["forest", "mlp", "linear"])
    p.add_argument("--budget", type=int, default=1, help=BUDGET_HELP)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="forest worker processes; never changes results")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ingest", help="external dump through the full pipeline")
    p.add_argument("--dump", required=True, help="xmr-dump.json")
    p.add_argument("--labels", required=True, help="labels.csv (tx_hash,label)")
    p.add_argument("--model", default="forest", choices=["forest", "mlp"])
    p.add_argument("--budget", type=int, default=1, help=BUDGET_HELP)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("validate", help="audit a ground-truth chain")
    p.add_argument("--chain", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def _fail(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format_version != FORMAT_VERSION:
        _fail("UnsupportedFormatVersion",
              f"only format version {FORMAT_VERSION} is supported")
        return 2
    try:
        return args.func(args)
    except RingtraceError as err:
        _fail(type(err).__name__, str(err))
        return 2
    except FileNotFoundError as err:
        _fail("FileNotFound", str(err))
        return 2


if __name__ == "__main__":
    sys.exit(main())
