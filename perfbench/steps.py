"""One benchmark step in its own process: `steps.py STEP PARAMS_JSON [TRACE_FILE]`.

Each step drives ringtrace the way a user does, through `ringtrace.cli`,
apart from two set-up steps that build inputs no command writes on its own:
the feature matrix without the candidates, and an explorer dump of a later
window of the chain.  `train` and `ingest` size their forests from
`cli.TASK_DEFAULTS`, which the `cli` step scales by FOREST_SCALE.  With
TRACE_FILE the layers are wrapped first (see spans.py) and the span log is
written there when the step ends.
"""

import csv
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# Every forest of the CLI defaults keeps 1/FOREST_SCALE of its trees (spoof
# 24 -> 2, value and external 60 -> 5); depth, features and folds stay.  At
# full size one spoof-s03 pass trains for minutes (see README).
FOREST_SCALE = 12


def cli(p: dict) -> None:
    """One `ringtrace` command line, with the forests scaled down."""
    from ringtrace import cli as ringtrace_cli

    for (_, model), params in ringtrace_cli.TASK_DEFAULTS.items():
        if model == "forest":
            params["n_trees"] //= FOREST_SCALE
    code = ringtrace_cli.main(p["argv"])
    if code != 0:
        raise SystemExit(code)


def generate(p: dict) -> None:
    if p["transfers"] is None:
        cli({"argv": ["generate", p["scenario"], "--seed", str(p["seed"]),
                      "--out", p["out"]]})
        return
    # self-test size: the preset with fewer scheduled transfers
    from ringtrace import economy as econ
    from ringtrace.rng import Rng

    spec = econ.scenario_preset(p["scenario"], seed=p["seed"])
    spec.target_tx_count = p["transfers"]
    files = econ.gen_economy(spec, Rng(p["seed"]))
    econ.save_economy(spec, files, Path(p["out"]) / "economy.json")


def featurize_matrix(p: dict) -> None:
    """The feature-matrix half of `ringtrace featurize`."""
    from ringtrace import features, ledger

    pub = ledger.load_public_chain(Path(p["chain"]))
    features.write_feature_matrix(features.featurize_chain(pub), Path(p["out"]))


def export_window(p: dict) -> None:
    """An explorer dump of the chain's later blocks, from `cut_fraction` of
    its height on, plus labels naming the window's transfers sent by one
    agent."""
    from ringtrace import cli as ringtrace_cli
    from ringtrace import ingest, ledger

    pub = ledger.load_public_chain(Path(p["chain"]))
    payload = ingest.export_dump(pub)
    cut = int(len(pub.blocks) * p["cut_fraction"])
    window = [(tx_id, rec) for tx_id, rec in zip(sorted(pub.transactions),
                                                  payload["transactions"])
              if rec["block_height"] >= cut]
    payload["transactions"] = [rec for _, rec in window]
    Path(p["dump"]).write_text(json.dumps(payload, sort_keys=True,
                                          separators=(",", ":")) + "\n")
    sender = ringtrace_cli._read_label_column(Path(p["ground_truth_labels"]), "sender")
    with open(p["labels"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tx_hash", "label"])
        w.writerows([rec["tx_hash"], "exchange"] for tx_id, rec in window
                    if sender.get(tx_id) == p["agent"])


STEPS = {f.__name__: f for f in (cli, generate, featurize_matrix, export_window)}


def main(argv: list[str]) -> None:
    step, params = STEPS[argv[0]], json.loads(argv[1])
    if len(argv) < 3:
        step(params)
        return
    import spans

    recorder = spans.Recorder()
    recorder.install()
    try:
        step(params)
    finally:
        recorder.dump(argv[2])


if __name__ == "__main__":
    main(sys.argv[1:])
