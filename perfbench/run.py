"""Pipeline benchmark for ringtrace: one workload per invocation.

    python3 perfbench/run.py --workload spoof-s03 [--seed 7] [--seconds N] [--trace 0|1]

Builds the workload's inputs from the seed (timed as set-up), then repeats
the timed pass, each in a fresh process, until `--seconds` (default:
BENCHMARK.json's run_seconds) of pass time have passed, and checks the
outputs.  The last line of standard output is one JSON object: `correct`,
`attempted` and `failed` passes, and the metrics.  With `--trace 0` they are
the end-to-end metrics (medians over passes); with `--trace 1` the set-up
and one extra pass after the others run with every layer wrapped
(spans.py), and the per-layer metrics are reported instead.  Each run also
writes a result file under `.perfbench/results/`.
"""

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
STEP_TIMEOUT_S = 170
# the checks read outputs with the benchmark's modules and ringtrace's own
sys.path[:0] = [str(HERE), str(ROOT / "src")]


class BenchError(Exception):
    """The benchmark could not run: missing sources or a failed set-up."""


@dataclass
class Proc:
    """Wall time, CPU time, peak RSS and exit code of finished step processes."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    code: int = 0


def run_step(step: str, params: dict, log: Path, trace: Path | None = None) -> Proc:
    argv = [sys.executable, str(HERE / "steps.py"), step, json.dumps(params)]
    if trace is not None:
        argv.append(str(trace))
    with log.open("a") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=fh, stderr=fh)
        timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6,
                proc.returncode)


def run_steps(steps, log: Path, traces: list[Path] | None = None) -> Proc:
    """Run steps in sequence; the result sums time and keeps the peak RSS.

    With `traces`, each step is traced into a new file appended to it.
    """
    total = Proc()
    for step, params in steps:
        trace = None
        if traces is not None:
            trace = log.with_name(f"spans-{len(traces)}-{step}.json")
            traces.append(trace)
        p = run_step(step, params, log, trace)
        total = Proc(total.wall_s + p.wall_s, total.cpu_s + p.cpu_s,
                     max(total.rss_mb, p.rss_mb), p.code)
        if p.code != 0:
            break
    return total


def same_tree(a: Path, b: Path) -> list[str]:
    """Relative paths of files that differ or exist on one side only."""
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(n) for n in names
                  if not ((a / n).is_file() and (b / n).is_file()
                          and filecmp.cmp(a / n, b / n, shallow=False)))


def compile_sources() -> None:
    """Byte-compile once so no timed process pays for it."""
    import compileall

    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def per_layer(traces: list[Path], pass_traces: list[Path], traced_wall: float,
              untraced_walls: list[float]) -> dict:
    """Per-layer metrics from the span logs of a traced set-up and pass.

    `pass_traces` are the logs of the traced pass's steps, `traced_wall` its
    wall time and `untraced_walls` those of the run's untraced passes.
    """
    import spans

    layer = {name: {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0}
             for name in spans.LAYERS}
    counters: dict[str, dict[str, int]] = {}
    for trace in traces:
        log = json.loads(trace.read_text())
        for name, row in spans.summarize(log["spans"]).items():
            for key, value in row.items():
                layer[name][key] += value
        for name, values in log["counters"].items():
            for key, value in values.items():
                counters.setdefault(name, {})
                counters[name][key] = counters[name].get(key, 0) + value
    traced_s = sum(spans.root_time(json.loads(t.read_text())["spans"])
                   for t in pass_traces)

    def count(name, key):
        return counters.get(name, {}).get(key, 0)

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    build = layer["ledger.build_transaction"]
    sim_s = layer["economy.run_simulation"]["s"]
    forest_s = layer["ml.forest.train_forest"]["s"]
    return {
        "ledger.build_transaction.calls": build["calls"],
        "ledger.build_transaction.failed": build["failed"],
        "ledger.build_transaction.self_s": build["self_s"],
        "ledger.select_decoys.calls": layer["ledger.select_decoys"]["calls"],
        "ledger.select_decoys.s": layer["ledger.select_decoys"]["s"],
        "ledger.apply_block.calls": layer["ledger.apply_block"]["calls"],
        "ledger.apply_block.s": layer["ledger.apply_block"]["s"],
        "ledger.validate_chain.s": layer["ledger.validate_chain"]["s"],
        "ledger.public_view.s": layer["ledger.public_view"]["s"],
        "ledger.save.s": layer["ledger.save"]["s"],
        "ledger.save.mb": count("ledger.save", "bytes") / 1e6,
        "economy.gen_economy.s": layer["economy.gen_economy"]["s"],
        "economy.run_simulation.self_s": layer["economy.run_simulation"]["self_s"],
        "economy.transfers_per_s": rate(build["calls"] - build["failed"], sim_s),
        "economy.export_ground_truth.s": layer["economy.export_ground_truth"]["s"],
        "features.featurize_chain.self_s": layer["features.featurize_chain"]["self_s"],
        "features.one_hop.calls": layer["features.one_hop"]["calls"],
        "features.one_hop.s": layer["features.one_hop"]["s"],
        "features.rows_per_s": rate(count("features.featurize_chain", "rows"),
                                    layer["features.featurize_chain"]["s"]),
        "features.candidate_table.self_s": layer["features.candidate_table"]["self_s"],
        "features.candidate_rows": count("features.candidate_table", "rows"),
        "features.ring_pair_correlation.s": layer["features.ring_pair_correlation"]["s"],
        "economy.graph_edges.s": layer["economy.graph_edges"]["s"],
        "features.write.s": layer["features.write"]["s"],
        "features.write.mb": count("features.write", "bytes") / 1e6,
        "features.read.s": layer["features.read"]["s"],
        "ml.forest.train_forest.calls": layer["ml.forest.train_forest"]["calls"],
        "ml.forest.train_forest.s": forest_s,
        "ml.forest.trees_per_s": rate(count("ml.forest.train_forest", "trees"), forest_s),
        "ml.forest.nodes": count("ml.forest.train_forest", "nodes"),
        "ml.forest.nodes_per_s": rate(count("ml.forest.train_forest", "nodes"), forest_s),
        "ml.forest.predict.s": layer["ml.forest.predict"]["s"],
        "ml.crossval.kfold_eval.self_s": layer["ml.crossval.kfold_eval"]["self_s"],
        "ml.crossval.fit_model.calls": layer["ml.crossval.fit_model"]["calls"],
        "ml.tasks.spoof_task.self_s": layer["ml.tasks.spoof_task"]["self_s"],
        "ml.tasks.value_task.self_s": layer["ml.tasks.value_task"]["self_s"],
        "ml.tasks.save_report.s": layer["ml.tasks.save_report"]["s"],
        "ingest.parse_dump.s": layer["ingest.parse_dump"]["s"],
        "ingest.records": count("ingest.parse_dump", "records"),
        "ingest.dump_to_public_chain.s": layer["ingest.dump_to_public_chain"]["s"],
        "ingest.external_pipeline.self_s": layer["ingest.external_pipeline"]["self_s"],
        "ingest.dangling_refs": count("ingest.parse_dump", "dangling"),
        "trace.overhead_s": traced_wall - statistics.median(untraced_walls),
        "trace.untraced_s": traced_wall - traced_s,
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            transfers: int | None = None) -> dict:
    """Set up, run passes, check outputs; return the result record."""
    from workloads import WORKLOADS, Ctx

    workload = WORKLOADS[name]
    run_dir = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ctx = Ctx(seed=seed, work=run_dir / "setup", transfers=transfers)
    log = run_dir / "steps.log"
    traces: list[Path] | None = [] if trace else None
    try:
        setup = run_steps(workload.setup(ctx), log, traces)
        if setup.code != 0:
            raise BenchError(f"set-up exited with {setup.code}:\n{log.read_text()[-2000:]}")
        n_setup_traces = len(traces or ())

        # untraced passes until `seconds` of pass time, then with --trace 1
        # one traced pass; every pass writes to the same directory, so the
        # manifests name the same paths, and the first is kept as `first`
        out, first = run_dir / "pass", run_dir / "first"
        passes: list[Proc] = []
        errors: list[str] = []
        figures: dict = {}
        while True:
            traced = trace and bool(passes) and sum(p.wall_s for p in passes) >= seconds
            shutil.rmtree(out, ignore_errors=True)
            p = run_steps(workload.run(ctx, out), log, traces if traced else None)
            passes.append(p)
            # a failed pass is counted in `failed`; checks read passes that ran
            if p.code == 0 and not first.exists():
                out.rename(first)
                check_start = time.perf_counter()
                errors, figures = workload.check(ctx, first)
                figures["check_s"] = time.perf_counter() - check_start
            elif p.code == 0:
                differ = same_tree(first, out)
                if differ:
                    errors.append(f"pass {len(passes) - 1} output differs from "
                                  f"the first pass in {differ}")
            if traced or (not trace and sum(p.wall_s for p in passes) >= seconds):
                break
        ok = [p for p in passes if p.code == 0]
        if not ok or (trace and passes[-1].code != 0):
            raise BenchError(f"pass failed:\n{log.read_text()[-2000:]}")
        if trace:
            values = per_layer(traces, traces[n_setup_traces:], passes[-1].wall_s,
                               [p.wall_s for p in passes[:-1]])
        else:
            values = {
                "setup_s": setup.wall_s,
                "wall_s": statistics.median(p.wall_s for p in ok),
                "cpu_s": statistics.median(p.cpu_s for p in ok),
                "peak_rss_mb": statistics.median(p.rss_mb for p in ok),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "transfers": transfers, "environment": environment(),
        "setup": asdict(setup),
        "passes": [asdict(p) for p in passes],
        "errors": errors, "figures": figures, "values": values,
    }


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "ringtrace" / "__init__.py").is_file():
            raise BenchError(f"no ringtrace sources under {ROOT / 'src'}")
        bench = spec()
        unit = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
                for m in bench[kind]}
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        compile_sources()
        record = measure(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    for err in record["errors"]:
        print(f"perfbench: CHECK FAILED: {err}", file=sys.stderr)
    for key, value in record["figures"].items():
        print(f"perfbench: {key} = {value}", file=sys.stderr)
    print(json.dumps({
        "correct": not record["errors"],
        "attempted": len(record["passes"]),
        "failed": sum(1 for p in record["passes"] if p["code"] != 0),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in record["values"].items()},
    }))
    return 0 if not record["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
