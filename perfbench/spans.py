"""Spans around the public functions of each ringtrace layer.

`install()` replaces each function listed in TRACED at the module attribute
its callers look up (for example `ringtrace.economy.build_transaction`, which
`run_simulation` calls), so the program runs unchanged apart from one timer
pair per call.  Spans (layer, start, end, parent, failed) are kept in memory
and written as JSON by `Recorder.dump`; `summarize` turns a span list into
calls, total time and self time per layer.
"""

import functools
import importlib
import json
import os
import threading
import time


def _file_arg(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _returned_files(args, result):
    paths = result.values() if isinstance(result, dict) else result
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def _rows(args, result):
    return {"rows": int(result.raw.shape[0])}


def _forest(args, result):
    return {"trees": len(result.trees),
            "nodes": sum(len(t.feature) for t in result.trees)}


def _dump(args, result):
    return {"records": len(result.txs), "dangling": len(result.dangling)}


# (layer, module, attribute looked up by the callers, counters of a success)
TRACED = (
    ("economy.gen_economy", "ringtrace.economy", "gen_economy", None),
    ("economy.run_simulation", "ringtrace.economy", "run_simulation", None),
    ("ledger.build_transaction", "ringtrace.economy", "build_transaction", None),
    ("ledger.apply_block", "ringtrace.economy", "apply_block", None),
    ("ledger.select_decoys", "ringtrace.ledger", "select_decoys", None),
    ("ledger.validate_chain", "ringtrace.ledger", "validate_chain", None),
    ("ledger.public_view", "ringtrace.ledger", "public_view", None),
    ("ledger.save", "ringtrace.ledger", "save_chain", _file_arg),
    ("ledger.save", "ringtrace.ledger", "save_public_chain", _file_arg),
    ("economy.export_ground_truth", "ringtrace.economy", "export_ground_truth", None),
    ("economy.graph_edges", "ringtrace.economy", "graph_edges", None),
    ("features.featurize_chain", "ringtrace.features", "featurize_chain", _rows),
    ("features.featurize_chain", "ringtrace.ingest", "featurize_chain", _rows),
    ("features.one_hop", "ringtrace.features", "one_hop", None),
    ("features.candidate_table", "ringtrace.features", "candidate_table", _rows),
    ("features.ring_pair_correlation", "ringtrace.features",
     "ring_pair_correlation", None),
    ("features.write", "ringtrace.features", "write_feature_matrix", _returned_files),
    ("features.write", "ringtrace.features", "write_candidates", _file_arg),
    ("features.write", "ringtrace.features", "write_correlation", _file_arg),
    ("features.read", "ringtrace.features", "read_feature_matrix", None),
    ("features.read", "ringtrace.features", "read_candidates", None),
    ("ml.forest.train_forest", "ringtrace.ml.crossval", "train_forest", _forest),
    ("ml.forest.predict", "ringtrace.ml.forest", "ForestModel.predict", None),
    ("ml.forest.predict", "ringtrace.ml.forest", "ForestModel.predict_proba", None),
    ("ml.crossval.kfold_eval", "ringtrace.ml.tasks", "kfold_eval", None),
    ("ml.crossval.kfold_eval", "ringtrace.ingest", "kfold_eval", None),
    ("ml.crossval.fit_model", "ringtrace.ml.crossval", "fit_model", None),
    ("ml.crossval.fit_model", "ringtrace.ml.tasks", "fit_model", None),
    ("ml.crossval.fit_model", "ringtrace.ingest", "fit_model", None),
    # cli.py binds these three by name at import
    ("ml.tasks.spoof_task", "ringtrace.cli", "spoof_task", None),
    ("ml.tasks.value_task", "ringtrace.cli", "value_task", None),
    ("ml.tasks.save_report", "ringtrace.cli", "save_report", None),
    ("ingest.parse_dump", "ringtrace.ingest", "parse_dump", _dump),
    ("ingest.dump_to_public_chain", "ringtrace.ingest", "dump_to_public_chain", None),
    ("ingest.external_pipeline", "ringtrace.ingest", "external_pipeline", None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TRACED))


class Recorder:
    """In-memory span log shared by every wrapped function of one process.

    A span's parent is the innermost open span of its own thread; a worker
    thread with no open span (the featurize and forest thread pools) takes
    the innermost open span of the thread that installed the wrappers, which
    is blocked waiting for the pool.
    """

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent, failed]
        self.counters = {layer: {} for layer in LAYERS}
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def wrap(self, layer: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            main = self._stacks.get(self._main) or [None]
            parent = stack[-1] if stack else main[-1]
            with self._lock:
                index = len(self.spans)
                span = [layer, time.perf_counter(), None, parent, False]
                self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                with self._lock:
                    totals = self.counters[layer]
                    for key, value in count(args, result).items():
                        totals[key] = totals.get(key, 0) + value
            return result
        return traced

    def install(self) -> None:
        for layer, module_name, attribute, count in TRACED:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, name, self.wrap(layer, getattr(owner, name), count))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer: outermost calls and time, failed calls, and self time.

    A span nested in a span of its own layer (predict calling
    predict_proba) adds to neither calls nor total time.  Self time is a
    span's duration minus the union of its children's intervals, so
    children running in parallel threads are not subtracted twice.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(i)
    out = {layer: {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0}
           for layer in LAYERS}
    for i, (layer, start, end, parent, failed) in enumerate(spans):
        row = out[layer]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        row["self_s"] += end - start - covered
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            row["calls"] += 1
            row["failed"] += int(failed)
            row["s"] += end - start
    return out


def root_time(spans: list[list]) -> float:
    """Time covered by spans with no parent (the traced share of a process)."""
    return sum(end - start for _, start, end, parent, _ in spans if parent is None)
