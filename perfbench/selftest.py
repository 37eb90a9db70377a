"""Self-test of the benchmark harness on tiny economies (well under a minute).

    python3 perfbench/selftest.py

Runs every workload's set-up, an untraced and a traced pass, the output
checks and the determinism comparison on presets cut to TRANSFERS transfers,
then checks that the metric names match BENCHMARK.json and that span
summaries subtract nested and parallel children correctly.  Exits 1 on any
failure.
"""

import sys
import time

import run
import spans
from workloads import WORKLOADS

TRANSFERS = 400


def check_summary() -> list[str]:
    # a 10 s parent with two overlapping 4 s children and one nested
    # same-layer call, which must not count as a second call
    log = [["ml.tasks.spoof_task", 0.0, 10.0, None, False],
           ["ml.forest.predict", 1.0, 5.0, 0, False],
           ["ml.forest.predict", 3.0, 7.0, 0, True],
           ["ml.forest.predict", 3.5, 6.5, 2, False]]
    got = spans.summarize(log)
    want_parent = {"calls": 1, "failed": 0, "s": 10.0, "self_s": 4.0}
    want_child = {"calls": 2, "failed": 1, "s": 8.0, "self_s": 8.0}
    errors = []
    if got["ml.tasks.spoof_task"] != want_parent:
        errors.append(f"parent summary {got['ml.tasks.spoof_task']}")
    if got["ml.forest.predict"] != want_child:
        errors.append(f"child summary {got['ml.forest.predict']}")
    if spans.root_time(log) != 10.0:
        errors.append("root time")
    return errors


def main() -> int:
    spec = run.spec()
    run.compile_sources()
    failures = [f"summarize: {e}" for e in check_summary()]
    for name in WORKLOADS:
        start = time.perf_counter()
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            record = run.measure(name, seed=7, seconds=0, trace=trace,
                                 transfers=TRANSFERS)
            failures += [f"{name}: {e}" for e in record["errors"]]
            names = {m["name"] for m in spec[kind]}
            if set(record["values"]) != names:
                failures.append(f"{name}: {kind} metrics differ in "
                                f"{sorted(set(record['values']) ^ names)}")
        print(f"{name}: {time.perf_counter() - start:.1f} s")
    for failure in failures:
        print(f"FAILED {failure}")
    print("selftest", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
