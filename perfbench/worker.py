"""Set up one workload and make one pass over it, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is "setup" (build the inputs, then exit), "timed" (then one untraced
pass) or "traced" (then install the span wrappers and make one pass).  The
worker prints "ready" once its inputs are built, so that its parent can time
set-up from interpreter start, and after a pass one JSON line of results.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))

    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return
    recorder = child_spans = None
    if args.mode == "traced":
        recorder = tracer.Tracer()
        tracer.install(recorder)
        child_spans = {}
    start = time.perf_counter()
    ops = workload.run(inputs, child_spans)
    wall_s = time.perf_counter() - start
    check = workload.check(inputs, ops)
    result = {
        "wall_s": wall_s,
        "ops": [[str(op.key), op.kind, op.seconds, op.units] for op in ops],
        "failed": check.failed,
        "notes": check.notes,
        "children_peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if recorder is not None:
        spans = recorder.export()
        result["spans"] = tracer.merge(spans, child_spans) if child_spans else spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
