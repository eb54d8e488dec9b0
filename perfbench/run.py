"""The lienil benchmark: one command per workload, every metric with its unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: decide-moved, crosscheck-d2, cli-cold (see workloads.py).

--trace 0 makes passes over the workload's seeded inputs, each in a fresh
worker interpreter and one at a time, until about S seconds have gone, and
prints the end-to-end metrics, then further lines under the metric names
the workload's users know (and the error rate).  Set-up is timed separately, from
interpreter start until the inputs are built, on SETUP_SAMPLES or more workers
spread over the run.

--trace 1 makes one untraced and one traced pass and prints the per-layer
metrics; the spans are written to perfbench/out/.  The traced pass does a
fixed amount of work, so its counts repeat exactly for a given seed.

Every output is checked against an independent reference.  The last line
printed is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 when no operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decide-moved", "crosscheck-d2", "cli-cold")
DEFAULT_SEED = 1
SETUP_SAMPLES = 16
IMPORT_SAMPLES = 7


class WorkerError(RuntimeError):
    pass


def _worker(workload: str, seed: int, mode: str) -> tuple[float, dict | None, float]:
    """Run one worker; returns (set-up seconds, its result, its peak RSS in MB)."""
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"{workload} worker ({mode}) exited with code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None
    return setup_s, result, usage.ru_maxrss / 1024


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _percentile_line(name: str, values: list[float], q: float) -> tuple[str, float, str]:
    beyond = len(values) - math.ceil(q * len(values))
    return (name, _percentile(values, q) * 1e3, f"ms  (n={len(values)}, {beyond} beyond)")


def measure(workload: str, seed: int, seconds: float):
    """End-to-end metrics; returns (metrics, other lines, attempted, failed, failure notes)."""
    setups, passes, rss = [], [], []
    start = time.perf_counter()
    while True:
        setup_s, result, peak = _worker(workload, seed, "timed")
        setups.append(setup_s)
        passes.append(result)
        rss.append(result["children_peak_rss_kb"] / 1024 if workload == "cli-cold" else peak)
        # Set-up-only workers are spread over the run, so that set-up is sampled
        # at the same moments as the passes.
        elapsed = time.perf_counter() - start
        while len(setups) < SETUP_SAMPLES * min(1.0, elapsed / seconds):
            setups.append(_worker(workload, seed, "setup")[0])
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(workload, seed, "setup")[0])

    ops = [op for p in passes for op in p["ops"]]
    latencies = [seconds_ for _, _, seconds_, _ in ops]
    # Pass times are averaged, not their median taken: on a shared machine the
    # mean over all passes of a run repeated best from run to run.
    wall_s = statistics.fmean(p["wall_s"] for p in passes)
    ops_per_s = sum(u for _, _, _, u in passes[0]["ops"]) / wall_s  # a pass's units are fixed
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    attempted = len(ops)
    failed = sum(p["failed"] for p in passes)
    lines = [("passes", len(passes), f"(set-up samples {len(setups)})"),
             ("ops_per_s", ops_per_s, "1/s"),
             ("error_rate", failed / attempted if attempted else 0.0, "ratio")]
    if workload == "decide-moved":
        cold = [s for _, kind, s, _ in ops if kind == "cold"]
        warm = [s for _, kind, s, _ in ops if kind == "warm"]
        lines += [("verdicts_per_s", ops_per_s, "1/s"),
                  _percentile_line("verdict_cold_p50_ms", cold, 0.5),
                  _percentile_line("verdict_cold_p95_ms", cold, 0.95),
                  _percentile_line("verdict_warm_p50_ms", warm, 0.5),
                  _percentile_line("verdict_warm_p99_ms", warm, 0.99)]
    elif workload == "crosscheck-d2":
        lines += [_percentile_line("crosscheck_p50_ms", latencies, 0.5),
                  ("outcomes_per_s", ops_per_s, "1/s")]
    else:
        lines += [_percentile_line("cli_p50_ms", latencies, 0.5),
                  _percentile_line("cli_p90_ms", latencies, 0.9)]
    notes = [n for p in passes for n in p["notes"]]
    return metrics, lines, attempted, failed, notes


def _import_seconds() -> float:
    """Median start-up with ``import lienil.cli`` minus median bare interpreter start-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    bare, loaded = [], []
    for _ in range(IMPORT_SAMPLES):
        for code, samples in (("pass", bare), ("import lienil.cli", loaded)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            samples.append(time.perf_counter() - start)
    return statistics.median(loaded) - statistics.median(bare)


def trace(workload: str, seed: int):
    """Per-layer metrics from one traced pass, next to one untraced pass."""
    _, untraced, _ = _worker(workload, seed, "timed")
    _, traced, _ = _worker(workload, seed, "traced")
    import_s = _import_seconds() if workload == "cli-cold" else 0.0
    spans = traced["spans"]
    metrics = tracer.layer_metrics(spans, traced["wall_s"], untraced["wall_s"], import_s)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "traced_wall_s": traced["wall_s"],
                                "untraced_wall_s": untraced["wall_s"], **spans},
                               indent=1), encoding="utf-8")
    lines = [("spans", str(path.relative_to(ROOT)), "")]
    attempted = len(untraced["ops"]) + len(traced["ops"])
    failed = untraced["failed"] + traced["failed"]
    return metrics, lines, attempted, failed, untraced["notes"] + traced["notes"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lienil" / "__init__.py").is_file():
        print(f"lienil sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = trace(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    metrics, lines, attempted, failed, notes = result
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for name, value, unit in lines:
        shown = f"{value:>14.6g}" if isinstance(value, (int, float)) else value
        print(f"  {name:<44} {shown} {unit}")
    for note in notes:
        print(f"  failure: {note}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
