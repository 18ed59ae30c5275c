"""locis benchmark: time to verdict on CLI workloads, with a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in a worker process of
its own (worker.py), so its peak memory and set-up cost are its alone. One
client, closed loop: the worker issues one CLI job at a time, single-threaded.

--trace 0 prints the end-to-end metrics. --trace 1 splits the time between an
untraced worker and a traced one, and prints the per-layer metrics: the
traced worker's layer counts and self times, the untraced worker's time to
verdict per command, and the tracing overhead. Spans go to
perfbench/out/spans-<workload>-<seed>.jsonl.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The line before it records the workload, seed and rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("symmetry", "census", "rigidity")
COMMANDS = ("symmetries", "census", "compare", "lip", "rigid-limit", "rigidity")
# Every run must end within this many seconds.
BUDGET_S = 170.0


class WorkerFailed(Exception):
    pass


def run_worker(workload, seed, seconds, traced, deadline, spans=None):
    workdir = os.path.join(HERE, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), repr(seconds),
           "1" if traced else "0", workdir]
    if spans:
        cmd.append(spans)
    # One hash seed for every run, so set iteration order, and with it the
    # library's work, does not change with the benchmark seed.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker for {workload} ran past the {BUDGET_S:.0f} s budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(args):
    """Worker results and the measured values, by metric name."""
    deadline = time.monotonic() + BUDGET_S
    if not args.trace:
        res = run_worker(args.workload, args.seed, args.seconds, False, deadline)
        return [res], res["metrics"]

    base = run_worker(args.workload, args.seed, args.seconds / 2, False, deadline)
    spans = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    traced = run_worker(args.workload, args.seed, args.seconds / 2, True, deadline, spans)
    values = dict(traced["layers"])
    for command in COMMANDS:
        values[f"verdict_s.{command}"] = base["by_command"].get(command, 0.0)
    values["trace.overhead"] = traced["metrics"]["wall_s"] / base["metrics"]["wall_s"]
    return [base, traced], values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "locis", "__init__.py")):
        print(f"error: no locis sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    try:
        results, values = measure(args)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: no value measured for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for line in r["errors"]:
            print(f"failed: {line}", file=sys.stderr)
    walls = " + ".join(str(r["rounds"]) for r in results)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"pass wall_s per round: {walls}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
