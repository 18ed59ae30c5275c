"""Run one workload in this process and print its measurements as JSON.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR [SPANS]

The worker repeats rounds while another round of median length fits in
SECONDS (at least one round runs). A round sets the workload up afresh
(generate, relabel, save) and then makes one pass over its job list, one
`locis.cli.main` call per job, each loading its windows from the files, as a
CLI user would. Reports are checked after the pass, outside the timed region.
Set-up time, which counts generating and saving but not the relabelling, is
the median over rounds, and each job's time is its median over rounds.

With TRACE=1, wrappers from tracing.py time every layer, and the spans are
written to SPANS at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from locis import cli  # noqa: E402

import workloads  # noqa: E402


def run_job(argv):
    """One CLI call with stdout captured: (seconds, exit code, stdout, error)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        error = None
    except (Exception, SystemExit) as exc:  # a raising job is a failed job
        code, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, buf.getvalue(), error


def failure(code, out, error, check):
    """None when the job succeeded and its report agrees with theory."""
    if error is not None:
        return error
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return f"unreadable report: {exc}"
    try:
        return check(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"report lacks an expected field: {exc!r}"


def main(argv):
    workload, seed, seconds, traced, workdir = argv[:5]
    seed, seconds, traced = int(seed), float(seconds), traced == "1"
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    setups, job_times, walls = [], [], {}
    attempted, errors = 0, []
    start = time.perf_counter()
    durations = []
    # A round starts only when a round of median length still fits in SECONDS.
    while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
        k = len(setups)
        directory = tempfile.mkdtemp(prefix=f"{workload}-{k}-", dir=workdir)
        try:
            r0 = time.perf_counter()
            if tracer:
                tracer.start_job((k, "setup"))
            files, setup_s = workloads.setup(workload, seed, directory)
            jobs = workloads.jobs(workload, files)
            outputs = []
            for j, (command, job_argv, check) in enumerate(jobs):
                if tracer:
                    tracer.start_job((k, j))
                outputs.append(run_job(job_argv))
            end = time.perf_counter()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        walls[k] = end - r0
        for (command, job_argv, check), (dt, code, out, error) in zip(jobs, outputs):
            attempted += 1
            reason = failure(code, out, error, check)
            if reason is not None:
                errors.append(f"round {k}: {command} {os.path.basename(job_argv[1])}: {reason}")
        setups.append(setup_s)
        job_times.append([dt for dt, _, _, _ in outputs])
        durations.append(time.perf_counter() - r0)

    # Each job's time is its median over rounds, which drops a burst of host
    # noise that hits one job in one round; a pass is the sum of its jobs.
    by_command = {}
    for (command, _, _), times in zip(jobs, zip(*job_times)):
        by_command[command] = by_command.get(command, 0.0) + statistics.median(times)
    result = {
        "rounds": [round(sum(times), 3) for times in job_times],
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": sum(by_command.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "by_command": by_command,
    }
    if tracer:
        # median_low keeps counts whole; they agree across rounds anyway.
        layers = list(tracer.summarize(walls).values())
        result["layers"] = {n: statistics.median_low(m[n] for m in layers) for n in layers[0]}
        if len(argv) > 5:
            tracer.write(argv[5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
