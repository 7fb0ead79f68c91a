"""odofock benchmark: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 15 --trace 0

Workloads: construct, classify, dilate_factor, cli_session (see
BENCHMARK.json for why each exists). The program is imported from `src/` of
the checkout this file sits in; without it the benchmark exits with code 2.

Jobs run back to back from one process (closed loop, one client). Set-up is
timed from process start to the end of the warm-up, five times in separate
processes, and reported as the median. A run then makes a fixed number of
passes over the workload's jobs, set by --seconds. Every verdict is checked
against the outcome recorded when its input was generated; any mismatch
makes `correct` false.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
the traced passes. The last line of stdout is the JSON result; the lines
before it give sample counts, failures and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import metrics
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 5
DEADLINE_S = 170  # the whole run, set-ups included


class BenchError(Exception):
    pass


def launch(args, mode: str, work_dir: Path, env: dict, timeout: float):
    """Run one worker; returns (seconds from start to READY, parsed RESULT or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--work-dir", str(work_dir)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env,
                            cwd=ROOT, text=True)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0 or ready is None or (mode == "measure" and result is None):
        raise BenchError(f"{mode} worker exited with code {code}")
    return ready, result


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    untraced = [p for p in result["passes"] if not p["traced"]]
    # A job's time to verdict is its median over the passes, which ran it on
    # inputs of the same size; one noisy run cannot move a percentile past a
    # whole job. Percentiles are over job runs, each counted at its job's time,
    # so that ten runs beyond the tail reach into the slow jobs.
    by_job: dict[str, list[float]] = {}
    for p in untraced:
        for job, seconds in p["times"].items():
            by_job.setdefault(job, []).append(seconds)
    job_times = [statistics.median(ts) for ts in by_job.values()]
    runs = [t for t in job_times for _ in untraced]
    attempted = sum(p["attempted"] for p in result["passes"])
    failed = sum(p["failed"] for p in result["passes"])
    tail, pct = metrics.tail(runs)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "verdict_p50_s": statistics.median(job_times),
        "verdict_tail_s": tail,
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_share": metrics.failed_share(failed, attempted),
    }
    notes = [
        f"setup_s: median of {len(setups)} set-ups {[round(s, 4) for s in setups]}",
        f"wall_s: median of {len(untraced)} untraced passes, gate checks excluded",
        f"verdict_p50_s, verdict_tail_s: {len(job_times)} jobs x {len(untraced)} passes = "
        f"{len(runs)} job runs, each at its job's median; tail is p{pct:.1f}, 10 runs beyond "
        "it; over-limit jobs are outside both",
        f"failed_share: {failed} failed of {attempted} attempted; the value is the one-sided "
        "95% upper bound of the failure share",
    ]
    return values, notes


def per_layer(result: dict) -> dict:
    traced = [p["layers"] for p in result["passes"] if p["traced"]]
    return {name: statistics.median(t[name] for t in traced) for name, *_ in metrics.PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "odofock" / "__init__.py").is_file():
        print(f"error: no odofock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    threads = str(min(2, os.cpu_count() or 1))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    work_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    started = time.perf_counter()
    setups = []
    try:
        for _ in range(SETUP_RUNS - 1):
            work_dir.mkdir(parents=True)
            ready, _ = launch(args, "setup", work_dir, env, 40)
            setups.append(ready)
            shutil.rmtree(work_dir)
        work_dir.mkdir(parents=True)
        remaining = DEADLINE_S - (time.perf_counter() - started)
        ready, result = launch(args, "measure", work_dir, env, remaining)
        setups.append(ready)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED {failure}")
    if args.trace:
        values, notes = per_layer(result), [
            "per-layer values: median over traced passes; odometer.dim, nnz, stored_bytes, "
            "stored_entries and fill_ratio are computed from the matrices the program returns"]
    else:
        values, notes = end_to_end(result, setups)
    for name, value in values.items():
        print(f"{name:36s} {value:.6g} {metrics.UNITS[name]}")
    for note in notes:
        print(note)
    print("env " + json.dumps(result["env"], sort_keys=True))
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    }
    # the whole record (environment, per-job times of every pass) for later comparison
    record = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(dict(line, setups_s=setups, notes=notes, **result)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
