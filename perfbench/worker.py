"""One benchmark process: set-up, warm-up, then the measured passes.

Started by run.py, never by hand. Set-up is `import odofock`, the inputs
generated from the seed and one untimed warm-up; the worker prints READY when
it is done. In `setup` mode it then exits; in `measure` mode it runs the
passes and prints one RESULT line. With --trace 1 every second pass is
traced, so traced and untraced passes of the same run give the tracing
overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def blas_record() -> dict:
    """OpenBLAS version and the thread count it runs with, read from the loaded library."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"),
              "threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def environment(args, passes: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
        "trace": args.trace,
    }


def layer_metrics(spans_list: list[dict], counts: dict) -> dict:
    from metrics import LAYER_CALLS, PASS_COUNTS
    from spans import self_times

    own = self_times(spans_list)
    out = {}
    for name in LAYER_CALLS:
        seconds, calls = own.get(name, (0.0, 0))
        out[f"{name}_s"] = seconds
        out[f"{name}_calls"] = calls
    for name, *_ in PASS_COUNTS:
        out[name] = counts.get(name, 0)
    entries = counts.get("odometer.stored_entries", 0)
    out["odometer.fill_ratio"] = counts.get("odometer.nnz", 0) / entries if entries else 0.0
    out["trace.spans"] = len(spans_list)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import odofock

    if Path(odofock.__file__).resolve().parent != (SRC / "odofock").resolve():
        print(f"error: imported odofock from {odofock.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import jobs
    import workloads as wl
    from spans import Tracer

    def cli_in(name: str):
        if args.workload != "cli_session":
            return None
        path = Path(args.work_dir) / name
        path.mkdir()
        return jobs.Cli(str(SRC), str(path))

    tracer = Tracer()
    passes = wl.passes_for(args.workload, args.seconds)
    pass_items = [jobs.build_items(wl.generate(args.workload, args.seed, p), cli_in(f"pass{p}"))
                  for p in range(passes)]
    warm = jobs.run_pass(jobs.build_items(wl.warmup(args.workload), cli_in("warmup")), tracer)
    if warm.failed:
        print("error: warm-up failed: " + "; ".join(warm.failures), file=sys.stderr)
        return 3
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    results, all_spans = [], []
    for p, items in enumerate(pass_items):
        tracer.enabled = bool(args.trace) and p % 2 == 1
        tracer.spans = []
        res = jobs.run_pass(items, tracer)
        record = {"traced": tracer.enabled, "wall_s": res.wall_s, "gate_s": res.gate_s,
                  "times": res.times, "attempted": res.attempted, "failed": res.failed,
                  "failures": res.failures[:10]}
        if tracer.enabled:
            record["layers"] = layer_metrics(tracer.spans, res.counts)
            all_spans.append({"pass": p, "spans": tracer.spans})
        results.append(record)

    if args.trace:
        spans_path = Path(args.work_dir).parent / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(all_spans))
        traced = [r["wall_s"] for r in results if r["traced"]]
        untraced = [r["wall_s"] for r in results if not r["traced"]]
        overhead = statistics.median(traced) - statistics.median(untraced)
        for r in results:
            if r["traced"]:
                r["layers"]["trace.overhead_s"] = overhead

    # the jobs of cli_session run in child processes; the others in this one
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    out = {"passes": results, "peak_rss_mb": peak_rss_mb, "env": environment(args, passes)}
    print("RESULT " + json.dumps(out, default=lambda v: v.item()), flush=True)  # numpy scalars
    return 0


if __name__ == "__main__":
    sys.exit(main())
