"""Run one benchmark workload in this process and report raw measurements.

Started by ``run.py`` in a fresh single-threaded process.  Prints ``ready``
once imports, input generation and warm-up are done, then (unless
``--setup-only``) one JSON line with the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timed_run(workload, checks, seconds: float) -> dict:
    # Closed loop, one client: start another pass while it is expected to end in time.
    start = time.perf_counter()
    workload.full_check(checks)
    pass_s = []
    while not pass_s or (time.perf_counter() - start) + max(pass_s) <= seconds:
        t0 = time.perf_counter()
        workload.run_pass(len(pass_s), checks)
        pass_s.append(time.perf_counter() - t0)
    return dict(
        workload.timing(pass_s),
        pass_s=pass_s,
        extra=workload.extra(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )


def trace_run(workload, checks, args) -> dict:
    # The same inputs untraced, traced, untraced: the traced pass against the
    # mean of the two untraced ones is the tracing overhead.
    from tracing import Tracer, layer_metrics, traced

    plain = []
    tracer = Tracer()
    for with_trace in (False, True, False):
        with traced(tracer) if with_trace else contextlib.nullcontext():
            t0 = time.perf_counter()
            workload.trace_pass(checks)
            elapsed = time.perf_counter() - t0
        if with_trace:
            traced_s = elapsed
        else:
            plain.append(elapsed)
    layers = layer_metrics(tracer)
    layers["trace.overhead_frac"] = traced_s / (sum(plain) / len(plain)) - 1.0
    spans = [[s.name, s.start, s.end, s.parent, s.group] for s in tracer.spans]
    spans_path = args.out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "group"], "spans": spans}))
    return {"layers": layers}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import diqkd

    if Path(diqkd.__file__).resolve().parent != ROOT / "src" / "diqkd":
        raise SystemExit(f"diqkd was imported from {diqkd.__file__}, not from this checkout")
    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[args.workload](args.seed, args.out_dir)
    try:
        workload.warm_up()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        checks = Checks()
        result = {"env": environment()}
        if args.trace:
            result.update(trace_run(workload, checks, args))
        else:
            result.update(timed_run(workload, checks, args.seconds))
    finally:
        workload.close()
    result["attempted"] = checks.attempted
    result["failures"] = checks.failures
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
