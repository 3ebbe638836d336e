"""Benchmark command for diqkd: one workload, measured in fresh processes.

    python3 bench/run.py --workload mc-1e5 --seed 0 --seconds 36 --trace 0

Each run starts the workload in its own single-threaded worker process
(``worker.py``; OMP/OpenBLAS/MKL pinned to one thread) that imports
``src/diqkd`` from this checkout.  With ``--trace 0`` it prints the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` a separate
traced pass gives the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full records, the environment
and the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 9  # fresh processes whose set-up time is measured; the median is reported
TIMEOUT_S = 170.0  # the whole run, all worker processes included


def spawn(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run ``worker.py`` once; return its set-up time and its output after ``ready``."""
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker {' '.join(argv)} failed with exit code {code}")
    return setup_s, rest


def end_to_end(raw: dict, setups: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": raw["wall_s"],
        "call_ms": raw["call_ms"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "diqkd" / "__init__.py").is_file():
        print(f"error: no diqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(names)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    deadline = time.monotonic() + TIMEOUT_S
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(out_dir),
    ]
    try:
        setups = []
        if not args.trace:
            setups = [spawn(common + ["--setup-only"], deadline)[0] for _ in range(SETUPS - 1)]
        setup_s, output = spawn(common, deadline)
        setups.append(setup_s)
        raw = json.loads(output.strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = raw["layers"] if args.trace else end_to_end(raw, setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the workload did not report {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(raw["failures"])
    result = {
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": metrics,
    }

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(raw["env"]))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'setup_s samples':42s} {len(setups)}")
        print(f"  {'passes':42s} {len(raw['pass_s'])}")
        print(f"  {'pass_p50_s':42s} {statistics.median(raw['pass_s']):.6g} s, unscaled")
        for name, (value, unit, samples) in raw["extra"].items():
            print(f"  {name:42s} {value:.6g} {unit} (n={samples})")
    print(f"  {'fail_frac':42s} {failed / max(1, raw['attempted']):.6g} ({failed}/{raw['attempted']})")
    for failure in raw["failures"]:
        print(f"FAILED: {failure}")
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, setups=setups, raw=raw)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
