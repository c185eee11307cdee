"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every run starts fresh worker processes
(worker.py), so the import of `entdist` falls inside the set-up time and
the peak memory belongs to this workload alone.  With --trace 0 the run
times the set-up SETUP_REPEATS + 1 times and reports the end-to-end metrics
named in BENCHMARK.json; with --trace 1 it reports the per-layer metrics.
The last stdout line is the result object; the line before it records the
environment.  A checkout without `src/entdist` is an error.
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
SETUP_REPEATS = 6  # set-up-only processes, besides the measured worker's own set-up
BLAS_THREADS = 1  # one client on a shared machine; at most nproc
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_worker(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start worker.py; return (seconds from start to READY, later stdout lines)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    env = _worker_env()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            timer.cancel()
            proc.kill()
    if ready.strip() != "READY" or code != 0:
        raise BenchmarkError(f"worker exited with code {code} ({' '.join(args)})")
    return setup_s, rest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "entdist" / "__init__.py").is_file():
        raise BenchmarkError(f"no entdist package under {ROOT / 'src'}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        raise BenchmarkError(f"unknown workload {args.workload!r}")

    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        setup_only = [*worker_args, "--seconds", "0", "--setup-only"]
        for _ in range(SETUP_REPEATS):
            setups.append(_run_worker(setup_only, deadline)[0])
    setup_s, lines = _run_worker([*worker_args, "--seconds", str(args.seconds)], deadline)
    setups.append(setup_s)
    if not lines:
        raise BenchmarkError("worker printed no result")
    result = json.loads(lines[-1])

    if args.trace:
        wanted, measured = bench["per_layer"], result["per_layer"]
    else:
        wanted = bench["end_to_end"]
        measured = {"setup_s": statistics.median(setups), "ref_wall_s": result["ref_wall_s"],
                    "peak_rss_mb": result["peak_rss_mb"]}
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    env = dict(result["env"], round_walls=result["round_walls"], raw_wall_s=result["raw_wall_s"],
               probe_s=result["probe_s"], fail_frac=result["failed"] / result["attempted"])
    if args.trace:
        env["traced_rounds"] = result["traced_rounds"]
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        sys.exit(1)
