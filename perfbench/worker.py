"""One workload run in a fresh process, started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up imports `entdist` from the checkout's `src/` and writes the job
inputs; the worker then prints READY, so the parent can time the set-up
from process start.  With --setup-only it stops there.  Otherwise it runs
the job list in rounds, each job one in-process call of `entdist.cli.main`
(or of the EF oracle) with its output captured and checked by the oracle,
until another round would overrun --seconds.  A fixed probe runs before
every job and after the last, to gauge the machine's speed around each job
(see _ref_wall).  The last stdout line is one JSON object.

With --trace 1, untraced and traced rounds alternate (at least one of each);
the traced rounds give the per-layer metrics, and the traced wall time
minus the untraced one is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import oracle
from tracing import Tracer
from workloads import build_jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS = ROOT / ".perfbench-spans"  # spans of the last traced run per workload and seed


def _import_entdist():
    sys.path.insert(0, str(SRC))
    import entdist
    import entdist.bounds
    import entdist.cli
    import entdist.states
    import entdist.verify

    if Path(entdist.__file__).resolve().parent != (SRC / "entdist").resolve():
        raise RuntimeError(f"imported entdist from {entdist.__file__}, not from {SRC}")
    return entdist.cli, entdist.verify


def _call(cli, job) -> int:
    """One job: a `cli.main` call, or for "ef" a call of the EF oracle that
    prints its estimate.  Module attributes are looked up at call time, so
    the tracer's wrappers are used in traced rounds."""
    if job.kind != "ef":
        return cli.main(list(job.argv))
    entdist = sys.modules["entdist"]
    spec = job.spec
    rho = entdist.states.isotropic(spec["K"], spec["F"])
    print(repr(entdist.bounds.ef_numeric_estimate(rho, budget=spec["budget"], seed=spec["seed"])))
    return 0


def _run_job(cli, job) -> tuple[int | None, str, str, float]:
    """(exit code or None if it raised, stdout, stderr, seconds in the call)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = _call(cli, job)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "entdist").glob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "src_entdist_lines": src_lines,
    }


def measure(cli, jobs: list, seconds: float, tracer: Tracer | None) -> dict:
    expects = [oracle.reference(job) for job in jobs]
    # per round, for untraced and traced rounds: seconds in each job's call,
    # and the probe's seconds before each job and after the last
    times: dict[bool, list[list[float]]] = {False: [], True: []}
    probes: dict[bool, list[list[float]]] = {False: [], True: []}
    round_times: list[float] = []
    attempted = failed = 0
    planted_checked: set[str] = set()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        traced = tracer is not None and len(times[False]) > len(times[True])
        if traced:
            tracer.install()
        try:
            elapsed_per_job, probe_times = [], [_probe()]
            for i, (job, expect) in enumerate(zip(jobs, expects)):
                if traced:
                    tracer.job = i
                code, out, err, elapsed = _run_job(cli, job)
                probe_times.append(_probe())
                elapsed_per_job.append(elapsed)
                attempted += 1
                problems = oracle.check(job, expect, code, out)
                if problems:
                    failed += 1
                    print(f"FAILED {' '.join(job.argv)}: {problems[:5]}\n{err}", file=sys.stderr)
                elif job.kind not in planted_checked:
                    oracle.assert_catches_planted(job, expect, out)
                    planted_checked.add(job.kind)
        finally:
            if traced:
                tracer.uninstall()
        times[traced].append(elapsed_per_job)
        probes[traced].append(probe_times)
        now = time.perf_counter()
        round_times.append(now - round_start)
        enough = tracer is None or times[True]
        if enough and now - start + statistics.median(round_times) > seconds:
            break
    result = {
        "attempted": attempted,
        "failed": failed,
        "round_walls": [sum(r) for r in times[False]],
        "raw_wall_s": sum(statistics.median(job) for job in zip(*times[False])),
        "probe_s": statistics.median(p for r in probes[False] for p in r),
        "ref_wall_s": _ref_wall(times[False], probes[False]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        per_layer = tracer.metrics(len(times[True]))
        traced_wall = _ref_wall(times[True], probes[True])
        per_layer["trace.overhead_s"] = traced_wall - result["ref_wall_s"]
        result["traced_rounds"] = len(times[True])
        result["per_layer"] = per_layer
    return result


# The probe: a fixed piece of work shaped like the workloads' own, namely
# small-matrix numpy calls from a Python loop (the EF oracle, the verify
# suites, the p.p.t. test), scalar float arithmetic into a dict (the
# compiler's dynamic program) and vectorized complex arithmetic on 1 MiB
# arrays (state propagation).  It calls no BLAS matrix product: one that
# did slowed the compile jobs run after it 2.4-fold.
_PROBE_MATRIX = np.array([[2.0, 1 - 1j, 0.5j, 0], [1 + 1j, 1.0, 0, 0.25],
                          [-0.5j, 0, -1.0, 2j], [0, 0.25, -2j, 0.5]])
_PROBE_X = np.exp(1j * np.arange(1 << 16))
_PROBE_Y = np.empty_like(_PROBE_X)
PROBE_REF_S = 0.005  # the probe's fastest seconds on a 2-vCPU x86-64 VM (Python 3.11)


def _probe() -> float:
    start = time.perf_counter()
    for _ in range(100):
        np.linalg.eigh(_PROBE_MATRIX)
    lg = math.lgamma
    acc: dict[int, float] = {}
    for c in range(5000):
        acc[c % 211] = acc.get(c % 211, 0.0) + math.exp(lg(5001) - lg(c + 1) - lg(5001 - c) - 3 * c)
    for _ in range(12):
        np.multiply(_PROBE_X, _PROBE_X, out=_PROBE_Y)
        np.add(_PROBE_Y, _PROBE_X, out=_PROBE_Y)
    return time.perf_counter() - start


def _ref_wall(rounds: list[list[float]], probes: list[list[float]]) -> float:
    """Time for the whole job list at the reference speed of the machine.

    Other tenants of a shared host slow the one core a run gets by 20-60 %,
    in spells of seconds to minutes.  So each job's time is divided by the
    mean time of the probes run just before and just after it, which were
    slowed alike; the job counts with the median of that ratio over rounds,
    and the sum over jobs is scaled back to seconds by PROBE_REF_S."""
    per_job = zip(*([2 * t / (p[j] + p[j + 1]) for j, t in enumerate(r)]
                    for r, p in zip(rounds, probes)))
    return PROBE_REF_S * sum(statistics.median(ratios) for ratios in per_job)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli, verify = _import_entdist()

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        jobs = build_jobs(args.workload, args.seed, workdir, list(verify.SUITES))
        print("READY", flush=True)
        if args.setup_only:
            return 0
        tracer = Tracer() if args.trace else None
        result = measure(cli, jobs, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.write_spans(SPANS / f"{args.workload}-seed{args.seed}.jsonl")
    result["env"] = _environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
