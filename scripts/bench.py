#!/usr/bin/env python3
"""Benchmark record of one checkout: end-to-end metrics and layer rows.

For each workload in BENCHMARK.json this runs the checkout's own
`perfbench/run.py --trace 0` (seed 1, the declared run length) and copies
its end-to-end metrics.  It then times the layer rows that the workloads
never reach at these sizes, each as the median of REPEATS calls after a
first call whose time is kept apart (it pays any construction or caching
that later calls skip):

- `apply_operation` and `is_trace_preserving` on
  `subspace_measurement_op(K, K/2)` at K = 6, 8, 12, 16, 24, 32;
- `reduce_dimension` to 7 (to 3 at K = 6) at the same K;
- `is_ppt_operation` on `subspace_measurement_op(K, K/2)` at K = 2, 4, 6, 8
  (its Choi matrix is K^4/4 x K^4/4), and the three predicates `classify`
  reports (cp, ppt, separable with the natural product witness) on the
  dense one-factor form of the same operation, the form `decode_operation`
  builds;
- the `operation-algebra` suite of `verify` at seed 7;
- `ef_numeric_estimate(isotropic(2, F))` at the benchmark's EF fidelities,
  budget and first oracle seed;
- `ef_numeric_search(isotropic(K, F))` at K = 3, F = 0.95 and K = 4,
  F = 0.8 (budget 400, seed 1), where the search is slowest to converge,
  with its iterations, stop reason and gap to the exact `ef_isotropic`;
- `DensityOperator` construction from `isotropic(K, 0.7)`'s matrix at
  K = 4, 8, 12, 16: the public constructor, which proves positivity by an
  eigendecomposition, and the in-package path `_by_construction`, which
  does not (where the checkout has it), next to `isotropic(K, 0.7)` itself;
- `entdist compile` at k = 100, 1000, 4096, 10^4 on one step with 2, 4 and
  8 constrained branches (K = 1024, F = 0.99, probability 0.8 shared
  evenly, a dimension-1 rest), with the failure probability it prints and
  how it was computed, and `entdist rates` on 20 such steps with 4
  branches.  Both run in-process through `entdist.cli.main`.

It also records the EF searches of `lemma1-chain` in one in-process
`verify --seed 7` run (value, restarts run, why they stopped, time),
`entdist verify --seed 7` in REPEATS fresh processes, and the wall time of
the checkout's tier-1 test suite (one run).  The record names the machine,
the repeat count and the line count of `src/entdist`, and is merged under
--label into --out, so one file holds the records of several checkouts
measured on one machine.

Usage: python scripts/bench.py --out BENCH_12.json --label change [--checkout DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYER_KS = (6, 8, 12, 16, 24, 32)
PPT_KS = (2, 4, 6, 8)
REPEATS = 7
BENCH_SEED = 1
# the EF calls of the benchmark's verify workload (perfbench/workloads.py)
EF_FIDELITIES = (0.5, 0.7, 0.9, 1.0)
EF_BUDGET = 400
EF_SEED = 7
EF_SEARCH_CASES = ((3, 0.95), (4, 0.8))
EF_SEARCH_SEED = 1
DENSITY_KS = (4, 8, 12, 16)
COMPILE_KS = (100, 1000, 4096, 10**4)
COMPILE_BRANCHES = (2, 4, 8)
RATES_STEPS = 20


def _env(checkout: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _timed(fn, repeats: int) -> dict[str, float]:
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {"first_s": times[0], "median_s": statistics.median(times[1:])}


def _trace_file(directory: str, steps: int, branches: int) -> str:
    """A trace file of `steps` steps, each with `branches` constrained branches
    (K = 1024, F = 0.99) that share probability 0.8, and a dimension-1 rest."""
    step = [{"p": 0.8 / branches, "K": 1024, "F": 0.99}] * branches + [{"p": 0.2, "K": 1, "F": 1}]
    path = Path(directory) / f"trace-{steps}-{branches}.json"
    path.write_text(json.dumps({"steps": [{"n": 10 * (i + 1), "branches": step}
                                          for i in range(steps)]}), encoding="utf-8")
    return str(path)


def _cli(*argv: str) -> str:
    """stdout of one in-process `entdist` call, which must exit 0."""
    from entdist.cli import main

    with contextlib.redirect_stdout(io.StringIO()) as out:
        if main(list(argv)) != 0:
            raise RuntimeError(f"entdist {' '.join(argv)} failed")
    return out.getvalue()


def trace_rows(repeats: int) -> dict[str, dict]:
    """The `compile` and `rates` rows of the entdist on sys.path, in this process."""
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for branches in COMPILE_BRANCHES:
            path = _trace_file(tmp, 1, branches)
            for k in COMPILE_KS:
                argv = ("compile", path, "--k-list", str(k), "--precision", "17")
                row = _timed(lambda: _cli(*argv), repeats)
                (doc,) = json.loads(_cli(*argv))
                row.update(failure_probability=doc["failure_probability"],
                           failure_method=doc["failure_method"])
                rows[f"compile k={k} branches={branches}"] = row
        path = _trace_file(tmp, RATES_STEPS, 4)
        rates = _timed(lambda: _cli("rates", path), repeats)
        rows[f"rates steps={RATES_STEPS} branches=4"] = rates
    return rows


def layer_rows(repeats: int) -> dict[str, dict[str, float]]:
    """The layer rows of the entdist on sys.path, in this process."""
    from entdist.bounds import ef_isotropic, ef_numeric_estimate, ef_numeric_search
    from entdist.linalg import DensityOperator
    from entdist.operations import (
        QuantumOperation, SubOperation, apply_operation, is_completely_positive,
        is_ppt_operation, is_trace_preserving, natural_product_witness, verify_separable_form,
    )
    from entdist.protocols import reduce_dimension, subspace_measurement_op
    from entdist.states import isotropic
    from entdist.verify import run_suites

    def classify(op, witness):
        return (all(is_completely_positive(sub) for sub in op.subops), is_ppt_operation(op),
                verify_separable_form(op, witness))

    rows = {}
    for k in LAYER_KS:
        rho = isotropic(k, 0.7)
        op = subspace_measurement_op(k, k // 2)
        rows[f"is_trace_preserving K={k}"] = _timed(lambda: is_trace_preserving(op), repeats)
        rows[f"apply_operation K={k}"] = _timed(lambda: apply_operation(op, rho), repeats)
        kp = 3 if k == 6 else 7
        rows[f"reduce_dimension K={k} Kprime={kp}"] = _timed(
            lambda: reduce_dimension(rho, kp), repeats
        )
    for k in PPT_KS:
        op = subspace_measurement_op(k, k // 2)
        rows[f"is_ppt_operation K={k}"] = _timed(lambda: is_ppt_operation(op), repeats)
        dense = QuantumOperation(
            tuple(SubOperation(sub.kraus, sub.out_label) for sub in op.subops), op.in_label
        )
        # the dense branch has no party boundary; the factored one gives the same pairs
        witness = natural_product_witness(op)
        rows[f"classify K={k}"] = _timed(lambda: classify(dense, witness), repeats)
    rows["operation-algebra seed=7"] = _timed(
        lambda: run_suites(seed=7, suites=["operation-algebra"]), repeats
    )
    for f in EF_FIDELITIES:
        rho = isotropic(2, f)
        rows[f"ef_numeric_estimate K=2 F={f}"] = _timed(
            lambda: ef_numeric_estimate(rho, budget=EF_BUDGET, seed=EF_SEED), repeats
        )
    for k, f in EF_SEARCH_CASES:
        rho = isotropic(k, f)
        search = functools.partial(ef_numeric_search, rho, budget=EF_BUDGET, seed=EF_SEARCH_SEED)
        row = _timed(search, repeats)
        ef = search()
        row.update(iterations=ef.iterations, stop=ef.stop, gap=ef.value - ef_isotropic(k, f))
        rows[f"ef_numeric_search K={k} F={f}"] = row
    for k in DENSITY_KS:
        rho = isotropic(k, 0.7)
        m, label = rho.matrix, rho.label
        rows[f"isotropic K={k}"] = _timed(lambda: isotropic(k, 0.7), repeats)
        rows[f"DensityOperator K={k}"] = _timed(lambda: DensityOperator(m, label), repeats)
        if hasattr(DensityOperator, "_by_construction"):
            rows[f"DensityOperator._by_construction K={k}"] = _timed(
                lambda: DensityOperator._by_construction(m, label), repeats
            )
    return rows | trace_rows(repeats)


def lemma1_searches() -> list[dict]:
    """The EF searches of `lemma1-chain` in `verify --seed 7`, in this process."""
    import entdist.bounds as bnd
    from entdist.verify import run_suites

    search, found = bnd.ef_numeric_search, []

    def recorded(rho, *args, **kwargs):
        start = time.perf_counter()
        ef = search(rho, *args, **kwargs)
        found.append({"value": repr(ef.value), "restarts": ef.restarts,
                      "best_restart": ef.best_restart,
                      "restart_stop": getattr(ef, "restart_stop", "budget"),
                      "evaluations": ef.evaluations, "s": time.perf_counter() - start})
        return ef

    bnd.ef_numeric_search = recorded
    try:
        if not all(r.passed for r in run_suites(seed=7)):
            raise RuntimeError("verify --seed 7 failed")
    finally:
        bnd.ef_numeric_search = search
    return found


def _perfbench(checkout: Path, workload: str, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(BENCH_SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], **metrics}


def _verify_seed7(checkout: Path, repeats: int) -> dict[str, float]:
    cmd = [sys.executable, "-m", "entdist.cli", "verify", "--seed", "7"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=checkout, env=_env(checkout), capture_output=True, check=True)
        times.append(time.perf_counter() - start)
    return {"median_s": statistics.median(times), "runs_s": times}


def _tier1(checkout: Path) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=_env(checkout), capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - start, "exit": proc.returncode,
            "summary": proc.stdout.strip().splitlines()[-1]}


def _machine() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        names = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                 if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    import numpy

    return {"cpu": cpu, "nproc": os.cpu_count(), "system": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__, "blas_threads": 1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to merge the record into")
    parser.add_argument("--label", required=True,
                        help="name of this checkout's record, e.g. parent or change")
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args()

    checkout = args.checkout.resolve()
    bench = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {w["name"]: _perfbench(checkout, w["name"], bench["run_seconds"])
                  for w in bench["workloads"]}
    # the layer rows run in a fresh process that imports the checkout's entdist
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "import bench; print(json.dumps({'layers': bench.layer_rows(bench.REPEATS), "
            "'lemma1_chain_seed7': bench.lemma1_searches()}))")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(checkout),
                          capture_output=True, text=True, check=True)
    record = {
        "src_entdist_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in (checkout / "src" / "entdist").glob("*.py")
        ),
        "end_to_end": end_to_end,
        "tier1": _tier1(checkout),
        "verify_seed7_fresh_process": _verify_seed7(checkout, REPEATS),
        **json.loads(proc.stdout.splitlines()[-1]),
    }
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {}
    doc.update(machine=_machine(), repeats=REPEATS, perfbench_seed=BENCH_SEED)
    doc.setdefault("records", {})[args.label] = record
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
