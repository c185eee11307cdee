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
- `apply_operation` on a fresh operation each call, as `verify`'s
  `operation-algebra` suite meets them: two branches on d_in = 3, cut from
  a random 6 x 3 isometry, built, checked by `is_trace_preserving` and
  applied once, the median over FRESH_OPS operations;
- `is_ppt_operation` on `subspace_measurement_op(K, K/2)` at K = 2..8
  (its Choi matrix has K^2 floor(K/2)^2 rows), with its verdict;
- the predicates `classify` reports (cp, and ppt and separable with the
  natural product witness, from `operations._class_verdicts`) on the dense
  one-factor form of the same operation, the form `decode_operation`
  builds, next to the dense route (`is_ppt_operation` and
  `verify_separable_form` on that form), with both verdicts; and the same
  pair on the four witnessed descriptors of perfbench's `classify-compile`
  job list at seed 1, decoded once outside the timing; on its K = 6
  subspace descriptor (SPLIT_DESCRIPTOR), `decode_operation` and
  `_class_verdicts` alone, so a change shows which of the two layers moved;
- `is_ppt_operation` on two branches, each one K^2 x K^2 Kraus matrix cut
  from a random isometry (the `classify` workload's random-K descriptors),
  at K = 3, 4, 6: they are not p.p.t., so both verdicts are timed;
- the `protocol1-closed-form`, `protocol2-closed-form`, `twirl`,
  `lemma2-bound` and `operation-algebra` suites of `verify` at seed 7;
- `entdist simulate` of the composite reduction from K = 16 to 7 on the
  11-point grid 0:1:0.1, in-process through `entdist.cli.main`;
- `ef_numeric_estimate(isotropic(2, F))` at the benchmark's EF fidelities,
  budget and first oracle seed;
- `ef_numeric_search(isotropic(K, F))` at K = 3, F = 0.95 and 0.99 and
  K = 4, F = 0.8, 0.95 and 0.99 (budget 400, seed 1), where the search is
  slowest to converge, with its iterations, objective evaluations, stop
  reason and gap to the exact `ef_isotropic`;
- `DensityOperator` construction from `isotropic(K, 0.7)`'s matrix at
  K = 4, 8, 12, 16: the public constructor, which proves positivity by an
  eigendecomposition, and the in-package path `_by_construction`, which
  does not, next to `isotropic(K, 0.7)` itself;
- `monte_carlo_twirl` of a random K x K state at K = 2, 3, 4, 6, 7, 8 with
  10^4 samples and at K = 16 with 512, each call from the same generator
  seed (K = 7 is the last K of its real form, K = 8 the first of its complex
  one), and `haar_unitaries` at d = 2, 3, 4, 6, 8, 16 for stacks of 512 (one
  twirl chunk) and of 1 (the single draws of `verify`'s invariance checks);
- `entdist compile` at k = 100, 1000, 4096, 10^4 on one step with 2, 4 and
  8 constrained branches (K = 1024, F = 0.99, probability 0.8 shared
  evenly, a dimension-1 rest), with the failure probability it prints and
  how it was computed, and `entdist rates` on 20 such steps with 4
  branches.  Both run in-process through `entdist.cli.main`.

It also records the EF searches of `lemma1-chain` in one in-process
`verify --seed 7` run (value, restarts run, why they stopped, time); the
verify workload's 16 one-restart EF calls (K = 2 at the EF fidelities,
oracle seeds 7-10, budget 400) as their total objective evaluations and
worst gap to `ef_isotropic`, and per F the evaluations and each seed's
stop reason; one-restart EF searches off the isotropic line, on
EF_TWO_QUBIT_STATES seeded random two-qubit states of ranks 1-4, as their
total evaluations and their least and worst gap to Wootters's exact value
(`tests/helpers.wootters_formation`), and the one restart at K = 3,
F = 0.9, seed 0, which stops short of `ef_isotropic` (gap, evaluations,
stop); `entdist verify --seed 7` in REPEATS fresh processes; the
wall time of the checkout's tier-1 test suite (one run); and
the checkout's sizes: the line count of each file in `src/entdist` and
`scripts`, the public names of `entdist`, the defaulted parameters of the
public functions and the options of each subcommand.  The record names the
machine and the repeat count, and is merged under --label into --out, so
one file holds the records of several checkouts measured on one machine.
CI runs the gates only (tier-1, `verify --seed 7`, and perfbench's
report.py smoke run with its output and layer checks) and keeps no numbers:
they are kept here.

Usage: python scripts/bench.py --out BENCH_<pr>.json --label parent|change [--checkout DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import inspect
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
PPT_KS = (2, 3, 4, 5, 6, 7, 8)
NON_PPT_KS = (3, 4, 6)
REPEATS = 7
FRESH_OPS = 200
BENCH_SEED = 1
SPLIT_DESCRIPTOR = "subspace-6-3"  # the perfbench classify job that decodes and decides longest
# the EF calls of the benchmark's verify workload (perfbench/workloads.py)
EF_FIDELITIES = (0.5, 0.7, 0.9, 1.0)
EF_BUDGET = 400
EF_SEED = 7
EF_WORKLOAD_SEEDS = (7, 8, 9, 10)
EF_SEARCH_CASES = ((3, 0.95), (3, 0.99), (4, 0.8), (4, 0.95), (4, 0.99))
EF_SEARCH_SEED = 1
# one-restart searches off the isotropic line: random two-qubit states, ranks
# 1-4 in turn, drawn as in tests/test_bounds.py from this generator seed
EF_TWO_QUBIT_STATES = 40
EF_TWO_QUBIT_SEED = 6
EF_ONE_RESTART_CASE = (3, 0.9, 0)  # K, F, seed: the restart stops 3.4e-5 above
DENSITY_KS = (4, 8, 12, 16)
TWIRL_CASES = ((2, 10**4), (3, 10**4), (4, 10**4), (6, 10**4), (7, 10**4), (8, 10**4),
               (16, 512))
HAAR_DIMS = (2, 3, 4, 6, 8, 16)
HAAR_COUNTS = (512, 1)
COMPILE_KS = (100, 1000, 4096, 10**4)
COMPILE_BRANCHES = (2, 4, 8)
RATES_STEPS = 20
VERIFY_SUITES = ("protocol1-closed-form", "protocol2-closed-form", "twirl", "lemma2-bound",
                 "operation-algebra")
SIMULATE_ARGV = ("simulate", "--K", "16", "--Kprime", "7", "--protocol", "reduce",
                 "--F-grid", "0:1:0.1")


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
    import numpy as np
    from entdist.bounds import ef_isotropic, ef_numeric_estimate, ef_numeric_search
    from entdist.linalg import BipartiteLabel, DensityOperator, haar_unitaries, random_density
    from entdist.operations import (
        QuantumOperation, SubOperation, _class_verdicts, apply_operation, is_completely_positive,
        is_ppt_operation, is_trace_preserving, natural_product_witness, verify_separable_form,
    )
    from entdist.protocols import monte_carlo_twirl, reduce_dimension, subspace_measurement_op
    from entdist.serialize import decode_operation
    from entdist.states import isotropic
    from entdist.verify import run_suites

    def classify_pair(op, witness) -> dict:
        """`classify`'s verdicts and time next to the dense route's."""
        def classify():
            cp = all(is_completely_positive(sub) for sub in op.subops)
            return (cp, *_class_verdicts(op, witness))

        def dense():
            cp = all(is_completely_positive(sub) for sub in op.subops)
            return cp, is_ppt_operation(op), verify_separable_form(op, witness)

        row = _timed(classify, repeats)
        row.update(dense_median_s=_timed(dense, repeats)["median_s"],
                   verdicts=classify(), dense_verdicts=dense())
        return row

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
    rng = np.random.default_rng(BENCH_SEED)
    g = rng.standard_normal((FRESH_OPS + 1, 6, 3)) + 1j * rng.standard_normal((FRESH_OPS + 1, 6, 3))
    isometries, rho = iter(np.linalg.qr(g)[0]), random_density(3, rng)

    def fresh():
        q = next(isometries)
        op = QuantumOperation((SubOperation(q[:4].reshape(2, 2, 3), 2),
                               SubOperation(q[4:].reshape(1, 2, 3), 2)), 3)
        is_trace_preserving(op)  # computes the deviation that apply_operation reads again
        return apply_operation(op, rho)

    rows["apply_operation fresh d_in=3"] = _timed(fresh, FRESH_OPS)
    for k in PPT_KS:
        op = subspace_measurement_op(k, k // 2)
        row = _timed(lambda: is_ppt_operation(op), repeats)
        row.update(ppt=is_ppt_operation(op))
        rows[f"is_ppt_operation K={k}"] = row
        dense = QuantumOperation(
            tuple(SubOperation(sub.kraus, sub.out_label) for sub in op.subops), op.in_label
        )
        # the dense branch has no party boundary; the factored one gives the same pairs
        rows[f"classify K={k}"] = classify_pair(dense, natural_product_witness(op))
    for name, doc in _witnessed_descriptors().items():
        op, witness = decode_operation(doc)
        rows[f"classify {name}"] = classify_pair(op, witness)
        if name == SPLIT_DESCRIPTOR:
            rows[f"decode_operation {name}"] = _timed(lambda: decode_operation(doc), repeats)
            rows[f"_class_verdicts {name}"] = _timed(lambda: _class_verdicts(op, witness), repeats)
    for k in NON_PPT_KS:
        d, label = k * k, BipartiteLabel(k, k)
        rng = np.random.default_rng(BENCH_SEED)
        g = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
        q = np.linalg.qr(g)[0]
        op = QuantumOperation((SubOperation(q[None, :d], label), SubOperation(q[None, d:], label)),
                              label)
        row = _timed(lambda: is_ppt_operation(op), repeats)
        row.update(ppt=is_ppt_operation(op))
        rows[f"is_ppt_operation isometry K={k}"] = row
    for suite in VERIFY_SUITES:
        rows[f"{suite} seed=7"] = _timed(lambda: run_suites(seed=7, suites=[suite]), repeats)
    rows[" ".join(SIMULATE_ARGV)] = _timed(lambda: _cli(*SIMULATE_ARGV), repeats)
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
        row.update(iterations=ef.iterations, evaluations=ef.evaluations, stop=ef.stop,
                   gap=ef.value - ef_isotropic(k, f))
        rows[f"ef_numeric_search K={k} F={f}"] = row
    for k in DENSITY_KS:
        rho = isotropic(k, 0.7)
        m, label = rho.matrix, rho.label
        rows[f"isotropic K={k}"] = _timed(lambda: isotropic(k, 0.7), repeats)
        rows[f"DensityOperator K={k}"] = _timed(lambda: DensityOperator(m, label), repeats)
        rows[f"DensityOperator._by_construction K={k}"] = _timed(
            lambda: DensityOperator._by_construction(m, label), repeats
        )
    for k, samples in TWIRL_CASES:
        rho = random_density(BipartiteLabel(k, k), np.random.default_rng(k))
        rows[f"monte_carlo_twirl K={k} samples={samples}"] = _timed(
            lambda: monte_carlo_twirl(rho, samples, np.random.default_rng(BENCH_SEED)), repeats
        )
    for d in HAAR_DIMS:
        for count in HAAR_COUNTS:
            rows[f"haar_unitaries d={d} count={count}"] = _timed(
                lambda: haar_unitaries(d, count, np.random.default_rng(BENCH_SEED)), repeats
            )
    return rows | trace_rows(repeats)


def _checkout_module(path: Path):
    """The module in a file of the checkout, loaded without touching sys.path,
    under a name no import statement uses (dataclasses look the module up)."""
    name = f"_bench_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _witnessed_descriptors() -> dict:
    """The witnessed local descriptors of perfbench's `classify-compile` job
    list at seed 1, as parsed JSON: name -> descriptor."""
    import entdist

    checkout = Path(entdist.__file__).resolve().parents[2]
    workloads = _checkout_module(checkout / "perfbench" / "workloads.py")
    with tempfile.TemporaryDirectory() as tmp:
        jobs = workloads.build_jobs("classify-compile", BENCH_SEED, Path(tmp), [])
    return {Path(job.argv[1]).stem: job.spec["descriptor"]
            for job in jobs if job.kind == "classify" and job.spec["local"]}


def ef_off_isotropic() -> dict:
    """One-restart EF searches off the isotropic line, in this process."""
    import entdist
    import numpy as np
    from entdist.bounds import ef_isotropic, ef_numeric_search
    from entdist.linalg import BipartiteLabel, DensityOperator
    from entdist.states import isotropic

    helpers = _checkout_module(Path(entdist.__file__).resolve().parents[2] / "tests" / "helpers.py")
    rng = np.random.default_rng(EF_TWO_QUBIT_SEED)
    evaluations, gaps = 0, []
    for i in range(EF_TWO_QUBIT_STATES):
        rank = i % 4 + 1
        x = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        m = x @ x.conj().T
        rho = DensityOperator((m + m.conj().T) / (2 * m.trace().real), BipartiteLabel(2, 2))
        ef = ef_numeric_search(rho, budget=EF_BUDGET, seed=int(rng.integers(2**16)))
        evaluations += ef.evaluations
        gaps.append(ef.value - helpers.wootters_formation(rho.matrix))
    k, f, seed = EF_ONE_RESTART_CASE
    one = ef_numeric_search(isotropic(k, f), budget=EF_BUDGET, seed=seed)
    return {"two_qubit": {"states": EF_TWO_QUBIT_STATES, "evaluations": evaluations,
                          "least_gap": min(gaps), "worst_gap": max(gaps)},
            f"one_restart K={k} F={f} seed={seed}": {
                "gap": one.value - ef_isotropic(k, f), "evaluations": one.evaluations,
                "stop": one.stop}}


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
                      "restart_stop": ef.restart_stop,
                      "evaluations": ef.evaluations, "s": time.perf_counter() - start})
        return ef

    bnd.ef_numeric_search = recorded
    try:
        if not all(r.passed for r in run_suites(seed=7, suites=None)):
            raise RuntimeError("verify --seed 7 failed")
    finally:
        bnd.ef_numeric_search = search
    return found


def ef_workload() -> dict:
    """The verify workload's 16 one-restart EF calls, in this process."""
    from entdist.bounds import ef_isotropic, ef_numeric_search
    from entdist.states import isotropic

    calls = [(f, ef_numeric_search(isotropic(2, f), budget=EF_BUDGET, seed=s))
             for f in EF_FIDELITIES for s in EF_WORKLOAD_SEEDS]
    per_f = {str(f): {"evaluations": sum(ef.evaluations for g, ef in calls if g == f),
                      "stops": [ef.stop for g, ef in calls if g == f]}
             for f in EF_FIDELITIES}
    return {"calls": len(calls), "evaluations": sum(ef.evaluations for _, ef in calls),
            "worst_gap": max(ef.value - ef_isotropic(2, f) for f, ef in calls),
            "per_fidelity": per_f}


def sizes() -> dict:
    """Line counts, public names, defaulted parameters and subcommand options
    of the entdist on sys.path and of the checkout it lies in."""
    import entdist
    import entdist.serialize
    import entdist.verify
    from entdist.cli import build_parser

    checkout = Path(entdist.__file__).resolve().parents[2]
    lines = {str(p.relative_to(checkout)): len(p.read_text(encoding="utf-8").splitlines())
             for pattern in ("src/entdist/*.py", "scripts/*.py")
             for p in sorted(checkout.glob(pattern))}
    names = [n for n, v in vars(entdist).items()
             if not n.startswith("_") and not inspect.ismodule(v)]
    # the knobs: defaulted parameters of the public functions of entdist and of
    # those defined in entdist.verify and entdist.serialize; inspect.signature
    # sees through lru_cache
    knobs = []
    for mod in (entdist, entdist.verify, entdist.serialize):
        for n, v in vars(mod).items():
            if n.startswith("_") or inspect.isclass(v) or not callable(v):
                continue
            if mod is not entdist and getattr(v, "__module__", None) != mod.__name__:
                continue
            params = inspect.signature(v).parameters.values()
            knobs += [f"{mod.__name__}.{n}({p.name}=)" for p in params if p.default is not p.empty]
    # the options each subcommand accepts, positionals included
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: [a.option_strings[0] if a.option_strings else a.dest
                      for a in p._actions if not isinstance(a, argparse._HelpAction)]
               for name, p in sub.choices.items()}
    return {"lines": lines, "public_names": names, "defaulted_parameters": knobs,
            "subcommand_options": options}


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
    # these run in a fresh process that imports the checkout's entdist
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "import bench; print(json.dumps({'sizes': bench.sizes(), "
            "'layers': bench.layer_rows(bench.REPEATS), "
            "'lemma1_chain_seed7': bench.lemma1_searches(), "
            "'ef_verify_workload': bench.ef_workload(), "
            "'ef_off_isotropic': bench.ef_off_isotropic()}))")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(checkout),
                          capture_output=True, text=True, check=True)
    fresh = json.loads(proc.stdout.splitlines()[-1])
    record = {
        "src_entdist_lines": sum(n for path, n in fresh["sizes"]["lines"].items()
                                 if path.startswith("src/entdist/")),
        "end_to_end": end_to_end,
        "tier1": _tier1(checkout),
        "verify_seed7_fresh_process": _verify_seed7(checkout, REPEATS),
        **fresh,
    }
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {}
    doc.update(machine=_machine(), repeats=REPEATS, perfbench_seed=BENCH_SEED)
    doc.setdefault("records", {})[args.label] = record
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
