"""Run every workload and print every metric by name, with its unit.

    python3 perfbench/report.py [--seeds 1 2 ...] [--traced] [--held-out SEED]

For each workload this runs run.py once per seed with tracing off and
prints each end-to-end metric per seed, its median, and its spread (the
distance between the first and third quartile as a share of the median)
against the bound in BENCHMARK.json, plus fail_frac (failed / attempted).

--traced adds one traced run per workload at the first seed: every
per-layer metric, the tracing overhead, and whether the workload loads the
layer it was chosen for.  --held-out runs one more seed per workload and
checks that it fails nothing and that its ref_wall_s lies within the ref_wall_s
bound of the median over --seeds.

Exits 1 if any output failed its check, a spread (setup_s excepted) exceeds
its bound, a workload misses its layer, or the held-out run is out of bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PREDICATES = ("is_ppt_operation", "is_completely_positive", "choi_matrix", "verify_separable_form")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (q3 - q1) / median if median else 0.0


def end_to_end(workload: str, seeds: list[int], seconds: int) -> tuple[bool, float]:
    """Print the seeded runs; return (all checks held, median ref_wall_s)."""
    ok = True
    runs = [run(workload, seed, seconds, 0) for seed in seeds]
    for seed, r in zip(seeds, runs):
        frac = r["failed"] / r["attempted"]
        ok &= r["correct"] and frac == 0
        print(f"  seed {seed}: fail_frac {frac:.4f} ratio ({r['failed']}/{r['attempted']} jobs)")
    for m in BENCH["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        s = spread(values)
        wide = m["name"] != "setup_s" and s > m["bound"]
        ok &= not wide
        flag = "OVER BOUND" if wide else ("wide" if s > m["bound"] / 3 else "ok")
        median = statistics.median(values)
        print(f"  {m['name']:<12} {m['unit']:<4} median {median:10.4f}  spread {s:6.2%}"
              f"  bound {m['bound']:.0%}  {flag}  [{', '.join(f'{v:.4f}' for v in values)}]")
    return ok, statistics.median(r["metrics"]["ref_wall_s"]["value"] for r in runs)


def layer_checks(workload: str, metrics: dict[str, float]) -> list[tuple[str, bool]]:
    self_s = {k[: -len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
    total = sum(self_s.values())

    def share(names) -> float:
        return sum(self_s[n] for n in names) / total if total else 0.0

    if workload == "verify":
        top = max(self_s, key=self_s.get)
        want = "bounds.ef_numeric_estimate"
        return [(f"largest self time is {want} (is {top})", top == want)]
    if workload == "simulate":
        dense = share(n for n in self_s if n.split(".")[0] in ("operations", "linalg", "protocols"))
        bounds_calls = sum(
            v for k, v in metrics.items() if k.startswith("bounds.") and k.endswith(".calls")
        )
        return [(f"operations+linalg+protocols hold {dense:.1%} of self time", dense > 0.5),
                (f"bounds.* absent ({bounds_calls:g} calls)", bounds_calls == 0)]
    predicates = share(
        [f"operations.{p}" for p in PREDICATES] + ["distillation.tensor_power_compile"]
    )
    apply_calls = metrics["operations.apply_operation.calls"]
    return [(f"operation predicates + tensor_power_compile hold {predicates:.1%} of self time",
             predicates > 0.5),
            (f"operations.apply_operation absent ({apply_calls:g} calls)", apply_calls == 0)]


def traced(workload: str, seed: int, seconds: int) -> bool:
    r = run(workload, seed, seconds, 1)
    metrics = {k: v["value"] for k, v in r["metrics"].items()}
    units = {k: v["unit"] for k, v in r["metrics"].items()}
    print(f"  traced run, seed {seed}: per round")
    for name in sorted(metrics):
        if metrics[name]:
            print(f"    {name:<48} {metrics[name]:12.6g} {units[name]}")
    print(f"    ({sum(1 for v in metrics.values() if not v)} more metrics read 0)")
    ok = r["correct"]
    for text, passed in layer_checks(workload, metrics):
        ok &= passed
        print(f"  {'ok  ' if passed else 'MISS'} {text}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--held-out", type=int, default=None)
    args = parser.parse_args()

    wall_bound = next(m["bound"] for m in BENCH["end_to_end"] if m["name"] == "ref_wall_s")
    ok = True
    for workload in args.workloads:
        print(f"{workload}:")
        passed, wall = end_to_end(workload, args.seeds, args.seconds)
        ok &= passed
        if args.traced:
            ok &= traced(workload, args.seeds[0], args.seconds)
        if args.held_out is not None:
            r = run(workload, args.held_out, args.seconds, 0)
            held = r["metrics"]["ref_wall_s"]["value"]
            within = r["failed"] == 0 and abs(held - wall) <= wall_bound * wall
            ok &= within
            print(f"  {'ok  ' if within else 'MISS'} held-out seed {args.held_out}: fail_frac "
                  f"{r['failed'] / r['attempted']:.4f}, ref_wall_s {held:.4f} vs median {wall:.4f} "
                  f"({held / wall - 1:+.2%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
