"""Command-line front end.

Subcommands: bounds (bound grids), simulate (protocol closed forms against
brute-force simulation), classify (operation class predicates), rates
(protocol-trace rate accounting), compile (tensor-power compilation), and
verify (the full invariant suite).  All output is deterministic for a fixed
seed: one seeded generator per run, numbers serialized as shortest
round-trip decimals at the configured precision.

Exit codes: 0 success, 1 verification failure, 2 input error (including a
`simulate --K` above MAX_SIMULATE_K, a twirl `simulate` whose --Kprime is not
--K, a `bounds` grid above MAX_BOUNDS_ROWS and a `classify` branch above
MAX_CHOI_DIM).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np

from . import bounds as bnd
from . import distillation as dst
from . import verify as ver
from .operations import (
    is_completely_positive, is_ppt_operation, is_trace_preserving, verify_separable_form,
)
from .serialize import (
    SchemaError,
    decode_operation,
    decode_trace,
    dump_report,
    encode_trace,
    format_number,
    load_json,
)

INPUT_ERROR = 2
# Largest F grid accepted (a step of 1e-5 across [0, 1]), so memory stays bounded.
MAX_F_GRID_POINTS = 100_001
# Largest number of rows, K values times F points, that `bounds` accepts, so
# memory stays bounded: every row is held in memory before any is written.
# At the limit (one K on a 1e-4 grid) the JSON form peaked at 22 MiB of
# Python allocations (tracemalloc; Python 3.11, numpy 2.4.6).
MAX_BOUNDS_ROWS = 10_001
# Largest K that `simulate` accepts, so memory stays bounded.  A K x K state
# is a K^2 x K^2 dense matrix; the costliest row at K = 32, a twirl with 512
# Monte Carlo samples, peaked at 161 MiB RSS in 31 s (2-vCPU x86-64 VM, one
# BLAS thread), and every dense array grows 16-fold when K doubles.
MAX_SIMULATE_K = 32
# Largest d_in * d_out of a branch that `classify` accepts, so memory stays
# bounded: a branch's Choi matrix is (d_in d_out)^2 complex doubles, 16 MiB
# at the limit.  subspace_measurement_op(8, 4), 64 x 16, sits at it; its one
# Choi eigendecomposition, the p.p.t. test, took 0.56 s (median, BENCH_8.json:
# 2-vCPU x86-64 VM, one BLAS thread).
MAX_CHOI_DIM = 1024
# Significant digits a report may ask for: 17 round-trips every double.
PRECISIONS = range(1, 18)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv(rows: list[list], header: list[str], precision: int) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(x, precision) if x is not None else "" for x in row))
    return "\n".join(lines) + "\n"


def nonnegative_int(text: str) -> int:
    """The --seed type: numpy's generators take only seeds >= 0."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def parse_f_grid(spec: str) -> list[float]:
    """Parse 'start:stop:step' into an inclusive grid."""
    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise SchemaError(f"F grid {spec!r} is not start:stop:step") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise SchemaError(f"F grid {spec!r} must be finite with positive step and stop >= start")
    # min() keeps the count finite when the quotient overflows (a tiny step)
    count = int(round(min((stop - start) / step, MAX_F_GRID_POINTS))) + 1
    if count > MAX_F_GRID_POINTS:
        raise SchemaError(f"F grid {spec!r} has more than {MAX_F_GRID_POINTS} points")
    return [round(start + i * step, 12) for i in range(count)]


def cmd_bounds(args: argparse.Namespace) -> int:
    grid = parse_f_grid(args.F_grid)
    if len(args.K_list) * len(grid) > MAX_BOUNDS_ROWS:
        raise SchemaError(
            f"{len(args.K_list)} K values x {len(grid)} F points exceed the row limit "
            f"MAX_BOUNDS_ROWS = {MAX_BOUNDS_ROWS}"
        )
    records = []
    for k in args.K_list:
        for f in grid:
            fb = bnd.formation_bounds_isotropic(k, f)
            hr = bnd.hashing_rate(k, f)
            records.append(
                {
                    "K": k,
                    "F": f,
                    "ef_lower": fb.lower,
                    "ef_upper": fb.upper,
                    "ppt_bound": fb.ppt_bound,
                    "hashing_raw": hr.raw,
                    "hashing_clamped": hr.clamped,
                    "hashing_established": hr.dimension_is_power_of_two,
                }
            )
    if args.emit == "csv":
        header = ["K", "F", "ef_lower", "ef_upper", "ppt_bound", "hashing_raw", "hashing_clamped"]
        rows = [[r[h] for h in header] for r in records]
        _emit(_csv(rows, header, args.precision), args.out)
    else:
        _emit(dump_report(records, args.precision), args.out)
    return 0


def _simulate_rows(args: argparse.Namespace) -> list[dict]:
    rng = np.random.default_rng(args.seed)
    return [
        ver.simulate_point(args.protocol, args.K, args.Kprime, f, rng, args.mc_samples)
        for f in parse_f_grid(args.F_grid)
    ]


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.K > MAX_SIMULATE_K:
        raise SchemaError(f"K = {args.K} exceeds the simulation limit {MAX_SIMULATE_K}")
    if args.mc_samples < 0:
        raise SchemaError(f"--mc-samples must be at least 0, got {args.mc_samples}")
    if args.protocol == "twirl" and args.Kprime != args.K:
        raise SchemaError(
            f"--Kprime {args.Kprime} must equal --K {args.K}: the twirl keeps the dimension"
        )
    records = _simulate_rows(args)
    if args.emit == "csv":
        header = ["K", "Kprime", "F_in", "F_closed_form", "F_simulated", "bound", "pass"]
        rows = [[r[h] for h in header] for r in records]
        _emit(_csv(rows, header, args.precision), args.out)
    else:
        _emit(dump_report(records, args.precision), args.out)
    return 0 if all(r["pass"] for r in records) else 1


def cmd_classify(args: argparse.Namespace) -> int:
    op, witness = decode_operation(load_json(args.input, exact=False))
    for i, sub in enumerate(op.subops):
        if sub.dim_in * sub.dim_out > MAX_CHOI_DIM:
            raise SchemaError(
                f"sub-operation {i}: d_in * d_out = {sub.dim_in} * {sub.dim_out} exceeds "
                f"the Choi matrix limit MAX_CHOI_DIM = {MAX_CHOI_DIM}"
            )
    report = {
        "tp": is_trace_preserving(op),
        "cp": all(is_completely_positive(sub) for sub in op.subops),
        "ppt": is_ppt_operation(op),
        "separable_verified": (
            verify_separable_form(op, witness) if witness is not None else None
        ),
    }
    _emit(dump_report(report, args.precision), args.out)
    return 0


def cmd_rates(args: argparse.Namespace) -> int:
    report = dst.rate_report(decode_trace(load_json(args.input)))
    per_step = [dataclasses.asdict(row) for row in report.per_step]
    if args.emit == "csv":
        header = [f.name for f in dataclasses.fields(dst.StepRates)]
        _emit(_csv([list(row.values()) for row in per_step], header, args.precision), args.out)
    else:
        last = report.per_step[-1]
        doc = {
            "single_branch_rate": report.single_branch,
            "rate": last.rate,
            "residual": last.residual,
            "formation_interval": [last.formation_lower, last.formation_upper],
            "min_fidelity": last.min_fidelity,
            "all_power_of_two": report.all_power_of_two,
            "per_step": per_step,
        }
        _emit(dump_report(doc, args.precision), args.out)
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    trace = decode_trace(load_json(args.input))
    if not dst.dims_are_powers_of_two(trace):
        trace = dst.floor_dims_to_powers_of_two(trace)
    p_frac = Fraction(args.p_fraction)
    r_frac = Fraction(args.rate_fraction)
    out_docs = []
    for k in args.k_list:
        result = dst.tensor_power_compile(trace, dst.CompilerConfig(k, p_frac, r_frac))
        out_docs.append(
            {
                "k": k,
                "achieved_rate": result.achieved_rate,
                "failure_probability": result.failure_probability,
                "failure_method": result.steps[-1].failure_method,
                "rate_bound": result.rate_bound,
                "compiled_trace": (
                    encode_trace(result.def1_trace)
                    if result.def1_trace is not None
                    and all(s.branches[0].K.bit_length() <= 64 for s in result.def1_trace.steps)
                    else None
                ),
                "log2_output_dims": [s.log2_output_dim for s in result.steps],
            }
        )
    if args.emit == "csv":
        header = ["k", "achieved_rate", "failure_probability", "rate_bound"]
        rows = [[d[h] for h in header] for d in out_docs]
        _emit(_csv(rows, header, args.precision), args.out)
    else:
        _emit(dump_report(out_docs, args.precision), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = ver.run_suites(seed=args.seed, suites=args.suite or None)
    if args.emit == "json":
        doc = [
            {
                "suite": r.name,
                "checks": r.checks,
                "failed": len(r.failures),
                "failures": r.failures[:20],
            }
            for r in results
        ]
        _emit(dump_report(doc, args.precision), args.out)
    else:
        _emit(ver.render_text(results), args.out)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdist",
        description="Entanglement distillation workbench: bounds, protocols, "
        "operation classification, and trace rate accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, emit_default: str = "csv") -> None:
        p.add_argument("--emit", choices=["csv", "json"], default=emit_default)
        p.add_argument("--precision", type=int, choices=PRECISIONS, default=12, metavar="N",
                       help="significant decimal digits, 1 to 17")
        p.add_argument("--seed", type=nonnegative_int, default=0)
        p.add_argument("--out", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("bounds", help="evaluate the bound formulas on a (K, F) grid")
    p.add_argument("--K-list", dest="K_list", type=int, nargs="+", required=True)
    p.add_argument("--F-grid", dest="F_grid", default="0:1:0.1", help="start:stop:step")
    common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("simulate", help="protocol simulation against closed forms")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--Kprime", type=int, required=True)
    p.add_argument("--F-grid", dest="F_grid", default="0:1:0.1")
    p.add_argument("--protocol", choices=["1", "2", "reduce", "twirl"], required=True)
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=0,
                   help="Monte Carlo twirl samples; 0 runs the exact twirl only")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("classify", help="class predicates for an operation descriptor")
    p.add_argument("input", help="operation descriptor JSON")
    common(p, emit_default="json")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("rates", help="rate accounting for a protocol trace")
    p.add_argument("input", help="protocol trace JSON")
    common(p, emit_default="json")
    p.set_defaults(fn=cmd_rates)

    p = sub.add_parser("compile", help="tensor-power compilation of a trace")
    p.add_argument("input", help="protocol trace JSON")
    p.add_argument("--k-list", dest="k_list", type=int, nargs="+", required=True)
    p.add_argument("--p-fraction", dest="p_fraction", default="0.9",
                   help="p' as a fraction of each branch probability")
    p.add_argument("--rate-fraction", dest="rate_fraction", default="0.99",
                   help="R' as a fraction of each branch's rate slack")
    common(p, emit_default="json")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--suite", action="append", choices=sorted(ver.SUITES), default=None)
    p.add_argument("--emit", choices=["text", "json"], default="text")
    p.add_argument("--precision", type=int, choices=PRECISIONS, default=12, metavar="N")
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
