#!/usr/bin/env python3
"""Compare the two reduction protocols and the composite guarantee.

For a fixed input dimension, sweeps every target dimension and reports the
closed-form output fidelity of the subspace measurement, of factor tracing
(where applicable), and of the two-stage composite, against the guaranteed
lower bound.  Every value is a row of `verify.simulate_grid`, called once
per (K, K') and protocol on the one-point grid [F]: the rows of `entdist
simulate`, under its pass rule, so each closed form is cross-checked against
brute-force simulation, and the script exits 1 when a point fails.

Usage: python scripts/reduction_tradeoff.py [--K 6] [--F 0.9] [--out FILE]
"""

import argparse
import sys

import numpy as np

from entdist.serialize import format_number
from entdist.verify import simulate_grid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--K", type=int, default=6)
    parser.add_argument("--F", type=float, default=0.9)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    if not 0 <= args.F <= 1:
        parser.error(f"--F {args.F} outside [0, 1]")
    k, f = args.K, args.F
    rng = np.random.default_rng(0)  # protocols 1, 2 and reduce draw nothing

    lines = ["Kprime,subspace,tracing,composite,composite_bound"]
    failed = []
    for kp in range(1, k):
        recs = {
            protocol: simulate_grid(protocol, k, kp, [f], rng, 0)[0]
            for protocol in ("1", "2", "reduce")
            if protocol != "2" or k % kp == 0
        }
        failed += [f"protocol {p} Kprime={kp}" for p, rec in recs.items() if not rec["pass"]]
        trc = recs["2"]["F_closed_form"] if "2" in recs else None
        comp = recs["reduce"]
        cells = [kp, recs["1"]["F_closed_form"], trc, comp["F_closed_form"], comp["bound"]]
        lines.append(",".join("" if c is None else format_number(c, 12) for c in cells))

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for point in failed:
        print(f"failed: {point}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
