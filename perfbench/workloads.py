"""Job lists of the benchmark's workloads, generated from a workload seed.

A job is one `entdist` command line plus the generated input it was built
from, which the oracle uses to derive the expected output.  Inputs that a
command reads from a file (operation descriptors and protocol traces) are
written into a work directory owned by the caller.  Only numpy and the
standard library are used here, so generating a job list exercises no
`entdist` code.

Each workload keeps the amount of work fixed and lets the seed draw values
that do not change it (fidelities, random states and operations, branch
dimensions and fidelities).  Where the cost of a job depends steeply on an
input, that input is fixed; README.md gives the reasons per workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

WORKLOADS = ("verify", "simulate", "classify-compile")

# The verify suite that runs the entanglement-of-formation (EF) oracle.  Its
# CLI job is one 13-20 s call, too long to time steadily on a shared machine,
# so the benchmark calls the oracle itself: one restart (EF_BUDGET line-search
# iterations) per call, on the suite's K = 2 isotropic states, from fixed
# oracle seeds.  The oracle's cost moves by about 10 % with its seed, so the
# workload seed does not draw them.
EF_SUITE = "lemma1-chain"
EF_FIDELITIES = (0.5, 0.7, 0.9, 1.0)
EF_SEEDS = (7, 8, 9, 10)
EF_BUDGET = 400

MC_SAMPLES = 10_000
COMPILE_K_LIST = (512, 2048, 4096, 8192)  # both sides of EXACT_TAIL_LIMIT
P_FRACTION = Fraction(9, 10)
RATE_FRACTIONS = (Fraction(9, 10), Fraction(95, 100), Fraction(99, 100))
# Constrained branch probabilities of the compile traces, 1 to 4 branches;
# the rest of the mass is a dimension-1 failure branch.  They fix the cost of
# the compiler's dynamic program, so the seed does not draw them.
COMPILE_PROBS = (
    (Fraction(8, 10),),
    (Fraction(6, 10), Fraction(3, 10)),
    (Fraction(4, 10), Fraction(3, 10), Fraction(2, 10)),
    (Fraction(3, 10), Fraction(25, 100), Fraction(2, 10), Fraction(15, 100)),
)


@dataclass(frozen=True)
class Job:
    kind: str  # the subcommand, or "ef" for a direct oracle call; selects the oracle
    argv: tuple[str, ...]  # the command line; for "ef", a description of the call
    spec: dict[str, Any]


def build_jobs(workload: str, seed: int, workdir: Path, suites: list[str]) -> list[Job]:
    """The workload's job list for this seed; `suites` names the verify suites."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "verify":
        return _verify_jobs(seed, suites)
    if workload == "simulate":
        return _simulate_jobs(rng)
    if workload == "classify-compile":
        return _classify_jobs(rng, workdir) + _trace_jobs(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# verify: the invariant suites, dominated by the entanglement-of-formation oracle.
# ---------------------------------------------------------------------------


def _verify_jobs(seed: int, suites: list[str]) -> list[Job]:
    if EF_SUITE not in suites:
        raise ValueError(f"verify has no suite {EF_SUITE!r}")
    jobs = [
        Job("verify", ("verify", "--seed", str(seed), "--suite", name), {"suites": [name]})
        for name in suites
        if name != EF_SUITE
    ]
    for f in EF_FIDELITIES:
        for ef_seed in EF_SEEDS:
            spec = {"K": 2, "F": f, "budget": EF_BUDGET, "seed": ef_seed}
            jobs.append(Job("ef", ("ef_numeric_estimate", *(f"{k}={v}" for k, v in spec.items())),
                            spec))
    return jobs


# ---------------------------------------------------------------------------
# simulate: dense state propagation through the protocol operations.
# ---------------------------------------------------------------------------


def _grid(start: float, points: int, step: float = 0.1) -> tuple[str, list[float]]:
    """An F-grid argument and the values the CLI expands it to."""
    stop = round(start + (points - 1) * step, 12)
    spec = f"{start!r}:{stop!r}:{step!r}"
    count = int(round((stop - start) / step)) + 1
    return spec, [round(start + i * step, 12) for i in range(count)]


def _simulate_job(
    protocol: str, k: int, kp: int, start: float, points: int, cli_seed: int | None = None
) -> Job:
    spec, grid = _grid(start, points)
    argv = ["simulate", "--K", str(k), "--Kprime", str(kp), "--protocol", protocol,
            "--F-grid", spec, "--emit", "json", "--precision", "17"]
    if protocol == "twirl":
        argv += ["--mc-samples", str(MC_SAMPLES), "--seed", str(cli_seed)]
    return Job("simulate", tuple(argv), {"protocol": protocol, "K": k, "Kprime": kp, "grid": grid})


def _simulate_jobs(rng: np.random.Generator) -> list[Job]:
    def fidelity_start(points: int) -> float:
        return int(rng.integers(0, 101 - 10 * (points - 1))) / 100

    jobs = []
    # K = 6 and 8 cost milliseconds for any K', so the seed draws K'.
    for k in (6, 8):
        choices = {
            "1": list(range(2, k)),
            "2": [d for d in range(2, k) if k % d == 0],
            "reduce": list(range(2, k)),
        }
        for protocol, kps in choices.items():
            kp = int(rng.choice(kps))
            jobs.append(_simulate_job(protocol, k, kp, fidelity_start(3), 3))
    # At K = 12 the cost of protocol 1 and of the reduction varies 30-fold
    # with K', so those K' are fixed; factor tracing stays cheap for any divisor.
    jobs.append(_simulate_job("1", 12, 6, fidelity_start(1), 1))
    jobs.append(_simulate_job("2", 12, int(rng.choice([2, 3, 4, 6])), fidelity_start(1), 1))
    jobs.append(_simulate_job("reduce", 12, 5, fidelity_start(1), 1))
    # The memory-bound case: the composite reduction at K = 16.
    jobs.append(_simulate_job("reduce", 16, 7, fidelity_start(1), 1))
    for k in (2, 3, 4, 6):
        jobs.append(_simulate_job("twirl", k, k, 0.0, 1, cli_seed=int(rng.integers(2**31))))
    return jobs


# ---------------------------------------------------------------------------
# classify-compile: class predicates on operations, rate accounting, compiler.
# ---------------------------------------------------------------------------


Kraus = list[np.ndarray]
Factors = list[tuple[np.ndarray, np.ndarray]]  # (A, B) with Kraus matrix A (x) B


def _encode_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _write_json(path: Path, doc: Any) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _descriptor(
    in_dims: tuple[int, int],
    subops: list[tuple[tuple[int, int], Kraus]],
    witness: list[Factors] | None,
) -> dict:
    doc: dict[str, Any] = {
        "input": list(in_dims),
        "subops": [
            {"output": list(out), "kraus": [_encode_matrix(k) for k in kraus]}
            for out, kraus in subops
        ],
    }
    if witness is not None:
        doc["witness"] = [
            [[_encode_matrix(a), _encode_matrix(b)] for a, b in pairs] for pairs in witness
        ]
    return doc


def _random_isometry_op(rng: np.random.Generator, k: int) -> list[tuple[tuple[int, int], Kraus]]:
    """Two branches on K x K, each one Kraus matrix cut from a random isometry."""
    d = k * k
    g = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
    q, _ = np.linalg.qr(g)
    return [((k, k), [q[:d]]), ((k, k), [q[d:]])]


def _product_subop(side_a: Kraus, side_b: Kraus) -> tuple[Kraus, Factors]:
    pairs = [(a, b) for a in side_a for b in side_b]
    return [np.kron(a, b) for a, b in pairs], pairs


def _subspace_measurement(k: int, kp: int) -> tuple[Kraus, Factors]:
    """Both parties keep the first kp basis states or, on failure, replace
    their part by the mixed state on them; the four branches merged."""
    succ = np.zeros((kp, k))
    succ[:, :kp] = np.eye(kp)
    fail = []
    for m in range(kp, k):
        for j in range(kp):
            e = np.zeros((kp, k))
            e[j, m] = 1 / np.sqrt(kp)
            fail.append(e)
    kraus, pairs = [], []
    for side_a in ([succ], fail):
        for side_b in ([succ], fail):
            ks, ps = _product_subop(side_a, side_b)
            kraus += ks
            pairs += ps
    return kraus, pairs


def _factor_tracing(k: int, kp: int) -> tuple[Kraus, Factors]:
    """Both parties split K = K' x (K/K') and trace the second factor."""
    ratio = k // kp
    local = []
    for m in range(ratio):
        e = np.zeros((kp, k))
        for i in range(kp):
            e[i, i * ratio + m] = 1
        local.append(e)
    return _product_subop(local, local)


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _pair_creation(rng: np.random.Generator) -> list[np.ndarray]:
    """Discard a 2 x 2 input and prepare a maximally entangled pair, rotated
    by seeded local unitaries: trace preserving and not p.p.t."""
    phi = np.eye(2).reshape(-1) / np.sqrt(2)
    phi = np.kron(_haar(rng, 2), _haar(rng, 2)) @ phi
    return [np.outer(phi, np.eye(4)[j]) for j in range(4)]


def _classify_job(workdir: Path, name: str, doc: dict, expect_separable: bool | None,
                  local: bool) -> Job:
    path = _write_json(workdir / f"{name}.json", doc)
    spec = {"descriptor": doc, "separable": expect_separable, "local": local}
    return Job("classify", ("classify", path), spec)


def _classify_jobs(rng: np.random.Generator, workdir: Path) -> list[Job]:
    jobs = []
    for k in (2, 3, 4):
        subops = _random_isometry_op(rng, k)
        witness = None
        if k == 2:
            # a product witness that does not induce the operation
            witness = [[(_haar(rng, 2), _haar(rng, 2))] for _ in subops]
        doc = _descriptor((k, k), subops, witness)
        jobs.append(_classify_job(workdir, f"random-{k}", doc, False if witness else None, False))
    # K = 6 dominates the p.p.t. test, whose cost grows with the Kraus count,
    # so the K = 6 K' are fixed and the seed draws K' at K = 4.
    local_ops = [
        ("subspace", 4, int(rng.integers(1, 4)), _subspace_measurement),
        ("subspace", 6, 3, _subspace_measurement),
        ("factor", 4, 2, _factor_tracing),
        ("factor", 6, int(rng.choice([2, 3])), _factor_tracing),
    ]
    for name, k, kp, build in local_ops:
        kraus, pairs = build(k, kp)
        doc = _descriptor((k, k), [((kp, kp), kraus)], [pairs])
        jobs.append(_classify_job(workdir, f"{name}-{k}-{kp}", doc, True, True))
    doc = _descriptor((2, 2), [((2, 2), _pair_creation(rng))], None)
    jobs.append(_classify_job(workdir, "pair-creation", doc, None, False))
    return jobs


def _branch(rng: np.random.Generator, p: Fraction) -> dict:
    k = 2 ** int(rng.integers(4, 13))
    return {"p": p, "K": k, "F": Fraction(int(rng.integers(900, 1000)), 1000)}


def _step(rng: np.random.Generator, n: int, probs: tuple[Fraction, ...]) -> dict:
    branches = [_branch(rng, p) for p in probs]
    rest = 1 - sum(probs)
    if rest:
        branches.append({"p": rest, "K": 1, "F": Fraction(1)})
    return {"n": n, "branches": branches}


def _trace_doc(trace: dict) -> dict:
    """Wire form of a trace; every value is a short decimal, so the CLI's
    exact-fraction parser reads back the generated fractions."""
    return {
        "steps": [
            {"n": s["n"], "branches": [
                {"p": float(b["p"]), "K": b["K"], "F": float(b["F"])} for b in s["branches"]
            ]}
            for s in trace["steps"]
        ]
    }


def _trace_jobs(rng: np.random.Generator, workdir: Path) -> list[Job]:
    jobs = []
    for i, probs in enumerate(COMPILE_PROBS):
        trace = {"steps": [_step(rng, int(rng.integers(1, 9)), probs)]}
        path = _write_json(workdir / f"trace-{i + 1}.json", _trace_doc(trace))
        rate_fraction = RATE_FRACTIONS[int(rng.integers(len(RATE_FRACTIONS)))]
        jobs.append(Job("rates", ("rates", path, "--precision", "17"), {"trace": trace}))
        # one job per k: shorter jobs time more steadily (see worker._ref_wall)
        jobs += [
            Job("compile",
                ("compile", path, "--k-list", str(k), "--p-fraction", str(float(P_FRACTION)),
                 "--rate-fraction", str(float(rate_fraction)), "--precision", "17"),
                {"trace": trace, "k_list": (k,), "p_fraction": P_FRACTION,
                 "rate_fraction": rate_fraction})
            for k in COMPILE_K_LIST
        ]
    # a multi-step trace for the per-step rate accounting
    ns = sorted(int(n) for n in rng.choice(np.arange(1, 40), size=3, replace=False))
    trace = {"steps": [_step(rng, n, COMPILE_PROBS[1]) for n in ns]}
    path = _write_json(workdir / "trace-steps.json", _trace_doc(trace))
    jobs.append(Job("rates", ("rates", path, "--precision", "17"), {"trace": trace}))
    return jobs
