"""Self-verification suites: closed forms against brute-force simulation,
bound identities on grids, operation-algebra properties, and the trace
transforms on synthetic fixtures.

Each check and its tolerance is written once, here.  `simulate_point` is the
pass rule for one simulated grid point: `entdist simulate` prints its records,
and the protocol suites check every grid point through it.  The acceptance
tests run these suites instead of copying them.  Each suite returns per-check
counts and names any failing grid point, so a red run is diagnosable from the
report alone.  All randomness flows from one seeded generator per run, which
every suite takes as its only argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import bounds as bnd
from . import distillation as dst
from . import protocols as pro
from .linalg import BipartiteLabel, DensityOperator, haar_unitaries, min_eigenvalue, random_density
from .operations import (
    QuantumOperation,
    SubOperation,
    apply_operation,
    compose,
    forget,
    identity_operation,
    is_ppt_operation,
    is_trace_preserving,
    natural_product_witness,
    ppt_choi,
    tensor_operations,
    verify_separable_form,
)
from .states import fidelity, isotropic, max_entangled_ket

F_GRID = [round(0.1 * i, 10) for i in range(11)]

# Two computations of one quantity that agree in exact arithmetic: a
# simulated fidelity and its closed form, a composed and a staged operation.
SIM_TOL = 1e-9
# Slack on relations between closed forms (bounds, identities) and on the
# fidelity the exact twirl preserves.
EXACT_TOL = 1e-12
# Largest entry deviation of the Monte Carlo twirl from the exact twirl.
MC_TOL = 1e-2
# Failing checks the text report names per suite.
MAX_FAILURES_SHOWN = 5


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, point: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(point)

    @property
    def passed(self) -> bool:
        return not self.failures


def simulate_point(
    protocol: str, k: int, kp: int, f: float, rng: np.random.Generator, mc_samples: int = 0
) -> dict:
    """One grid point of `entdist simulate`: simulation against closed form.

    Protocols "1", "2" and "reduce" run on isotropic(k, f); the point passes
    when the simulated fidelity matches the closed form and is at least the
    protocol's guaranteed bound.  "twirl" draws a random k x k state from rng
    (f is only echoed) and passes when the exact twirl keeps its fidelity and,
    with mc_samples > 0, the Monte Carlo twirl is within MC_TOL of it; the
    bound column is then that deviation.
    """
    if protocol == "1":
        closed = pro.subspace_measurement_fidelity(k, kp, f)
        ((_, state),) = apply_operation(pro.subspace_measurement_op(k, kp), isotropic(k, f))
        sim, bound = fidelity(state), (kp / k) * f
    elif protocol == "2":
        closed = pro.factor_tracing_fidelity(k, kp, f)
        ((_, state),) = apply_operation(pro.factor_tracing_op(k, kp), isotropic(k, f))
        sim, bound = fidelity(state), f
    elif protocol == "reduce":
        closed = pro.reduce_dimension_fidelity(k, kp, f)
        sim = fidelity(pro.reduce_dimension(isotropic(k, f), kp))
        bound = pro.ReductionPlan(k, kp).guaranteed_fidelity_factor * f
    elif protocol == "twirl":
        rho = random_density(BipartiteLabel(k, k), rng)
        tw = pro.exact_twirl(rho)
        closed, sim, bound = fidelity(rho), fidelity(tw), None
        if mc_samples > 0:
            mc = pro.monte_carlo_twirl(rho, mc_samples, rng)
            bound = float(np.max(np.abs(mc - tw.matrix)))
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    if protocol == "twirl":
        ok = abs(sim - closed) <= EXACT_TOL and (bound is None or bound <= MC_TOL)
    else:
        ok = abs(sim - closed) <= SIM_TOL and sim >= bound - EXACT_TOL
    return {
        "K": k,
        "Kprime": kp,
        "F_in": f,
        "F_closed_form": closed,
        "F_simulated": sim,
        "bound": bound,
        "pass": ok,
    }


def _closed_form_grid(
    res: SuiteResult, rng: np.random.Generator, protocol: str, pairs: list[tuple[int, int]]
) -> None:
    """Every (K, K') pair at every grid F through simulate_point, plus the
    closed form's own guarantee: it is at least the point's bound."""
    for k, kp in pairs:
        for f in F_GRID:
            rec = simulate_point(protocol, k, kp, f, rng)
            res.check(rec["pass"], f"K={k} Kprime={kp} F={f}")
            res.check(
                rec["F_closed_form"] >= rec["bound"] - EXACT_TOL,
                f"closed-form-bound K={k} Kprime={kp} F={f}",
            )


def _suite_protocol1(rng: np.random.Generator) -> SuiteResult:
    res = SuiteResult("protocol1-closed-form")
    _closed_form_grid(res, rng, "1", [(k, kp) for k in range(2, 7) for kp in range(1, k + 1)])
    res.check(
        abs(pro.subspace_measurement_fidelity(4, 2, 1.0) - 0.625) <= 1e-15, "spot K=4 Kprime=2 F=1"
    )
    return res


def _suite_protocol2(rng: np.random.Generator) -> SuiteResult:
    res = SuiteResult("protocol2-closed-form")
    pairs = [(k, kp) for k in range(2, 10) for kp in range(1, k + 1) if k % kp == 0]
    _closed_form_grid(res, rng, "2", pairs)
    for k, kp in pairs:
        res.check(pro.factor_tracing_fidelity(k, kp, 1.0) == 1.0, f"fixed-point K={k} Kprime={kp}")
        # the maximally mixed input (F = 1/K^2) comes out maximally mixed
        res.check(
            abs(pro.factor_tracing_fidelity(k, kp, 1 / (k * k)) - 1 / (kp * kp)) <= EXACT_TOL,
            f"mixed-point K={k} Kprime={kp}",
        )
    return res


def _suite_twirl(rng: np.random.Generator) -> SuiteResult:
    res = SuiteResult("twirl")
    for k in (2, 3):
        rec = simulate_point("twirl", k, k, 0.0, rng, 10_000)
        res.check(rec["pass"], f"K={k} n=10000 monte-carlo-deviation={rec['bound']:.3g}")
        tw = pro.exact_twirl(random_density(BipartiteLabel(k, k), rng))
        for i in range(100):
            (u,) = haar_unitaries(k, 1, rng)
            w = np.kron(u, u.conj())
            conj = w @ tw.matrix @ w.conj().T
            res.check(np.max(np.abs(conj - tw.matrix)) <= SIM_TOL, f"invariance K={k} sample={i}")
    return res


def _suite_lemma2(rng: np.random.Generator) -> SuiteResult:
    res = SuiteResult("lemma2-bound")
    pairs = [(k, kp) for k in range(2, 7) for kp in range(1, k)]
    for k, kp in pairs:
        plan = pro.ReductionPlan(k, kp)
        res.check(
            plan.guaranteed_fidelity_factor >= plan.coarse_fidelity_factor - EXACT_TOL,
            f"factor K={k} Kprime={kp}",
        )
    _closed_form_grid(res, rng, "reduce", pairs)
    return res


def _suite_lemma1(rng: np.random.Generator) -> SuiteResult:
    res = SuiteResult("lemma1-chain")
    for k in range(2, 7):
        for f in F_GRID:
            chain = bnd.ppt_bound_isotropic(k, f) - (
                f * math.log2(k) - bnd.binary_entropy(f)
            )
            expect = (1 - f) * math.log2(k / (k - 1))
            res.check(abs(chain - expect) <= EXACT_TOL, f"chain K={k} F={f}")
            fb = bnd.formation_bounds_isotropic(k, f)
            res.check(fb.lower <= fb.upper + EXACT_TOL, f"order K={k} F={f}")
    # the bounds bracket the exact entanglement of formation (Terhal-Vollbrecht)
    for k in range(2, 17):
        for f in F_GRID:
            fb = bnd.formation_bounds_isotropic(k, f)
            ef = bnd.ef_isotropic(k, f)
            res.check(
                fb.lower - EXACT_TOL <= ef <= fb.upper + EXACT_TOL,
                f"exact-ef K={k} F={f} lower={fb.lower:.6f} ef={ef:.6f} upper={fb.upper:.6f}",
            )
    ef_seed = int(rng.integers(2**32))
    for f in (0.5, 0.7, 0.9, 1.0):
        fb = bnd.formation_bounds_isotropic(2, f)
        ef = bnd.ef_numeric_search(isotropic(2, f), seed=ef_seed)
        res.check(
            fb.lower - 1e-6 <= ef.value <= fb.upper + 1e-4,
            f"ef-estimate K=2 F={f} est={ef.value:.6f} restarts={ef.restarts} "
            f"best={ef.best_restart} iterations={ef.iterations} "
            f"grad_norm={ef.grad_norm:.3g} evaluations={ef.evaluations} stop={ef.stop} "
            f"restart_stop={ef.restart_stop}",
        )
    return res


def _suite_lemma3(rng: np.random.Generator) -> SuiteResult:
    res = SuiteResult("lemma3-identity")
    for k in (2, 4, 8, 16):
        for f in [round(0.05 * i, 10) for i in range(1, 20)]:
            raw = bnd.hashing_rate(k, f).raw
            identity = (
                (2 * f - 1) * math.log2(k)
                - bnd.binary_entropy(f)
                + (1 - f) * math.log2(k * k / (k * k - 1))
            )
            res.check(abs(raw - identity) <= EXACT_TOL, f"identity K={k} F={f}")
            res.check(
                raw >= (2 * f - 1) * math.log2(k) - bnd.binary_entropy(f) - EXACT_TOL,
                f"chain K={k} F={f}",
            )
        res.check(bnd.hashing_rate(k, 1.0).raw == math.log2(k), f"endpoint K={k} F=1")
    return res


def _random_operation(
    rng: np.random.Generator, d_in: int, out_dims: list[int]
) -> QuantumOperation:
    """Random trace-preserving measuring operation via a sliced isometry."""
    kraus_counts = [rng.integers(1, 3) for _ in out_dims]
    ends = np.cumsum([0] + [d * c for d, c in zip(out_dims, kraus_counts)])
    rows = max(ends[-1], d_in)
    g = rng.standard_normal((rows, d_in)) + 1j * rng.standard_normal((rows, d_in))
    q, _ = np.linalg.qr(g)
    subs = [
        SubOperation(q[a:b].reshape(-1, d, d_in), d)
        for a, b, d in zip(ends, ends[1:], out_dims)
    ]
    # any leftover isometry rows join the last branch, zero-padded, to keep completeness
    d_last, extra = out_dims[-1], q[ends[-1] :]
    if len(extra):
        extra = np.concatenate([extra, np.zeros((-len(extra) % d_last, d_in))])
        extra = extra.reshape(-1, d_last, d_in)
        subs[-1] = SubOperation(np.concatenate([subs[-1].kraus, extra]), d_last)
    return QuantumOperation(tuple(subs), d_in)


def _suite_operations(rng: np.random.Generator) -> SuiteResult:
    res = SuiteResult("operation-algebra")
    # probability conservation on 200 randomized cases
    for i in range(200):
        d_in = int(rng.integers(2, 5))
        out_dims = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
        op = _random_operation(rng, d_in, out_dims)
        res.check(is_trace_preserving(op), f"completeness case={i}")
        rho = random_density(d_in, rng)
        total = sum(p for p, _ in apply_operation(op, rho))
        res.check(abs(total - 1) <= SIM_TOL, f"probability-sum case={i}")
    # compose/apply commutation and tensor product rule on smaller batches
    for i in range(40):
        d_mid = int(rng.integers(2, 4))
        first = _random_operation(rng, int(rng.integers(2, 4)), [d_mid, d_mid])
        follow = {
            j: _random_operation(rng, d_mid, [int(rng.integers(1, 4))])
            for j in range(len(first.subops))
        }
        rho = random_density(first.dim_in, rng)
        composed = apply_operation(compose(first, follow), rho)
        staged = []
        for j, (p, state) in enumerate(apply_operation(first, rho)):
            if state is None:
                staged.extend((0.0, None) for _ in follow[j].subops)
                continue
            for q, out in apply_operation(follow[j], state):
                staged.append((p * q, out))
        res.check(len(composed) == len(staged), f"compose-branch-count case={i}")
        for (pc, sc), (ps, ss) in zip(composed, staged):
            res.check(abs(pc - ps) <= SIM_TOL, f"compose-prob case={i}")
            if sc is not None and ss is not None:
                res.check(
                    np.max(np.abs(sc.matrix - ss.matrix)) <= SIM_TOL, f"compose-state case={i}"
                )
    for i in range(40):
        s = _random_operation(rng, 2, [int(rng.integers(1, 3)) for _ in range(2)])
        t = _random_operation(rng, int(rng.integers(2, 4)), [int(rng.integers(1, 3))])
        rho_s = random_density(s.dim_in, rng)
        rho_t = random_density(t.dim_in, rng)
        # a tensor product of two states is PSD by construction
        joint = DensityOperator._by_construction(
            np.kron(rho_s.matrix, rho_t.matrix), s.dim_in * t.dim_in
        )
        got = apply_operation(tensor_operations(s, t), joint)
        ps = [p for p, _ in apply_operation(s, rho_s)]
        pt = [p for p, _ in apply_operation(t, rho_t)]
        want = [a * b for a in ps for b in pt]
        res.check(len(got) == len(want), f"tensor-branch-count case={i}")
        for (g, _), w in zip(got, want):
            res.check(abs(g - w) <= SIM_TOL, f"tensor-product-rule case={i}")
    # forget yields the probability-weighted mixture
    for i in range(20):
        op = _random_operation(rng, 3, [2, 2])
        rho = random_density(3, rng)
        outcomes = apply_operation(op, rho)
        merged = apply_operation(forget(op, [0, 1]), rho)
        mix = sum(p * s.matrix for p, s in outcomes if s is not None)
        res.check(abs(merged[0][0] - 1) <= SIM_TOL, f"forget-prob case={i}")
        res.check(np.max(np.abs(merged[0][1].matrix - mix)) <= SIM_TOL, f"forget-mix case={i}")
    # Kraus images of states are positive (CP holds by construction)
    for i in range(20):
        sub = _random_operation(rng, 3, [3]).subops[0]
        for _ in range(5):
            out = sub.apply_raw(random_density(3, rng).matrix)
            res.check(min_eigenvalue(out) >= -SIM_TOL, f"cp-output case={i}")
    # creation of a maximally entangled pair (trace and replace) is not p.p.t.
    label = BipartiteLabel(2, 2)
    pair = SubOperation(np.einsum("a,jb->jab", max_entangled_ket(2), np.eye(4)), label)
    creation = QuantumOperation((pair,), label)
    res.check(is_trace_preserving(creation), "creation-tp")
    res.check(not is_ppt_operation(creation), "creation-non-ppt")
    ppt_min = min_eigenvalue(ppt_choi(pair, label))
    res.check(ppt_min <= -0.5 + SIM_TOL, "creation-choi-eigenvalue")
    # the protocol operations are local: separable form verifies, p.p.t. holds
    for k, kp, op_f in ((4, 2, pro.subspace_measurement_op), (4, 2, pro.factor_tracing_op)):
        op = op_f(k, kp)
        res.check(verify_separable_form(op, natural_product_witness(op)), f"separable {op_f.__name__}")
        res.check(is_ppt_operation(op), f"ppt {op_f.__name__}")
    res.check(is_ppt_operation(identity_operation(label)), "identity-ppt")
    return res


def _suite_theorem2(rng: np.random.Generator) -> SuiteResult:
    res = SuiteResult("theorem2-transform")
    steps = tuple(
        dst.TraceStep(i, (dst.BranchOutcome(1, 2 ** (3 * i), 1 - Fraction(1, i)),))
        for i in range(1, 41)
    )
    trace = dst.ProtocolTrace(steps)
    out = dst.power_of_two_transform(trace)
    res.check(dst.dims_are_powers_of_two(out.trace), "powers-of-two")
    ratios = out.dim_ratios
    res.check(
        all(a >= b - 1e-15 for a, b in zip(ratios[3:], ratios[4:])), "ratios-monotone-beyond-4"
    )
    res.check(ratios[-1] < ratios[3], "ratios-decrease")
    orig_rate = dst.single_branch_rate(trace)
    new_rate = dst.single_branch_rate(out.trace)
    res.check(orig_rate is not None and abs(orig_rate - 3) <= 1e-6, f"orig-rate {orig_rate}")
    res.check(new_rate is not None and abs(new_rate - 3) <= 1e-6, f"transformed-rate {new_rate}")
    worked = dst.power_of_two_transform(
        dst.ProtocolTrace((dst.TraceStep(10, (dst.BranchOutcome(1, 2**30, Fraction(99, 100)),)),))
    )
    b = worked.trace.steps[0].branches[0]
    res.check(b.K == 2**26, f"worked-dimension {b.K}")
    res.check(float(b.F) == 0.928125, f"worked-fidelity {float(b.F)}")
    return res


def _suite_theorem3(rng: np.random.Generator) -> SuiteResult:
    res = SuiteResult("theorem3-compiler")
    half = Fraction(1, 2)
    branches = (dst.BranchOutcome(half, 1024, Fraction(99, 100)), dst.BranchOutcome(half, 1, 1))
    trace = dst.ProtocolTrace((dst.TraceStep(10, branches),))

    def config(k: int) -> dst.CompilerConfig:
        return dst.CompilerConfig(k, Fraction(9, 10), Fraction(99, 100))

    cfg = config(1000)
    p_prime, rate_prime = cfg.margins(branches[0])
    res.check(p_prime == Fraction(9, 20), f"p-prime {p_prime}")
    out = dst.tensor_power_compile(trace, cfg)
    res.check(out.rate_bound == Fraction(39, 100), f"rate-bound {out.rate_bound}")
    fails = []
    for k, method in ((10, "exact"), (100, "exact"), (1000, "exact"), (10**4, "chernoff")):
        c = dst.tensor_power_compile(trace, config(k))
        res.check(c.steps[0].failure_method == method, f"{method}-method k={k}")
        fails.append(c.failure_probability)
    res.check(fails[0] > fails[1] > fails[2] > fails[3], f"failure-monotone {fails}")
    # Chernoff is at most the Hoeffding bound exp(-2k gap^2), gap = p - floor(p'k)/k
    res.check(fails[3] <= math.exp(-2e4 * (0.5 - 4500 / 10**4) ** 2), f"chernoff {fails[3]:.3g}")
    # margins do not depend on k; c is the k = 10^4 compile
    target = float(rate_prime * p_prime) / 10
    res.check(abs(c.achieved_rate - target) <= 1e-3, f"achieved-rate {c.achieved_rate}")
    res.check(float(out.rate_bound) <= target + 0.5 / 10 + SIM_TOL, "bound-below-sup")
    # two constrained p = 1/2 branches: a 1 - P(success) form would floor this near 7e-13
    pair = dst.ProtocolTrace((dst.TraceStep(10, branches[:1] * 2),))
    pair_cfg = dst.CompilerConfig(2000, Fraction(7, 10), Fraction(99, 100))
    tail = dst.tensor_power_compile(pair, pair_cfg).steps[0]
    res.check(tail.failure_method == "exact", "exact-method two branches k=2000")
    res.check(tail.failure_probability < 1e-40, f"two-branch-tail {tail.failure_probability:.3g}")
    return res


SUITES = {
    "protocol1-closed-form": _suite_protocol1,
    "protocol2-closed-form": _suite_protocol2,
    "twirl": _suite_twirl,
    "lemma2-bound": _suite_lemma2,
    "lemma1-chain": _suite_lemma1,
    "lemma3-identity": _suite_lemma3,
    "operation-algebra": _suite_operations,
    "theorem2-transform": _suite_theorem2,
    "theorem3-compiler": _suite_theorem3,
}


def run_suites(seed: int = 0, suites: list[str] | None = None) -> list[SuiteResult]:
    """Run the named suites (all by default), in order, on one generator
    seeded with seed."""
    names = suites if suites is not None else list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    rng = np.random.default_rng(seed)
    return [SUITES[name](rng) for name in names]


def render_text(results: list[SuiteResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name}: {r.checks - len(r.failures)}/{r.checks} checks")
        for f in r.failures[:MAX_FAILURES_SHOWN]:
            lines.append(f"    failed: {f}")
        if len(r.failures) > MAX_FAILURES_SHOWN:
            lines.append(f"    ... and {len(r.failures) - MAX_FAILURES_SHOWN} more")
    total_fail = sum(len(r.failures) for r in results)
    lines.append(
        f"TOTAL: {len(results)} suites, "
        f"{sum(1 for r in results if r.passed)} passed, "
        f"{sum(1 for r in results if not r.passed)} failed, "
        f"{total_fail} failing checks"
    )
    return "\n".join(lines) + "\n"
