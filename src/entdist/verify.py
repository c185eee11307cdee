"""Self-verification suites: closed forms against brute-force simulation,
bound identities on grids, operation-algebra properties, and the trace
transforms on synthetic fixtures.

Each check and its tolerance is written once, here.  `simulate_grid` is the
pass rule for the F grid of one (K, K') pair: `entdist simulate` prints its
rows, and the protocol suites check every grid point through it.  The
acceptance tests run these suites instead of copying them.  Each suite
returns per-check counts and names any failing grid point, so a red run is
diagnosable from the report alone.  All randomness flows from one seeded
generator per run, which every suite takes as its only argument.  The
random operations and states of `operation-algebra` are drawn in stacks
(one batched QR per shape), and each case is then checked on its own
through the library function under test.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import bounds as bnd
from . import distillation as dst
from . import protocols as pro
from .linalg import (
    BipartiteLabel,
    DensityOperator,
    _normalized_grams,
    haar_unitaries,
    min_eigenvalue,
    random_density,
)
from .operations import (
    QuantumOperation,
    SubOperation,
    apply_operation,
    compose,
    forget,
    identity_operation,
    is_ppt_operation,
    is_trace_preserving,
    make_local,
    natural_product_witness,
    ppt_choi,
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
# Largest amount by which the numerical entanglement-of-formation estimate
# may exceed the exact isotropic value.
EF_GAP_TOL = 1e-6
# Largest entry deviation of the Monte Carlo twirl from the exact twirl at
# MC_TOL_SAMPLES samples; the sampling noise, and so the tolerance, scales
# as 1/sqrt(samples).
MC_TOL = 1e-2
MC_TOL_SAMPLES = 10_000
# Rounding slack on floats of order one: closed forms at exact points, monotone ratios.
ROUNDING_TOL = 1e-15
# Distance of theorem2's single-branch rate estimates from their limit 3.
RATE_TOL = 1e-6
# Distance of the compiled rate at k = 10^4 from its margins' rate: the floors cost O(1/k).
COMPILE_TOL = 1e-3
# Ceiling on an exact two-branch failure tail; a 1 - P(success) form floors near 7e-13.
TAIL_MAX = 1e-40
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


def simulate_grid(
    protocol: str, k: int, kp: int, grid: Sequence[float], rng: np.random.Generator, mc_samples: int
) -> list[dict]:
    """The rows of `entdist simulate` for one (K, K'), one per F of grid.

    Protocols "1", "2" and "reduce" run on isotropic(k, f); a row passes
    when the simulated fidelity matches the closed form and is at least the
    protocol's guaranteed bound.  The operation is applied at the least and
    the greatest f only: the isotropic family is affine in F, so between
    them the branch's trace and its overlap with P+ are convex combinations
    of their end values, and the fidelity is their ratio.  "twirl" draws a
    random k x k state from rng per row (f is only echoed) and passes when
    the exact twirl keeps its fidelity and, with mc_samples > 0, the Monte
    Carlo twirl is within MC_TOL * sqrt(MC_TOL_SAMPLES / mc_samples) of it;
    the bound column is then that deviation.
    """
    rows = []
    if protocol == "twirl":
        for f in grid:
            rho = random_density(BipartiteLabel(k, k), rng)
            tw = pro.exact_twirl(rho)
            closed, sim, bound = fidelity(rho), fidelity(tw), None
            if mc_samples > 0:
                mc = pro.monte_carlo_twirl(rho, mc_samples, rng)
                bound = float(np.max(np.abs(mc - tw.matrix)))
            mc_ok = bound is None or bound <= MC_TOL * math.sqrt(MC_TOL_SAMPLES / mc_samples)
            rows.append((f, closed, sim, bound, abs(sim - closed) <= EXACT_TOL and mc_ok))
    elif protocol in ("1", "2", "reduce"):
        closed_form, build = {
            "1": (pro.subspace_measurement_fidelity, pro.subspace_measurement_op),
            "2": (pro.factor_tracing_fidelity, pro.factor_tracing_op),
            "reduce": (pro.reduce_dimension_fidelity, pro._reduction_op),
        }[protocol]
        # the closed forms check the arguments before any operation is built
        closed = [closed_form(k, kp, f) for f in grid]
        op, plan = build(k, kp), pro.ReductionPlan(k, kp)
        factor = {"1": kp / k, "2": 1, "reduce": plan.guaranteed_fidelity_factor}[protocol]
        lo, hi = min(grid), max(grid)
        ends = {f: apply_operation(op, isotropic(k, f))[0] for f in {lo, hi}}  # f -> (p, state)
        (p_lo, sim_lo), (p_hi, sim_hi) = ((p, fidelity(out)) for p, out in (ends[lo], ends[hi]))
        for f, c in zip(grid, closed):
            t = (f - lo) / (hi - lo) if lo < f < hi else 0.0
            between = ((1 - t) * p_lo * sim_lo + t * p_hi * sim_hi) / ((1 - t) * p_lo + t * p_hi)
            sim = sim_lo if f == lo else sim_hi if f == hi else between
            bound = factor * f
            rows.append((f, c, sim, bound, abs(sim - c) <= SIM_TOL and sim >= bound - EXACT_TOL))
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    keys = ("F_in", "F_closed_form", "F_simulated", "bound", "pass")
    return [{"K": k, "Kprime": kp, **dict(zip(keys, row))} for row in rows]


def _closed_form_grid(
    res: SuiteResult, rng: np.random.Generator, protocol: str, pairs: list[tuple[int, int]]
) -> None:
    """Every (K, K') pair at every grid F through simulate_grid, plus the
    closed form's own guarantee: it is at least the point's bound."""
    for k, kp in pairs:
        for f, rec in zip(F_GRID, simulate_grid(protocol, k, kp, F_GRID, rng, 0)):
            res.check(rec["pass"], f"K={k} Kprime={kp} F={f}")
            res.check(
                rec["F_closed_form"] >= rec["bound"] - EXACT_TOL,
                f"closed-form-bound K={k} Kprime={kp} F={f}",
            )


def _suite_protocol1(rng: np.random.Generator) -> SuiteResult:
    res = SuiteResult("protocol1-closed-form")
    _closed_form_grid(res, rng, "1", [(k, kp) for k in range(2, 7) for kp in range(1, k + 1)])
    spot = pro.subspace_measurement_fidelity(4, 2, 1.0)
    res.check(abs(spot - 0.625) <= ROUNDING_TOL, "spot K=4 Kprime=2 F=1")
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
        (rec,) = simulate_grid("twirl", k, k, [0.0], rng, 10_000)
        res.check(rec["pass"], f"K={k} n=10000 monte-carlo-deviation={rec['bound']:.3g}")
        tw = pro.exact_twirl(random_density(BipartiteLabel(k, k), rng))
        u = haar_unitaries(k, 100, rng)
        w = np.einsum("sij,skl->sikjl", u, u.conj()).reshape(len(u), k * k, k * k)
        conj = w @ tw.matrix @ w.conj().transpose(0, 2, 1)
        for i, dev in enumerate(np.max(np.abs(conj - tw.matrix), axis=(1, 2))):
            res.check(dev <= SIM_TOL, f"invariance K={k} sample={i}")
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
    # the numerical oracle is an upper estimate of the exact value
    ef_seed = int(rng.integers(2**32))
    for f in (0.5, 0.7, 0.9, 1.0):
        exact = bnd.ef_isotropic(2, f)
        ef = bnd.ef_numeric_search(isotropic(2, f), seed=ef_seed)
        res.check(
            exact - EXACT_TOL <= ef.value <= exact + EF_GAP_TOL,
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


def _stacked(
    rng: np.random.Generator,
    shapes: Sequence[tuple[int, int]],
    f: Callable[[np.ndarray], np.ndarray],
) -> list[np.ndarray]:
    """f applied to one complex Ginibre matrix per (rows, cols) in shapes; the
    matrices are drawn, and f is applied, as one stack per distinct shape,
    taken in order of first appearance."""
    groups: dict = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    out: list = [None] * len(shapes)
    for shape, idx in groups.items():
        size = (len(idx), *shape)
        for i, m in zip(idx, f(rng.standard_normal(size) + 1j * rng.standard_normal(size))):
            out[i] = m
    return out


def _random_operations(
    rng: np.random.Generator, shapes: Sequence[tuple[int, Sequence[int]]]
) -> list[QuantumOperation]:
    """One random trace-preserving measuring operation per (d_in, branch
    output dims) shape, each sliced from a random isometry.

    Each branch takes 1 or 2 Kraus matrices; the isometry has
    max(sum of d * count, d_in) rows, and any leftover rows join the last
    branch, zero-padded, to keep completeness.  The isometries are the Q
    factors of Ginibre matrices, one batched QR per stack of equal shape.
    """
    widths = [len(dims) for _, dims in shapes]
    counts = np.split(rng.integers(1, 3, size=sum(widths)), np.cumsum(widths)[:-1])
    ends = [np.cumsum([0, *(np.array(dims) * n)]) for (_, dims), n in zip(shapes, counts)]
    sizes = [(max(int(e[-1]), d_in), d_in) for e, (d_in, _) in zip(ends, shapes)]
    ops = []
    for (d_in, dims), e, q in zip(shapes, ends, _stacked(rng, sizes, lambda g: np.linalg.qr(g)[0])):
        q = np.concatenate([q, np.zeros((-(len(q) - e[-2]) % dims[-1], d_in))])
        cuts = zip(e, [*e[1:-1], len(q)], dims)
        subs = tuple(SubOperation(q[a:b].reshape(-1, d, d_in), d) for a, b, d in cuts)
        ops.append(QuantumOperation(subs, d_in))
    return ops


def _random_states(rng: np.random.Generator, dims: Sequence[int]) -> list[DensityOperator]:
    """One random full-rank state per dimension, drawn as `random_density`
    draws one, as one stack per dimension."""
    grams = _stacked(rng, [(d, d) for d in dims], _normalized_grams)
    return [DensityOperator._by_construction(m, d) for d, m in zip(dims, grams)]


def _suite_operations(rng: np.random.Generator) -> SuiteResult:
    res = SuiteResult("operation-algebra")
    # probability conservation on 200 randomized cases
    d_ins = rng.integers(2, 5, size=200).tolist()
    widths = rng.integers(1, 4, size=200)
    out_dims = np.split(rng.integers(1, 4, size=widths.sum()), np.cumsum(widths)[:-1])
    ops = _random_operations(rng, [(d, dims.tolist()) for d, dims in zip(d_ins, out_dims)])
    for i, (op, rho) in enumerate(zip(ops, _random_states(rng, d_ins))):
        res.check(is_trace_preserving(op), f"completeness case={i}")
        total = sum(p for p, _ in apply_operation(op, rho))
        res.check(abs(total - 1) <= SIM_TOL, f"probability-sum case={i}")
    # compose/apply commutation and tensor product rule on smaller batches
    d_mids = rng.integers(2, 4, size=40).tolist()
    d_ins = rng.integers(2, 4, size=40).tolist()
    follow_dims = rng.integers(1, 4, size=(40, 2)).tolist()
    firsts = _random_operations(rng, [(d, [m, m]) for d, m in zip(d_ins, d_mids)])
    follows = _random_operations(
        rng, [(m, [o]) for m, pair in zip(d_mids, follow_dims) for o in pair]
    )
    for i, (first, rho) in enumerate(zip(firsts, _random_states(rng, d_ins))):
        follow = dict(enumerate(follows[2 * i : 2 * i + 2]))
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
    s_dims = rng.integers(1, 3, size=(40, 2)).tolist()
    t_ins = rng.integers(2, 4, size=40).tolist()
    t_dims = rng.integers(1, 3, size=40).tolist()
    s_ops = _random_operations(rng, [(2, dims) for dims in s_dims])
    t_ops = _random_operations(rng, [(d, [o]) for d, o in zip(t_ins, t_dims)])
    s_states, t_states = _random_states(rng, [2] * 40), _random_states(rng, t_ins)
    for i, (s, t, rho_s, rho_t) in enumerate(zip(s_ops, t_ops, s_states, t_states)):
        # a tensor product of two states is PSD by construction
        joint = DensityOperator._by_construction(
            np.kron(rho_s.matrix, rho_t.matrix), s.dim_in * t.dim_in
        )
        got = apply_operation(make_local(s, t), joint)
        ps = [p for p, _ in apply_operation(s, rho_s)]
        pt = [p for p, _ in apply_operation(t, rho_t)]
        want = [a * b for a in ps for b in pt]
        res.check(len(got) == len(want), f"tensor-branch-count case={i}")
        for (g, _), w in zip(got, want):
            res.check(abs(g - w) <= SIM_TOL, f"tensor-product-rule case={i}")
    # forget yields the probability-weighted mixture
    ops = _random_operations(rng, [(3, [2, 2])] * 20)
    for i, (op, rho) in enumerate(zip(ops, _random_states(rng, [3] * 20))):
        outcomes = apply_operation(op, rho)
        merged = apply_operation(forget(op, [0, 1]), rho)
        mix = sum(p * s.matrix for p, s in outcomes if s is not None)
        res.check(abs(merged[0][0] - 1) <= SIM_TOL, f"forget-prob case={i}")
        res.check(np.max(np.abs(merged[0][1].matrix - mix)) <= SIM_TOL, f"forget-mix case={i}")
    # Kraus images of states are positive (CP holds by construction)
    ops = _random_operations(rng, [(3, [3])] * 20)
    states = _random_states(rng, [3] * 100)
    for i, op in enumerate(ops):
        for rho in states[5 * i : 5 * i + 5]:
            out = op.subops[0].apply_raw(rho.matrix)
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
    monotone = all(a >= b - ROUNDING_TOL for a, b in zip(ratios[3:], ratios[4:]))
    res.check(monotone, "ratios-monotone-beyond-4")
    res.check(ratios[-1] < ratios[3], "ratios-decrease")
    for which, t in (("orig", trace), ("transformed", out.trace)):
        rate = dst.single_branch_rate(t)
        res.check(rate is not None and abs(rate - 3) <= RATE_TOL, f"{which}-rate {rate}")
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
    res.check(abs(c.achieved_rate - target) <= COMPILE_TOL, f"achieved-rate {c.achieved_rate}")
    res.check(float(out.rate_bound) <= target + 0.5 / 10 + SIM_TOL, "bound-below-sup")
    pair = dst.ProtocolTrace((dst.TraceStep(10, branches[:1] * 2),))
    pair_cfg = dst.CompilerConfig(2000, Fraction(7, 10), Fraction(99, 100))
    tail = dst.tensor_power_compile(pair, pair_cfg).steps[0]
    res.check(tail.failure_method == "exact", "exact-method two branches k=2000")
    res.check(tail.failure_probability < TAIL_MAX, f"two-branch-tail {tail.failure_probability:.3g}")
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


def run_suites(seed: int, suites: list[str] | None) -> list[SuiteResult]:
    """Run the named suites (all if suites is None), in order, on one generator
    seeded with seed.  A suite that raises ValueError reports it as one
    failing check, `error: <type>: <message>`, and the run goes on."""
    names = suites if suites is not None else list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    rng = np.random.default_rng(seed)
    return [_run_suite(name, rng) for name in names]


def _run_suite(name: str, rng: np.random.Generator) -> SuiteResult:
    """SUITES[name](rng), with a ValueError turned into one failing check."""
    try:
        return SUITES[name](rng)
    except ValueError as exc:
        res = SuiteResult(name)
        res.check(False, f"error: {type(exc).__name__}: {exc}")
        return res


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
