import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from entdist import distillation
from entdist.bounds import binary_entropy, formation_bounds_isotropic
from entdist.distillation import (
    BranchOutcome,
    CompilerConfig,
    ProtocolTrace,
    TraceStep,
    dims_are_powers_of_two,
    fidelity_condition_holds,
    floor_dims_to_powers_of_two,
    power_of_two_transform,
    rate_report,
    single_branch_rate,
    tensor_power_compile,
)


def single_branch_trace(dims_and_f, ns=None):
    steps = []
    for i, (k, f) in enumerate(dims_and_f):
        n = ns[i] if ns else i + 1
        steps.append(TraceStep(n, (BranchOutcome(1, k, f),)))
    return ProtocolTrace(tuple(steps))


def fixture_trace():
    return ProtocolTrace(
        (
            TraceStep(
                10,
                (
                    BranchOutcome(Fraction(1, 2), 1024, Fraction(99, 100)),
                    BranchOutcome(Fraction(1, 2), 1, 1),
                ),
            ),
        )
    )


def geometric_trace(length=40, bits_per_copy=3):
    return ProtocolTrace(
        tuple(
            TraceStep(i, (BranchOutcome(1, 2 ** (bits_per_copy * i), 1 - Fraction(1, i)),))
            for i in range(1, length + 1)
        )
    )


# -- validation ------------------------------------------------------------


def test_branch_outcome_validation():
    with pytest.raises(ValueError):
        BranchOutcome(1.5, 2, 0.5)
    with pytest.raises(ValueError):
        BranchOutcome(0.5, 0, 0.5)
    with pytest.raises(ValueError):
        BranchOutcome(0.5, 1, 0.5)  # dimension 1 forces fidelity 1


def test_step_probabilities_must_sum_to_one():
    with pytest.raises(ValueError):
        TraceStep(1, (BranchOutcome(0.5, 2, 0.5),))


def test_trace_requires_increasing_copies():
    s1 = TraceStep(2, (BranchOutcome(1, 2, 1),))
    s2 = TraceStep(2, (BranchOutcome(1, 2, 1),))
    with pytest.raises(ValueError):
        ProtocolTrace((s1, s2))


# -- single-branch (non-measuring) rate ------------------------------------


def test_single_branch_rate_unit():
    trace = single_branch_trace([(2**i, 1 - 1 / (i + 1)) for i in range(1, 41)],
                                ns=list(range(1, 41)))
    assert single_branch_rate(trace) == pytest.approx(1.0, abs=1e-12)


def test_single_branch_rate_half():
    trace = single_branch_trace(
        [(2 ** (i // 2), 1 - 1 / i) for i in range(2, 42)], ns=list(range(2, 42))
    )
    assert single_branch_rate(trace) == pytest.approx(0.5, abs=1e-12)


def test_single_branch_rate_rejects_stalled_fidelity():
    trace = single_branch_trace([(2**i, 0.9) for i in range(1, 21)], ns=list(range(1, 21)))
    assert single_branch_rate(trace) is None
    assert trace.is_single_branch
    assert not fidelity_condition_holds([s.branches[0].F for s in trace.steps])


def test_single_branch_rate_not_applicable_for_measuring():
    assert single_branch_rate(fixture_trace()) is None
    assert not fixture_trace().is_single_branch


def test_power_of_two_check():
    assert dims_are_powers_of_two(single_branch_trace([(2, 1), (4, 1), (8, 1)]))
    assert not dims_are_powers_of_two(single_branch_trace([(2, 1), (6, 1), (8, 1)]))
    assert dims_are_powers_of_two(single_branch_trace([(1, 1)]))
    assert dims_are_powers_of_two(ProtocolTrace(()))  # vacuously true


def test_empty_trace_has_no_headline_rates():
    assert single_branch_rate(ProtocolTrace(())) is None
    with pytest.raises(ValueError):
        rate_report(ProtocolTrace(()))


# -- branch-weighted rate and residual -------------------------------------


def test_rate_and_residual_fixture_exact():
    (row,) = rate_report(fixture_trace()).per_step
    assert row.rate == Fraction(1, 2)
    assert row.residual == Fraction(1, 200)


def test_residual_zero_for_perfect_fidelity():
    trace = single_branch_trace([(4, 1), (16, 1), (64, 1)])
    assert [row.residual for row in rate_report(trace).per_step] == [0, 0, 0]


def test_failure_only_trace():
    trace = single_branch_trace([(1, 1), (1, 1)])
    row = rate_report(trace).per_step[-1]
    assert row.rate == 0 and row.residual == 0


def test_def1_pass_implies_residual_vanishes():
    # ordering of the definitions on 50 random single-branch traces
    import numpy as np

    rng = np.random.default_rng(2024)
    for case in range(50):
        length = int(rng.integers(10, 30))
        rate_bits = int(rng.integers(1, 4))
        decay = float(rng.uniform(0.3, 0.9))
        steps = []
        for i in range(1, length + 1):
            f = 1 - decay ** i
            steps.append(TraceStep(i, (BranchOutcome(1, 2 ** (rate_bits * i), f),)))
        trace = ProtocolTrace(tuple(steps))
        if single_branch_rate(trace) is None:
            continue
        residuals = [float(row.residual) for row in rate_report(trace).per_step]
        assert fidelity_condition_holds([1 - min(1, r) for r in residuals]), case
        assert residuals[-1] < residuals[0]


# -- formation intervals -----------------------------------------------------


def formation_interval(trace):
    (row,) = rate_report(trace).per_step
    return row.formation_lower, row.formation_upper


def test_formation_interval_perfect_branch():
    trace = ProtocolTrace((TraceStep(5, (BranchOutcome(1, 8, 1),)),))
    lo, hi = formation_interval(trace)
    assert lo == pytest.approx(3 / 5, abs=1e-12)
    assert hi == pytest.approx(3 / 5, abs=1e-12)


def test_formation_interval_worked_value():
    trace = ProtocolTrace((TraceStep(10, (BranchOutcome(1, 2, 0.9),)),))
    lo, hi = formation_interval(trace)
    assert lo == pytest.approx((0.9 - binary_entropy(0.9)) / 10, abs=1e-12)
    assert hi == pytest.approx(0.08, abs=1e-12)


def test_formation_interval_ignores_dimension_one():
    lo, hi = formation_interval(fixture_trace())
    fb = formation_bounds_isotropic(1024, 0.99)
    assert lo == pytest.approx(0.5 * fb.lower / 10, abs=1e-12)
    assert hi == pytest.approx(0.5 * fb.upper / 10, abs=1e-12)


def test_rate_interval_residual_inequality():
    # weighted rate minus formation upper is controlled by the residual plus
    # the weighted binary entropies
    fixtures = [
        fixture_trace(),
        single_branch_trace([(4, 0.8), (16, 0.9), (64, 0.99)]),
        ProtocolTrace(
            (
                TraceStep(
                    3,
                    (
                        BranchOutcome(0.25, 4, 0.7),
                        BranchOutcome(0.25, 2, 0.95),
                        BranchOutcome(0.5, 1, 1),
                    ),
                ),
            )
        ),
    ]
    for trace in fixtures:
        for step, row in zip(trace.steps, rate_report(trace).per_step):
            entropy_term = (
                sum(float(b.p) * binary_entropy(float(b.F)) for b in step.branches) / step.n
            )
            gap = float(row.rate) - row.formation_upper
            assert gap <= float(row.residual) + entropy_term + 1e-12


def test_min_branch_fidelity():
    trace = ProtocolTrace(
        (TraceStep(1, (BranchOutcome(0.5, 4, 0.99), BranchOutcome(0.5, 4, 1))),)
    )

    def min_fidelities(trace):
        return [row.min_fidelity for row in rate_report(trace).per_step]

    assert min_fidelities(trace) == [0.99]
    assert min_fidelities(fixture_trace()) == [0.99]
    all_perfect = single_branch_trace([(2, 1), (4, 1)])
    assert min_fidelities(all_perfect) == [1.0, 1.0]


# -- power-of-two transform --------------------------------------------------


def test_transform_worked_value():
    trace = ProtocolTrace((TraceStep(10, (BranchOutcome(1, 2**30, Fraction(99, 100)),)),))
    out = power_of_two_transform(trace)
    b = out.trace.steps[0].branches[0]
    assert b.K == 2**26
    assert b.F == Fraction(15, 16) * Fraction(99, 100)
    assert float(b.F) == 0.928125


def test_transform_small_dimension_collapses():
    trace = ProtocolTrace((TraceStep(10, (BranchOutcome(1, 16, 0.5),)),))
    b = power_of_two_transform(trace).trace.steps[0].branches[0]
    assert (b.K, b.F) == (1, 1)


def test_transform_strict_inequality_at_powers():
    trace = ProtocolTrace((TraceStep(1, (BranchOutcome(1, 8, 1),)),))
    b = power_of_two_transform(trace).trace.steps[0].branches[0]
    assert b.K == 4  # strictly below K/n forces the next power down


def test_transform_synthetic_trace():
    trace = geometric_trace(40)
    out = power_of_two_transform(trace)
    assert dims_are_powers_of_two(out.trace)
    ratios = out.dim_ratios
    assert all(a >= b - 1e-15 for a, b in zip(ratios[3:], ratios[4:]))
    assert ratios[-1] < ratios[3]
    assert single_branch_rate(trace) == pytest.approx(3.0, abs=1e-6)
    assert single_branch_rate(out.trace) == pytest.approx(3.0, abs=1e-6)
    assert out.transformed_rates[-1] <= out.original_rates[-1]


def test_transform_is_the_floor_of_a_single_branch_trace():
    # a lone branch's p may sit within the step's 1e-9 slack of 1; it is kept
    p = 1 - Fraction(1, 10**10)
    trace = ProtocolTrace((TraceStep(10, (BranchOutcome(p, 2**30, Fraction(99, 100)),)),))
    out = power_of_two_transform(trace)
    assert out.trace == floor_dims_to_powers_of_two(trace)
    assert out.trace.steps[0].branches[0].p == p


def test_transform_rejects_measuring_traces():
    with pytest.raises(ValueError):
        power_of_two_transform(fixture_trace())


def test_floor_dims_branchwise():
    out = floor_dims_to_powers_of_two(fixture_trace())
    assert dims_are_powers_of_two(out)
    b0, b1 = out.steps[0].branches
    assert b0.K == 64  # largest power of two below 1024/10
    assert b1.K == 1 and b1.F == 1
    assert b0.F == (1 - Fraction(64, 1024)) * Fraction(99, 100)


# -- tensor-power compiler ---------------------------------------------------


def config(k, p_frac=Fraction(9, 10), r_frac=Fraction(99, 100)):
    return CompilerConfig(k, p_frac, r_frac)


def test_compiler_config_validates_k_and_fractions():
    CompilerConfig(1, Fraction(1, 2), 0.5)
    for k, p_frac, r_frac in [
        (0, 0.5, 0.5), (10, 0, 0.5), (10, 1, 0.5), (10, 1.5, 0.5),
        (10, 0.5, 0), (10, 0.5, 1), (10, 0.5, -0.1),
    ]:
        with pytest.raises(ValueError):
            CompilerConfig(k, p_frac, r_frac)


def test_compiler_margins_from_the_two_fractions():
    cfg = config(10)
    branch, failure = fixture_trace().steps[0].branches
    # p' = (9/10)(1/2); R' = (99/100)((2 * 99/100 - 1) * 10 - 1) = (99/100)(44/5)
    assert cfg.margins(branch) == (Fraction(9, 20), Fraction(1089, 125))
    assert cfg.margins(failure) is None
    assert cfg.margins(BranchOutcome(0, 1024, Fraction(1, 2))) is None  # never occurs


def test_compile_rate_bound_exact():
    out = tensor_power_compile(fixture_trace(), config(1000))
    assert out.rate_bound == Fraction(39, 100)
    assert float(out.rate_bound) == 0.39


def test_compile_failure_probability_monotone():
    fails = []
    for k in (10, 100, 1000):
        out = tensor_power_compile(fixture_trace(), config(k))
        assert out.steps[0].failure_method == "exact"
        fails.append(out.failure_probability)
    assert fails[0] > fails[1] > fails[2]


def test_compile_failure_probability_k10_exact_value():
    # single constrained branch: P(Bin(10, 1/2) < 4) = 176/1024
    out = tensor_power_compile(fixture_trace(), config(10))
    assert out.failure_probability == pytest.approx(176 / 1024, abs=1e-12)


@given(
    p=st.integers(1, 99).map(lambda n: Fraction(n, 100)),
    p_fraction=st.integers(1, 99).map(lambda n: Fraction(n, 100)),
    k=st.sampled_from([100, 200, 400, 1000, 10**4]),
)
@example(p=Fraction(1, 2), p_fraction=Fraction(58, 100), k=100)
@settings(max_examples=200, deadline=None)
def test_compile_count_floors_are_the_exact_floors(p, p_fraction, k):
    # floor(float(p') k) is one too low where p' k is an integer the float
    # product rounds below, such as p = 1/2, p_fraction = 58/100, k = 100
    trace = ProtocolTrace((TraceStep(1, (
        BranchOutcome(p, 1024, Fraction(99, 100)), BranchOutcome(1 - p, 1, 1)
    )),))
    with mock.patch.object(distillation, "_failure_probability", return_value=(0.0, "exact")) as fp:
        tensor_power_compile(trace, CompilerConfig(k, p_fraction, Fraction(1, 2)))
    (_, probs, floors), _ = fp.call_args
    assert (probs, floors) == ([float(p)], [math.floor(p_fraction * p * k)])


def test_compile_half_margins_failure_is_negligible():
    cfg = CompilerConfig(1000, Fraction(1, 2), Fraction(1, 2))
    out = tensor_power_compile(fixture_trace(), cfg)
    assert out.failure_probability < 1e-10


def test_compile_achieved_rate_at_large_k():
    cfg = config(10**4)
    out = tensor_power_compile(fixture_trace(), cfg)
    branches = fixture_trace().steps[0].branches
    target = sum(float(r * p) for p, r in filter(None, map(cfg.margins, branches))) / 10
    assert abs(out.achieved_rate - target) <= 1e-3
    assert out.def1_trace is not None
    assert out.def1_trace.steps[0].n == 10 * 10**4


def test_compile_rate_bound_below_margin_supremum():
    out = tensor_power_compile(fixture_trace(), config(100))
    supremum = 0.5 * ((2 * 0.99 - 1) * 10 - 1) / 10
    assert float(out.rate_bound) <= supremum + 1e-9


def test_compile_requires_power_of_two_dimensions():
    trace = ProtocolTrace((TraceStep(1, (BranchOutcome(1, 6, 0.99),)),))
    with pytest.raises(ValueError):
        tensor_power_compile(trace, CompilerConfig(10, Fraction(1, 2), Fraction(1, 2)))


def test_compile_from_fractions_rejects_nonpositive_slack():
    # (2F - 1) log2 K = 1: the hashing stage has no rate to give up
    trace = ProtocolTrace((TraceStep(1, (BranchOutcome(1, 2, 1),)),))
    with pytest.raises(ValueError, match=r"K=2, F=1: .*\(2F-1\)\*log2 K > 1"):
        tensor_power_compile(trace, CompilerConfig(10, Fraction(1, 2), Fraction(1, 2)))


@given(
    k=st.integers(1, 5000),
    log2_k=st.integers(1, 40),
    f=st.fractions(0, 1),
    at=st.integers(0, 2),
)
@settings(max_examples=30, deadline=None)
def test_compile_ignores_a_zero_probability_branch(k, log2_k, f, at):
    base = fixture_trace()
    branches = list(base.steps[0].branches)
    branches.insert(at, BranchOutcome(Fraction(0), 2**log2_k, f))
    padded = ProtocolTrace((TraceStep(base.steps[0].n, tuple(branches)),))
    cfg = config(k)
    assert tensor_power_compile(padded, cfg) == tensor_power_compile(base, cfg)


# -- failure probability -----------------------------------------------------


def exact_failure(k, probs, floors):
    """1 - P(N_j >= m_j for every j), N ~ multinomial(k, probs + rest), in exact
    rational arithmetic, where the complement loses nothing.

    With p_j = a_j / D, g[s] sums s! / (c_1! ... c_j!) a_1^c_1 ... a_j^c_j over
    the counts c_i >= m_i of the branches so far that add up to s; the rest,
    of weight D - a_1 - ... - a_J, draws the other k - s trials.
    """
    d = math.lcm(*(p.denominator for p in probs))
    g = {0: 1}
    for p, m in zip(probs, floors):
        a = int(p * d)
        nxt = {}
        for s, w in g.items():
            for c in range(m, k - s + 1):
                nxt[s + c] = nxt.get(s + c, 0) + math.comb(s + c, c) * w * a**c
        g = nxt
    rest = d - sum(int(p * d) for p in probs)
    return 1 - Fraction(sum(math.comb(k, s) * w * rest ** (k - s) for s, w in g.items()), d**k)


@pytest.mark.parametrize(
    "k, probs, floors",
    [
        (400, ["1/2"], [140]),
        (400, ["1/2", "1/2"], [100, 100]),  # about 8.6e-25
        (300, ["3/5", "3/10"], [162, 81]),
        (60, ["1/5", "4/5"], [0, 40]),
        (250, ["2/5", "3/10", "1/5"], [90, 67, 45]),
        (150, ["3/10", "1/4", "1/5", "3/20"], [40, 33, 27, 20]),
        (300, ["1/2", "1/4"], [120, 0]),  # the last floor is 0: no count misses it
        (400, ["1/2", "1/4"], [150, 2]),  # the last floor lies below every count window
        (200, ["1/5", "3/10", "1/2"], [30, 50, 90]),  # q = 1 on the last branch
    ],
)
def test_failure_probability_matches_exact_rational_sum(k, probs, floors):
    probs = [Fraction(p) for p in probs]
    got, method = distillation._failure_probability(k, [float(p) for p in probs], floors)
    want = exact_failure(k, probs, floors)
    assert method == "exact"
    assert got == pytest.approx(float(want), rel=1e-10, abs=0)


def full_grid_failure(k, probs, floors):
    """The first-failure sum of `_failure_probability` over every (state u,
    trial count t) pair: every term is formed, with the same per-term
    arithmetic as the cut sum."""
    lf = np.array([math.lgamma(i + 1) for i in range(k + 1)])
    rev = lf[::-1]  # rev[u] = log (k - u)!
    # per count c = -k-1..k, from index 0: log c!, and +inf below c = 0
    counts, log_fact = np.arange(-k - 1, k + 1), np.concatenate([np.full(k + 1, np.inf), lf])
    mass = np.zeros(k + 1)  # mass[u]: the branches so far used u trials, met their floors
    mass[0], remaining, failure = 1.0, 1.0, 0.0
    rows = (1 << 18) // (k + 1)
    for p, m in zip(probs, floors):
        q = p / remaining if remaining > p else 1.0
        remaining -= p
        col_q = np.zeros(k + 1)  # (k - t) log(1 - q), 0 at t = k
        col_q[:k] = np.arange(k, 0, -1) * (math.log1p(-q) if q < 1 else -math.inf)
        cq = counts * math.log(q)
        short = counts < m
        lost, kept = np.zeros(k + 1), np.zeros(k + 1)  # over t = u + c
        live = np.flatnonzero(mass)
        for a in range(live.min(initial=k + 1), live.max(initial=-1) + 1, rows):
            b = min(a + rows, live[-1] + 1)
            # Toeplitz views v[t - u] on rows u = a..b-1 and columns t = a..k
            window = slice(k + 2 + a - b, 2 * k + 2 - a)
            toeplitz = lambda v: sliding_window_view(v[window], k + 1 - a)[::-1]
            x = rev[a:b, None] - toeplitz(log_fact)
            x -= rev[a:]
            x += toeplitz(cq)
            x += col_q[a:]
            np.exp(x, out=x)
            x *= mass[a:b, None]
            miss = toeplitz(short)
            lost[a:] += np.where(miss, x, 0.0).sum(axis=0)
            kept[a:] += np.where(miss, 0.0, x).sum(axis=0)
        failure += math.fsum(lost)
        mass = kept
    return min(1.0, float(failure))


def binomial_lower_tail(k, p, m):
    """P(N < m), N ~ binomial(k, p), summed in integers and rounded once:
    with p = a / d, a sum of comb(k, c) a^c (d - a)^(k - c) over d^k (a float
    sum rounds (1 - p)^(k - c) wherever it is subnormal)."""
    a, d = p.as_integer_ratio()
    return sum(math.comb(k, c) * a**c * (d - a) ** (k - c) for c in range(min(m, k + 1))) / d**k


BENCHMARK_PROBS = ([0.8], [0.6, 0.3], [0.4, 0.3, 0.2], [0.3, 0.25, 0.2, 0.15])


@pytest.mark.parametrize("k", [512, 2048, 4096])
@pytest.mark.parametrize("probs", BENCHMARK_PROBS, ids=lambda probs: f"{len(probs)}branches")
@pytest.mark.parametrize("p_fraction", [0.9, 0.95, 0.99])
def test_cut_failure_probability_matches_the_full_grid(k, probs, p_fraction):
    floors = [math.floor(p_fraction * p * k) for p in probs]
    got, method = distillation._failure_probability(k, probs, floors)
    want = full_grid_failure(k, probs, floors)
    assert method == "exact" and want > 0
    if len(probs) == 1:  # one state, the same terms: the same fsum
        assert got == want
    assert got == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "k, probs, floors",
    [
        (2000, [0.5, 0.5], [700, 700]),  # about 8.7e-42; the last branch has q = 1
        (512, [0.2, 0.3, 0.5], [90, 140, 230]),  # q = 1 on the last branch
        (4096, [0.4, 0.4], [545, 545]),  # L is subnormal, and so is the share 2^-60 L / 8
        (1, [0.5], [1]),
        (6, [0.3, 0.3, 0.3], [1, 1, 1]),
        (40, [0.5, 0.25], [30, 1]),  # floors above the means
        (2048, [0.6, 0.3], [1106, 0]),  # the last floor is 0: no count misses it
        (2000, [0.5, 0.3], [700, 1]),  # the last floor lies below every count window
        (1000, [0.3, 0.2, 0.5], [250, 160, 430]),  # q = 1 after a middle branch's full window
    ],
)
def test_cut_failure_probability_edge_cases(k, probs, floors):
    got, _ = distillation._failure_probability(k, probs, floors)
    want = full_grid_failure(k, probs, floors)
    assert want > 0
    assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_cut_budget_holds_where_the_lower_bound_is_subnormal():
    # 2^-60 L / (4 J) underflows to 0 here; the count cut is taken from log L,
    # so the terms below it are still left out, and the value stays the full
    # grid's (the edge cases above)
    assert distillation._failure_probability(4096, [0.4, 0.4], [545, 545]) == (
        9.3914668894036e-310, "exact"
    )


# repr of _failure_probability(k, probs, floor((9/10) p k)) for the exact compile
# jobs of the benchmark (k = 512, 2048, 4096 and its four branch sets); any
# change to one of these values must be listed in CHANGES.md
PINNED_BENCHMARK_FAILURES = {
    512: ["4.077339246288469e-06", "0.061332683097913336", "0.1970643741552886",
          "0.3834190554693965"],
    2048: ["1.2827727728364166e-18", "0.0011023558152986634", "0.01053983274931903",
           "0.037443910963513856"],
    4096: ["5.294915154975831e-35", "9.373630560031474e-06", "0.0005485145790095512",
           "0.003281816421158813"],
}


@pytest.mark.parametrize("k", sorted(PINNED_BENCHMARK_FAILURES))
def test_benchmark_failure_probabilities_are_pinned(k):
    for probs, want in zip(BENCHMARK_PROBS, PINNED_BENCHMARK_FAILURES[k]):
        exact = [Fraction(p).limit_denominator(100) for p in probs]
        floors = [math.floor(Fraction(9, 10) * p * k) for p in exact]
        got, method = distillation._failure_probability(k, probs, floors)
        assert (repr(got), method) == (want, "exact")


def test_cut_failure_probability_without_floors_is_zero():
    for k in (1, 100, 1000):
        got = distillation._failure_probability(k, [0.3, 0.25, 0.2, 0.15], [0] * 4)
        assert got == (0.0, "exact")
    # a true zero: the Chernoff union has terms (1 - p)^k that underflow
    assert distillation._failure_probability(10**5, [0.8], [0]) == (0.0, "chernoff")


def test_a_failure_probability_below_the_least_double_reads_underflow():
    mpmath = pytest.importorskip("mpmath")
    k, m = 4096, 1638
    with mpmath.workdps(50):
        p = mpmath.mpf(4) / 5
        want = mpmath.fsum(math.comb(k, c) * p**c * (1 - p) ** (k - c) for c in range(m))
    assert 0 < want < mpmath.mpf(2) ** -1075  # about 5.35e-683
    assert distillation._failure_probability(k, [0.8], [m]) == (0.0, "underflow")
    # a branch without a floor does not hide the one that underflows
    assert distillation._failure_probability(k, [0.1, 0.8], [0, m]) == (0.0, "underflow")
    # above the limit every Chernoff term exp(-k KL) underflows the same way
    assert distillation._failure_probability(10**5, [0.8], [40000]) == (0.0, "underflow")


def test_failure_probability_does_not_depend_on_which_k_came_first():
    # the log-factorial table is shared and grown on demand: a short table
    # extended later holds the same values as one built long at once
    cases = {512: ([0.4, 0.4], [190, 190]), 4096: ([0.4, 0.4], [1580, 1580])}
    results = []
    for order in ((512, 4096), (4096, 512)):
        with mock.patch.object(distillation, "_LOG_FACTORIALS", np.zeros(1)):
            results.append({k: distillation._failure_probability(k, *cases[k]) for k in order})
            table = distillation._LOG_FACTORIALS
        assert len(table) == 4097 and not table.flags.writeable
        assert table.tolist() == [math.lgamma(i + 1) for i in range(4097)]
    assert results[0] == results[1]
    assert all(method == "exact" and 0 < p < 1 for p, method in results[0].values())


@given(
    k=st.integers(1, 600),
    weights=st.lists(st.integers(1, 20), min_size=1, max_size=4),
    rest=st.integers(0, 20),
    fractions=st.lists(st.floats(0, 1.1), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_cut_failure_probability_is_within_its_budget(k, weights, rest, fractions):
    total = sum(weights) + rest
    probs = [w / total for w in weights]
    floors = [math.floor(f * p * k) for f, p in zip(fractions, probs)]
    got, _ = distillation._failure_probability(k, probs, floors)
    want = full_grid_failure(k, probs, floors)
    lower = max(binomial_lower_tail(k, p, m) for p, m in zip(probs, floors))
    assert want >= lower * (1 - 1e-12)
    # the terms cut off, plus the rounding of sums taken in another order
    assert abs(got - want) <= 2**-60 * lower + 1e-14 * want


def test_failure_probability_above_the_limit_is_the_chernoff_union_bound():
    mpmath = pytest.importorskip("mpmath")
    k, probs, floors = 10**4, [0.5, 0.3], [4500, 2000]

    def kl(a, p):
        a, p = mpmath.mpf(a), mpmath.mpf(p)
        return a * mpmath.log(a / p) + (1 - a) * mpmath.log((1 - a) / (1 - p))

    with mpmath.workdps(30):
        want = sum(mpmath.exp(-k * kl(m / k, p)) for p, m in zip(probs, floors))
    got, method = distillation._failure_probability(k, probs, floors)
    assert method == "chernoff"
    assert got == pytest.approx(float(want), rel=1e-12, abs=0)


@given(
    k=st.integers(1, 200),
    weights=st.lists(st.integers(1, 20), min_size=1, max_size=4),
    rest=st.integers(0, 20),
    fractions=st.lists(st.floats(0, 1), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_chernoff_bound_is_at_least_the_exact_value(k, weights, rest, fractions):
    total = sum(weights) + rest
    probs = [w / total for w in weights]
    floors = [math.floor(f * k) for f in fractions[: len(probs)]]
    exact, _ = distillation._failure_probability(k, probs, floors)
    with mock.patch.object(distillation, "EXACT_TAIL_LIMIT", 0):
        bound, method = distillation._failure_probability(k, probs, floors)
    hoeffding = sum(math.exp(-2 * k * max(0.0, p - m / k) ** 2) for p, m in zip(probs, floors))
    assert method == "chernoff"
    # slack for the rounding of the exact sum and of the KL divergence only
    assert bound >= exact * (1 - 1e-12)
    assert bound <= min(1.0, hoeffding) * (1 + 1e-12)


# -- summary report ----------------------------------------------------------


def test_rate_report_fields():
    report = rate_report(fixture_trace())
    assert report.single_branch is None
    (last,) = report.per_step
    assert last.n == 10
    assert last.rate == pytest.approx(0.5, abs=1e-15)
    assert last.residual == pytest.approx(0.005, abs=1e-15)
    assert last.min_fidelity == pytest.approx(0.99, abs=1e-15)
    assert report.all_power_of_two
    lo, hi = last.formation_lower, last.formation_upper
    assert lo <= hi
