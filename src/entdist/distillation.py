"""Protocol-trace accounting: rate evaluators for the distillation
definitions, the power-of-two dimension transform, and the tensor-power
compiler that turns branch-rate traces into constant-output protocols.

A protocol trace summarizes a sequence of distillation operations by, per
step, the number of input copies and the (probability, output dimension,
output fidelity) of each classical branch.  Failure is modelled as a branch
of dimension 1 with fidelity 1 and zero entanglement.  Arithmetic stays in
exact fractions wherever inputs allow (probabilities and fidelities given as
fractions, dimensions powers of two), so that rate identities can be
asserted exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bounds import formation_bounds_isotropic

__all__ = [
    "BranchOutcome",
    "TraceStep",
    "ProtocolTrace",
    "single_branch_rate",
    "Def1Diagnostics",
    "def1_diagnostics",
    "dims_are_powers_of_two",
    "RateResidualReport",
    "rate_and_residual",
    "formation_rate_intervals",
    "min_branch_fidelity",
    "Theorem2Result",
    "power_of_two_transform",
    "floor_dims_to_powers_of_two",
    "BranchMargins",
    "CompilerConfig",
    "CompileResult",
    "tensor_power_compile",
    "DiscardResult",
    "discard_padding",
    "RateReport",
    "rate_report",
]

Number = float | Fraction

TREND_WINDOW = 4
# Fidelity-condition heuristic: on the tail (last half, at least 3 steps) the
# infidelity must be nonincreasing and shrink by at least this factor.
TAIL_SHRINK = 0.75
TINY_INFIDELITY = 1e-9


def _log2_dim(k: int) -> Number:
    """log2 of a dimension, exact for powers of two."""
    if k < 1:
        raise ValueError(f"dimension must be positive, got {k}")
    if k & (k - 1) == 0:
        return Fraction(k.bit_length() - 1)
    return math.log2(k)


def _log2_big(n: int) -> float:
    """float log2 of a positive integer of arbitrary size."""
    bl = n.bit_length()
    if bl <= 53:
        return math.log2(n)
    top = n >> (bl - 53)
    return (bl - 53) + math.log2(top)


@dataclass(frozen=True)
class BranchOutcome:
    """One classical branch of a step: probability, output local dimension,
    output fidelity."""

    p: Number
    K: int
    F: Number

    def __post_init__(self) -> None:
        if not 0 <= self.p <= 1:
            raise ValueError(f"branch probability {self.p} outside [0, 1]")
        if self.K < 1:
            raise ValueError(f"branch dimension must be positive, got {self.K}")
        if not 0 <= self.F <= 1:
            raise ValueError(f"branch fidelity {self.F} outside [0, 1]")
        if self.K == 1 and self.F != 1:
            raise ValueError("dimension-1 branches have fidelity 1 by convention")


@dataclass(frozen=True)
class TraceStep:
    n: int
    branches: tuple[BranchOutcome, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"input copy count must be positive, got {self.n}")
        if not self.branches:
            raise ValueError("step requires at least one branch")
        total = sum(b.p for b in self.branches)
        if abs(float(total) - 1.0) > 1e-9:
            raise ValueError(f"branch probabilities sum to {total}, not 1")
        object.__setattr__(self, "branches", tuple(self.branches))


@dataclass(frozen=True)
class ProtocolTrace:
    steps: tuple[TraceStep, ...]

    def __post_init__(self) -> None:
        ns = [s.n for s in self.steps]
        if any(b >= a for a, b in zip(ns[1:], ns)):
            raise ValueError("input copy counts must be strictly increasing")
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def is_single_branch(self) -> bool:
        return all(len(s.branches) == 1 for s in self.steps)


def _tail(values: Sequence[float]) -> Sequence[float]:
    n = len(values)
    return values[max(0, n - max(3, n // 2)) :]


def fidelity_condition_holds(fidelities: Sequence[Number]) -> bool:
    """Heuristic finite-sequence test for F -> 1: the tail infidelities are
    nonincreasing and shrink by TAIL_SHRINK, or are already negligible."""
    deficits = [1.0 - float(f) for f in fidelities]
    tail = _tail(deficits)
    if tail[-1] <= TINY_INFIDELITY:
        return True
    if any(b > a for a, b in zip(tail, tail[1:])):
        return False
    if len(tail) < 2:
        return False
    return tail[-1] <= TAIL_SHRINK * tail[0]


@dataclass(frozen=True)
class Def1Diagnostics:
    """Rate diagnostics for single-branch traces."""

    applicable: bool  # every step has exactly one branch
    fidelity_condition: bool
    per_step: tuple[float, ...]  # log2 K_i / n_i
    last: float | None
    trend: float | None  # difference quotient over the trend window


def def1_diagnostics(trace: ProtocolTrace) -> Def1Diagnostics:
    if not trace.is_single_branch:
        return Def1Diagnostics(False, False, (), None, None)
    if not trace.steps:
        return Def1Diagnostics(True, False, (), None, None)
    steps = trace.steps
    logs = [_log2_dim(s.branches[0].K) for s in steps]
    per_step = tuple(float(l) / s.n for l, s in zip(logs, steps))
    cond = fidelity_condition_holds([s.branches[0].F for s in steps])
    if len(steps) == 1:
        trend = per_step[0]
    else:
        w = min(TREND_WINDOW, len(steps) - 1)
        trend = float(logs[-1] - logs[-1 - w]) / (steps[-1].n - steps[-1 - w].n)
    return Def1Diagnostics(True, cond, per_step, per_step[-1], trend)


def single_branch_rate(trace: ProtocolTrace) -> float | None:
    """Rate estimate for non-measuring traces; None when a step is measuring
    or the fidelities do not tend to 1."""
    diag = def1_diagnostics(trace)
    if not diag.applicable or not diag.fidelity_condition:
        return None
    return diag.trend


def dims_are_powers_of_two(trace: ProtocolTrace) -> bool:
    """True iff every branch dimension is a power of 2."""
    return all(
        b.K & (b.K - 1) == 0 for s in trace.steps for b in s.branches
    )


@dataclass(frozen=True)
class RateResidualReport:
    """Per-step weighted log-dimension rate and infidelity residual."""

    rates: tuple[Number, ...]
    residuals: tuple[Number, ...]

    @property
    def rate(self) -> Number:
        return self.rates[-1]

    @property
    def residual(self) -> Number:
        return self.residuals[-1]

    @property
    def residual_condition(self) -> bool:
        return fidelity_condition_holds([1 - min(1, float(r)) for r in self.residuals])


def rate_and_residual(trace: ProtocolTrace) -> RateResidualReport:
    """Per step: (1/n) sum_j p_j log2 K_j and (1/n) sum_j p_j (1-F_j) log2 K_j."""
    rates = []
    residuals = []
    for step in trace.steps:
        rate = sum((b.p * _log2_dim(b.K) for b in step.branches), Fraction(0))
        res = sum((b.p * (1 - b.F) * _log2_dim(b.K) for b in step.branches), Fraction(0))
        rates.append(rate / step.n)
        residuals.append(res / step.n)
    return RateResidualReport(tuple(rates), tuple(residuals))


def formation_rate_intervals(trace: ProtocolTrace) -> tuple[tuple[float, float], ...]:
    """Per-step interval for the ensemble-average entanglement of formation
    rate, using the isotropic-minimizer bounds per branch."""
    out = []
    for step in trace.steps:
        lo = 0.0
        hi = 0.0
        for b in step.branches:
            fb = formation_bounds_isotropic(b.K, float(b.F))
            lo += float(b.p) * fb.lower
            hi += float(b.p) * fb.upper
        out.append((lo / step.n, hi / step.n))
    return tuple(out)


def min_branch_fidelity(trace: ProtocolTrace) -> tuple[float, ...]:
    """Per-step minimum branch fidelity (dimension-1 branches count as 1)."""
    return tuple(min(float(b.F) for b in s.branches) for s in trace.steps)


# ---------------------------------------------------------------------------
# Power-of-two dimension transform.
# ---------------------------------------------------------------------------


def _largest_power_of_two_below_ratio(k: int, n: int) -> int:
    """Largest power of 2 strictly below k / n, or 1 when k < 2n."""
    if k < 2 * n:
        return 1
    return 1 << (((k - 1) // n).bit_length() - 1)


def _reduced_branch(k: int, n: int, f: Number) -> BranchOutcome:
    kp = _largest_power_of_two_below_ratio(k, n)
    if kp == 1:
        return BranchOutcome(Fraction(1), 1, Fraction(1))
    fp = (1 - Fraction(kp, k)) * f
    return BranchOutcome(Fraction(1), kp, fp)


@dataclass(frozen=True)
class Theorem2Result:
    """A single-branch trace with power-of-two dimensions, plus the two limit
    sequences witnessing that the rate is preserved."""

    trace: ProtocolTrace
    original_rates: tuple[float, ...]
    transformed_rates: tuple[float, ...]
    dim_ratios: tuple[float, ...]  # new dimension over old, tending to 0


def power_of_two_transform(trace: ProtocolTrace) -> Theorem2Result:
    """Replace each output dimension of a single-branch trace by the largest
    power of 2 below K/n, reducing via the local two-stage protocol; the
    recorded fidelity is the guaranteed (1 - K'/K) F."""
    if not trace.is_single_branch:
        raise ValueError("transform requires a single-branch trace")
    new_steps = []
    originals = []
    transformed = []
    ratios = []
    for step in trace.steps:
        b = step.branches[0]
        nb = _reduced_branch(b.K, step.n, b.F)
        new_steps.append(TraceStep(step.n, (nb,)))
        originals.append(float(_log2_dim(b.K)) / step.n)
        transformed.append(float(_log2_dim(nb.K)) / step.n)
        ratios.append(float(Fraction(nb.K, b.K)))
    return Theorem2Result(
        ProtocolTrace(tuple(new_steps)), tuple(originals), tuple(transformed), tuple(ratios)
    )


def floor_dims_to_powers_of_two(trace: ProtocolTrace) -> ProtocolTrace:
    """Branch-wise power-of-two normalization for measuring traces: branches
    with K below 2n collapse to dimension 1 at fidelity 1."""
    new_steps = []
    for step in trace.steps:
        branches = []
        for b in step.branches:
            reduced = _reduced_branch(b.K, step.n, b.F)
            branches.append(BranchOutcome(b.p, reduced.K, reduced.F))
        new_steps.append(TraceStep(step.n, tuple(branches)))
    return ProtocolTrace(tuple(new_steps))


# ---------------------------------------------------------------------------
# Tensor-power compiler.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchMargins:
    """Slackened probability and rate targets for one branch."""

    p_prime: Number
    rate_prime: Number


@dataclass(frozen=True)
class CompilerConfig:
    """Margins per step and branch plus the tensor-power count.

    margins[i][j] is None exactly for dimension-1 branches, which feed
    nothing to the hashing stage and need no count guarantee.
    """

    k: int
    margins: tuple[tuple[BranchMargins | None, ...], ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"tensor-power count must be positive, got {self.k}")

    @classmethod
    def from_fractions(
        cls,
        trace: ProtocolTrace,
        k: int,
        p_fraction: Number,
        rate_fraction: Number,
    ) -> "CompilerConfig":
        """Margins at a fixed fraction of each branch's probability and of its
        hashing rate slack (2F-1) log2 K - 1, which must be positive."""
        if not 0 < p_fraction < 1:
            raise ValueError(f"p_fraction must lie in (0, 1), got {p_fraction}")
        if not 0 < rate_fraction < 1:
            raise ValueError(f"rate_fraction must lie in (0, 1), got {rate_fraction}")
        margins = []
        for step in trace.steps:
            row: list[BranchMargins | None] = []
            for b in step.branches:
                if b.K == 1:
                    row.append(None)
                    continue
                slack = (2 * b.F - 1) * _log2_dim(b.K) - 1
                if slack <= 0:
                    raise ValueError(
                        f"branch (K={b.K}, F={b.F}) has nonpositive rate slack {slack}; "
                        "supply explicit margins instead"
                    )
                row.append(BranchMargins(p_fraction * b.p, rate_fraction * slack))
            margins.append(tuple(row))
        return cls(k, tuple(margins))


def _validate_margins(trace: ProtocolTrace, cfg: CompilerConfig) -> None:
    if len(cfg.margins) != len(trace.steps):
        raise ValueError(
            f"config has {len(cfg.margins)} margin rows for {len(trace.steps)} steps"
        )
    for i, (step, row) in enumerate(zip(trace.steps, cfg.margins)):
        if len(row) != len(step.branches):
            raise ValueError(f"step {i}: {len(row)} margins for {len(step.branches)} branches")
        for j, (b, m) in enumerate(zip(step.branches, row)):
            if b.K == 1:
                if m is not None:
                    raise ValueError(f"step {i} branch {j}: dimension-1 branches take no margins")
                continue
            if m is None:
                raise ValueError(f"step {i} branch {j}: margins required for K >= 2")
            if not 0 < m.p_prime < b.p:
                raise ValueError(
                    f"step {i} branch {j}: p' must lie in (0, p), got {m.p_prime} vs p={b.p}"
                )
            slack = (2 * b.F - 1) * _log2_dim(b.K) - 1
            if not m.rate_prime < slack:
                raise ValueError(
                    f"step {i} branch {j}: rate margin {m.rate_prime} must be below {slack}"
                )


EXACT_TAIL_LIMIT = 4096


def _failure_probability(k: int, probs: list[float], floors: list[int]) -> tuple[float, str]:
    """P(N_j < m_j for some j), N ~ multinomial(k, probs + an unconstrained rest).

    Exact up to k = EXACT_TAIL_LIMIT: summed over the first branch j that misses
    its floor, a binomial of the trials branches 1..j-1 left, given that those
    met theirs.  Every term is a positive probability and no 1 - x is formed.
    Each pmf is the exp of a sum of log-factorials up to log k!, off by a few of
    its ulps: about 3e-11 relative per branch at k = 4096 (2e-12 seen against
    long-double arithmetic).  Above the limit, the union of the Chernoff bounds
    exp(-k KL(m_j/k || p_j)) on P(N_j < m_j), 1 where m_j/k >= p_j < 1; as
    KL >= 2 gap^2 (Pinsker), never looser than Hoeffding's exp(-2k gap^2).
    """
    if k > EXACT_TAIL_LIMIT:
        bound = 0.0
        for p, m in zip(probs, floors):
            a = min(m / k, p)  # KL = 0 and a term of 1 from m/k = p on
            if p < 1:  # at p = 1 the branch takes every trial: P(N_j < m_j) = 0
                kl = (a * math.log(a / p) if a else 0.0) + (1 - a) * math.log1p((p - a) / (1 - p))
                bound += math.exp(-k * kl)
        return min(1.0, bound), "chernoff"
    lf = np.array([math.lgamma(i + 1) for i in range(k + 1)])
    rev = lf[::-1]  # rev[u] = log (k - u)!
    # per count c = -k-1..k, from index 0: log c!, and +inf below c = 0
    counts, log_fact = np.arange(-k - 1, k + 1), np.concatenate([np.full(k + 1, np.inf), lf])
    mass = np.zeros(k + 1)  # mass[u]: the branches so far used u trials, met their floors
    mass[0], remaining, failure = 1.0, 1.0, 0.0
    rows = (1 << 18) // (k + 1)  # states per block: 2 MiB of float64
    for p, m in zip(probs, floors):
        q = p / remaining if remaining > p else 1.0
        remaining -= p
        col_q = np.zeros(k + 1)  # (k - t) log(1 - q), 0 at t = k
        col_q[:k] = np.arange(k, 0, -1) * (math.log1p(-q) if q < 1 else -math.inf)
        cq = counts * math.log(q)
        short = counts < m  # the counts that miss the floor
        lost, kept = np.zeros(k + 1), np.zeros(k + 1)  # over t = u + c
        live = np.flatnonzero(mass)
        for a in range(live.min(initial=k + 1), live.max(initial=-1) + 1, rows):
            b = min(a + rows, live[-1] + 1)  # states u = a..b-1, n = k - u trials left
            # Toeplitz views v[t - u] on rows u and columns t = a..k
            window = slice(k + 2 + a - b, 2 * k + 2 - a)
            toeplitz = lambda v: sliding_window_view(v[window], k + 1 - a)[::-1]
            x = rev[a:b, None] - toeplitz(log_fact)
            x -= rev[a:]  # log pmf(n, c) = log n! - log c! - log (n - c)! + ...
            x += toeplitz(cq)
            x += col_q[a:]
            np.exp(x, out=x)
            x *= mass[a:b, None]
            miss = toeplitz(short)
            lost[a:] += np.where(miss, x, 0.0).sum(axis=0)
            kept[a:] += np.where(miss, 0.0, x).sum(axis=0)
        failure += math.fsum(lost)
        mass = kept
    return min(1.0, float(failure)), "exact"


def _floor_pow2_log2(exponent: Number) -> tuple[int | None, float]:
    """(floor(2^e) when representable, log2 floor(2^e)); exact for integral e."""
    if isinstance(exponent, Rational):
        if exponent.denominator == 1:
            e = int(exponent)
            return (1 << e) if e <= 10**6 else None, float(e)
        exponent = float(exponent)
    fe = math.floor(exponent)
    frac = exponent - fe
    if fe > 10**6:
        return None, exponent  # floor correction below representable precision
    mant = int(2.0 ** frac * (1 << 52))  # 52-bit floor of the mantissa
    value = mant << (fe - 52) if fe >= 52 else mant >> (52 - fe)
    return value, _log2_big(value) if value > 0 else 0.0


@dataclass(frozen=True)
class StepCompilation:
    """Per-step outcome of the tensor-power compiler."""

    n: int
    k: int
    output_dim: int | None  # None when too large to materialize
    log2_output_dim: float
    achieved_rate: float
    failure_probability: float
    failure_method: str
    rate_bound: Number  # (1/n) sum_j p_j (2F_j - 1) log2 K_j - 1/n


@dataclass(frozen=True)
class CompileResult:
    steps: tuple[StepCompilation, ...]
    # None when some output dimension is too large to materialize as an int
    def1_trace: ProtocolTrace | None

    @property
    def achieved_rate(self) -> float:
        return self.steps[-1].achieved_rate

    @property
    def failure_probability(self) -> float:
        return self.steps[-1].failure_probability

    @property
    def rate_bound(self) -> Number:
        return self.steps[-1].rate_bound


def tensor_power_compile(trace: ProtocolTrace, cfg: CompilerConfig) -> CompileResult:
    """Compile a branch-rate trace into a constant-output-dimension protocol.

    Runs each step k times in parallel; with probability 1 - failure each
    branch j occurs at least floor(p'_j k) times and hashing converts those
    copies into floor(2^(R'_j p'_j k)) dimensions of near-perfect output.
    Branches of dimension 1 contribute nothing.  On failure the protocol
    emits a random state of the same dimension, so the compiled trace stays
    non-measuring.
    """
    if not dims_are_powers_of_two(trace):
        raise ValueError(
            "branch dimensions must be powers of 2; apply floor_dims_to_powers_of_two first"
        )
    _validate_margins(trace, cfg)
    out_steps = []
    def1_steps = []
    for step, row in zip(trace.steps, cfg.margins):
        log2_dim_total = 0.0
        dim_total: int | None = 1
        constrained_p: list[float] = []
        constrained_floors: list[int] = []
        for b, m in zip(step.branches, row):
            if m is None:
                continue
            constrained_p.append(float(b.p))
            constrained_floors.append(math.floor(float(m.p_prime) * cfg.k))
            if m.rate_prime <= 0:
                continue  # nonpositive target rate yields a trivial factor
            factor, log2_factor = _floor_pow2_log2(m.rate_prime * m.p_prime * cfg.k)
            log2_dim_total += log2_factor
            dim_total = dim_total * factor if (dim_total is not None and factor is not None) else None
        fail, method = _failure_probability(cfg.k, constrained_p, constrained_floors)
        bound = (
            sum((b.p * (2 * b.F - 1) * _log2_dim(b.K) for b in step.branches), Fraction(0))
            - 1
        ) / step.n
        achieved = log2_dim_total / (step.n * cfg.k)
        out_steps.append(
            StepCompilation(
                step.n, cfg.k, dim_total, log2_dim_total, achieved, fail, method, bound
            )
        )
        if dim_total is None:
            def1_steps = None
        elif def1_steps is not None:
            branch = (
                BranchOutcome(1, dim_total, 1.0 - fail)
                if dim_total > 1
                else BranchOutcome(1, 1, 1)
            )
            def1_steps.append(TraceStep(step.n * cfg.k, (branch,)))
    def1_trace = ProtocolTrace(tuple(def1_steps)) if def1_steps is not None else None
    return CompileResult(tuple(out_steps), def1_trace)


# ---------------------------------------------------------------------------
# Input-size padding.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscardResult:
    trace: ProtocolTrace
    discard_fractions: tuple[Number, ...]


def discard_padding(trace: ProtocolTrace, up_to: int) -> DiscardResult:
    """A trace defined for every input count 1..up_to: surplus copies are
    discarded and the largest applicable step is reused.  Below the smallest
    step everything is discarded and the output is the dimension-1 state."""
    if up_to < 1:
        raise ValueError(f"schedule length must be positive, got {up_to}")
    steps = []
    fractions = []
    for m in range(1, up_to + 1):
        usable = [s for s in trace.steps if s.n <= m]
        if not usable:
            steps.append(TraceStep(m, (BranchOutcome(Fraction(1), 1, Fraction(1)),)))
            fractions.append(Fraction(1))
            continue
        base = usable[-1]
        steps.append(TraceStep(m, base.branches))
        fractions.append(Fraction(m - base.n, m))
    return DiscardResult(ProtocolTrace(tuple(steps)), tuple(fractions))


# ---------------------------------------------------------------------------
# Summary report.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateReport:
    """Headline values of all rate evaluators on one trace."""

    single_branch: float | None
    formation_interval: tuple[float, float]
    rate: float
    residual: float
    min_fidelity: float
    all_power_of_two: bool
    per_step_rates: tuple[float, ...] = field(repr=False, default=())
    per_step_residuals: tuple[float, ...] = field(repr=False, default=())


def rate_report(trace: ProtocolTrace) -> RateReport:
    if not trace.steps:
        raise ValueError("an empty trace has no headline rates")
    rr = rate_and_residual(trace)
    intervals = formation_rate_intervals(trace)
    return RateReport(
        single_branch=single_branch_rate(trace),
        formation_interval=intervals[-1],
        rate=float(rr.rate),
        residual=float(rr.residual),
        min_fidelity=min_branch_fidelity(trace)[-1],
        all_power_of_two=dims_are_powers_of_two(trace),
        per_step_rates=tuple(float(r) for r in rr.rates),
        per_step_residuals=tuple(float(r) for r in rr.residuals),
    )
