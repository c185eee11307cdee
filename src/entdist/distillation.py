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
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bounds import formation_bounds_isotropic

Number = float | Fraction

TREND_WINDOW = 4
# Fidelity-condition heuristic: on the tail (last half, at least 3 steps) the
# infidelity must be nonincreasing and shrink by at least this factor.
TAIL_SHRINK = 0.75
TINY_INFIDELITY = 1e-9
PROB_SUM_TOL = 1e-9


def _log2_dim(k: int) -> Number:
    """log2 of a dimension, exact for powers of two."""
    if k < 1:
        raise ValueError(f"dimension must be positive, got {k}")
    if k & (k - 1) == 0:
        return Fraction(k.bit_length() - 1)
    return math.log2(k)


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
        if abs(float(total) - 1.0) > PROB_SUM_TOL:
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


def single_branch_rate(trace: ProtocolTrace) -> float | None:
    """Definition-1 rate estimate for non-measuring traces: the difference
    quotient of log2 K over n across the last TREND_WINDOW steps (log2 K / n
    for one step).  None when the trace is empty, a step is measuring, or the
    fidelities do not tend to 1."""
    steps = trace.steps
    if not steps or not trace.is_single_branch:
        return None
    if not fidelity_condition_holds([s.branches[0].F for s in steps]):
        return None
    if len(steps) == 1:
        return float(_log2_dim(steps[0].branches[0].K)) / steps[0].n
    first, last = steps[-1 - min(TREND_WINDOW, len(steps) - 1)], steps[-1]
    rise = _log2_dim(last.branches[0].K) - _log2_dim(first.branches[0].K)
    return float(rise) / (last.n - first.n)


def dims_are_powers_of_two(trace: ProtocolTrace) -> bool:
    """True iff every branch dimension is a power of 2."""
    return all(
        b.K & (b.K - 1) == 0 for s in trace.steps for b in s.branches
    )


# ---------------------------------------------------------------------------
# Power-of-two dimension transform.
# ---------------------------------------------------------------------------


def _largest_power_of_two_below_ratio(k: int, n: int) -> int:
    """Largest power of 2 strictly below k / n, or 1 when k < 2n."""
    if k < 2 * n:
        return 1
    return 1 << (((k - 1) // n).bit_length() - 1)


def _reduced_branch(b: BranchOutcome, n: int) -> BranchOutcome:
    """b at the largest power of 2 below K/n, with fidelity (1 - K'/K) F
    (dimension 1 at fidelity 1 when K < 2n); p is kept."""
    kp = _largest_power_of_two_below_ratio(b.K, n)
    if kp == 1:
        return BranchOutcome(b.p, 1, Fraction(1))
    return BranchOutcome(b.p, kp, (1 - Fraction(kp, b.K)) * b.F)


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
    out = floor_dims_to_powers_of_two(trace)
    pairs = [(s.n, s.branches[0].K, t.branches[0].K) for s, t in zip(trace.steps, out.steps)]
    return Theorem2Result(
        out,
        tuple(float(_log2_dim(k)) / n for n, k, _ in pairs),
        tuple(float(_log2_dim(kp)) / n for n, _, kp in pairs),
        tuple(float(Fraction(kp, k)) for _, k, kp in pairs),
    )


def floor_dims_to_powers_of_two(trace: ProtocolTrace) -> ProtocolTrace:
    """Branch-wise power-of-two normalization for measuring traces: branches
    with K below 2n collapse to dimension 1 at fidelity 1."""
    return ProtocolTrace(tuple(
        TraceStep(step.n, tuple(_reduced_branch(b, step.n) for b in step.branches))
        for step in trace.steps
    ))


# ---------------------------------------------------------------------------
# Tensor-power compiler.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompilerConfig:
    """The tensor-power count k and the fractions that set every branch's
    margins: p' = p_fraction p and R' = rate_fraction ((2F-1) log2 K - 1)."""

    k: int
    p_fraction: Number
    rate_fraction: Number

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"tensor-power count must be positive, got {self.k}")
        if not 0 < self.p_fraction < 1:
            raise ValueError(f"p_fraction must lie in (0, 1), got {self.p_fraction}")
        if not 0 < self.rate_fraction < 1:
            raise ValueError(f"rate_fraction must lie in (0, 1), got {self.rate_fraction}")

    def margins(self, b: BranchOutcome) -> tuple[Number, Number] | None:
        """(p', R') for a branch, or None for one that feeds the hashing stage
        nothing and needs no count guarantee: dimension 1 or probability 0."""
        if b.K == 1 or b.p == 0:
            return None
        hashing = (2 * b.F - 1) * _log2_dim(b.K)
        if hashing <= 1:
            raise ValueError(
                f"K={b.K}, F={float(b.F):g}: the compiler needs "
                f"(2F-1)*log2 K > 1, got {float(hashing):g}"
            )
        return self.p_fraction * b.p, self.rate_fraction * (hashing - 1)


EXACT_TAIL_LIMIT = 4096
# log i! for i = 0, 1, ..., len - 1: one read-only table per process, grown on
# demand to at most EXACT_TAIL_LIMIT + 1 entries (32 KiB)
_LOG_FACTORIALS = np.zeros(1)


def _log_factorials(k: int) -> np.ndarray:
    """log i! for i = 0..k, a read-only view of the shared table."""
    global _LOG_FACTORIALS
    have = len(_LOG_FACTORIALS)
    if have <= k:
        more = [math.lgamma(i + 1) for i in range(have, k + 1)]
        _LOG_FACTORIALS = np.concatenate([_LOG_FACTORIALS, more])
        _LOG_FACTORIALS.flags.writeable = False
    return _LOG_FACTORIALS[: k + 1]


def _failure_probability(k: int, probs: list[float], floors: list[int]) -> tuple[float, str]:
    """P(N_j < m_j for some j), N ~ multinomial(k, probs + an unconstrained rest).

    Exact up to k = EXACT_TAIL_LIMIT: summed over the first branch j that misses
    its floor, a binomial(n, q_j) of the n trials branches 1..j-1 left, given
    that those met theirs.  Every term is a positive probability and no 1 - x
    is formed.  Each pmf is the exp of a sum of log-factorials up to log k!,
    off by a few of its ulps: about 3e-11 relative per branch at k = 4096
    (2e-12 seen against long-double arithmetic).

    Only the terms that can matter are formed, and those left out sum to at
    most 2^-60 of the result.  The result is at least L = max_j P(N_j < m_j),
    N_j ~ binomial(k, p_j), so each of the J branches may drop a mass of
    2^-60 L / J, a quarter of it to each of four cuts.  The states (trials
    used so far) at either end whose cumulative mass stays within a quarter
    are dropped.  The counts of a block of states are kept on a window
    [c0, c1]; below c0 and above c1, Chernoff's exp(-n KL(c/n || q)) bounds
    each tail by a quarter per unit mass, for every n in the block.

    Above the limit, the union of the Chernoff bounds exp(-k KL(m_j/k || p_j))
    on P(N_j < m_j), 1 where m_j/k >= p_j < 1; as KL >= 2 gap^2 (Pinsker),
    never looser than Hoeffding's exp(-2k gap^2).
    """
    if k > EXACT_TAIL_LIMIT:
        bound = 0.0
        for p, m in zip(probs, floors):
            a = min(m / k, p)  # KL = 0 and a term of 1 from m/k = p on
            if p < 1:  # at p = 1 the branch takes every trial: P(N_j < m_j) = 0
                kl = (a * math.log(a / p) if a else 0.0) + (1 - a) * math.log1p((p - a) / (1 - p))
                bound += math.exp(-k * kl)
        return min(1.0, bound), "chernoff"
    lf = _log_factorials(k)
    lf_wrap = np.concatenate([lf, np.full(k, np.inf)])  # +inf at -1..-k: no term has c > n
    rows = (1 << 18) // (k + 1)  # states per block: 2 MiB of float64
    # scratch for one block; fresh arrays of this size would each cost page faults
    buf_x, buf_i = np.empty(rows * (k + 1)), np.empty(rows * (k + 1), np.intp)

    def log_pmf(c0: int, c1: int, n0: int, cols: int, lq: float, l1q: float) -> np.ndarray:
        """log binomial(n, q) pmf at c = c0..c1 (rows) and n = n0, n0 - 1, ...
        (cols columns); -inf where c > n.  Every term is formed in one order,
        log n! - log c! - log (n - c)! + c log q + (n - c) log(1 - q).  The
        result is a view of the scratch."""
        c = np.arange(c0, c1 + 1)[:, None]
        nc = n0 - c0 - np.arange(c1 - c0 + cols)  # n - c on the antidiagonal i + j
        hankel = lambda v: as_strided(v, (c.size, cols), v.strides * 2)  # [i, j] = v[i + j]
        x = buf_x[: c.size * cols].reshape(-1, cols)
        np.subtract(lf[n0 - np.arange(cols)], lf[c], out=x)
        x -= hankel(lf_wrap[nc])
        x += c * lq
        x += hankel(nc * l1q)
        return x

    def miss_tail(p: float, m: int) -> float:  # P(N < m), N ~ binomial(k, p)
        terms = np.exp(log_pmf(0, min(m, k + 1) - 1, k, 1, math.log(p), math.log1p(-p)))
        return math.fsum(terms[::-1].ravel().tolist())  # largest first: fewer partials

    lower = max(
        (miss_tail(p, m) for p, m in zip(probs, floors) if 0 < p < 1 and m > 0), default=0.0
    )
    parts = 4 * max(len(probs), 1)  # per branch, its two state tails and two count tails
    share = 2.0**-60 * lower / parts
    # -log(share), from log L so that a subnormal L, whose share underflows to
    # 0, still cuts; the exponent is compared with a relative margin for its
    # own rounding
    lam = (60 * math.log(2) + math.log(parts) - math.log(lower)) * (1 + 1e-9) if lower else math.inf
    mass = np.zeros(k + 1)  # mass[u]: the branches so far used u trials, met their floors
    mass[0], remaining, failure = 1.0, 1.0, 0.0
    for p, m in zip(probs, floors):
        q = p / remaining if remaining > p else 1.0
        remaining -= p
        live = np.flatnonzero(mass)
        w = mass[live]
        first = np.searchsorted(np.cumsum(w), share, side="right")
        last = live.size - np.searchsorted(np.cumsum(w[::-1]), share, side="right")
        kept = np.zeros(k + 1)  # over t = u + c
        if first >= last:
            mass = kept
            continue
        u0, u1 = int(live[first]), int(live[last - 1])
        if q >= 1:  # every trial left lands in this branch: c = n
            u = np.arange(u0, u1 + 1)
            miss = k - u < m
            failure += math.fsum(mass[u[miss]].tolist())
            kept[k] = mass[u[~miss]].sum()
            mass = kept
            continue
        lq, l1q = math.log(q), math.log1p(-q)

        def exponent(c: int, n: int) -> float:  # n KL(c/n || q)
            return ((c * (math.log(c / n) - lq) if c else 0.0)
                    + ((n - c) * (math.log1p(-c / n) - l1q) if c < n else 0.0))

        lost = []
        for a in range(u0, u1 + 1, rows):
            b = min(a + rows, u1 + 1)  # states u = a..b-1, n = k - u trials left
            n_lo, n_hi = k - b + 1, k - a
            # the exponent falls on c <= n q and grows with n below the mean, grows on
            # c >= n q and falls with n above it: bisect for the first count kept at
            # n_lo and the first count cut at n_hi
            below = range(math.ceil(n_lo * q))
            c0 = bisect_left(below, True, key=lambda c: exponent(c, n_lo) < lam)
            above = range(math.floor(n_hi * q) + 1, n_hi + 1)
            c1 = above.start + bisect_left(above, True, key=lambda c: exponent(c, n_hi) >= lam) - 1
            # rows are counts c = c0..c1, columns states u = a..b-1
            x = log_pmf(c0, c1, k - a, b - a, lq, l1q)
            np.exp(x, out=x)
            x *= mass[a:b]
            s = min(max(m - c0, 0), len(x))  # the counts c < m miss the floor
            lost.append(x[:s].sum(axis=1))
            if s < len(x):  # count c0 + s + i of state a + j lands on t = a + c0 + s + i + j
                diag = np.add.outer(np.arange(len(x) - s), np.arange(b - a),
                                    out=buf_i[: x[s:].size].reshape(x[s:].shape))
                sums = np.bincount(diag.ravel(), weights=x[s:].ravel())
                t0 = a + c0 + s
                end = min(k + 1, t0 + sums.size)  # beyond k only terms with c > n, all 0
                kept[t0:end] += sums[: end - t0]
        failure += math.fsum(np.concatenate(lost)[::-1].tolist())  # largest first, as above
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
    return value, math.log2(value) if value > 0 else 0.0


@dataclass(frozen=True)
class StepCompilation:
    """Per-step outcome of the tensor-power compiler."""

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
    copies into floor(2^(R'_j p'_j k)) dimensions of near-perfect output, with
    (p'_j, R'_j) = cfg.margins(branch j).  Branches of dimension 1 or
    probability 0 contribute nothing.  On failure the protocol emits a random
    state of the same dimension, so the compiled trace stays non-measuring.
    """
    if not dims_are_powers_of_two(trace):
        raise ValueError(
            "branch dimensions must be powers of 2; apply floor_dims_to_powers_of_two first"
        )
    out_steps = []
    def1_steps = []
    for step in trace.steps:
        log2_dim_total = 0.0
        dim_total: int | None = 1
        constrained_p: list[float] = []
        constrained_floors: list[int] = []
        for b in step.branches:
            if (m := cfg.margins(b)) is None:
                continue
            p_prime, rate_prime = m
            constrained_p.append(float(b.p))
            constrained_floors.append(math.floor(float(p_prime) * cfg.k))
            factor, log2_factor = _floor_pow2_log2(rate_prime * p_prime * cfg.k)
            log2_dim_total += log2_factor
            dim_total = dim_total * factor if (dim_total is not None and factor is not None) else None
        fail, method = _failure_probability(cfg.k, constrained_p, constrained_floors)
        bound = (
            sum((b.p * (2 * b.F - 1) * _log2_dim(b.K) for b in step.branches), Fraction(0))
            - 1
        ) / step.n
        achieved = log2_dim_total / (step.n * cfg.k)
        out_steps.append(StepCompilation(log2_dim_total, achieved, fail, method, bound))
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
# Summary report.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepRates:
    """One step's row of `entdist rates`."""

    n: int
    rate: Number
    residual: Number
    formation_lower: float
    formation_upper: float
    min_fidelity: float


@dataclass(frozen=True)
class RateReport:
    """The rate accounting of one trace: a row per step; the last row holds
    the headline values."""

    single_branch: float | None
    all_power_of_two: bool
    per_step: tuple[StepRates, ...]


def rate_report(trace: ProtocolTrace) -> RateReport:
    """Per step: the rate (1/n) sum_j p_j log2 K_j and the residual
    (1/n) sum_j p_j (1-F_j) log2 K_j, exact where the inputs allow; the
    ensemble-average formation rate between the isotropic-minimizer bounds
    per branch; the least branch fidelity (dimension-1 branches count as 1)."""
    if not trace.steps:
        raise ValueError("an empty trace has no headline rates")
    rows = []
    for step in trace.steps:
        rate = residual = Fraction(0)
        lo = hi = 0.0
        for b in step.branches:
            log2_k = _log2_dim(b.K)
            rate += b.p * log2_k
            residual += b.p * (1 - b.F) * log2_k
            fb = formation_bounds_isotropic(b.K, float(b.F))
            lo += float(b.p) * fb.lower
            hi += float(b.p) * fb.upper
        n, min_f = step.n, min(float(b.F) for b in step.branches)
        rows.append(StepRates(n, rate / n, residual / n, lo / n, hi / n, min_f))
    return RateReport(single_branch_rate(trace), dims_are_powers_of_two(trace), tuple(rows))
