"""Scalar entanglement bounds for isotropic states and a numerical
entanglement-of-formation oracle.

Conventions: logarithms are base 2, 0 * log2(0) = 0 by continuity, and the
hashing rate reports the raw formula alongside its clamp at zero because
rate accounting downstream consumes nonnegative rates only.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .linalg import DensityOperator

# The smallest integer that float() cannot convert (it rounds to 2**1024).
# Below it the bounds keep their float formulas; from it on they use forms
# that never convert a dimension to float.
FLOAT_OVERFLOW = 2**1024 - 2**970


def _xlog2(x: float) -> float:
    return 0.0 if x <= 0.0 else x * math.log2(x)


def binary_entropy(f: float) -> float:
    """-F log2 F - (1-F) log2(1-F), with the endpoints 0 by continuity."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"binary entropy argument {f} outside [0, 1]")
    return -_xlog2(f) - _xlog2(1.0 - f)


@dataclass(frozen=True)
class FormationBounds:
    """Bits of entanglement of formation bracketed for an isotropic state;
    the partial-transpose bound is `ppt_bound_isotropic`."""

    lower: float
    upper: float


def ppt_bound_isotropic(k: int, f: float) -> float:
    """Partial-transpose bound on distillable entanglement of an isotropic
    state; may be negative for small fidelity."""
    if k < 2:
        raise ValueError(f"dimension must be at least 2, got {k}")
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f} outside [0, 1]")
    return math.log2(k) + _xlog2(f) + _xlog2(1.0 - f) - (1.0 - f) * math.log2(k - 1)


def formation_bounds_isotropic(k: int, f: float) -> FormationBounds:
    """Lower and upper bounds on the entanglement of formation at (k, f).

    The lower bound is F log2 K - H2(F) truncated at zero; the upper bound is
    the convex-roof mixture bound (FK-1)/(K-1) log2 K for F above the
    separability point 1/K and zero below it.
    """
    if k < 1:
        raise ValueError(f"dimension must be positive, got {k}")
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f} outside [0, 1]")
    if k == 1:
        return FormationBounds(0.0, 0.0)
    log2k = math.log2(k)
    lower = max(0.0, f * log2k - binary_entropy(f))
    if k < FLOAT_OVERFLOW:
        upper = 0.0 if f <= 1.0 / k else min(f * log2k, (f * k - 1) / (k - 1) * log2k)
    else:  # in exact arithmetic
        fk = Fraction(f) * k
        upper = 0.0 if fk <= 1 else min(f * log2k, float((fk - 1) / (k - 1)) * log2k)
    return FormationBounds(lower, upper)


def ef_isotropic(k: int, f: float) -> float:
    """Entanglement of formation of the isotropic state (k, f), in bits.

    The closed form of Terhal and Vollbrecht (PRL 85, 2625 (2000)): with
    gamma = (sqrt(F) + sqrt((K-1)(1-F)))^2 / K and
    R(F) = H2(gamma) + (1 - gamma) log2(K-1), E_f is 0 for F <= 1/K, R(F)
    up to F = 4(K-1)/K^2, and above that the line through (1, log2 K)
    tangent to R there, K log2(K-1)/(K-2) (F-1) + log2 K.  At K = 2 it is
    Wootters's value.
    """
    if k < 2:
        raise ValueError(f"dimension must be at least 2, got {k}")
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f} outside [0, 1]")
    if f <= 1.0 / k:
        return 0.0
    if f > 4.0 * (k - 1) / (k * k):
        return k * math.log2(k - 1) / (k - 2) * (f - 1.0) + math.log2(k)
    # gamma < 1 for F > 1/K (Cauchy-Schwarz); min() absorbs rounding
    gamma = min(1.0, (math.sqrt(f) + math.sqrt((k - 1) * (1.0 - f))) ** 2 / k)
    return binary_entropy(gamma) + (1.0 - gamma) * math.log2(k - 1)


@dataclass(frozen=True)
class HashingRate:
    """Hashing-protocol rate for an isotropic state, raw and clamped at zero."""

    raw: float
    clamped: float
    dimension_is_power_of_two: bool


def hashing_rate(k: int, f: float) -> HashingRate:
    """log2 K + F log2 F + (1-F) log2((1-F)/(K^2-1)).

    The rate is established for K a power of 2; for other K the value is
    still reported but flagged, since no guarantee is known there.
    """
    if k < 2:
        raise ValueError(f"dimension must be at least 2, got {k}")
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f} outside [0, 1]")
    raw = math.log2(k) + _xlog2(f)
    if f < 1.0:
        if k * k - 1 < FLOAT_OVERFLOW:
            raw += (1.0 - f) * math.log2((1.0 - f) / (k * k - 1))
        else:
            raw += (1.0 - f) * (math.log2(1.0 - f) - math.log2(k * k - 1))
    return HashingRate(raw, max(0.0, raw), k & (k - 1) == 0)


# ---------------------------------------------------------------------------
# Numerical entanglement-of-formation oracle.
#
# Every size-M ensemble realizing rho = sum_r lam_r |e_r><e_r| corresponds to
# a co-isometry G (r x M, G G^dag = I): the unnormalized members are the
# columns of A G with A = E sqrt(Lam).  The average entanglement is minimized
# on that manifold (Audenaert, Verstraete & De Moor, quant-ph/0006128) by
# limited-memory BFGS (Nocedal & Wright, Numerical Optimization, 7.2; on
# matrix manifolds, Absil, Mahony & Sepulchre 2008), with multiple seeded
# restarts.  The search keeps the EF_LBFGS_MEMORY newest pairs
# s = g_new - g, y = xi_new - xi of points and projected gradients in
# ambient coordinates, without transporting them: the two-loop recursion
# runs on them with H0 = <s, y>/<y, y> I, and its result is projected onto
# the tangent space at g.  A pair with <s, y> <= 0 is not stored, and the
# direction falls back to the projected gradient whenever it is not a
# descent direction.  The line search backtracks by interpolation (3.5):
# the first trial is the unit step while pairs are stored, and otherwise
# twice the last accepted step; after a rejected trial t the next is the
# minimizer of the quadratic through phi(0), phi'(0) = -2 Re<xi, d> and
# phi(t), clamped to [0.1 t, 0.5 t].  A candidate is accepted when it lies
# below the value by more than EF_DECREASE_MARGIN and meets Armijo's
# condition with c1 = EF_ARMIJO_C1.  The search gives up ("no-descent")
# when the next trial would fall to EF_STEP_FLOOR, or at once after a
# rejected trial t with -phi'(0) t <= EF_DECREASE_MARGIN: from there on
# Armijo's condition holds for any candidate that meets the margin, so the
# rejection says phi(t) - phi(0) >= -margin, and the quadratic through
# phi(0), phi'(0) and phi(t) stays above phi'(0) tau >= -margin on [0, t]
# when convex and above min(0, phi(t) - phi(0)) when concave: no shorter
# step can be accepted.  Each candidate g - t d is retracted to its polar
# factor (X X^dag)^(-1/2) X from one eigh of the r x r Gram matrix; d is tangent
# at g, so X X^dag = I + t^2 d d^dag >= I and the inverse square root is
# well conditioned.  The result is an upper estimate of E_f, never asserted
# exact.  Measured against the exact isotropic value (ef_isotropic), budget
# 400 from seed 1 stops at most 4.9e-12 above it at K = 2..4, F = 0.5, 0.8,
# 0.95, and 4.2e-13 and 7.9e-10 above it at K = 3 and 4, F = 0.99; one
# restart at K = 2, F = 0.5 stops at most 1.9e-13 above it from seeds 7..10,
# and the 16 one-restart calls at K = 2, F = 0.5, 0.7, 0.9, 1.0 from those
# seeds make 578 objective evaluations.
# One objective evaluation treats all M members at once: one batched product
# forms their reduced matrices, members of trace below _LIVE_TRACE_FLOOR are masked out,
# one stacked eigh diagonalizes the rest, and one batched product builds the
# gradient columns.  The value is summed in member order, so it is the same
# float as a member-by-member loop gives.  The line search evaluates its
# candidates by value only and builds the gradient, from the same eigh
# output, for the candidate it accepts.
# ---------------------------------------------------------------------------

_EIG_FLOOR = 1e-300
_LIVE_TRACE_FLOOR = 1e-15
_RANK_FLOOR = 1e-12
# Restart rule: the search stops once EF_RESTART_PATIENCE restarts in a row
# have each lowered the best value by no more than EF_RESTART_TOL.  Over
# seeds 0..9 and F = 0.5, 0.7, 0.9, 1.0 it stopped after 4-5 of the 20
# restarts of the default budget, at most 1.6e-13 (K = 2) and 6.7e-15 (K = 3)
# above the exact isotropic value.
EF_RESTART_PATIENCE = 3
EF_RESTART_TOL = 1e-9
# The search keeps the EF_LBFGS_MEMORY newest (s, y) pairs.  The 16
# one-restart calls of the benchmark's verify workload make 962 objective
# evaluations with memory 3, 596 with 5, 578 with 8 and 548 with 12, and
# stop at most 7.7e-11, 3.9e-11, 1.9e-13 and 1.0e-12 above the exact value.
EF_LBFGS_MEMORY = 8
# The line search's acceptance test and a restart's stops, as the comment
# block above describes them.
EF_DECREASE_MARGIN = 1e-15
EF_ARMIJO_C1 = 1e-4
EF_STEP_FLOOR = 1e-14
EF_GRAD_FLOOR = 1e-14


@dataclass(frozen=True)
class EFSearch:
    """Outcome of the numerical EF search and how its best restart stopped.

    stop is "gradient" (projected-gradient norm below EF_GRAD_FLOOR),
    "no-descent" (the line search found no step to accept: its trial fell
    to EF_STEP_FLOOR, or its own quadratic model ruled out the decrease
    margin) or "budget" (iterations used up).
    evaluations counts the objective evaluations of the whole search: every
    restart, rejected line-search candidates included: 578 over the
    benchmark's 16 one-restart calls at K = 2, and 304 at K = 4, F = 0.95,
    budget 400, seed 1, which stops on "no-descent" after 289 iterations,
    1.5e-14 above the exact value.  restarts counts the
    restarts run, and restart_stop says why no more ran: "converged" (the
    restart rule of `ef_numeric_search`) or "budget" (all it allows ran).
    """

    value: float
    restarts: int
    best_restart: int
    iterations: int
    grad_norm: float
    evaluations: int
    stop: str
    restart_stop: str


def _ensemble_value(g: np.ndarray, a: np.ndarray, da: int, db: int) -> tuple[float, tuple]:
    """Average output entanglement, and the parts its gradient is built from."""
    cols = a @ g  # d x M, unnormalized member states
    mats = cols.T.reshape(-1, da, db)
    red = mats @ mats.conj().swapaxes(-1, -2)
    p = red.trace(axis1=-2, axis2=-1).real
    live = p >= _LIVE_TRACE_FLOOR
    if live.all():
        live = None
    else:
        mats, red, p = mats[live], red[live], p[live]
    lam, vec = np.linalg.eigh(red / p[:, None, None])
    lam = np.maximum(lam, _EIG_FLOOR)
    value = 0.0
    for term in (-p * np.sum(lam * np.log2(lam), axis=-1)).tolist():
        value += term  # member order, as a sequential sum
    return value, (cols.shape, live, mats, lam, vec)


def _ensemble_grad(a: np.ndarray, parts: tuple) -> np.ndarray:
    """The Euclidean Wirtinger gradient at the point `parts` came from."""
    shape, live, mats, lam, vec = parts
    # d/d conj(M) of [p S(red/p)] is (-log2(red/p)) M
    w = (vec * -np.log2(lam)[:, None, :]) @ vec.conj().swapaxes(-1, -2)
    grad_c = (w @ mats).reshape(len(mats), -1).T
    if live is not None:  # masked-out members get zero gradient columns
        grad_c, live_c = np.zeros(shape, dtype=complex), grad_c
        grad_c[:, live] = live_c
    return a.conj().T @ grad_c


def _polar_coisometry(x: np.ndarray) -> np.ndarray:
    """The polar factor (x x^dag)^(-1/2) x of a full-row-rank x, from one
    eigh of the r x r Gram matrix."""
    s, v = np.linalg.eigh(x @ x.conj().T)
    return ((v / np.sqrt(s)) @ v.conj().T) @ x


def _tangent(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Project x onto the tangent space of G G^dag = I at g."""
    sym = g @ x.conj().T
    return x - 0.5 * (sym + sym.conj().T) @ g


def _backtrack(step: float, value: float, slope: float, cand_value: float) -> float:
    """The next trial after a rejected one: the minimizer of the quadratic
    through phi(0) = value, phi'(0) = slope and phi(step) = cand_value,
    clamped to [0.1, 0.5] step, or half the step where it has no minimum."""
    curvature = cand_value - value - slope * step
    if curvature <= 0:
        return 0.5 * step
    return min(max(-slope * step * step / (2.0 * curvature), 0.1 * step), 0.5 * step)


def _lbfgs_direction(g: np.ndarray, xi: np.ndarray, pairs: deque) -> np.ndarray:
    """The two-loop recursion (Nocedal & Wright, Algorithm 7.4) applied to xi
    with the pairs (s, y, 1/<s, y>), oldest first, and H0 = <s, y>/<y, y> I
    of the newest pair; the result projected onto the tangent space at g."""
    q = xi.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * np.vdot(s, q).real
        q -= alpha * y
        alphas.append(alpha)
    _, y, rho = pairs[-1]
    r = q / (rho * np.vdot(y, y).real)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - rho * np.vdot(y, r).real) * s
    return _tangent(g, r)


def _minimize_from(
    g0: np.ndarray, a: np.ndarray, da: int, db: int, iterations: int
) -> tuple[float, int, float, int, str]:
    """Descend from g0; return the value, the iterations used, the final
    projected-gradient norm, the objective evaluations and the stop reason."""
    g = _polar_coisometry(g0)
    value, parts = _ensemble_value(g, a, da, db)
    evaluations = 1
    xi = direction = _tangent(g, _ensemble_grad(a, parts))
    pairs = deque(maxlen=EF_LBFGS_MEMORY)
    step = 1.0
    it = 0
    while True:
        norm = float(np.linalg.norm(xi))
        if norm < EF_GRAD_FLOOR:
            return value, it, norm, evaluations, "gradient"
        if it == iterations:
            return value, it, norm, evaluations, "budget"
        # a quasi-Newton direction carries its own scale; the gradient does not
        step = 1.0 if pairs else 2.0 * step
        slope = -2.0 * np.vdot(xi, direction).real  # phi'(0) of phi(t) = f(R(g - t d))
        while step > EF_STEP_FLOOR:
            # value only: the gradient is built for the accepted candidate alone
            cand = _polar_coisometry(g - step * direction)
            cand_value, parts = _ensemble_value(cand, a, da, db)
            evaluations += 1
            if (cand_value < value - EF_DECREASE_MARGIN
                    and cand_value <= value + EF_ARMIJO_C1 * step * slope):
                break
            if -slope * step <= EF_DECREASE_MARGIN:  # no shorter step can pass
                return value, it, norm, evaluations, "no-descent"
            step = _backtrack(step, value, slope, cand_value)
        else:
            return value, it, norm, evaluations, "no-descent"
        it += 1
        cand_xi = _tangent(cand, _ensemble_grad(a, parts))
        s, y = cand - g, cand_xi - xi
        g, value, xi = cand, cand_value, cand_xi
        sy = np.vdot(s, y).real
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        direction = _lbfgs_direction(g, xi, pairs) if pairs else xi
        if np.vdot(xi, direction).real <= 0:
            direction = xi


def ef_numeric_search(
    rho: DensityOperator,
    budget: int = 8000,
    seed: int = 0,
) -> EFSearch:
    """Upper estimate of the entanglement of formation, in bits, with how
    the search went.

    Minimizes the ensemble-average entropy of entanglement over pure-state
    ensembles of size dim^2 + 1 realizing rho.  budget is the total
    number of line-search iterations across restarts, 400 per restart, so
    it allows max(1, budget // 400) restarts; results are deterministic for
    a fixed seed.  The restarts stop early, with restart_stop "converged",
    once EF_RESTART_PATIENCE of them in a row have each lowered the best
    value by no more than EF_RESTART_TOL, so a budget of at most
    EF_RESTART_PATIENCE restarts always runs them all.
    """
    label = rho.bipartite
    da, db = label.dim_a, label.dim_b
    d = da * db
    if d > 16:
        raise ValueError(f"total dimension {d} exceeds the supported limit 16")
    lam, vecs = np.linalg.eigh(rho.matrix)
    keep = lam > _RANK_FLOOR
    lam, vecs = lam[keep], vecs[:, keep]
    rank = int(lam.size)
    a = vecs * np.sqrt(lam)
    m_count = d * d + 1
    iterations = 400
    restarts = max(1, budget // iterations)
    rng = np.random.default_rng(seed)
    best, evaluations, stale, restart_stop = None, 0, 0, "budget"
    for r in range(restarts):
        g0 = rng.standard_normal((rank, m_count)) + 1j * rng.standard_normal((rank, m_count))
        value, used, norm, calls, stop = _minimize_from(g0, a, da, db, iterations)
        evaluations += calls
        stale = 0 if best is None or value < best.value - EF_RESTART_TOL else stale + 1
        if best is None or value < best.value:
            best = EFSearch(value, 0, r, used, norm, 0, stop, "")
        if stale == EF_RESTART_PATIENCE:
            restarts, restart_stop = r + 1, "converged"
            break
    return replace(best, restarts=restarts, evaluations=evaluations, restart_stop=restart_stop)


def ef_numeric_estimate(
    rho: DensityOperator,
    budget: int = 8000,
    seed: int = 0,
) -> float:
    """The value of `ef_numeric_search`: an upper estimate of E_f in bits."""
    return ef_numeric_search(rho, budget, seed).value
