"""Local protocols on isotropic states: subspace measurement, factor tracing,
twirling, and the composite dimension reduction with its fidelity guarantee.

Both protocols are symmetric between the two parties and local (product
form); their closed-form fidelity maps are checked against brute-force
density-operator simulation in the test suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import BipartiteLabel, DensityOperator, haar_unitaries
from .operations import QuantumOperation, SubOperation, apply_operation, compose
from .states import fidelity, isotropic

__all__ = [
    "ReductionPlan",
    "subspace_measurement_op",
    "subspace_measurement_fidelity",
    "factor_tracing_op",
    "factor_tracing_fidelity",
    "exact_twirl",
    "monte_carlo_twirl",
    "reduce_dimension",
    "reduce_dimension_fidelity",
]


# Haar samples per batch of the Monte Carlo twirl.
TWIRL_CHUNK = 512
# Bytes of one sub-block's intermediate in the Monte Carlo twirl; sized to
# stay in a core's L2 cache (256 KiB to 1 MiB ran alike; 16 MiB was slower).
TWIRL_BLOCK_BYTES = 256 * 1024
# Protocol operations kept per constructor.  They are immutable (read-only
# factor arrays), so every caller shares one: a grid sweeps one (K, K') pair
# at many fidelities.  Each kept operation holds its cached superoperators,
# up to 31 MiB at K = 32, so only a few are kept.
OP_CACHE_SIZE = 8


def _party_kraus(k: int, kp: int) -> tuple[np.ndarray, np.ndarray]:
    """One party's success and failure Kraus families, stacked (n, kp, k).

    Success is the isometric truncation onto the first kp basis elements.
    Failure detects a complement element m and replaces it with the uniform
    mixture on the kp-subspace: Kraus matrices |j><m| / sqrt(kp), m major.
    """
    succ = np.eye(kp, k, dtype=complex)[None]
    fail = np.einsum("jr,mc->mjrc", np.eye(kp), np.eye(k)[kp:]).reshape(-1, kp, k)
    return succ, fail / np.sqrt(kp)


@functools.lru_cache(maxsize=OP_CACHE_SIZE)
def subspace_measurement_op(k: int, kp: int) -> QuantumOperation:
    """Both parties measure the subspace of their first kp basis elements.

    On success a party keeps its (truncated) state; on failure it replaces
    its portion with the maximally mixed state on the kp-subspace, which is
    the ensemble average of drawing a random element of that subspace.  The
    four success/failure branches share the kp x kp output space and are
    merged, into the product of the parties' merged families.
    """
    if not 1 <= kp <= k:
        raise ValueError(f"target dimension must satisfy 1 <= {kp} <= {k}")
    party = np.concatenate(_party_kraus(k, kp))
    sub = SubOperation((party, party), BipartiteLabel(kp, kp))
    return QuantumOperation((sub,), BipartiteLabel(k, k))


def subspace_measurement_fidelity(k: int, kp: int, f: float) -> float:
    """Closed-form fidelity map of the merged subspace measurement."""
    if k < 2:
        raise ValueError(f"input dimension must be at least 2, got {k}")
    if not 1 <= kp <= k:
        raise ValueError(f"target dimension must satisfy 1 <= {kp} <= {k}")
    if not 0 <= f <= 1:
        raise ValueError(f"fidelity {f} outside [0, 1]")
    head = (kp / k) * f
    tail = (k - kp) * ((1 - f) * kp * (kp + k) + k * k - 1) / (kp * kp * k * (k * k - 1))
    return head + tail


@functools.lru_cache(maxsize=OP_CACHE_SIZE)
def factor_tracing_op(k: int, kp: int) -> QuantumOperation:
    """Both parties split their space as kp x (k/kp) and trace the second factor."""
    if not 1 <= kp <= k or k % kp != 0:
        raise ValueError(f"{kp} must divide {k}")
    ratio = k // kp
    # local Kraus m: identity on the kept factor, basis bra <m| on the traced one
    local = np.einsum("il,mr->milr", np.eye(kp), np.eye(ratio)).reshape(ratio, kp, k)
    sub = SubOperation((local, local), BipartiteLabel(kp, kp))
    return QuantumOperation((sub,), BipartiteLabel(k, k))


def factor_tracing_fidelity(k: int, kp: int, f: float) -> float:
    """Closed-form fidelity map of the factor-tracing protocol."""
    if k < 2:
        raise ValueError(f"input dimension must be at least 2, got {k}")
    if not 1 <= kp <= k or k % kp != 0:
        raise ValueError(f"{kp} must divide {k}")
    if not 0 <= f <= 1:
        raise ValueError(f"fidelity {f} outside [0, 1]")
    return f + (1 - f) * (k * k - kp * kp) / ((k * k - 1) * kp * kp)


def exact_twirl(rho: DensityOperator) -> DensityOperator:
    """Average over all U (x) conj(U) conjugations, in closed form.

    The average is the fidelity-preserving projection onto the isotropic
    family; the Monte Carlo estimate below exists as a test oracle for it.
    """
    label = rho.bipartite
    if label.dim_a != label.dim_b:
        raise ValueError("twirl requires equal factor dimensions")
    return isotropic(label.dim_a, fidelity(rho))


def monte_carlo_twirl(
    rho: DensityOperator,
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Empirical mean of (U (x) conj(U)) rho (U (x) conj(U))^dagger over Haar U.

    Returns the averaged matrix (not validated as a DensityOperator, since a
    finite-sample mean carries statistical noise).

    The d^2 x d^2 conjugation is never formed.  With rho read as a tensor
    rho[i, j, k, l], a sample maps it to

        sum U[a, i] conj(U)[b, j] rho[i, j, k, l] conj(U)[c, k] U[e, l],

    applied one index at a time: each contraction is a (d^3, d) @ (d, d)
    product per sample that drops the leading index and appends the new
    one, and the last is fused with the sum over samples into one
    (d^3, m d) @ (m d, d) product.  That costs O(samples d^5) instead of
    O(samples d^6).  Unitaries are drawn in chunks of TWIRL_CHUNK and
    applied in sub-blocks of m samples, m d^4 16 bytes within
    TWIRL_BLOCK_BYTES (m >= 1), so beyond one chunk of unitaries (and rho
    and the result) the memory is a few arrays of max(TWIRL_BLOCK_BYTES,
    16 d^4) bytes.  Sub-blocking only splits the arithmetic: the draws, and
    so the random stream, are the same for any block size.
    """
    label = rho.bipartite
    d = label.dim_a
    if label.dim_b != d:
        raise ValueError("twirl requires equal factor dimensions")
    d3 = d**3
    block = max(1, TWIRL_BLOCK_BYTES // (16 * d3 * d))
    rho_t = rho.matrix.reshape(d, d3).T  # [(j, k, l), i]
    acc = np.zeros((d3, d), dtype=complex)  # [(a, b, c), e]
    done = 0
    while done < samples:
        n = min(TWIRL_CHUNK, samples - done)
        u_t = haar_unitaries(d, n, rng).transpose(0, 2, 1)  # [s, old, new]
        ub_t = u_t.conj()
        for lo in range(0, n, block):
            m = min(block, n - lo)
            x = rho_t @ u_t[lo : lo + m]  # [s, (j, k, l), a]
            x = x.reshape(m, d, d3).transpose(0, 2, 1) @ ub_t[lo : lo + m]  # [s, (k, l, a), b]
            x = x.reshape(m, d, d3).transpose(0, 2, 1) @ ub_t[lo : lo + m]  # [s, (l, a, b), c]
            acc += x.reshape(m * d, d3).T @ u_t[lo : lo + m].reshape(m * d, d)
        done += n
    return acc.reshape(d * d, d * d) / samples


@dataclass(frozen=True)
class ReductionPlan:
    """Two-stage reduction from dimension k to kp and its fidelity guarantee."""

    k: int
    kp: int

    def __post_init__(self) -> None:
        if not 1 <= self.kp <= self.k:
            raise ValueError(f"plan requires 1 <= {self.kp} <= {self.k}")

    @property
    def stage1_target(self) -> int:
        return self.kp * (self.k // self.kp)

    @property
    def guaranteed_fidelity_factor(self) -> float:
        return (self.kp / self.k) * (self.k // self.kp)

    @property
    def coarse_fidelity_factor(self) -> float:
        return max(self.k - self.kp, self.kp) / self.k


@functools.lru_cache(maxsize=OP_CACHE_SIZE)
def _staged(stage1: QuantumOperation, stage2: QuantumOperation) -> QuantumOperation:
    """The one-branch composite of two shared protocol operations."""
    return compose(stage1, {0: stage2})


def reduce_dimension(rho: DensityOperator, kp: int) -> DensityOperator:
    """Local reduction of a k x k state to kp x kp: subspace measurement down
    to kp * floor(k / kp), then factor tracing the rest of the way."""
    label = rho.bipartite
    if label.dim_a != label.dim_b:
        raise ValueError("reduction requires equal factor dimensions")
    plan = ReductionPlan(label.dim_a, kp)
    stage1 = subspace_measurement_op(plan.k, plan.stage1_target)
    op = _staged(stage1, factor_tracing_op(plan.stage1_target, kp))
    ((p, state),) = apply_operation(op, rho)
    assert state is not None and abs(p - 1.0) < 1e-9
    return state


def reduce_dimension_fidelity(k: int, kp: int, f: float) -> float:
    """Closed-form fidelity of the composite reduction on an isotropic input."""
    plan = ReductionPlan(k, kp)
    mid = subspace_measurement_fidelity(k, plan.stage1_target, f)
    if plan.stage1_target == kp:
        return mid
    return factor_tracing_fidelity(plan.stage1_target, kp, mid)
