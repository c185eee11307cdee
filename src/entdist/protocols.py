"""Local protocols on isotropic states: subspace measurement, factor tracing,
twirling, and the composite dimension reduction with its fidelity guarantee.

Both protocols are symmetric between the two parties and local (product
form); their closed-form fidelity maps are checked against brute-force
density-operator simulation in the test suite.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .linalg import BipartiteLabel, DensityOperator, _haar_columns, haar_unitaries
from .operations import QuantumOperation, SubOperation, apply_operation, compose
from .states import fidelity, isotropic

# Haar samples per batch of the Monte Carlo twirl.
TWIRL_CHUNK = 512
# Bytes of one sub-block's m d^4 complex products in the Monte Carlo twirl,
# in either form.  On a 2-vCPU x86-64 VM with one BLAS thread, the real form
# (d = 6, 7) ran 10-15 % slower at 256 KiB, where its GEMMs are narrow, and
# alike from 512 KiB to 2 MiB; the complex form (d = 8) ran best at 512 KiB,
# 5 % faster than at 256 KiB, and slower from 1 MiB up.
TWIRL_BLOCK_BYTES = 512 * 1024
# Factor dimensions below this run the Monte Carlo twirl in real coordinates,
# 2 d^6 real multiply-adds per sample against 16 d^5 in complex form: the
# counts meet at d = 8.
TWIRL_REAL_BELOW = 8
# Protocol operations kept per constructor.  They are immutable (read-only
# factor arrays), so every caller shares one, and a process that simulates a
# (K, K') pair again builds it once.  Each kept operation holds its cached
# superoperators, up to 31 MiB at K = 32, so only a few are kept.
OP_CACHE_SIZE = 8
# Largest distance from 1 of the probability of the reduction's one branch.
REDUCTION_PROB_TOL = 1e-9


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

    The d^2 x d^2 conjugation is never formed.  Unitaries are drawn in
    chunks of TWIRL_CHUNK by batched Gram-Schmidt (no per-matrix QR call)
    and applied in sub-blocks of m samples, m d^4 complex products within
    TWIRL_BLOCK_BYTES (m >= 1), so beyond one chunk of unitaries (and rho
    and the result) the memory is a few arrays of max(TWIRL_BLOCK_BYTES,
    16 d^4) bytes.  Sub-blocking only splits the arithmetic: the draws, and
    so the random stream, are the same for any block size and either form
    below.

    Below d = TWIRL_REAL_BELOW the twirl runs in real coordinates
    (`_twirl_real`): per sample one d^2 x d^2 real matrix is built and
    applied on both sides, 2 d^6 real multiply-adds.  Its chunks come from
    `_haar_columns`, sample index last, the layout it reads.  From there on
    it runs in complex form (`_twirl_complex`): rho is read as a tensor and
    conjugated one index at a time, four (d^3, d) @ (d, d) complex products,
    16 d^5 real multiply-adds.  The two counts meet at d = 8.  Its chunks
    are `haar_unitaries` stacks, sample index first, which draw faster
    there.
    """
    label = rho.bipartite
    d = label.dim_a
    if label.dim_b != d:
        raise ValueError("twirl requires equal factor dimensions")
    if samples < 1:
        raise ValueError(f"the Monte Carlo twirl needs at least 1 sample, got {samples}")
    if d < TWIRL_REAL_BELOW:
        draw, twirl = _haar_columns, _twirl_real
    else:
        draw, twirl = haar_unitaries, _twirl_complex
    chunks = (
        draw(d, min(TWIRL_CHUNK, samples - done), rng) for done in range(0, samples, TWIRL_CHUNK)
    )
    block = max(1, TWIRL_BLOCK_BYTES // (16 * d**4))
    return twirl(rho.matrix, d, chunks, block) / samples


def _twirl_complex(
    rho: np.ndarray, d: int, chunks: Iterable[np.ndarray], block: int
) -> np.ndarray:
    """Sum over the chunks' samples of (U (x) conj(U)) rho (U (x) conj(U))^dagger.

    With rho read as a tensor rho[i, j, k, l], a sample maps it to

        sum U[a, i] conj(U)[b, j] rho[i, j, k, l] conj(U)[c, k] U[e, l],

    applied one index at a time: each contraction is a (d^3, d) @ (d, d)
    product per sample that drops the leading index and appends the new
    one, and the last is fused with the sum over samples into one
    (d^3, m d) @ (m d, d) product; each intermediate holds the sub-block's
    m d^4 complex products.
    """
    d3 = d**3
    rho_t = rho.reshape(d, d3).T  # [(j, k, l), i]
    acc = np.zeros((d3, d), dtype=complex)  # [(a, b, c), e]
    for u in chunks:
        u_t = u.transpose(0, 2, 1)  # [s, old, new]
        ub_t = u_t.conj()
        for lo in range(0, len(u), block):
            m = min(block, len(u) - lo)
            x = rho_t @ u_t[lo : lo + m]  # [s, (j, k, l), a]
            x = x.reshape(m, d, d3).transpose(0, 2, 1) @ ub_t[lo : lo + m]  # [s, (k, l, a), b]
            x = x.reshape(m, d, d3).transpose(0, 2, 1) @ ub_t[lo : lo + m]  # [s, (l, a, b), c]
            acc += x.reshape(m * d, d3).T @ u_t[lo : lo + m].reshape(m * d, d)
    return acc.reshape(d * d, d * d)


def _twirl_real(
    rho: np.ndarray, d: int, chunks: Iterable[np.ndarray], block: int
) -> np.ndarray:
    """`_twirl_complex` in the real coordinates phi(X) = Re X + Im X of
    Hermitian d x d matrices.

    phi maps Herm(d) isometrically onto the real d x d matrices; its inverse
    on vecs is T = ((1 + i) I + (1 - i) S) / 2, where S swaps the two
    indices of a vec (phi of a transpose is the transpose).  Realigned as
    R[(i, k), (j, l)] = rho[(i, j), (k, l)], rho is a sum of vec(A) vec(B)^T
    over Hermitian A and B with real weights, so c = T^dagger R conj(T) is
    real.  A sample conjugates A by U and B by conj(U), which in these
    coordinates are the real orthogonal O and S O S with

        O[(a, c), (i, k)] = Re(U[a, i] conj(U)[c, k]) - Im(U[c, i] conj(U)[a, k]),

    so the sum is T (sum_s O_s (c S) O_s^T S) T^T, realigned back.  Each
    chunk comes from `_haar_columns` as U[a, i, s], and a sub-block of m
    samples builds O in layout [a, c, i, k, s] from its m d^4 complex
    products U[a, i] conj(U)[c, k], read straight off the chunk, then takes
    one batched (c S)^T @ O and one (d^2, d^2 m) @ (d^2 m, d^2) product.
    The result is formed from permutations of one real sum, so it is exactly
    Hermitian.
    """
    d2, d4 = d * d, d**4
    swap = np.arange(d2).reshape(d, d).T.ravel()  # S as an index permutation
    r = rho.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d2, d2)
    rs = r[:, swap]
    c = ((rs + r[swap]).real + (r - rs[swap]).imag) / 2  # Re(T^dagger R conj(T))
    cs_t = np.ascontiguousarray(c[:, swap].T)  # (c S)^T
    block = min(block, TWIRL_CHUNK)
    # flat buffers, so a short last block is a contiguous prefix
    w_buf = np.empty(d4 * block, dtype=complex)
    o_buf = np.empty(d4 * block)
    g = np.zeros((d2, d2))
    for u in chunks:  # [a, i, s]
        ub = u.conj()
        for lo in range(0, u.shape[2], block):
            m = min(block, u.shape[2] - lo)
            w = w_buf[: d4 * m].reshape(d, d, d, d, m)  # U[a, i] conj(U)[c, k]
            o = o_buf[: d4 * m].reshape(d2, d2, m)
            s = slice(lo, lo + m)
            np.multiply(u[:, None, :, None, s], ub[None, :, None, :, s], out=w)
            np.subtract(w.real, w.imag.transpose(1, 0, 2, 3, 4), out=o.reshape(d, d, d, d, m))
            z = w_buf.view(float)[: d4 * m].reshape(d2, d2, m)  # w is spent once o is formed
            np.matmul(cs_t, o, out=z)  # z[x] = (c S)^T @ o[x]: [(a, c), q, s]
            g += z.reshape(d2, d2 * m) @ o.reshape(d2, d2 * m).T
    # T (g S) T^T = ((g + S g S) + i (g S - S g)) / 2, realigned back
    out = ((g + g[swap][:, swap]) + 1j * (g[:, swap] - g[swap])) / 2
    return out.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d2, d2)


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
def _reduction_op(k: int, kp: int) -> QuantumOperation:
    """The one-branch operation of `reduce_dimension` from k to kp."""
    plan = ReductionPlan(k, kp)
    stage1 = subspace_measurement_op(k, plan.stage1_target)
    return compose(stage1, {0: factor_tracing_op(plan.stage1_target, kp)})


def reduce_dimension(rho: DensityOperator, kp: int) -> DensityOperator:
    """Local reduction of a k x k state to kp x kp: subspace measurement down
    to kp * floor(k / kp), then factor tracing the rest of the way."""
    label = rho.bipartite
    if label.dim_a != label.dim_b:
        raise ValueError("reduction requires equal factor dimensions")
    ((p, state),) = apply_operation(_reduction_op(label.dim_a, kp), rho)
    if state is None or not abs(p - 1.0) < REDUCTION_PROB_TOL:
        raise ValueError(f"the reduction's one branch has probability {p}, not 1")
    return state


def reduce_dimension_fidelity(k: int, kp: int, f: float) -> float:
    """Closed-form fidelity of the composite reduction on an isotropic input."""
    plan = ReductionPlan(k, kp)
    mid = subspace_measurement_fidelity(k, plan.stage1_target, f)
    if plan.stage1_target == kp:
        return mid
    return factor_tracing_fidelity(plan.stage1_target, kp, mid)
