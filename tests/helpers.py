"""Objects the tests share: an operation built from the package's
constructors, the maximally entangled projector built entry by entry,
Wootters's two-qubit entanglement of formation in 50-digit arithmetic, and
the separable-form check by dense Choi differences."""

import mpmath
import numpy as np

from entdist.operations import (
    TAU_ACTION, TAU_PPT, QuantumOperation, SubOperation, choi_matrix, make_local,
)
from entdist.protocols import _party_kraus


def unmerged_subspace_measurement(k: int, kp: int) -> QuantumOperation:
    """The subspace measurement with the parties' success/failure branches
    kept apart: the pairs (success, success), (success, failure), (failure,
    success), (failure, failure), A major; one branch when kp = k, which has
    no failure branch."""
    party = QuantumOperation(
        tuple(SubOperation(side, kp) for side in _party_kraus(k, kp) if len(side)), k
    )
    return make_local(party, party)


def max_entangled_projector(dim: int) -> np.ndarray:
    """|Phi+><Phi+| on the doubled space, set entry by entry: 1/dim at each
    (ii, jj), zero elsewhere; independent of `states.max_entangled_ket`."""
    diag = np.arange(dim) * (dim + 1)  # the joint index of |ii>
    p = np.zeros((dim * dim, dim * dim), dtype=complex)
    p[np.ix_(diag, diag)] = 1 / dim
    return p


def wootters_formation(rho: np.ndarray) -> float:
    """Exact entanglement of formation of a two-qubit state, in bits, from
    Wootters's concurrence (PRL 80, 2245), computed in 50-digit mpmath.

    C = max(0, l1 - l2 - l3 - l4) over the decreasing square roots l of the
    eigenvalues of rho Y conj(rho) Y, Y = sigma_y (x) sigma_y, and
    E_f = h((1 + sqrt(1 - C^2)) / 2).  With rho = A A^dagger those are the
    eigenvalues of the Hermitian tau^dagger tau, tau = A^T Y A.  In float64
    the square roots of a rank-deficient state's near-zero eigenvalues
    amplify rounding to about 1e-8 in E_f; at 50 digits the amplified
    rounding is about 1e-25.  Eigenvalues of rho below zero, the rounding of
    a rank-deficient state, are taken as zero."""
    with mpmath.workdps(50):
        ev, vecs = mpmath.eighe(mpmath.matrix(rho.tolist()))
        a = vecs * mpmath.diag([mpmath.sqrt(max(e, 0)) for e in ev])
        y = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        tau = a.T * y * a
        squares = mpmath.eighe(tau.H * tau, eigvals_only=True)
        l1, l2, l3, l4 = sorted((mpmath.sqrt(max(e, 0)) for e in squares), reverse=True)
        c = max(mpmath.mpf(0), l1 - l2 - l3 - l4)
        x = (1 + mpmath.sqrt(1 - c * c)) / 2
        return float(-sum(p * mpmath.log(p, 2) for p in (x, 1 - x) if p > 0))


def dense_separable_reference(op: QuantumOperation, witness) -> tuple[bool, list[bool]]:
    """(`verify_separable_form(op, witness)`, per branch read whether its
    witness proves it p.p.t.) from one dense Choi difference D = C - C_w per
    branch, with no bound in the Kraus domain: a branch is read only if
    every pair has A's output x input shape on A_j and B's on B_j; it proves
    p.p.t. where ||D||_F <= TAU_PPT tr C / 2 and passes where every |D_ij|
    <= TAU_ACTION tr C.  Reading stops after the first branch that fails.
    The branches not proved p.p.t., read or not, are those `classify` sends
    to the dense test (`operations._ppt_branch`)."""
    shown: list[bool] = []
    lab_in = op.in_label
    for sub, pairs in zip(op.subops, witness):
        lab_out = sub.out_label
        if any(a.shape != (lab_out.dim_a, lab_in.dim_a) or b.shape != (lab_out.dim_b, lab_in.dim_b)
               for a, b in pairs):
            return False, shown + [False]
        choi = choi_matrix(sub)
        tr = np.trace(choi).real
        products = np.stack([np.kron(a, b) for a, b in pairs])
        gap = choi - choi_matrix(SubOperation(products, lab_out))
        shown.append(bool(np.linalg.norm(gap) <= TAU_PPT * tr / 2))
        if np.abs(gap).max() > TAU_ACTION * tr:
            return False, shown
    return True, shown
