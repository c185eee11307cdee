"""Objects the tests share: an operation built from the package's
constructors, and the maximally entangled projector built entry by entry."""

import numpy as np

from entdist.operations import QuantumOperation, SubOperation, make_local
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
