"""Operations the tests build from the package's constructors."""

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
