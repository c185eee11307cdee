"""The maximally entangled state, fidelity, and the isotropic family.

The maximally entangled ket is fixed in the global computational basis; the
choice is not canonical, but all fidelities in this package are relative to
it and results are invariant under local unitary changes of that choice.
"""

from __future__ import annotations

import numpy as np

from .linalg import BipartiteLabel, DensityOperator

F_RANGE_SLACK = 1e-12


def max_entangled_ket(dim: int) -> np.ndarray:
    """Unit vector (1/sqrt(dim)) * sum_i |ii> on the doubled space."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    v = np.zeros(dim * dim, dtype=complex)
    v[:: dim + 1] = 1.0 / np.sqrt(dim)
    return v


def fidelity(rho: DensityOperator) -> float:
    """Overlap of a state on V (x) V with the fixed maximally entangled state."""
    label = rho.bipartite
    if label.dim_a != label.dim_b:
        raise ValueError(
            f"fidelity requires equal factor dimensions, got {label.dim_a}x{label.dim_b}"
        )
    v = max_entangled_ket(label.dim_a)
    return float(np.real(v.conj() @ rho.matrix @ v))


def isotropic(K: int, F: float) -> DensityOperator:
    """The state a * P+ + (1 - a) * I / K^2 with fidelity F, where the
    weight of the maximally entangled projector is a = (F K^2 - 1)/(K^2 - 1)."""
    if K < 1:
        raise ValueError(f"local dimension must be positive, got {K}")
    if F < -F_RANGE_SLACK or F > 1 + F_RANGE_SLACK:
        raise ValueError(f"fidelity {F} outside [0, 1]")
    if K == 1 and abs(F - 1) > F_RANGE_SLACK:
        raise ValueError("dimension 1 forces fidelity 1")
    k2 = K * K
    a = 1.0 if K == 1 else (F * k2 - 1) / (k2 - 1)
    v = max_entangled_ket(K)
    m = a * np.outer(v, v.conj()) + (1 - a) * np.eye(k2) / k2
    return DensityOperator._by_construction(m, BipartiteLabel(K, K))
