"""Dense complex linear algebra on small labelled bipartite spaces.

Index convention (normative for the whole package): the joint basis index of
a bipartite space with factor dimensions (dim_a, dim_b) is (a, b) -> a * dim_b + b,
i.e. the A index is the major one.  Tensor products are plain Kronecker
products under this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

TAU_HERM = 1e-9
TAU_TRACE = 1e-9
TAU_PSD = 1e-9


@dataclass(frozen=True)
class BipartiteLabel:
    """Factor dimensions of a bipartite space."""

    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError(
                f"factor dimensions must be positive, got {self.dim_a}x{self.dim_b}"
            )

    @property
    def total(self) -> int:
        return self.dim_a * self.dim_b

    def index(self, a: int, b: int) -> int:
        """Joint index of the basis pair (a, b)."""
        return a * self.dim_b + b


# Plain int labels a unipartite space of that dimension.
Label = Union[BipartiteLabel, int]


def total_dim(label: Label) -> int:
    return label.total if isinstance(label, BipartiteLabel) else int(label)


def as_square_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def is_hermitian(m: np.ndarray, tol: float = TAU_HERM) -> bool:
    m = as_square_matrix(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def min_eigenvalue(m: np.ndarray, tol: float = TAU_HERM) -> float:
    """Smallest eigenvalue of a Hermitian matrix (dense solver)."""
    m = as_square_matrix(m)
    if not is_hermitian(m, tol):
        raise ValueError("min_eigenvalue requires a Hermitian input")
    return float(np.linalg.eigvalsh(m)[0])


def tensor(*matrices: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, A-major index order."""
    if not matrices:
        raise ValueError("tensor requires at least one matrix")
    out = np.asarray(matrices[0], dtype=complex)
    for m in matrices[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A Hermitian, positive-semidefinite, trace-one operator on a labelled space."""

    matrix: np.ndarray
    label: Label

    def __post_init__(self) -> None:
        m = as_square_matrix(self.matrix)
        d = total_dim(self.label)
        if m.shape[0] != d:
            raise ValueError(f"matrix dimension {m.shape[0]} does not match label total {d}")
        if np.max(np.abs(m - m.conj().T)) > TAU_HERM:
            raise ValueError("density operator is not Hermitian within tolerance")
        tr = m.trace()
        if abs(tr - 1.0) > TAU_TRACE:
            raise ValueError(f"density operator trace {tr} is not 1 within tolerance")
        if np.linalg.eigvalsh(m)[0] < -TAU_PSD:
            raise ValueError("density operator is not positive semidefinite within tolerance")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return total_dim(self.label)

    @property
    def bipartite(self) -> BipartiteLabel:
        if not isinstance(self.label, BipartiteLabel):
            raise ValueError("operation requires a bipartite label")
        return self.label


def partial_trace(rho: DensityOperator, keep: Literal["A", "B"]) -> DensityOperator:
    """Trace out one factor of a bipartite density operator."""
    label = rho.bipartite
    da, db = label.dim_a, label.dim_b
    m = rho.matrix.reshape(da, db, da, db)
    if keep == "A":
        reduced = np.einsum("ajbj->ab", m)
        return DensityOperator(reduced, da)
    if keep == "B":
        reduced = np.einsum("jajb->ab", m)
        return DensityOperator(reduced, db)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(
    m: np.ndarray, label: BipartiteLabel, side: Literal["A", "B"] = "B"
) -> np.ndarray:
    """Transpose one tensor factor of a bipartite operator.

    The result is Hermitian and trace-preserving for Hermitian input but may
    fail to be positive semidefinite; it is returned as a plain matrix.
    """
    if not isinstance(label, BipartiteLabel):
        raise ValueError("partial transpose requires a bipartite label")
    m = as_square_matrix(m)
    da, db = label.dim_a, label.dim_b
    if m.shape[0] != label.total:
        raise ValueError(f"matrix dimension {m.shape[0]} does not match label total {label.total}")
    t = m.reshape(da, db, da, db)
    if side == "B":
        t = t.transpose(0, 3, 2, 1)
    elif side == "A":
        t = t.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return t.reshape(label.total, label.total)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_density(label: Label, rng: np.random.Generator) -> DensityOperator:
    """Random full-rank density operator (Hilbert-Schmidt-ish measure)."""
    d = total_dim(label)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m /= m.trace().real
    m = (m + m.conj().T) / 2
    return DensityOperator(m, label)
