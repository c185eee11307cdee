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


def _is_count(x: object) -> bool:
    """An integer (numpy's too) of at least 1; True and False are not integers here."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 1


@dataclass(frozen=True)
class BipartiteLabel:
    """Factor dimensions of a bipartite space."""

    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        if not (_is_count(self.dim_a) and _is_count(self.dim_b)):
            raise ValueError(
                f"factor dimensions must be positive integers, got {self.dim_a!r}x{self.dim_b!r}"
            )

    @property
    def total(self) -> int:
        return self.dim_a * self.dim_b


# Plain int labels a unipartite space of that dimension.
Label = Union[BipartiteLabel, int]


def total_dim(label: Label) -> int:
    """The dimension of a labelled space; a plain label must be a positive integer."""
    if isinstance(label, BipartiteLabel):
        return label.total
    if not _is_count(label):
        raise ValueError(f"a label is a BipartiteLabel or a positive integer, got {label!r}")
    return int(label)


def as_square_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part (m + m^dagger) / 2 (dense solver)."""
    m = as_square_matrix(m)
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])


def _checked(m: np.ndarray, label: Label) -> np.ndarray:
    """m as a complex square matrix, checked against the label's dimension,
    Hermitian and of trace one."""
    m = as_square_matrix(m)
    d = total_dim(label)
    if m.shape[0] != d:
        raise ValueError(f"matrix dimension {m.shape[0]} does not match label total {d}")
    if abs(m - m.conj().T).max() > TAU_HERM:
        raise ValueError("density operator is not Hermitian within tolerance")
    tr = m.trace()
    if abs(tr - 1.0) > TAU_TRACE:
        raise ValueError(f"density operator trace {tr} is not 1 within tolerance")
    return m


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A Hermitian, positive-semidefinite, trace-one operator on a labelled space.

    `DensityOperator(m, label)` checks all three properties, positivity by a
    full eigendecomposition, and keeps a read-only copy of m.  The states the
    package builds itself are positive semidefinite by construction, so they
    take `_by_construction`, which keeps the shape, Hermitian and trace checks
    and skips the eigendecomposition (and the copy of an array no one else
    holds):

    - `states.isotropic`: its spectrum is F once and (1-F)/(K^2-1)
      K^2-1 times, and it bounds F to [0, 1];
    - `operations.apply_operation`, each branch output sum_j K_j rho K_j^dagger / p:
      a Kraus image of a checked state;
    - `random_density` and `verify._random_states` (one stack per dimension):
      a normalized Gram matrix G G^dagger;
    - in `verify`, a tensor product of two checked states: its spectrum is the products of theirs.

    tests/test_linalg.py and tests/test_operations.py check the least
    eigenvalue of each kind against -TAU_PSD, the test the path skips.
    """

    matrix: np.ndarray
    label: Label

    def __post_init__(self) -> None:
        m = _checked(self.matrix, self.label).copy()
        if np.linalg.eigvalsh(m)[0] < -TAU_PSD:
            raise ValueError("density operator is not positive semidefinite within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _by_construction(cls, m: np.ndarray, label: Label) -> DensityOperator:
        """A state positive semidefinite by construction.  m is a fresh
        array, which the state takes over (copied only into C order)."""
        m = np.ascontiguousarray(_checked(m, label))
        m.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", m)
        object.__setattr__(rho, "label", label)
        return rho

    @property
    def dim(self) -> int:
        return total_dim(self.label)

    @property
    def bipartite(self) -> BipartiteLabel:
        if not isinstance(self.label, BipartiteLabel):
            raise ValueError("operation requires a bipartite label")
        return self.label


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


def haar_unitaries(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """A stack of count Haar-random dim x dim unitaries, shape (count, dim, dim).

    Each is the Q factor of a Ginibre matrix whose R has a positive real
    diagonal (Mezzadri, math-ph/0609050), formed by classical Gram-Schmidt
    run twice per column, one column at a time over the whole stack.  The
    draws are those of a QR of the same Ginibre stack, so the unitaries agree
    with QR's rephased Q to rounding."""
    shape = (count, dim, dim)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    for j in range(dim):
        v, q = z[:, :, j : j + 1], z[:, :, :j]  # column j and the orthonormal ones before it
        for _ in range(2 if j else 0):
            # v -= q q^H v, with q^H v formed as (v^H q)^H so that only v is conjugated
            v -= q @ (v.conj().transpose(0, 2, 1) @ q).conj().transpose(0, 2, 1)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return z


def _haar_columns(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`haar_unitaries(dim, count, rng)` laid out [row, column, sample], shape
    (dim, dim, count): the same normals, so the same unitaries to rounding.

    The Gram-Schmidt is the same, but every projection and norm is contracted
    over the contiguous sample axis, a few numpy calls per column whatever
    the count, where the stacked products of `haar_unitaries` are dispatched
    once per matrix.  That wins below dim = 8 and loses from dim = 12 on (a
    512-stack at dim = 16 took 16.0 against 14.2 ms on a 2-vCPU x86-64 VM),
    so only the real-form twirl draws this way."""
    z = np.empty((dim, dim, count), dtype=complex)
    for plane in (z.real, z.imag):
        np.divide(rng.standard_normal((count, dim, dim)).transpose(1, 2, 0), np.sqrt(2), out=plane)
    for j in range(dim):
        v, q = z[:, j], z[:, :j]  # [r, s] and [r, i, s]
        for _ in range(2 if j else 0):
            v -= np.einsum("ris,is->rs", q, np.einsum("ris,rs->is", q, v.conj()).conj())
        v /= np.linalg.norm(v, axis=0)
    return z


def _normalized_grams(g: np.ndarray) -> np.ndarray:
    """G G^dagger over its trace, symmetrized, for each G of a stack."""
    m = g @ g.conj().transpose(0, 2, 1)
    m /= np.trace(m, axis1=1, axis2=2).real[:, None, None]
    return (m + m.conj().transpose(0, 2, 1)) / 2


def random_density(label: Label, rng: np.random.Generator) -> DensityOperator:
    """Random full-rank density operator (Hilbert-Schmidt-ish measure)."""
    d = total_dim(label)
    g = rng.standard_normal((1, d, d)) + 1j * rng.standard_normal((1, d, d))
    return DensityOperator._by_construction(_normalized_grams(g)[0], label)
