"""Measuring quantum operations in Kraus form and their class predicates.

An operation is a family of sub-operations, each a Kraus family mapping the
common input space to that sub-operation's own output space, jointly trace
preserving.  Applying the operation yields one classical branch per
sub-operation.  Class membership is decided from explicit structure:
completeness sums (trace preserving), one Choi eigendecomposition per branch
(p.p.t.) and separable witnesses.  A Kraus family is completely positive by
construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .linalg import (
    BipartiteLabel,
    DensityOperator,
    Label,
    min_eigenvalue,
    total_dim,
)

TAU_TP = 1e-9
TAU_PPT = 1e-9
TAU_ACTION = 1e-9
ZERO_BRANCH_PROB = 1e-12


@dataclass(frozen=True, eq=False)
class SubOperation:
    """One classical branch: a Kraus family sharing an output space.

    The family is kept in Kronecker-factored form: `factors` is a tuple of
    stacked arrays of shape (n_f, out_f, in_f), and the branch's Kraus
    matrices are all products F_1[j_1] (x) ... (x) F_m[j_m], enumerated with
    j_1 as the major index (the package's A-major order).  Any other
    sequence of equally shaped matrices is the one-factor (dense) case.
    """

    factors: tuple[np.ndarray, ...]
    out_label: Label

    def __post_init__(self) -> None:
        parts = self.factors
        if not (isinstance(parts, tuple) and parts and all(np.ndim(f) == 3 for f in parts)):
            parts = (parts,)
        # own copies, so the read-only flag holds and the caches below stay valid
        parts = tuple(np.array(f, dtype=complex) for f in parts)
        if any(f.ndim != 3 or f.shape[0] == 0 for f in parts):
            raise ValueError("sub-operation requires at least one Kraus matrix per factor")
        rows = math.prod(f.shape[1] for f in parts)
        d_out = total_dim(self.out_label)
        if rows != d_out:
            raise ValueError(f"Kraus rows {rows} do not match output dimension {d_out}")
        for f in parts:
            f.setflags(write=False)
        object.__setattr__(self, "factors", parts)

    @property
    def kraus(self) -> np.ndarray:
        """The dense Kraus family, shape (n, out, in), A-major across factors."""
        return functools.reduce(np.kron, self.factors)

    @property
    def dim_in(self) -> int:
        return math.prod(f.shape[2] for f in self.factors)

    @property
    def dim_out(self) -> int:
        return math.prod(f.shape[1] for f in self.factors)

    def completeness_term(self) -> np.ndarray:
        """Sum of K^dagger K over the branch: the Kronecker product of the
        factors' sums."""
        flat = (f.reshape(-1, f.shape[2]) for f in self.factors)
        return functools.reduce(np.kron, (g.conj().T @ g for g in flat))

    @functools.cached_property
    def _superoperators(self) -> tuple[np.ndarray | None, ...]:
        """Per factor, its map sum_j F_j (x) conj(F_j) on row-major vec where
        `apply_raw` contracts through it, else None.

        That route is taken when it costs fewer flops than the Kraus
        matrices, counting the superoperator's build.  Factors before p act
        first, so the other axes of factor p's contraction hold the earlier
        factors' output dimensions and the later factors' input dimensions.
        """
        shapes = [f.shape for f in self.factors]
        maps: list[np.ndarray | None] = []
        for p, f in enumerate(self.factors):
            count, d_out, d_in = f.shape
            rest = math.prod(s[1] ** 2 for s in shapes[:p]) * math.prod(
                s[2] ** 2 for s in shapes[p + 1 :]
            )
            if d_out * d_in * (count + rest) < count * rest * (d_in + d_out):
                # [(x, a), (y, b)] = sum_j F_j[x, a] conj(F_j)[y, b], one product
                pairs = f.reshape(count, -1).T @ f.conj().reshape(count, -1)
                superop = pairs.reshape(d_out, d_in, d_out, d_in).transpose(0, 2, 1, 3)
                superop = superop.reshape(d_out * d_out, d_in * d_in)
                superop.setflags(write=False)
                maps.append(superop)
            else:
                maps.append(None)
        return tuple(maps)

    @functools.cached_property
    def _axis_orders(self) -> tuple[tuple[int, ...], ...]:
        """The transposes `apply_raw` makes of the state tensor, whose axes
        are the factors' row axes 0..n-1 and column axes n..2n-1.

        Before factor p the tensor is laid out as (p, n + p, the other axes in
        order); entry p carries it there from the layout before factor p - 1
        (the plain order before factor 0), and the last entry back to the
        plain order.
        """
        n = len(self.factors)
        plain = list(range(2 * n))
        layouts = [[p, n + p] + [a for a in plain if a not in (p, n + p)] for p in range(n)]
        layouts = [plain] + layouts + [plain]
        return tuple(
            tuple(prev.index(a) for a in nxt) for prev, nxt in zip(layouts, layouts[1:])
        )

    def apply_raw(self, m: np.ndarray) -> np.ndarray:
        """Unnormalized branch output sum_j K_j m K_j^dagger, one factor at a time.

        Each factor's row and column axes are brought to the front of the
        state tensor by one transpose, and the tensor is then contracted by
        plain matrix products, through the factor's superoperator or Kraus
        matrix by Kraus matrix.
        """
        dims = [f.shape[2] for f in self.factors]
        t = np.asarray(m, dtype=complex).reshape(dims + dims)
        orders = self._axis_orders
        for f, superop, order in zip(self.factors, self._superoperators, orders):
            count, d_out, d_in = f.shape
            front = t.transpose(order)
            v = front.reshape(d_in * d_in, -1)
            if superop is not None:
                out = superop @ v
            else:
                # [x, (j, b), r] = sum_a F_j[x, a] v[(a, b), r], then for each x
                # the sum over (j, b) against conj(F_j)[y, b]
                left = f.transpose(1, 0, 2).reshape(d_out * count, d_in)
                right = f.conj().transpose(1, 0, 2).reshape(d_out, count * d_in)
                out = right @ (left @ v.reshape(d_in, -1)).reshape(d_out, count * d_in, -1)
            t = out.reshape((d_out, d_out) + front.shape[2:])
        return t.transpose(orders[-1]).reshape(self.dim_out, self.dim_out)


@dataclass(frozen=True, eq=False)
class QuantumOperation:
    """An indexed family of sub-operations on a common input space."""

    subops: tuple[SubOperation, ...]
    in_label: Label

    def __post_init__(self) -> None:
        if not self.subops:
            raise ValueError("operation requires at least one sub-operation")
        d_in = total_dim(self.in_label)
        for i, sub in enumerate(self.subops):
            if sub.dim_in != d_in:
                raise ValueError(
                    f"sub-operation {i} expects input dimension {sub.dim_in}, label says {d_in}"
                )
        object.__setattr__(self, "subops", tuple(self.subops))

    @property
    def dim_in(self) -> int:
        return total_dim(self.in_label)

    def completeness_sum(self) -> np.ndarray:
        return sum(sub.completeness_term() for sub in self.subops)

    @functools.cached_property
    def completeness_deviation(self) -> float:
        """Largest entry of |sum K^dagger K - I|, computed once per operation."""
        return float(np.max(np.abs(self.completeness_sum() - np.eye(self.dim_in))))


BranchOutcomes = list[tuple[float, DensityOperator | None]]


def is_trace_preserving(op: QuantumOperation) -> bool:
    return op.completeness_deviation <= TAU_TP


def apply_operation(op: QuantumOperation, rho: DensityOperator) -> BranchOutcomes:
    """Apply a trace-preserving operation, returning (probability, state) per branch.

    Branches with probability below ZERO_BRANCH_PROB carry None instead of a
    normalized state.
    """
    if rho.dim != op.dim_in:
        raise ValueError(f"state dimension {rho.dim} does not match operation input {op.dim_in}")
    if not is_trace_preserving(op):
        raise ValueError("apply_operation requires a trace-preserving operation")
    outcomes: BranchOutcomes = []
    for sub in op.subops:
        raw = sub.apply_raw(rho.matrix)
        p = float(raw.trace().real)
        if p < ZERO_BRANCH_PROB:
            outcomes.append((max(p, 0.0), None))
        else:
            outcomes.append((p, DensityOperator._by_construction(raw / p, sub.out_label)))
    return outcomes


def identity_operation(label: Label) -> QuantumOperation:
    d = total_dim(label)
    sub = SubOperation((np.eye(d, dtype=complex),), label)
    return QuantumOperation((sub,), label)


def compose(
    first: QuantumOperation, continuation: Mapping[int, QuantumOperation]
) -> QuantumOperation:
    """Perform `first`; on branch i, perform continuation[i].

    The result's branches are indexed by (first branch, continuation branch)
    pairs in lexicographic order.
    """
    subs: list[SubOperation] = []
    for i, sub in enumerate(first.subops):
        follow = continuation[i]
        if total_dim(follow.in_label) != sub.dim_out:
            raise ValueError(
                f"continuation for branch {i} expects input dimension "
                f"{total_dim(follow.in_label)}, branch outputs {sub.dim_out}"
            )
        subs.extend(_then(fsub, sub) for fsub in follow.subops)
    return QuantumOperation(tuple(subs), first.in_label)


def _then(second: SubOperation, first: SubOperation) -> SubOperation:
    """The Kraus family {T S} of `first` followed by `second`, T major.

    Composed factor by factor when the factor shapes chain; otherwise both
    families are fused into one factor first.
    """
    outer, inner = second.factors, first.factors
    if [t.shape[2] for t in outer] != [s.shape[1] for s in inner]:
        outer, inner = (second.kraus,), (first.kraus,)
    factors = tuple(
        (t[:, None] @ s[None]).reshape(-1, t.shape[1], s.shape[2]) for t, s in zip(outer, inner)
    )
    return SubOperation(factors, second.out_label)


def tensor_operations(s: QuantumOperation, t: QuantumOperation) -> QuantumOperation:
    """Joint operation with branches indexed by pairs of the factors' branches.

    The output labels are plain total dimensions: the Kronecker convention
    interleaves the factors' parties, so any bipartite structure of the joint
    space must be reattached explicitly by the caller.
    """
    subs = [
        SubOperation(ssub.factors + tsub.factors, ssub.dim_out * tsub.dim_out)
        for ssub in s.subops
        for tsub in t.subops
    ]
    return QuantumOperation(tuple(subs), s.dim_in * t.dim_in)


def forget(op: QuantumOperation, merge: Iterable[int]) -> QuantumOperation:
    """Merge the given branches into one, discarding which of them occurred."""
    merge = sorted(set(merge))
    if not merge:
        raise ValueError("forget requires at least one branch index")
    for i in merge:
        if i < 0 or i >= len(op.subops):
            raise ValueError(f"branch index {i} out of range")
    out_labels = {op.subops[i].out_label for i in merge}
    if len(out_labels) > 1:
        raise ValueError(f"merged branches must share one output label, got {out_labels}")
    kraus = np.concatenate([op.subops[i].kraus for i in merge])
    merged = SubOperation(kraus, op.subops[merge[0]].out_label)
    subs = [merged]
    subs.extend(sub for i, sub in enumerate(op.subops) if i not in merge)
    return QuantumOperation(tuple(subs), op.in_label)


# ---------------------------------------------------------------------------
# Choi matrices: complete positivity and the p.p.t. predicate.
# ---------------------------------------------------------------------------


def choi_matrix(sub: SubOperation) -> np.ndarray:
    """Unnormalized Choi matrix (1 (x) S) applied to sum_ab |aa><bb|."""
    # row n of v is the vector sum_a |a> (x) K_n|a>
    k = sub.kraus
    v = k.transpose(0, 2, 1).reshape(len(k), -1)
    return v.T @ v.conj()


def _choi_trace(sub: SubOperation) -> float:
    """tr C = sum_j ||K_j||_F^2, a product over the factors.  eigvalsh rounds
    to about eps ||C||_2 <= eps tr C, so tolerances relative to it are scale free."""
    return math.prod(float(np.vdot(f, f).real) for f in sub.factors)


# kept for the benchmark's tracer; it can go with the next benchmark change (ROADMAP item 5)
def is_completely_positive(sub: SubOperation) -> bool:
    """Always true: a branch is a Kraus family, so its Choi matrix V^T conj(V)
    (see `choi_matrix`) is a Gram matrix and positive semidefinite."""
    return True


def _require_bipartite(label: Label, what: str) -> BipartiteLabel:
    if not isinstance(label, BipartiteLabel):
        raise ValueError(f"{what} requires a bipartite label")
    return label


def ppt_choi(sub: SubOperation, in_label: Label) -> np.ndarray:
    """Choi matrix of the branch, partially transposed on B_in (x) B_out.

    It is the Choi matrix of the p.p.t. conjugate rho -> (S(rho^PT))^PT of
    the branch, which is completely positive iff this matrix is positive
    semidefinite.
    """
    lab_in = _require_bipartite(in_label, "ppt conjugation")
    lab_out = _require_bipartite(sub.out_label, "ppt conjugation")
    dims = (lab_in.dim_a, lab_in.dim_b, lab_out.dim_a, lab_out.dim_b)
    d = lab_in.total * lab_out.total
    return choi_matrix(sub).reshape(dims + dims).transpose(0, 5, 2, 7, 4, 1, 6, 3).reshape(d, d)


def is_ppt_operation(op: QuantumOperation) -> bool:
    """True iff every sub-operation stays completely positive under
    conjugation by the partial transpose: its Choi matrix, partially
    transposed on B_in (x) B_out, has no eigenvalue below -TAU_PPT tr C."""
    lab_in = _require_bipartite(op.in_label, "ppt predicate")
    return all(
        min_eigenvalue(ppt_choi(sub, lab_in)) >= -TAU_PPT * _choi_trace(sub) for sub in op.subops
    )


# ---------------------------------------------------------------------------
# Separable form.
# ---------------------------------------------------------------------------

# Per sub-operation: a sequence of (A_j, B_j) pairs acting on the two parties.
SeparableWitness = Sequence[Sequence[tuple[np.ndarray, np.ndarray]]]


def verify_separable_form(op: QuantumOperation, witness: SeparableWitness) -> bool:
    """Check that each sub-operation's action equals the product-Kraus action
    induced by its witness: their Choi matrices differ by at most
    TAU_ACTION tr C in every entry."""
    if len(witness) != len(op.subops):
        raise ValueError(
            f"witness has {len(witness)} entries for {len(op.subops)} sub-operations"
        )
    for sub, pairs in zip(op.subops, witness):
        if not pairs:
            raise ValueError("witness entry must contain at least one (A, B) pair")
        a, b = (np.stack(side) for side in zip(*pairs))
        (n, oa, ia), (_, ob, ib) = a.shape, b.shape
        prods = np.einsum("nij,nkl->nikjl", a, b).reshape(n, oa * ob, ia * ib)
        if prods.shape[1:] != (sub.dim_out, sub.dim_in):
            raise ValueError(
                f"witness product shape {prods.shape[1:]} does not match Kraus shape "
                f"{(sub.dim_out, sub.dim_in)}"
            )
        induced = SubOperation(prods, sub.out_label)
        if np.max(np.abs(choi_matrix(sub) - choi_matrix(induced))) > TAU_ACTION * _choi_trace(sub):
            return False
    return True


def make_local(op_a: QuantumOperation, op_b: QuantumOperation) -> QuantumOperation:
    """Product operation S_A (x) S_B of two single-party operations, either
    of which may measure: its branches are the pairs of the parties'
    branches, A major, as in `tensor_operations`, with bipartite labels.
    Tensoring with `identity_operation(d)` leaves the other party alone."""
    subs = tuple(
        SubOperation(sub_a.factors + sub_b.factors, BipartiteLabel(sub_a.dim_out, sub_b.dim_out))
        for sub_a in op_a.subops
        for sub_b in op_b.subops
    )
    return QuantumOperation(subs, BipartiteLabel(op_a.dim_in, op_b.dim_in))


def natural_product_witness(op: QuantumOperation) -> SeparableWitness:
    """Witness for operations whose branches keep each Kronecker factor inside
    one party (`make_local`, the reduction protocols): each branch's factors
    split where their running output and input dimensions reach A's, and the
    witness pairs the A group's Kraus matrices with the B group's, A major."""
    lab_in = _require_bipartite(op.in_label, "product witness")
    one = np.ones((1, 1, 1), dtype=complex)
    witness = []
    for i, sub in enumerate(op.subops):
        lab_out = _require_bipartite(sub.out_label, "product witness")
        heads = [sub.factors[:c] for c in range(len(sub.factors) + 1)]
        dims = [(math.prod(f.shape[1] for f in h), math.prod(f.shape[2] for f in h)) for h in heads]
        if (lab_out.dim_a, lab_in.dim_a) not in dims:
            raise ValueError(f"sub-operation {i}: no factor boundary splits A from B")
        cut = dims.index((lab_out.dim_a, lab_in.dim_a))
        a, b = (functools.reduce(np.kron, g, one) for g in (sub.factors[:cut], sub.factors[cut:]))
        witness.append([(ka, kb) for ka in a for kb in b])
    return witness
