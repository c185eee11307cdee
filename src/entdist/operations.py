"""Measuring quantum operations in Kraus form and their class predicates.

An operation is a family of sub-operations, each a Kraus family mapping the
common input space to that sub-operation's own output space, jointly trace
preserving.  Applying the operation yields one classical branch per
sub-operation.  Class membership is decided from explicit structure:
completeness sums (trace preserving), one Cholesky factorization of a
shifted Choi matrix per branch (p.p.t.) and separable witnesses.  A Kraus
family is completely positive by construction.
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
    _require_bipartite,
    total_dim,
)

TAU_TP = 1e-9
TAU_PPT = 1e-9
TAU_ACTION = 1e-9
ZERO_BRANCH_PROB = 1e-12


@functools.cache
def _axis_orders(n: int) -> tuple[tuple[int, ...], ...]:
    """The transposes `SubOperation.apply_raw` makes of the state tensor of a
    branch with n factors, whose axes are the factors' row axes 0..n-1 and
    column axes n..2n-1.

    Before factor p the tensor is laid out as (p, n + p, the other axes in
    order); entry p carries it there from the layout before factor p - 1
    (the plain order before factor 0), and the last entry back to the
    plain order.
    """
    plain = list(range(2 * n))
    layouts = [[p, n + p] + [a for a in plain if a not in (p, n + p)] for p in range(n)]
    layouts = [plain] + layouts + [plain]
    return tuple(tuple(prev.index(a) for a in nxt) for prev, nxt in zip(layouts, layouts[1:]))


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

    def apply_raw(self, m: np.ndarray) -> np.ndarray:
        """Unnormalized branch output sum_j K_j m K_j^dagger, one factor at a time.

        Each factor's row and column axes are brought to the front of the
        state tensor by one transpose, and the tensor is then contracted by
        plain matrix products, through the factor's superoperator or Kraus
        matrix by Kraus matrix.
        """
        dims = [f.shape[2] for f in self.factors]
        t = np.asarray(m, dtype=complex).reshape(dims + dims)
        orders = _axis_orders(len(self.factors))
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
        """Sum of K^dagger K over the branches: per branch, the Kronecker
        product of its factors' sums."""
        flat = ([f.reshape(-1, f.shape[2]) for f in sub.factors] for sub in self.subops)
        return sum(functools.reduce(np.kron, (g.conj().T @ g for g in gs)) for gs in flat)

    @functools.cached_property
    def completeness_deviation(self) -> float:
        """Largest entry of |sum K^dagger K - I|, computed once per operation."""
        return float(abs(self.completeness_sum() - np.eye(self.dim_in)).max())


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
    return _choi(sub.kraus)


def _choi(kraus: np.ndarray) -> np.ndarray:
    """`choi_matrix` of the Kraus family stacked in `kraus`, shape (n, out, in)."""
    # row n of v is the vector sum_a |a> (x) K_n|a>
    v = kraus.transpose(0, 2, 1).reshape(len(kraus), -1)
    return v.T @ v.conj()


def _checked_choi_trace(sub: SubOperation, i: int) -> float:
    """tr C = sum_j ||K_j||_F^2 of branch i, a product over the factors, which
    the Choi tests divide by or scale a tolerance with: ||C||_2 <= tr C bounds
    their rounding, so tolerances relative to it are scale free.  ValueError
    unless it is a finite double, and nonzero where the branch is not the zero
    map (no factor of it is all zeros)."""
    tr = math.prod(float(np.vdot(f, f).real) for f in sub.factors)
    if not math.isfinite(tr):
        raise ValueError(f"sub-operation {i}: the Choi trace overflows")
    if tr == 0.0 and all(f.any() for f in sub.factors):
        raise ValueError(f"sub-operation {i}: the Choi trace underflows")
    return tr


# kept for the benchmark's tracer; it can go with the next benchmark change (ROADMAP item 5)
def is_completely_positive(sub: SubOperation) -> bool:
    """Always true: a branch is a Kraus family, so its Choi matrix V^T conj(V)
    (see `choi_matrix`) is a Gram matrix and positive semidefinite."""
    return True


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


def _ppt_branch(sub: SubOperation, lab_in: BipartiteLabel, tr: float) -> bool:
    """The dense p.p.t. test of a branch of Choi trace tr: one Cholesky
    factorization of `ppt_choi` over tr C, shifted by TAU_PPT I.  It exists
    iff the least eigenvalue lies above -TAU_PPT tr C, up to rounding of
    order n eps at size n, and LAPACK stops at the first negative pivot."""
    if tr == 0.0:  # the zero map
        return True
    shifted = ppt_choi(sub, lab_in)
    # real divisions: a complex one by a subnormal tr C overflows
    np.divide(shifted.real, tr, out=shifted.real)
    np.divide(shifted.imag, tr, out=shifted.imag)
    shifted.flat[:: len(shifted) + 1] += TAU_PPT
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def is_ppt_operation(op: QuantumOperation) -> bool:
    """True iff every sub-operation stays completely positive under
    conjugation by the partial transpose: its Choi matrix, partially
    transposed on B_in (x) B_out, has no eigenvalue below -TAU_PPT tr C.
    `_ppt_branch` tests the branches in order up to the first that fails;
    ValueError where tr C overflows, or underflows to 0 for a nonzero branch."""
    lab = _require_bipartite(op.in_label, "ppt predicate")
    return all(_ppt_branch(s, lab, _checked_choi_trace(s, i)) for i, s in enumerate(op.subops))


# ---------------------------------------------------------------------------
# Separable form.
# ---------------------------------------------------------------------------

# Per sub-operation: a sequence of (A_j, B_j) pairs acting on the two parties.
SeparableWitness = Sequence[Sequence[tuple[np.ndarray, np.ndarray]]]


def _read_witness(op: QuantumOperation, i: int, pairs, tr: float) -> tuple[bool, bool]:
    """(branch i, of Choi trace tr, matches its witness pairs, they prove it p.p.t.).

    It matches when every pair has A's output x input shape on A_j and B's
    on B_j and the Choi matrices C of the branch and C_w of the products
    P_j = A_j (x) B_j differ by at most TAU_ACTION tr C in every entry;
    ValueError where ||P||_F^2 overflows.  The pairs prove p.p.t. where
    ||C - C_w||_F <= TAU_PPT tr C / 2: C_w^PT >= 0 for products across the
    A/B cut, the partial transpose permutes entries, and by Weyl's inequality
    C^PT has no eigenvalue below -TAU_PPT tr C / 2, far above the dense
    test's rounding of order n eps tr C at n = d_in d_out.  If P has the
    shape of the Kraus stack K, ||K - P||_F (sqrt(tr C) + ||P||_F) bounds
    that norm first (C - C_w = V^T conj(V - W) + (V - W)^T conj(W) for their
    Choi vectors, ||V||_F^2 = tr C).  A mere match proves nothing: an entrywise
    error of TAU_ACTION tr C moves eigenvalues up to d_in d_out times as far."""
    sub = op.subops[i]
    if not pairs:
        raise ValueError("witness entry must contain at least one (A, B) pair")
    a, b = (np.stack(side) for side in zip(*pairs))
    (n, oa, ia), (_, ob, ib) = a.shape, b.shape
    if (oa * ob, ia * ib) != (sub.dim_out, sub.dim_in):
        raise ValueError(f"witness product shape {(oa * ob, ia * ib)} does not match Kraus "
                         f"shape {(sub.dim_out, sub.dim_in)}")
    with np.errstate(over="ignore", invalid="ignore"):
        wtr = float(np.square(np.abs(a)).sum((1, 2)) @ np.square(np.abs(b)).sum((1, 2)))
    if not math.isfinite(wtr):
        raise ValueError(f"sub-operation {i}: the witness products overflow")
    if (op.in_label, sub.out_label) != (BipartiteLabel(ia, ib), BipartiteLabel(oa, ob)):
        return False, False  # cut between other spaces than the label's A and B
    kraus, tol = sub.kraus, TAU_PPT * tr / 2
    prods = np.einsum("nij,nkl->nikjl", a, b).reshape(n, oa * ob, ia * ib)
    if prods.shape == kraus.shape and (
        np.linalg.norm(kraus - prods) * (math.sqrt(tr) + math.sqrt(wtr)) <= tol
    ):
        return True, True
    gap = _choi(kraus) - _choi(prods.astype(complex, copy=False))
    return bool(np.max(np.abs(gap)) <= TAU_ACTION * tr), bool(np.linalg.norm(gap) <= tol)


def verify_separable_form(op: QuantumOperation, witness: SeparableWitness) -> bool:
    """True iff each branch matches the product-Kraus family of its witness
    cut at the parties (`_read_witness`), read in order up to the first that
    fails.  ValueError unless the witness has one entry per branch, and where
    tr C overflows or underflows to 0, or the witness products overflow."""
    if len(witness) != len(op.subops):
        raise ValueError(f"witness has {len(witness)} entries for {len(op.subops)} sub-operations")
    return all(
        _read_witness(op, i, pairs, _checked_choi_trace(op.subops[i], i))[0]
        for i, pairs in enumerate(witness)
    )


def _class_verdicts(
    op: QuantumOperation, witness: SeparableWitness | None
) -> tuple[bool, bool | None]:
    """(`is_ppt_operation`, `verify_separable_form` or None without a
    witness) of op, in one pass over the branches that checks each tr C
    once.  The witness is read up to the first branch it does not match; a
    branch its pairs prove p.p.t. skips `_ppt_branch`, which every other
    branch takes until one fails.  The pass ends once both verdicts are false."""
    if witness is None:
        return is_ppt_operation(op), None
    if len(witness) != len(op.subops):
        raise ValueError(f"witness has {len(witness)} entries for {len(op.subops)} sub-operations")
    lab = _require_bipartite(op.in_label, "ppt predicate")
    ppt = separable = True
    for i, pairs in enumerate(witness):
        if not (ppt or separable):
            break
        tr, shown = _checked_choi_trace(op.subops[i], i), False
        if separable:
            separable, shown = _read_witness(op, i, pairs, tr)
        if ppt and not shown:
            ppt = _ppt_branch(op.subops[i], lab, tr)
    return ppt, separable


def make_local(op_a: QuantumOperation, op_b: QuantumOperation) -> QuantumOperation:
    """Product operation S_A (x) S_B of two single-party operations, either
    of which may measure: its branches are the pairs of the parties'
    branches, A major, each keeping the parties' Kronecker factors, with
    bipartite labels.  Tensoring with `identity_operation(d)` leaves the
    other party alone."""
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
