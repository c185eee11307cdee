import numpy as np
import pytest

from entdist.linalg import (
    TAU_PSD,
    BipartiteLabel,
    DensityOperator,
    min_eigenvalue,
    partial_transpose,
    random_density,
)
from entdist.operations import (
    TAU_PPT,
    QuantumOperation,
    SubOperation,
    apply_operation,
    choi_matrix,
    compose,
    forget,
    identity_operation,
    is_completely_positive,
    is_ppt_operation,
    is_trace_preserving,
    make_local,
    natural_product_witness,
    ppt_choi,
    tensor_operations,
    verify_separable_form,
)
from entdist.protocols import factor_tracing_op, reduce_dimension, subspace_measurement_op
from entdist.states import fidelity, isotropic, max_entangled_ket
from entdist.verify import F_GRID, _random_operation
from helpers import unmerged_subspace_measurement


def matrix_unit_choi(f, d_in: int, d_out: int) -> np.ndarray:
    """Choi matrix sum_ab |a><b| (x) f(|a><b|) of a linear map f on d_in x d_in
    matrices, built by applying f to each matrix unit: an independent
    reference for the Kraus-form Choi matrices."""
    choi = np.zeros((d_in, d_out, d_in, d_out), dtype=complex)
    for a in range(d_in):
        for b in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[a, b] = 1.0
            choi[a, :, b, :] = f(unit)
    return choi.reshape(d_in * d_out, d_in * d_out)


def choi_action(choi: np.ndarray, m: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """The map sum_ab m[a, b] S(|a><b|) whose Choi matrix is `choi`."""
    return np.einsum("ab,axby->xy", m, choi.reshape(d_in, d_out, d_in, d_out))


def basis_measurement(dim: int) -> QuantumOperation:
    """Complete computational-basis measurement on a single party."""
    subs = tuple(
        SubOperation((np.outer(np.eye(dim)[i], np.eye(dim)[i]),), dim) for i in range(dim)
    )
    return QuantumOperation(subs, dim)


def entangled_pair_creation() -> QuantumOperation:
    """Trace the input and emit a fresh maximally entangled qubit pair."""
    ket = max_entangled_ket(2)
    kraus = tuple(np.outer(ket, np.eye(4)[j]) for j in range(4))
    return QuantumOperation(
        (SubOperation(kraus, BipartiteLabel(2, 2)),), BipartiteLabel(2, 2)
    )


def test_apply_identity():
    rho = random_density(BipartiteLabel(2, 2), np.random.default_rng(0))
    ((p, state),) = apply_operation(identity_operation(BipartiteLabel(2, 2)), rho)
    assert p == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(state.matrix, rho.matrix, atol=1e-12)


def test_apply_basis_measurement_on_a():
    op = make_local(basis_measurement(2), identity_operation(2))
    rho = DensityOperator(np.eye(4) / 4, BipartiteLabel(2, 2))
    outcomes = apply_operation(op, rho)
    assert len(outcomes) == 2
    for p, state in outcomes:
        assert p == pytest.approx(0.5, abs=1e-12)
        assert state is not None


def test_apply_subspace_measurement_success_branch():
    # brute-force cross-check of the success probability Kprime/K
    op = unmerged_subspace_measurement(4, 2)
    rho = DensityOperator(
        np.outer(max_entangled_ket(4), max_entangled_ket(4).conj()), BipartiteLabel(4, 4)
    )
    outcomes = apply_operation(op, rho)
    p_succ, state = outcomes[0]
    assert p_succ == pytest.approx(0.5, abs=1e-12)
    assert fidelity(state) == pytest.approx(1.0, abs=1e-12)
    # cross branches are impossible on a perfectly correlated input
    assert outcomes[1][1] is None and outcomes[2][1] is None


def test_apply_requires_trace_preserving():
    bad = QuantumOperation(
        (SubOperation((np.diag([1.0, 0.0]),), 2),), 2
    )
    with pytest.raises(ValueError):
        apply_operation(bad, random_density(2, np.random.default_rng(0)))


def test_apply_probability_conservation_randomized():
    rng = np.random.default_rng(123)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        op = unmerged_subspace_measurement(d, int(rng.integers(1, d + 1)))
        op = forget(op, range(len(op.subops)))
        rho = random_density(BipartiteLabel(d, d), rng)
        total = sum(p for p, _ in apply_operation(op, rho))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_compose_identity_laws():
    op = unmerged_subspace_measurement(4, 2)
    rho = isotropic(4, 0.8)
    pre = compose(identity_operation(BipartiteLabel(4, 4)), {0: op})
    post = compose(op, dict.fromkeys(range(4), identity_operation(BipartiteLabel(2, 2))))
    want = apply_operation(op, rho)
    for variant in (pre, post):
        got = apply_operation(variant, rho)
        assert len(got) == len(want)
        for (pg, sg), (pw, sw) in zip(got, want):
            assert pg == pytest.approx(pw, abs=1e-12)
            if sw is not None:
                assert np.allclose(sg.matrix, sw.matrix, atol=1e-12)


def test_compose_matches_sequential_apply():
    rng = np.random.default_rng(7)
    stage1 = subspace_measurement_op(4, 2)
    stage2 = factor_tracing_op(2, 1)
    composed = compose(stage1, {0: stage2})
    assert composed.subops[0].dim_out == 1
    for _ in range(20):
        rho = random_density(BipartiteLabel(4, 4), rng)
        ((p, out),) = apply_operation(composed, rho)
        mid = apply_operation(stage1, rho)[0][1]
        ((q, want),) = apply_operation(stage2, mid)
        assert p == pytest.approx(q, abs=1e-9)
        assert np.allclose(out.matrix, want.matrix, atol=1e-9)


def test_compose_rejects_label_mismatch():
    with pytest.raises(ValueError):
        compose(
            subspace_measurement_op(4, 2),
            {0: identity_operation(BipartiteLabel(4, 4))},
        )


def test_tensor_operations_identity():
    a = identity_operation(2)
    joint = tensor_operations(a, a)
    assert len(joint.subops) == 1
    assert joint.dim_in == 4
    rho = random_density(4, np.random.default_rng(1))
    ((p, state),) = apply_operation(joint, rho)
    assert np.allclose(state.matrix, rho.matrix, atol=1e-12)


def test_tensor_operations_product_rule():
    rng = np.random.default_rng(22)
    s = basis_measurement(2)
    t = basis_measurement(3)
    rho_s = random_density(2, rng)
    rho_t = random_density(3, rng)
    joint = DensityOperator(np.kron(rho_s.matrix, rho_t.matrix), 6)
    got = [p for p, _ in apply_operation(tensor_operations(s, t), joint)]
    ps = [p for p, _ in apply_operation(s, rho_s)]
    pt = [p for p, _ in apply_operation(t, rho_t)]
    want = [a * b for a in ps for b in pt]
    assert np.allclose(got, want, atol=1e-9)


def test_tensor_operations_single_branch():
    one = identity_operation(3)
    assert len(tensor_operations(one, one).subops) == 1


def test_forget_basis_measurement_dephases():
    op = basis_measurement(2)
    merged = forget(op, [0, 1])
    assert len(merged.subops) == 1
    rho = random_density(2, np.random.default_rng(3))
    ((p, state),) = apply_operation(merged, rho)
    assert p == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(state.matrix, np.diag(np.diag(rho.matrix)), atol=1e-12)


def test_forget_singleton_is_noop():
    op = unmerged_subspace_measurement(4, 2)
    same = forget(op, [2])
    rho = isotropic(4, 0.6)
    got = apply_operation(same, rho)
    want = apply_operation(op, rho)
    order = [2, 0, 1, 3]  # merged branch moves to the front
    for (pg, _), j in zip(got, order):
        assert pg == pytest.approx(want[j][0], abs=1e-12)


def test_forget_gives_probability_weighted_fidelity_average():
    op = unmerged_subspace_measurement(4, 2)
    rho = isotropic(4, 0.85)
    outcomes = apply_operation(op, rho)
    avg = sum(p * fidelity(s) for p, s in outcomes if s is not None)
    merged = forget(op, range(len(op.subops)))
    ((_, state),) = apply_operation(merged, rho)
    assert fidelity(state) == pytest.approx(avg, abs=1e-12)


def test_forget_rejects_mixed_output_labels():
    subs = (
        SubOperation((np.array([[1.0, 0.0]]),), 1),
        SubOperation((np.array([[0.0, 0.0], [0.0, 1.0]]),), 2),
    )
    op = QuantumOperation(subs, 2)
    with pytest.raises(ValueError):
        forget(op, [0, 1])


def test_is_trace_preserving():
    assert is_trace_preserving(identity_operation(3))
    lonely = QuantumOperation((SubOperation((np.diag([1.0, 0.0]),), 2),), 2)
    assert not is_trace_preserving(lonely)


def test_cp_choi_cross_checks_output_positivity():
    rng = np.random.default_rng(17)
    sub = subspace_measurement_op(3, 2).subops[0]
    for _ in range(50):
        out = sub.apply_raw(random_density(BipartiteLabel(3, 3), rng).matrix)
        out = (out + out.conj().T) / 2
        assert np.linalg.eigvalsh(out)[0] >= -1e-9


def test_ppt_conjugate_of_identity_is_identity():
    label = BipartiteLabel(2, 2)
    sub = identity_operation(label).subops[0]
    choi = ppt_choi(sub, label)
    assert np.allclose(choi, choi_matrix(sub), rtol=0, atol=1e-12)
    rho = random_density(label, np.random.default_rng(8))
    assert np.allclose(choi_action(choi, rho.matrix, 4, 4), rho.matrix, atol=1e-12)


def test_ppt_conjugate_is_involution():
    label = BipartiteLabel(2, 2)
    sub = subspace_measurement_op(2, 2).subops[0]
    choi = ppt_choi(sub, label)
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = random_density(label, rng).matrix
        # conjugating the conjugated action recovers the original one
        once = choi_action(choi, partial_transpose(m, label), 4, 4)
        assert np.allclose(partial_transpose(once, label), sub.apply_raw(m), atol=1e-12)


def test_ppt_conjugate_of_pair_creation_has_negative_choi():
    op = entangled_pair_creation()
    least = np.linalg.eigvalsh(ppt_choi(op.subops[0], BipartiteLabel(2, 2)))[0]
    # the emitted projector's partial transpose has eigenvalue -1/2
    assert least == pytest.approx(-0.5, abs=1e-12)


def test_ppt_choi_requires_bipartite_labels():
    with pytest.raises(ValueError, match="bipartite"):
        ppt_choi(identity_operation(4).subops[0], 4)
    with pytest.raises(ValueError, match="bipartite"):
        ppt_choi(identity_operation(4).subops[0], BipartiteLabel(2, 2))


def test_is_ppt_operation():
    assert is_ppt_operation(identity_operation(BipartiteLabel(2, 2)))
    assert is_ppt_operation(unmerged_subspace_measurement(3, 2))
    assert not is_ppt_operation(entangled_pair_creation())


def test_verify_separable_form_accepts_local():
    rng = np.random.default_rng(12)
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    rotate = QuantumOperation((SubOperation((u,), 2),), 2)
    dephase = forget(basis_measurement(2), range(2))
    op = make_local(rotate, dephase)
    assert verify_separable_form(op, natural_product_witness(op))


def test_verify_separable_form_rejects_wrong_witness():
    op = subspace_measurement_op(2, 2)
    witness = natural_product_witness(op)
    bad = [[(a, b + 0.05 * np.eye(2)) for a, b in witness[0]]]
    assert not verify_separable_form(op, bad)


def test_verify_separable_form_on_protocol_op():
    op = unmerged_subspace_measurement(4, 2)
    assert verify_separable_form(op, natural_product_witness(op))


def test_make_local_labels_and_measuring_parts():
    op = make_local(identity_operation(2), identity_operation(3))
    assert op.in_label == BipartiteLabel(2, 3)
    # two measuring parts: their branch pairs, A major, each a product
    meas_a, meas_b = basis_measurement(2), basis_measurement(3)
    op = make_local(meas_a, meas_b)
    assert op.in_label == BipartiteLabel(2, 3)
    assert len(op.subops) == 6
    pairs = [(a, b) for a in meas_a.subops for b in meas_b.subops]
    for sub, (a, b) in zip(op.subops, pairs):
        assert sub.out_label == BipartiteLabel(2, 3)
        assert np.array_equal(sub.kraus, np.kron(a.kraus, b.kraus))
    assert is_trace_preserving(op)
    assert is_ppt_operation(op)
    assert verify_separable_form(op, natural_product_witness(op))


def test_make_local_with_identity_branches():
    meas = basis_measurement(2)
    for d in (1, 2, 3):
        op = make_local(meas, identity_operation(d))
        assert op.in_label == BipartiteLabel(2, d)
        assert len(op.subops) == 2
        for sub, a in zip(op.subops, meas.subops):
            # each branch is its A branch with one identity factor on B
            assert sub.out_label == BipartiteLabel(2, d)
            assert len(sub.factors) == 2 and np.array_equal(sub.factors[0], a.factors[0])
            assert np.array_equal(sub.factors[1], np.eye(d)[None])
        assert is_trace_preserving(op)


def test_unmerged_subspace_measurement_merges_to_the_protocol_op():
    for k in range(1, 5):
        for kp in range(1, k + 1):
            op = unmerged_subspace_measurement(k, kp)
            assert len(op.subops) == (1 if kp == k else 4)
            assert is_trace_preserving(op)
            (merged,) = forget(op, range(len(op.subops))).subops
            (sub,) = subspace_measurement_op(k, kp).subops
            assert np.allclose(choi_matrix(merged), choi_matrix(sub), rtol=0, atol=1e-12)


def test_class_tag_ordering_fixtures():
    """Constructor-tagged operations must satisfy the predicates of every
    class above them: local operations, a measurement on A with the identity
    on B among them, are separable and p.p.t."""
    rng = np.random.default_rng(31)
    fixtures = []
    for _ in range(4):
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        fixtures.append(make_local(
            QuantumOperation((SubOperation((u,), 2),), 2),
            identity_operation(2),
        ))
    for _ in range(4):
        fixtures.append(make_local(basis_measurement(2), identity_operation(2)))
    fixtures.append(subspace_measurement_op(2, 1))
    fixtures.append(factor_tracing_op(4, 2))
    assert len(fixtures) == 10
    for op in fixtures:
        assert is_trace_preserving(op)
        assert is_ppt_operation(op)
        assert verify_separable_form(op, natural_product_witness(op))


# ---------------------------------------------------------------------------
# The p.p.t. predicate on the partially transposed Choi matrix, against the
# conjugation rho -> (S(rho^PT))^PT rebuilt one matrix unit at a time.
# ---------------------------------------------------------------------------


def test_matrix_unit_choi_reference():
    # the transpose is not completely positive: its Choi matrix is the swap
    swap = matrix_unit_choi(lambda m: m.T, 2, 2)
    assert np.allclose(swap, np.eye(4)[[0, 2, 1, 3]], rtol=0, atol=0)
    assert np.linalg.eigvalsh(swap)[0] == pytest.approx(-1.0, abs=1e-12)
    sub = subspace_measurement_op(3, 2).subops[0]
    want = matrix_unit_choi(sub.apply_raw, sub.dim_in, sub.dim_out)
    assert np.allclose(choi_matrix(sub), want, rtol=0, atol=1e-12)


def reference_ppt_choi(sub: SubOperation, in_label: BipartiteLabel) -> np.ndarray:
    def conjugated(m: np.ndarray) -> np.ndarray:
        return partial_transpose(sub.apply_raw(partial_transpose(m, in_label)), sub.out_label)

    return matrix_unit_choi(conjugated, in_label.total, sub.dim_out)


def random_two_branch_operation(rng: np.random.Generator, k: int) -> QuantumOperation:
    """Two branches on K x K, each two Kraus matrices cut from a random isometry."""
    d = k * k
    g = rng.standard_normal((4 * d, d)) + 1j * rng.standard_normal((4 * d, d))
    q = np.linalg.qr(g)[0].reshape(4, d, d)
    label = BipartiteLabel(k, k)
    return QuantumOperation((SubOperation(q[:2], label), SubOperation(q[2:], label)), label)


def ppt_cross_check_cases() -> list[QuantumOperation]:
    rng = np.random.default_rng(2024)
    cases = [random_two_branch_operation(rng, k) for k in (2, 3) for _ in range(3)]
    for kp in range(1, 5):
        cases += [subspace_measurement_op(4, kp), unmerged_subspace_measurement(4, kp)]
    cases += [factor_tracing_op(4, kp) for kp in (1, 2, 4)]
    cases.append(entangled_pair_creation())
    return cases


@pytest.mark.parametrize("case", range(len(ppt_cross_check_cases())))
def test_ppt_choi_matches_matrix_unit_conjugation(case):
    op = ppt_cross_check_cases()[case]
    margins = []
    for sub in op.subops:
        want = reference_ppt_choi(sub, op.in_label)
        assert np.max(np.abs(ppt_choi(sub, op.in_label) - want)) <= 1e-12
        # the partial transpose keeps the trace, tr C = sum_j ||K_j||_F^2
        least = np.linalg.eigvalsh((want + want.conj().T) / 2)[0]
        margins.append(least + TAU_PPT * np.trace(want).real)
    assert is_ppt_operation(op) == all(m >= 0 for m in margins)


def test_ppt_cross_check_covers_both_verdicts():
    verdicts = {is_ppt_operation(op) for op in ppt_cross_check_cases()}
    assert verdicts == {True, False}


def scaled(op: QuantumOperation, s: float) -> QuantumOperation:
    """op with every Kraus matrix multiplied by s, through its first factor."""
    subs = tuple(
        SubOperation((s * sub.factors[0],) + sub.factors[1:], sub.out_label) for sub in op.subops
    )
    return QuantumOperation(subs, op.in_label)


def class_verdicts(op: QuantumOperation, witness=None) -> tuple:
    return (
        all(is_completely_positive(sub) for sub in op.subops),
        is_ppt_operation(op),
        None if witness is None else verify_separable_form(op, witness),
    )


def scale_cases() -> list[tuple]:
    """(operation, witness or None, the verdicts it must read at every scale)."""
    rng = np.random.default_rng(41)
    label = BipartiteLabel(2, 2)
    cases = [(op, None, class_verdicts(op)) for op in ppt_cross_check_cases()]
    dense = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    op = QuantumOperation((SubOperation(dense, label),), label)
    cases.append((op, None, class_verdicts(op)))
    a, b = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    op = QuantumOperation((SubOperation(np.kron(a, b)[None], label),), label)
    cases.append((op, [[(a, b)]], (True, True, True)))
    op = subspace_measurement_op(2, 2)
    bad = [[(a, b + 0.05 * np.eye(2)) for a, b in natural_product_witness(op)[0]]]
    cases.append((op, bad, (True, True, False)))
    return cases


def test_product_witness_reads_the_factors_at_any_kraus_scale():
    # the witness is read off the factors, so no Kraus scale makes a
    # product branch look entangled
    for s in (1e-8, 1.0, 1e8):
        op = scaled(subspace_measurement_op(4, 2), s)
        assert is_ppt_operation(op)
        assert verify_separable_form(op, natural_product_witness(op)), s


def test_product_witness_pairs_the_party_factors_a_major():
    meas, tracing = basis_measurement(2), factor_tracing_op(4, 2)
    op = make_local(meas, tracing)
    for i, sub_a in enumerate(meas.subops):
        pairs = natural_product_witness(op)[i]
        want = [(ka, kb) for ka in sub_a.kraus for kb in tracing.subops[0].kraus]
        assert len(pairs) == len(want)
        for (ka, kb), (want_a, want_b) in zip(pairs, want):
            assert np.array_equal(ka, want_a) and np.array_equal(kb, want_b)


def test_product_witness_names_a_branch_with_no_party_boundary():
    label = BipartiteLabel(2, 2)
    dense = QuantumOperation((SubOperation(np.eye(4)[None], label),), label)
    with pytest.raises(ValueError, match="sub-operation 0: no factor boundary"):
        natural_product_witness(dense)


@pytest.mark.parametrize("exponent", range(-4, 7))
def test_class_verdicts_do_not_depend_on_kraus_scale(exponent):
    s = 10.0**exponent
    for i, (op, witness, want) in enumerate(scale_cases()):
        # scaling A of every witness pair by s scales each product A (x) B by s
        pairs = None if witness is None else [[(s * a, b) for a, b in w] for w in witness]
        assert class_verdicts(scaled(op, s), pairs) == want, (i, s)


# ---------------------------------------------------------------------------
# Kronecker-factored branches behave exactly like their fused (dense) form.
# ---------------------------------------------------------------------------


def fused(op: QuantumOperation) -> QuantumOperation:
    subs = tuple(SubOperation(sub.kraus, sub.out_label) for sub in op.subops)
    return QuantumOperation(subs, op.in_label)


def random_channel(rng: np.random.Generator, d_in: int, d_out: int, branches: int, n: int):
    """A measuring single-party operation: `branches` branches of n Kraus
    matrices each, cut from a random isometry."""
    rows = branches * n * d_out
    g = rng.standard_normal((rows, d_in)) + 1j * rng.standard_normal((rows, d_in))
    q = np.linalg.qr(g)[0].reshape(branches, n, d_out, d_in)
    return QuantumOperation(tuple(SubOperation(k, d_out) for k in q), d_in)


def factored_cases() -> list[QuantumOperation]:
    rng = np.random.default_rng(515)
    meas_a = random_channel(rng, 3, 2, branches=2, n=2)
    chan_a = random_channel(rng, 2, 3, branches=1, n=3)
    chan_b = random_channel(rng, 3, 2, branches=1, n=2)
    local = make_local(chan_a, chan_b)
    dense_follow = random_channel(rng, 6, 2, branches=2, n=2)
    return [
        local,
        make_local(meas_a, identity_operation(2)),
        tensor_operations(meas_a, chan_b),
        tensor_operations(local, meas_a),
        forget(tensor_operations(meas_a, chan_b), [0, 1]),
        compose(local, {0: dense_follow}),
        compose(
            unmerged_subspace_measurement(5, 4),
            dict.fromkeys(range(4), factor_tracing_op(4, 2)),
        ),
        subspace_measurement_op(5, 3),
    ]


@pytest.mark.parametrize("case", range(len(factored_cases())))
def test_factored_operation_matches_fused_form(case):
    op = factored_cases()[case]
    dense = fused(op)
    assert all(len(sub.factors) == 1 for sub in dense.subops)
    assert np.allclose(op.completeness_sum(), dense.completeness_sum(), rtol=0, atol=1e-12)
    for sub, ref in zip(op.subops, dense.subops):
        assert np.allclose(choi_matrix(sub), choi_matrix(ref), rtol=0, atol=1e-12)
    rng = np.random.default_rng(case)
    for _ in range(3):
        rho = random_density(op.in_label, rng)
        got, want = apply_operation(op, rho), apply_operation(dense, rho)
        assert len(got) == len(want)
        for (pg, sg), (pw, sw) in zip(got, want):
            assert pg == pytest.approx(pw, abs=1e-12)
            assert (sg is None) == (sw is None)
            if sw is not None:
                assert np.allclose(sg.matrix, sw.matrix, rtol=0, atol=1e-12)


def test_factored_kraus_order_is_a_major():
    rng = np.random.default_rng(6)
    chan_a = random_channel(rng, 2, 3, branches=1, n=3)
    chan_b = random_channel(rng, 3, 2, branches=1, n=2)
    (sub,) = make_local(chan_a, chan_b).subops
    assert len(sub.factors) == 2
    ka, kb = chan_a.subops[0].kraus, chan_b.subops[0].kraus
    want = np.stack([np.kron(a, b) for a in ka for b in kb])
    assert np.allclose(sub.kraus, want, rtol=0, atol=1e-15)


def contraction_cases() -> list[QuantumOperation]:
    """One-, two- and three-factor operations, composed and tensored, that
    between them contract factors by both routes of `apply_raw`."""
    rng = np.random.default_rng(77)
    meas_a = random_channel(rng, 3, 2, branches=2, n=2)
    chan_a = random_channel(rng, 2, 3, branches=1, n=3)
    chan_b = random_channel(rng, 3, 2, branches=1, n=2)
    wide = random_channel(rng, 2, 2, branches=1, n=4)
    local = make_local(chan_a, chan_b)
    return [
        meas_a,
        random_channel(rng, 4, 3, branches=1, n=7),
        local,
        tensor_operations(local, wide),
        tensor_operations(meas_a, tensor_operations(chan_b, wide)),
        compose(local, {0: random_channel(rng, 6, 2, branches=2, n=2)}),
        compose(
            unmerged_subspace_measurement(5, 4),
            dict.fromkeys(range(4), factor_tracing_op(4, 2)),
        ),
        subspace_measurement_op(6, 3),
        factor_tracing_op(6, 2),
    ]


def test_apply_raw_matches_dense_kraus_sum_on_both_routes():
    routes, factor_counts = set(), set()
    rng = np.random.default_rng(78)
    for op in contraction_cases():
        rho = random_density(op.in_label, rng).matrix
        for sub in op.subops:
            routes |= {s is not None for s in sub._superoperators}
            factor_counts.add(len(sub.factors))
            k = sub.kraus
            want = np.einsum("nxa,ab,nyb->xy", k, rho, k.conj())
            assert np.max(np.abs(sub.apply_raw(rho) - want)) <= 1e-13
    assert routes == {True, False}
    assert factor_counts == {1, 2, 3}


def test_trace_preservation_is_summed_once_per_operation(monkeypatch):
    calls = []
    completeness_sum = QuantumOperation.completeness_sum

    def counted(self):
        calls.append(self)
        return completeness_sum(self)

    monkeypatch.setattr(QuantumOperation, "completeness_sum", counted)
    op = tensor_operations(basis_measurement(2), identity_operation(3))
    rho = random_density(6, np.random.default_rng(3))
    for _ in range(4):
        apply_operation(op, rho)
        assert is_trace_preserving(op)
    assert calls == [op]
    lonely = QuantumOperation((SubOperation((np.diag([1.0, 0.0]),), 2),), 2)
    for _ in range(3):
        with pytest.raises(ValueError, match="trace-preserving"):
            apply_operation(lonely, random_density(2, np.random.default_rng(4)))
    assert calls == [op, lonely]
    assert not is_trace_preserving(lonely)


def test_protocol_constructors_share_read_only_operations():
    from entdist.protocols import _staged

    for make, args in ((subspace_measurement_op, (6, 3)), (factor_tracing_op, (6, 2))):
        op = make(*args)
        assert make(*args) is op
        for sub in op.subops:
            for f in sub.factors:
                assert not f.flags.writeable
                with pytest.raises(ValueError):
                    f[0, 0, 0] = 1.0
    stage1, stage2 = subspace_measurement_op(7, 6), factor_tracing_op(6, 3)
    assert _staged(stage1, stage2) is _staged(stage1, stage2)
    (sub,) = _staged(stage1, stage2).subops
    assert all(not f.flags.writeable for f in sub.factors)
    assert all(s is None or not s.flags.writeable for s in sub._superoperators)


def test_sub_operation_keeps_its_own_read_only_factors():
    kraus = np.eye(2, dtype=complex)[None]
    op = QuantumOperation((SubOperation((kraus,), 2),), 2)
    assert is_trace_preserving(op)
    kraus[0, 0, 0] = 2.0  # the caller's array stays writable and is not shared
    assert op.subops[0].factors[0][0, 0, 0] == 1.0 and is_trace_preserving(op)
    assert not op.subops[0].factors[0].flags.writeable


def test_branch_outputs_are_positive_semidefinite():
    # apply_operation builds each branch output without the eigendecomposition
    # of the public constructor; a Kraus image of a state is PSD, and this is
    # the proof the skipped test gave
    rng = np.random.default_rng(31)
    outputs = []
    for _ in range(100):
        d_in = int(rng.integers(1, 5))
        out_dims = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4)))]
        op = _random_operation(rng, d_in, out_dims)
        outputs += apply_operation(op, random_density(d_in, rng))
    for k in range(2, 9):
        for f in F_GRID:
            rho = isotropic(k, f)
            for kp in range(1, k):
                outputs += apply_operation(subspace_measurement_op(k, kp), rho)
                outputs.append((1.0, reduce_dimension(rho, kp)))
                if k % kp == 0:
                    outputs += apply_operation(factor_tracing_op(k, kp), rho)
    states = [state for _, state in outputs if state is not None]
    assert len(states) > 900
    for state in states:
        assert min_eigenvalue(state.matrix) >= -TAU_PSD
        assert not state.matrix.flags.writeable
