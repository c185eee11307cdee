import numpy as np
import pytest

from entdist.linalg import (
    TAU_PSD,
    BipartiteLabel,
    DensityOperator,
    haar_unitaries,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    random_density,
)
from entdist.states import isotropic, max_entangled_projector

X = np.array([[0, 1], [1, 0]], dtype=complex)


def naive_partial_trace(m, da, db, keep):
    """Direct index-summation oracle, independent of the reshape path."""
    if keep == "A":
        out = np.zeros((da, da), dtype=complex)
        for a in range(da):
            for c in range(da):
                out[a, c] = sum(m[a * db + j, c * db + j] for j in range(db))
    else:
        out = np.zeros((db, db), dtype=complex)
        for b in range(db):
            for d in range(db):
                out[b, d] = sum(m[j * db + b, j * db + d] for j in range(da))
    return out


def test_tensor_identity():
    assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_index_convention():
    got = np.kron(np.diag([1, 0]), np.diag([0, 1]))
    assert np.array_equal(got, np.diag([0.0, 1, 0, 0]))


def test_tensor_bit_flip_pair():
    # hand multiplication: (X (x) X)|00> = |11>
    ket00 = np.zeros(4)
    ket00[0] = 1
    out = np.kron(X, X) @ ket00
    expected = np.zeros(4)
    expected[3] = 1
    assert np.array_equal(out, expected)


def test_partial_trace_maximally_entangled_marginals():
    rho = DensityOperator(max_entangled_projector(2), BipartiteLabel(2, 2))
    for keep in ("A", "B"):
        reduced = partial_trace(rho, keep)
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    rho_a = random_density(3, rng)
    rho_b = random_density(2, rng)
    joint = DensityOperator(np.kron(rho_a.matrix, rho_b.matrix), BipartiteLabel(3, 2))
    assert np.allclose(partial_trace(joint, "A").matrix, rho_a.matrix, atol=1e-12)
    assert np.allclose(partial_trace(joint, "B").matrix, rho_b.matrix, atol=1e-12)


def test_partial_trace_isotropic_against_summation_oracle():
    rho = isotropic(3, 1 / 9)
    oracle = naive_partial_trace(rho.matrix, 3, 3, "B")
    got = partial_trace(rho, "B")
    assert np.allclose(got.matrix, oracle, atol=1e-12)
    assert np.allclose(got.matrix, np.eye(3) / 3, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(11)
    for da, db in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        rho = random_density(BipartiteLabel(da, db), rng)
        assert abs(partial_trace(rho, "A").matrix.trace() - 1) < 1e-9


def test_partial_trace_requires_bipartite():
    rho = random_density(4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        partial_trace(rho, "A")


def test_partial_transpose_diagonal_invariant():
    m = np.eye(4) / 4
    assert np.array_equal(partial_transpose(m, BipartiteLabel(2, 2)), m)


def test_partial_transpose_entangled_spectrum():
    # eigendecomposition oracle: the partial transpose of the maximally
    # entangled projector is the swap over K, spectrum {1/K} x K(K+1)/2
    # and {-1/K} x K(K-1)/2
    for k in (2, 3, 4):
        pt = partial_transpose(max_entangled_projector(k), BipartiteLabel(k, k))
        eigs = np.linalg.eigvalsh(pt)
        neg = [e for e in eigs if e < 0]
        assert np.allclose(neg, [-1 / k] * (k * (k - 1) // 2), atol=1e-12)
        assert min_eigenvalue(pt) == pytest.approx(-1 / k, abs=1e-10)


def test_partial_transpose_phi_plus_2x2_values():
    pt = partial_transpose(max_entangled_projector(2), BipartiteLabel(2, 2))
    assert np.allclose(np.sort(np.linalg.eigvalsh(pt)), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_partial_transpose_involution_trace_hermiticity(da, db):
    rng = np.random.default_rng(da * 10 + db)
    label = BipartiteLabel(da, db)
    for _ in range(100):
        rho = random_density(label, rng)
        pt = partial_transpose(rho.matrix, rho.bipartite)
        assert abs(pt.trace() - rho.matrix.trace()) < 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
        again = partial_transpose(pt, label)
        assert np.max(np.abs(again - rho.matrix)) < 1e-12


def test_partial_transpose_sides_compose_to_full_transpose():
    rng = np.random.default_rng(3)
    rho = random_density(BipartiteLabel(2, 3), rng)
    both = partial_transpose(
        partial_transpose(rho.matrix, rho.bipartite, side="B"), BipartiteLabel(2, 3), side="A"
    )
    assert np.allclose(both, rho.matrix.T, atol=1e-12)


def test_partial_transpose_requires_bipartite():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4), 4)  # type: ignore[arg-type]


def test_min_eigenvalue_examples():
    assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0, abs=1e-10)
    assert min_eigenvalue(np.diag([2.0, -5.0])) == pytest.approx(-5.0, abs=1e-10)


def test_min_eigenvalue_reads_the_hermitian_part():
    # the Hermitian part of this nilpotent matrix is X / 2, eigenvalues -1/2 and 1/2
    nilpotent = np.array([[0, 1], [0, 0]], dtype=complex)
    assert min_eigenvalue(nilpotent) == pytest.approx(-0.5, abs=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_haar_unitaries_draw_a_stack_of_unitaries(dim):
    u = haar_unitaries(dim, 5, np.random.default_rng(dim))
    assert u.shape == (5, dim, dim)
    assert np.allclose(u @ u.conj().transpose(0, 2, 1), np.eye(dim), rtol=0, atol=1e-12)


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2), 2)  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5], [0, 0.5]]), 2)  # not Hermitian
    # Hermitian and of trace one, with a negative eigenvalue: the public
    # constructor still proves positivity, on a diagonal and on the isotropic
    # form at F = 1.2 (eigenvalue -0.2 / 3)
    proj = max_entangled_projector(2)
    beyond = 1.2 * proj - 0.2 * (np.eye(4) - proj) / 3
    for m, label in ((np.array([[1.5, 0], [0, -0.5]]), 2), (beyond, BipartiteLabel(2, 2))):
        assert abs(np.trace(m) - 1) < 1e-15 and np.array_equal(m, m.conj().T)
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityOperator(m, label)


def test_states_built_in_package_are_positive_semidefinite():
    # isotropic, random_density, partial_trace and tensor products skip the
    # eigendecomposition that the public constructor runs; this is the proof it gave
    rng = np.random.default_rng(11)
    for k in range(2, 10):
        for f in sorted({0.0, 1 / k**2, 1 / k, 0.25, 0.5, 0.75, 0.9, 1.0}):
            rho = isotropic(k, f)
            assert min_eigenvalue(rho.matrix) >= -TAU_PSD, (k, f)
            assert not rho.matrix.flags.writeable
        for label in (k, BipartiteLabel(k, 2), BipartiteLabel(2, k)):
            rho = random_density(label, rng)
            states = [rho]
            if isinstance(label, BipartiteLabel):
                states += [partial_trace(rho, "A"), partial_trace(rho, "B")]
            for state in states:
                assert min_eigenvalue(state.matrix) >= -TAU_PSD
                assert abs(np.trace(state.matrix) - 1) <= 1e-12
    # verify's tensor-product rule joins two checked states the same way
    for da, db in ((2, 2), (2, 3), (3, 4)):
        joint = np.kron(random_density(da, rng).matrix, random_density(db, rng).matrix)
        state = DensityOperator._by_construction(joint, BipartiteLabel(da, db))
        assert min_eigenvalue(state.matrix) >= -TAU_PSD
        assert abs(np.trace(state.matrix) - 1) <= 1e-12


def test_density_operator_matrix_is_frozen():
    rho = random_density(2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0


def test_bipartite_label_total_and_validation():
    label = BipartiteLabel(2, 3)
    assert label.total == 6
    assert BipartiteLabel(np.int64(2), 3) == label
    with pytest.raises(ValueError):
        BipartiteLabel(0, 3)


@pytest.mark.parametrize("dims", [(True, 2), (2, False), (2.5, 2), (2, 2.0), ("2", 2)])
def test_bipartite_label_takes_only_integer_dimensions(dims):
    # the decoder's rule for counts: bool is not an integer here
    with pytest.raises(ValueError, match="must be positive integers"):
        BipartiteLabel(*dims)
