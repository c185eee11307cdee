import numpy as np
import pytest

from entdist.linalg import (
    _haar_columns,
    TAU_PSD,
    BipartiteLabel,
    DensityOperator,
    haar_unitaries,
    min_eigenvalue,
    partial_transpose,
    random_density,
)
from entdist.operations import identity_operation
from entdist.states import isotropic
from entdist.verify import _random_states
from helpers import max_entangled_projector

X = np.array([[0, 1], [1, 0]], dtype=complex)


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


def qr_haar_reference(dim, count, rng):
    """Haar unitaries by LAPACK QR of the same Ginibre draws as haar_unitaries,
    with the phases of R's diagonal moved into Q."""
    shape = (count, dim, dim)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.einsum("nii->ni", r).copy()
    phases /= np.abs(phases)
    return q * phases[:, None, :]


def columns_as_stack(dim, count, rng):
    """The real-form twirl's draw, `_haar_columns`, in `haar_unitaries`'s layout."""
    return _haar_columns(dim, count, rng).transpose(2, 0, 1)


# the stacked draw's ids are dim-count; the column draw covers every dim of
# the real-form twirl, with 513 spilling one sample past a twirl chunk
@pytest.mark.parametrize(
    "draw, dim, count",
    [
        pytest.param(haar_unitaries, d, n, id=f"{d}-{n}")
        for n in (1, 512)
        for d in (1, 2, 3, 6, 8, 16)
    ]
    + [
        pytest.param(columns_as_stack, d, n, id=f"columns-{d}-{n}")
        for d in range(1, 8)
        for n in (0, 1, 512, 513)
    ],
)
def test_haar_unitaries_match_rephased_qr_on_the_same_draws(draw, dim, count):
    rng, ref_rng = np.random.default_rng([dim, count]), np.random.default_rng([dim, count])
    u = draw(dim, count, rng)
    ref = qr_haar_reference(dim, count, ref_rng)
    assert u.shape == ref.shape and u.dtype == ref.dtype
    assert np.max(np.abs(u - ref), initial=0) <= 1e-13
    assert np.max(np.abs(u @ u.conj().transpose(0, 2, 1) - np.eye(dim)), initial=0) <= 1e-14
    # both consumed the same draws, so the generators end in the same state
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_haar_unitaries_of_count_zero_and_dimension_one():
    for dim in (1, 2, 3):
        u = haar_unitaries(dim, 0, np.random.default_rng(0))
        assert u.shape == (0, dim, dim) and u.dtype == np.complex128
    u = haar_unitaries(1, 4, np.random.default_rng(0))
    assert u.shape == (4, 1, 1) and u.dtype == np.complex128
    assert np.max(np.abs(np.abs(u) - 1)) <= 1e-15


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
    # isotropic, random_density, verify's stacked states and tensor products skip the eigendecomposition that the public constructor runs; this
    # is the proof it gave
    rng = np.random.default_rng(11)
    for k in range(2, 10):
        for f in sorted({0.0, 1 / k**2, 1 / k, 0.25, 0.5, 0.75, 0.9, 1.0}):
            rho = isotropic(k, f)
            assert min_eigenvalue(rho.matrix) >= -TAU_PSD, (k, f)
            assert not rho.matrix.flags.writeable
        for label in (k, BipartiteLabel(k, 2), BipartiteLabel(2, k)):
            rho = random_density(label, rng)
            assert min_eigenvalue(rho.matrix) >= -TAU_PSD
            assert abs(np.trace(rho.matrix) - 1) <= 1e-12
    # verify's stacked draws normalize and symmetrize Gram matrices as random_density does
    dims = [1, 2, 3, 4] * 5 + [4, 3, 2]
    for d, state in zip(dims, _random_states(rng, dims)):
        assert state.dim == d and np.array_equal(state.matrix, state.matrix.conj().T)
        assert abs(np.trace(state.matrix) - 1) <= 1e-12
        assert min_eigenvalue(state.matrix) >= -TAU_PSD
        assert not state.matrix.flags.writeable
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


@pytest.mark.parametrize("label", [2.5, True, 2.0, "2", 0])
def test_plain_labels_take_only_positive_integers(label):
    # the same rule as BipartiteLabel's: 2.5 would read as 2 and True as 1
    with pytest.raises(ValueError, match="positive integer"):
        identity_operation(label)
    with pytest.raises(ValueError, match="positive integer"):
        DensityOperator(np.eye(2) / 2, label)
    assert identity_operation(np.int64(2)).dim_in == 2
