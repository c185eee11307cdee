import numpy as np
import pytest

from entdist.linalg import BipartiteLabel, DensityOperator, haar_unitaries
from entdist.states import (
    fidelity,
    isotropic,
    max_entangled_ket,
    max_entangled_projector,
)

F_GRID = [round(0.1 * i, 10) for i in range(11)]


def ket00():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1
    return DensityOperator(m, BipartiteLabel(2, 2))


def test_max_entangled_dimension_one():
    v = max_entangled_ket(1)
    assert v.shape == (1,)
    assert abs(np.linalg.norm(v) - 1) < 1e-15


def test_max_entangled_qubit_pair():
    v = max_entangled_ket(2)
    assert np.allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_max_entangled_normalized(k):
    v = max_entangled_ket(k)
    assert abs(v.conj() @ v - 1) < 1e-14


def test_max_entangled_rejects_zero():
    with pytest.raises(ValueError):
        max_entangled_ket(0)


def test_fidelity_of_projector_is_one():
    for k in (2, 3, 4):
        rho = DensityOperator(max_entangled_projector(k), BipartiteLabel(k, k))
        assert fidelity(rho) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_of_uniform_mixture():
    for k in (2, 3):
        rho = DensityOperator(np.eye(k * k) / (k * k), BipartiteLabel(k, k))
        assert fidelity(rho) == pytest.approx(1 / (k * k), abs=1e-14)


def test_fidelity_of_product_basis_state():
    # overlap <max_ent|00> = 1/sqrt(2), so fidelity 1/2
    assert fidelity(ket00()) == pytest.approx(0.5, abs=1e-14)


def test_fidelity_requires_square_label():
    rho = DensityOperator(np.eye(6) / 6, BipartiteLabel(2, 3))
    with pytest.raises(ValueError):
        fidelity(rho)


def test_isotropic_extremes():
    assert np.allclose(isotropic(2, 1.0).matrix, max_entangled_projector(2), atol=1e-12)
    assert np.allclose(isotropic(3, 1 / 9).matrix, np.eye(9) / 9, atol=1e-12)


def test_isotropic_explicit_mixture():
    got = isotropic(2, 0.7)
    want = 0.6 * max_entangled_projector(2) + 0.4 * np.eye(4) / 4
    assert np.allclose(got.matrix, want, atol=1e-12)
    assert fidelity(got) == pytest.approx(0.7, abs=1e-12)


def test_isotropic_fidelity_grid():
    for k in range(2, 7):
        for f in F_GRID:
            rho = isotropic(k, f)  # construction passes density-operator checks
            assert fidelity(rho) == pytest.approx(f, abs=1e-12)


def test_isotropic_twirl_invariance_sampled():
    rng = np.random.default_rng(42)
    for k in range(2, 7):
        for f in F_GRID:
            rho = isotropic(k, f)
            for u in haar_unitaries(k, 100, rng):
                w = np.kron(u, u.conj())
                conj = w @ rho.matrix @ w.conj().T
                assert np.max(np.abs(conj - rho.matrix)) < 1e-9


def test_isotropic_params_roundtrip():
    for k in (2, 3, 4):
        for f in (0.0, 0.3, 1.0):
            rho = isotropic(k, f)
            assert rho.bipartite == BipartiteLabel(k, k)
            assert fidelity(rho) == pytest.approx(f, abs=1e-12)


def test_isotropic_params_of_product_state():
    assert fidelity(ket00()) == pytest.approx(0.5, abs=1e-12)


def test_isotropic_params_of_entangled_projector():
    rho = DensityOperator(max_entangled_projector(4), BipartiteLabel(4, 4))
    assert fidelity(rho) == pytest.approx(1.0, abs=1e-12)


def test_params_reject_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        isotropic(2, 1.001)
    with pytest.raises(ValueError, match="outside"):
        isotropic(2, -0.001)
    with pytest.raises(ValueError, match="forces fidelity 1"):
        isotropic(1, 0.5)
    with pytest.raises(ValueError, match="positive"):
        isotropic(0, 1.0)
    isotropic(2, 1 + 5e-13)  # inside the numeric slack


def test_mixing_parameter():
    # the weight a of P+ in a P+ + (1 - a) I / K^2, read off the matrix: an
    # off-diagonal entry of P+ between |00> and |11> is 1/K, of I zero
    for k, f, a in ((2, 0.7, 0.6), (3, 1 / 9, 0.0), (3, 1.0, 1.0)):
        assert isotropic(k, f).matrix[0, k + 1].real * k == pytest.approx(a, abs=1e-15)
    assert np.array_equal(isotropic(1, 1.0).matrix, np.ones((1, 1)))


def test_isotropic_state_from_params():
    rho = isotropic(3, 0.5)
    assert rho.bipartite == BipartiteLabel(3, 3)
    assert fidelity(rho) == pytest.approx(0.5, abs=1e-12)
