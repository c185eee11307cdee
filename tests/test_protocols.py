import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entdist.linalg import BipartiteLabel, haar_unitaries, random_density
from entdist.operations import apply_operation, is_trace_preserving
from entdist.protocols import (
    ReductionPlan,
    exact_twirl,
    factor_tracing_fidelity,
    factor_tracing_op,
    monte_carlo_twirl,
    reduce_dimension,
    reduce_dimension_fidelity,
    subspace_measurement_fidelity,
    subspace_measurement_op,
)
from entdist.states import fidelity, isotropic

F_GRID = [round(0.1 * i, 10) for i in range(11)]


def simulate_merged_fidelity(op, k, f):
    ((p, state),) = apply_operation(op, isotropic(k, f))
    assert p == pytest.approx(1.0, abs=1e-9)
    return fidelity(state)


def test_subspace_measurement_spot_value():
    assert subspace_measurement_fidelity(4, 2, 1.0) == pytest.approx(0.625, abs=1e-15)


def test_subspace_measurement_identity_at_full_dimension():
    for f in F_GRID:
        assert subspace_measurement_fidelity(5, 5, f) == pytest.approx(f, abs=1e-15)


def test_subspace_measurement_random_fixed_point():
    # a completely random state comes out completely random
    assert subspace_measurement_fidelity(4, 2, 1 / 16) == pytest.approx(0.25, abs=1e-12)
    op = subspace_measurement_op(4, 2)
    ((_, state),) = apply_operation(op, isotropic(4, 1 / 16))
    assert np.allclose(state.matrix, np.eye(4) / 4, atol=1e-12)


def test_subspace_measurement_grid_matches_simulation():
    for k in range(2, 7):
        for kp in range(1, k + 1):
            op = subspace_measurement_op(k, kp)
            assert is_trace_preserving(op)
            for f in F_GRID:
                sim = simulate_merged_fidelity(op, k, f)
                closed = subspace_measurement_fidelity(k, kp, f)
                assert sim == pytest.approx(closed, abs=1e-9), (k, kp, f)


@given(
    st.integers(2, 6),
    st.integers(1, 6),
    st.floats(0, 1, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_subspace_measurement_dominates_passthrough(k, kp, f):
    if kp > k:
        kp = k
    value = subspace_measurement_fidelity(k, kp, f)
    assert value >= (kp / k) * f - 1e-12
    assert -1e-12 <= value <= 1 + 1e-12


def test_factor_tracing_requires_divisor():
    with pytest.raises(ValueError):
        factor_tracing_op(6, 4)
    with pytest.raises(ValueError):
        factor_tracing_fidelity(6, 4, 0.5)


def test_factor_tracing_fixed_points():
    assert factor_tracing_fidelity(4, 2, 1.0) == 1.0
    assert factor_tracing_fidelity(4, 2, 1 / 16) == pytest.approx(0.25, abs=1e-12)


def test_factor_tracing_grid_matches_simulation():
    for k in range(2, 10):
        for kp in range(1, k + 1):
            if k % kp:
                continue
            op = factor_tracing_op(k, kp)
            assert is_trace_preserving(op)
            for f in F_GRID:
                sim = simulate_merged_fidelity(op, k, f)
                closed = factor_tracing_fidelity(k, kp, f)
                assert sim == pytest.approx(closed, abs=1e-9), (k, kp, f)


def test_factor_tracing_output_is_isotropic():
    for f in (0.0, 0.5, 1.0):
        ((_, state),) = apply_operation(factor_tracing_op(6, 3), isotropic(6, f))
        want = isotropic(3, factor_tracing_fidelity(6, 3, f))
        assert np.allclose(state.matrix, want.matrix, atol=1e-9)


@given(st.integers(2, 9), st.floats(0, 1, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_factor_tracing_never_decreases_fidelity(k, f):
    for kp in range(1, k + 1):
        if k % kp == 0:
            assert factor_tracing_fidelity(k, kp, f) >= f - 1e-12


def test_exact_twirl_fixes_isotropic_states():
    for k in (2, 3):
        for f in (0.0, 0.6, 1.0):
            rho = isotropic(k, f)
            assert np.allclose(exact_twirl(rho).matrix, rho.matrix, atol=1e-12)


def test_exact_twirl_of_product_basis_state():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1
    from entdist.linalg import DensityOperator

    rho = DensityOperator(m, BipartiteLabel(2, 2))
    assert np.allclose(exact_twirl(rho).matrix, isotropic(2, 0.5).matrix, atol=1e-12)


def test_exact_twirl_preserves_fidelity_and_invariance():
    rng = np.random.default_rng(77)
    for k in (2, 3):
        rho = random_density(BipartiteLabel(k, k), rng)
        tw = exact_twirl(rho)
        assert fidelity(tw) == pytest.approx(fidelity(rho), abs=1e-12)
        for u in haar_unitaries(k, 100, rng):
            w = np.kron(u, u.conj())
            assert np.max(np.abs(w @ tw.matrix @ w.conj().T - tw.matrix)) < 1e-9


def test_monte_carlo_twirl_approaches_exact():
    rng = np.random.default_rng(99)
    for k in (2, 3):
        rho = random_density(BipartiteLabel(k, k), rng)
        mc = monte_carlo_twirl(rho, 10_000, rng)
        assert np.max(np.abs(mc - exact_twirl(rho).matrix)) < 1e-2


@pytest.mark.parametrize("samples", [0, -5])
def test_monte_carlo_twirl_refuses_fewer_than_one_sample(samples):
    rho = random_density(BipartiteLabel(2, 2), np.random.default_rng(0))
    with pytest.raises(ValueError, match="at least 1 sample"):
        monte_carlo_twirl(rho, samples, np.random.default_rng(0))


def dense_twirl_reference(rho, samples, rng):
    """The twirl as the mean of dense products w rho w^dagger, w = U (x) conj(U).

    Draws the same Ginibre matrices as monte_carlo_twirl, in chunks of 512,
    but turns them into unitaries by LAPACK QR with the phases of R's diagonal
    moved into Q, not by the package's Gram-Schmidt sampler, so the sampler
    is checked here too.
    """
    d = rho.bipartite.dim_a
    acc = np.zeros((d * d, d * d), dtype=complex)
    done = 0
    while done < samples:
        n = min(512, samples - done)
        z = (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        phases = np.einsum("nii->ni", r).copy()
        phases /= np.abs(phases)
        u = q * phases[:, None, :]
        w = np.einsum("nab,ncd->nacbd", u, u.conj()).reshape(n, d * d, d * d)
        acc += (w @ rho.matrix @ w.conj().transpose(0, 2, 1)).sum(axis=0)
        done += n
    return acc / samples


# 511-513 straddle one Haar chunk and 1500 ends in a partial one; for K >= 3
# a chunk spans several sub-blocks, and most of these counts end in a short one.
# K = 6 is the benchmark's largest twirl, K = 7 the largest K of the real form
# and K = 8 the first of the complex one.
@pytest.mark.parametrize(
    "k, samples",
    [(k, n) for k in (2, 3, 4, 5) for n in (1, 511, 512, 513, 1500)]
    + [(k, n) for k in (6, 7, 8) for n in (1, 513)],
)
def test_monte_carlo_twirl_matches_dense_reference_on_the_same_draws(k, samples):
    rho = random_density(BipartiteLabel(k, k), np.random.default_rng([k, samples]))
    rng, ref_rng = np.random.default_rng(samples), np.random.default_rng(samples)
    mc = monte_carlo_twirl(rho, samples, rng)
    ref = dense_twirl_reference(rho, samples, ref_rng)
    assert np.max(np.abs(mc - ref)) <= 1e-14
    # both consumed the same draws, so the streams continue alike
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("k, samples", [(16, 64), (12, 256), (7, 512)])
def test_monte_carlo_twirl_memory_is_bounded(k, samples):
    # Forming the (n, d^2, d^2) products w rho w^dagger takes 258 MiB at K = 16
    # and 327 MiB at K = 12 (dense_twirl_reference).  K = 7 is the largest K
    # of the real form, and 512 samples fill one Haar chunk.
    rho = random_density(BipartiteLabel(k, k), np.random.default_rng(k))
    tracemalloc.start()
    try:
        mc = monte_carlo_twirl(rho, samples, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.trace(mc).real == pytest.approx(1.0, abs=1e-12)


def test_reduction_plan_values():
    plan = ReductionPlan(5, 2)
    assert plan.stage1_target == 4
    assert plan.guaranteed_fidelity_factor == pytest.approx(4 / 5, abs=1e-15)
    assert plan.guaranteed_fidelity_factor >= plan.coarse_fidelity_factor - 1e-15


def test_reduction_plan_bound_dominates_coarse_form():
    for k in range(2, 10):
        for kp in range(1, k):
            plan = ReductionPlan(k, kp)
            assert plan.guaranteed_fidelity_factor >= plan.coarse_fidelity_factor - 1e-12


def test_reduce_dimension_perfect_input():
    out = reduce_dimension(isotropic(4, 1.0), 2)
    assert fidelity(out) == pytest.approx(1.0, abs=1e-9)
    assert reduce_dimension_fidelity(4, 2, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_reduce_dimension_bound_grid():
    for k in range(2, 7):
        for kp in range(1, k):
            plan = ReductionPlan(k, kp)
            for f in F_GRID:
                sim = fidelity(reduce_dimension(isotropic(k, f), kp))
                closed = reduce_dimension_fidelity(k, kp, f)
                assert sim == pytest.approx(closed, abs=1e-9)
                assert sim >= plan.guaranteed_fidelity_factor * f - 1e-9


@pytest.mark.parametrize("f", [0.3, 0.9])
def test_reduce_dimension_k16_matches_closed_form_in_bounded_memory(f):
    tracemalloc.start()
    try:
        out = reduce_dimension(isotropic(16, f), 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fidelity(out) == pytest.approx(reduce_dimension_fidelity(16, 7, f), abs=1e-9)
    assert peak < 32 * 2**20


def test_reduce_dimension_degenerate_zero_fidelity():
    assert fidelity(reduce_dimension(isotropic(5, 0.0), 4)) >= 0.0


def test_protocol_ops_are_separable_and_ppt():
    from entdist.operations import (
        is_ppt_operation,
        natural_product_witness,
        verify_separable_form,
    )

    for op in (subspace_measurement_op(4, 2), factor_tracing_op(6, 2)):
        assert verify_separable_form(op, natural_product_witness(op))
        assert is_ppt_operation(op)
