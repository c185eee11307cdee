import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entdist.bounds import (
    _backtrack,
    _ensemble_grad,
    _ensemble_value,
    _polar_coisometry,
    EF_ARMIJO_C1,
    EF_DECREASE_MARGIN,
    EF_GRAD_FLOOR,
    EF_LBFGS_MEMORY,
    EF_RESTART_PATIENCE,
    EF_RESTART_TOL,
    EF_STEP_FLOOR,
    FLOAT_OVERFLOW,
    EFSearch,
    binary_entropy,
    ef_isotropic,
    ef_numeric_estimate,
    ef_numeric_search,
    formation_bounds_isotropic,
    hashing_rate,
    ppt_bound_isotropic,
)
from entdist.linalg import BipartiteLabel, DensityOperator, random_density
from entdist.states import isotropic
from entdist.verify import EF_GAP_TOL, EXACT_TOL
from helpers import max_entangled_projector, wootters_formation

F_GRID = [round(0.1 * i, 10) for i in range(11)]

# frozen with mpmath at 50 digits: -F*log(F,2) - (1-F)*log(1-F,2)
H2_09 = 0.46899559358928122
# frozen with mpmath: log(2,2) + F*log(F,2) + (1-F)*log((1-F)/3, 2) at F = 0.9
HASHING_2_09 = 0.37250815633860316
# frozen with mpmath: 1 + 0.9*log(0.9,2) + 0.1*log(0.1,2) - 0.1*log(1,2)
PPT_2_09 = 0.53100440641071878


def test_binary_entropy_midpoint():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_high_precision_value():
    assert binary_entropy(0.9) == pytest.approx(H2_09, abs=1e-15)


def test_binary_entropy_out_of_range():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_binary_entropy_concave_on_grid():
    xs = [i / 100 for i in range(101)]
    ys = [binary_entropy(x) for x in xs]
    second = [ys[i + 1] - 2 * ys[i] + ys[i - 1] for i in range(1, 100)]
    assert all(d <= 1e-12 for d in second)


@given(st.floats(0, 1, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_binary_entropy_range_and_symmetry(f):
    v = binary_entropy(f)
    assert -1e-15 <= v <= 1 + 1e-15
    assert v == pytest.approx(binary_entropy(1 - f), abs=1e-12)


def test_formation_bounds_pure_state():
    for k in (2, 3, 4):
        fb = formation_bounds_isotropic(k, 1.0)
        assert fb.lower == pytest.approx(math.log2(k), abs=1e-12)
        assert fb.upper == pytest.approx(math.log2(k), abs=1e-12)


def test_formation_bounds_separability_point():
    for k in (2, 3, 5):
        fb = formation_bounds_isotropic(k, 1 / k)
        assert fb.upper == pytest.approx(0.0, abs=1e-12)


def test_formation_bounds_worked_value():
    fb = formation_bounds_isotropic(2, 0.9)
    assert fb.lower == pytest.approx(0.9 - H2_09, abs=1e-12)
    assert fb.upper == pytest.approx(0.8, abs=1e-12)


def test_formation_bounds_dimension_one():
    fb = formation_bounds_isotropic(1, 1.0)
    assert (fb.lower, fb.upper, fb.ppt_bound) == (0.0, 0.0, 0.0)


def test_formation_bounds_ordered_on_grid():
    for k in range(2, 7):
        for f in F_GRID:
            fb = formation_bounds_isotropic(k, f)
            assert fb.lower <= fb.upper + 1e-12
            assert fb.lower >= 0.0


def test_ppt_bound_endpoints():
    for k in (2, 3, 4):
        assert ppt_bound_isotropic(k, 1.0) == pytest.approx(math.log2(k), abs=1e-12)
        assert ppt_bound_isotropic(k, 1 / k) == pytest.approx(0.0, abs=1e-12)


def test_ppt_bound_worked_value():
    assert ppt_bound_isotropic(2, 0.9) == pytest.approx(PPT_2_09, abs=1e-15)


def test_ppt_bound_chain_identity():
    # ppt bound minus the entropy lower bound is (1-F) log2(K/(K-1)) >= 0
    for k in range(2, 7):
        for f in F_GRID:
            gap = ppt_bound_isotropic(k, f) - (f * math.log2(k) - binary_entropy(f))
            expect = (1 - f) * math.log2(k / (k - 1))
            assert gap == pytest.approx(expect, abs=1e-12)
            assert gap >= -1e-12


@st.composite
def entangled_isotropic(draw):
    """(K, F) with K in 2..64 and F in [1/K, 1]."""
    k = draw(st.integers(2, 64))
    return k, draw(st.floats(1 / k, 1, allow_nan=False))


@given(entangled_isotropic())
@settings(max_examples=300, deadline=None)
def test_hashing_ppt_and_formation_bounds_are_ordered(point):
    # hashing is achievable, so at most D, and Rains's p.p.t. bound lies
    # between D and E_f: hashing <= p.p.t. <= E_f
    k, f = point
    ppt = ppt_bound_isotropic(k, f)
    assert hashing_rate(k, f).raw <= ppt + EXACT_TOL
    assert ppt <= ef_isotropic(k, f) + EXACT_TOL


def test_hashing_endpoint():
    for k in (2, 4, 8, 16):
        hr = hashing_rate(k, 1.0)
        assert hr.raw == math.log2(k)
        assert hr.clamped == hr.raw


def test_hashing_worked_value():
    hr = hashing_rate(2, 0.9)
    assert hr.raw == pytest.approx(HASHING_2_09, abs=1e-15)
    assert hr.clamped == hr.raw
    assert hr.dimension_is_power_of_two


def test_hashing_clamp():
    hr = hashing_rate(2, 0.5)
    assert hr.raw < 0
    assert hr.clamped == 0.0


def test_hashing_identity_grid():
    for k in (2, 4, 8, 16):
        for f in [round(0.05 * i, 10) for i in range(1, 20)]:
            raw = hashing_rate(k, f).raw
            identity = (
                (2 * f - 1) * math.log2(k)
                - binary_entropy(f)
                + (1 - f) * math.log2(k * k / (k * k - 1))
            )
            assert raw == pytest.approx(identity, abs=1e-12)
            assert raw >= (2 * f - 1) * math.log2(k) - binary_entropy(f) - 1e-12


def test_hashing_flags_general_dimension():
    assert not hashing_rate(3, 0.9).dimension_is_power_of_two


def test_hashing_lemma_chain_for_k4():
    for f in F_GRID:
        assert (
            hashing_rate(4, f).raw - ((2 * f - 1) * 2 - binary_entropy(f)) >= -1e-12
        )


@pytest.mark.parametrize("f", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_bounds_at_k_beyond_double_range_meet_their_large_k_limits(f):
    # as K -> oo with log2 K = 1100: (FK-1)/(K-1) -> F, log2(K/(K-1)) -> 0
    # and log2(K^2-1) -> 2 log2 K
    k, log2k = 2**1100, 1100.0
    assert k > FLOAT_OVERFLOW
    fb = formation_bounds_isotropic(k, f)
    assert fb.lower == max(0.0, f * log2k - binary_entropy(f))
    assert fb.upper == pytest.approx(f * log2k, rel=1e-15)
    assert fb.ppt_bound == pytest.approx(f * log2k - binary_entropy(f), rel=1e-15, abs=1e-12)
    want = (2 * f - 1) * log2k - binary_entropy(f)
    assert hashing_rate(k, f).raw == pytest.approx(want, rel=1e-15)


def test_bounds_continuous_where_their_float_formulas_overflow():
    """Each side of the switch to the large-K forms agrees to rounding."""
    for f in (0.3, 0.9):
        below = formation_bounds_isotropic(FLOAT_OVERFLOW - 1, f)
        above = formation_bounds_isotropic(FLOAT_OVERFLOW, f)
        assert above.upper == pytest.approx(below.upper, rel=1e-14)
        k = math.isqrt(FLOAT_OVERFLOW)  # the last K whose K^2 - 1 converts
        assert k * k - 1 < FLOAT_OVERFLOW <= (k + 1) ** 2 - 1
        below, above = hashing_rate(k, f), hashing_rate(k + 1, f)
        assert above.raw == pytest.approx(below.raw, rel=1e-14)


def test_ef_estimate_pure_state():
    rho = DensityOperator(max_entangled_projector(2), BipartiteLabel(2, 2))
    assert ef_numeric_estimate(rho, budget=400, seed=0) == pytest.approx(1.0, abs=1e-6)


def test_ef_estimate_separable_boundary():
    est = ef_numeric_estimate(isotropic(2, 0.5), seed=0)
    assert est <= 1e-4


def test_ef_estimate_within_formation_bounds():
    for f in (0.7, 0.9):
        fb = formation_bounds_isotropic(2, f)
        est = ef_numeric_estimate(isotropic(2, f), seed=0)
        assert fb.lower - 1e-6 <= est <= fb.upper + 1e-4


def test_ef_estimate_deterministic_given_seed():
    rho = isotropic(2, 0.8)
    a = ef_numeric_estimate(rho, budget=1200, seed=3)
    b = ef_numeric_estimate(rho, budget=1200, seed=3)
    assert a == b


def test_ef_estimate_rejects_large_dimension():
    with pytest.raises(ValueError):
        ef_numeric_estimate(isotropic(5, 0.9))


@pytest.fixture(scope="module")
def ef_k4_f095() -> EFSearch:
    """The search at K = 4, F = 0.95, budget 400, seed 1, which stops on
    "no-descent" after about 290 iterations (about 0.7 s); run once for the
    tests that read it."""
    return ef_numeric_search(isotropic(4, 0.95), budget=400, seed=1)


def test_ef_search_reports_how_it_stopped(ef_k4_f095):
    # at budget 400 the three stop reasons each occur: K = 2 from seed 0 at
    # F = 0.7 and 1.0, and K = 3, F = 0.99 from seed 1
    stops = {}
    for k, f, seed in ((2, 0.7, 0), (2, 1.0, 0), (3, 0.99, 1)):
        ef = ef_numeric_search(isotropic(k, f), budget=400, seed=seed)
        assert ef.value == ef_numeric_estimate(isotropic(k, f), budget=400, seed=seed)
        assert (ef.restarts, ef.best_restart) == (1, 0)
        assert 0 <= ef.iterations <= 400 and ef.grad_norm >= 0
        # one evaluation at the start, at least one per iteration
        assert ef.evaluations >= ef.iterations + 1
        stops[k, f] = ef.stop
        if ef.stop == "budget":
            assert ef.iterations == 400 and ef.grad_norm >= 1e-14
    assert stops == {(2, 0.7): "no-descent", (2, 1.0): "gradient", (3, 0.99): "budget"}
    # K = 4, F = 0.95 and the separability point no longer exhaust the budget
    for ef in (ef_k4_f095, ef_numeric_search(isotropic(2, 0.5), budget=400, seed=0)):
        assert ef.stop == "no-descent" and ef.iterations < 400
    # at F = 0.9 the three restarts end within 1.3e-15 of each other, so which
    # one is best turns on rounding: pinned as the search runs now
    best = [ef_numeric_search(isotropic(2, f), budget=1200, seed=3) for f in (0.5, 0.9)]
    assert [(ef.restarts, ef.best_restart) for ef in best] == [(3, 2), (3, 2)]


def test_ef_benchmark_calls_end_their_last_line_search_early():
    # the verify workload's 16 one-restart calls: every F < 1 call ends on a
    # line search that cannot succeed, which stops once -slope * step falls to
    # EF_DECREASE_MARGIN; backtracking on to EF_STEP_FLOOR made 814 evaluations
    calls = [(f, ef_numeric_search(isotropic(2, f), budget=400, seed=s))
             for f in (0.5, 0.7, 0.9, 1.0) for s in (7, 8, 9, 10)]
    assert sum(ef.evaluations for _, ef in calls) <= 600
    assert [ef.stop for _, ef in calls] == ["no-descent"] * 12 + ["gradient"] * 4
    assert max(ef.value - ef_isotropic(2, f) for f, ef in calls) <= 2e-13


def test_ef_search_stops_restarting_once_converged():
    # budgets of at most EF_RESTART_PATIENCE restarts run them all
    for budget, restarts in ((400, 1), (1200, 3)):
        ef = ef_numeric_search(isotropic(2, 0.7), budget=budget, seed=7)
        assert (ef.restarts, ef.restart_stop) == (restarts, "budget")
    # the default budget allows 20 restarts; the rule stops well before
    for f in (0.5, 0.7, 0.9, 1.0):
        ef = ef_numeric_search(isotropic(2, f), seed=7)
        assert ef.restart_stop == "converged", ef
        assert EF_RESTART_PATIENCE < ef.restarts < 20
        assert ef.best_restart < ef.restarts
        gap = ef.value - ef_isotropic(2, f)
        assert -EF_RESTART_TOL <= gap <= EF_RESTART_TOL, f"F={f}: gap {gap:.3g}"


def _objective_grad_per_member(g, a, da, db):
    """The EF objective and gradient computed one ensemble member at a time."""
    cols = a @ g
    value = 0.0
    grad_c = np.zeros_like(cols)
    for t in range(g.shape[1]):
        mat = cols[:, t].reshape(da, db)
        red = mat @ mat.conj().T
        p = float(red.trace().real)
        if p < 1e-15:
            continue
        lam, vec = np.linalg.eigh(red / p)
        lam = np.maximum(lam, 1e-300)
        value += -p * float(np.sum(lam * np.log2(lam)))
        w = (vec * (-np.log2(lam))) @ vec.conj().T
        grad_c[:, t] = (w @ mat).reshape(-1)
    return value, a.conj().T @ grad_c


def _random_ensemble(rng, da, db):
    """(A, G) for a random full-rank state on da x db and a random
    co-isometry G with d^2 + 1 columns."""
    d = da * db
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = x @ x.conj().T
    lam, vecs = np.linalg.eigh(m / m.trace().real)
    g = rng.standard_normal((d, d * d + 1)) + 1j * rng.standard_normal((d, d * d + 1))
    return vecs * np.sqrt(lam), _polar_coisometry(g)


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_ef_objective_matches_per_member_loop(da, db):
    rng = np.random.default_rng(da * 10 + db)
    a, g = _random_ensemble(rng, da, db)
    g[:, 3] = 0  # a member of trace 0 is skipped
    value, parts = _ensemble_value(g, a, da, db)
    grad = _ensemble_grad(a, parts)
    ref_value, ref_grad = _objective_grad_per_member(g, a, da, db)
    assert abs(value - ref_value) <= 1e-13
    assert np.max(np.abs(grad - ref_grad)) <= 1e-13
    assert not grad[:, 3].any()


def test_ef_objective_gradient_matches_finite_difference():
    # the Wirtinger gradient D = df/d conj(G) gives df = 2 Re <D, dG>
    rng = np.random.default_rng(5)
    a, g = _random_ensemble(rng, 2, 3)
    direction = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    direction /= np.linalg.norm(direction)
    grad = _ensemble_grad(a, _ensemble_value(g, a, 2, 3)[1])
    h = 1e-5
    plus, _ = _ensemble_value(g + h * direction, a, 2, 3)
    minus, _ = _ensemble_value(g - h * direction, a, 2, 3)
    assert (plus - minus) / (2 * h) == pytest.approx(
        2 * np.vdot(grad, direction).real, rel=1e-7, abs=1e-9
    )


@pytest.mark.parametrize("rank,members", [(4, 17), (9, 82), (16, 257)])
def test_gram_retraction_is_the_polar_factor(rank, members):
    # candidates are g - t d with g a co-isometry and d tangent at g; with
    # |d| = 1, steps up to 1e3 reach far beyond those of the search
    rng = np.random.default_rng(rank)
    shape = (rank, members)
    for t in (1e-3, 1.0, 1e3):
        for scale in (1.0, 1e-6):  # 1e-6: a direction that barely moves one row
            g = _polar_coisometry(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            y[0] *= scale
            d = y - (y @ g.conj().T) @ g  # g d^dag = 0, so d is tangent at g
            d /= np.linalg.norm(d)
            x = g - t * d
            u, _, vh = np.linalg.svd(x, full_matrices=False)
            q = _polar_coisometry(x)
            assert np.max(np.abs(q @ q.conj().T - np.eye(rank))) <= 1e-14
            assert np.max(np.abs(q - u @ vh)) <= 1e-13, (t, scale)


def test_backtrack_interpolates_within_its_clamp():
    # phi(t) = 1 - 2 t + c t^2 has its minimum at 1/c; the trial at t = 1 reads
    # phi = c - 1, rejected for c >= 2
    for c, want in ((2.0, 0.5), (3.0, 1 / 3), (8.0, 1 / 8), (40.0, 0.1)):
        assert _backtrack(1.0, 1.0, -2.0, c - 1.0) == pytest.approx(want, rel=1e-15)
    # a trial rejected within the 1e-15 slack, below the tangent line: halve
    assert _backtrack(1.0, 1.0, -1e-16, 1.0 - 5e-16) == 0.5


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_ef_search_lies_between_exact_two_qubit_value_and_gap_tolerance(state_seed, rank, seed):
    # off the isotropic line: the search is an upper estimate, so it may lie
    # below Wootters's value only by rounding, and one restart stays within
    # the gap tolerance lemma1-chain applies to its isotropic points
    rng = np.random.default_rng(state_seed)
    x = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    m = x @ x.conj().T
    m /= m.trace().real
    rho = DensityOperator((m + m.conj().T) / 2, BipartiteLabel(2, 2))
    exact = wootters_formation(rho.matrix)
    value = ef_numeric_search(rho, budget=400, seed=seed).value
    assert exact - EXACT_TOL <= value <= exact + EF_GAP_TOL, (value - exact, rank)


def test_ef_estimate_within_gap_tolerance_of_exact_two_qubit_value():
    # one restart holds random two-qubit states of every rank to the
    # tolerance lemma1-chain applies to its isotropic points; seed 6 holds a
    # state that a conjugate-gradient search left 8.6e-6 above it
    rng = np.random.default_rng(6)
    for i in range(60):
        rank = i % 4 + 1
        x = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        m = x @ x.conj().T
        rho = DensityOperator((m + m.conj().T) / (2 * m.trace().real), BipartiteLabel(2, 2))
        ef = ef_numeric_search(rho, budget=400, seed=int(rng.integers(2**16)))
        gap = ef.value - wootters_formation(rho.matrix)
        assert gap <= EF_GAP_TOL, f"state {i}, rank {rank}: {gap:.3g} above exact ({ef})"


def _eager_objective_grad(g, a, da, db):
    """The batched EF objective with its gradient on every call, member
    masks always applied: the reference for the value-only line search."""
    cols = a @ g
    mats = cols.T.reshape(-1, da, db)
    red = mats @ mats.conj().swapaxes(-1, -2)
    p = red.trace(axis1=-2, axis2=-1).real
    live = p >= 1e-15
    mats, p = mats[live], p[live]
    lam, vec = np.linalg.eigh(red[live] / p[:, None, None])
    lam = np.maximum(lam, 1e-300)
    value = 0.0
    for term in (-p * np.sum(lam * np.log2(lam), axis=-1)).tolist():
        value += term
    w = (vec * -np.log2(lam)[:, None, :]) @ vec.conj().swapaxes(-1, -2)
    grad_c = np.zeros_like(cols)
    grad_c[:, live] = (w @ mats).reshape(len(p), -1).T
    return value, a.conj().T @ grad_c


def _eager_search(rho, budget, seed):
    """`ef_numeric_search` with a line search that computes the gradient of
    every candidate it tries."""
    label = rho.bipartite
    da, db = label.dim_a, label.dim_b
    lam, vecs = np.linalg.eigh(rho.matrix)
    keep = lam > 1e-12
    a = vecs[:, keep] * np.sqrt(lam[keep])
    rank, m_count = a.shape[1], max(da * da * db * db + 1, int(keep.sum()))
    restarts = max(1, budget // 400)
    rng = np.random.default_rng(seed)

    def tangent(g, x):
        sym = g @ x.conj().T
        return x - 0.5 * (sym + sym.conj().T) @ g

    def inner(x, y):
        return np.vdot(x, y).real

    best, evaluations, stale, restart_stop = None, 0, 0, "budget"
    for r in range(restarts):
        g0 = rng.standard_normal((rank, m_count)) + 1j * rng.standard_normal((rank, m_count))
        g = _polar_coisometry(g0)
        value, grad = _eager_objective_grad(g, a, da, db)
        evaluations += 1
        xi = direction = tangent(g, grad)
        pairs = []  # (s, y, 1/<s, y>), oldest first
        step, it = 1.0, 0
        while True:
            norm = float(np.linalg.norm(xi))
            if norm < EF_GRAD_FLOOR:
                stop = "gradient"
                break
            if it == 400:
                stop = "budget"
                break
            step = 1.0 if pairs else 2.0 * step
            slope = -2.0 * inner(xi, direction)
            while step > EF_STEP_FLOOR:
                cand = _polar_coisometry(g - step * direction)
                cand_value, cand_grad = _eager_objective_grad(cand, a, da, db)
                evaluations += 1
                if (cand_value < value - EF_DECREASE_MARGIN
                        and cand_value <= value + EF_ARMIJO_C1 * step * slope):
                    break
                curvature = cand_value - value - slope * step
                if -slope * step <= EF_DECREASE_MARGIN:
                    # the margin implies Armijo's condition from here on, and the
                    # quadratic stays above value - margin: stop as at the floor
                    step = 0.0
                elif curvature <= 0:
                    step *= 0.5
                else:
                    # the minimizer of the interpolating quadratic, within [0.1, 0.5] step
                    step = min(max(-slope * step * step / (2.0 * curvature), 0.1 * step), 0.5 * step)
            else:
                stop = "no-descent"
                break
            it += 1
            cand_xi = tangent(cand, cand_grad)
            s, y = cand - g, cand_xi - xi
            g, value, xi = cand, cand_value, cand_xi
            if inner(s, y) > 0:
                pairs = (pairs + [(s, y, 1.0 / inner(s, y))])[-EF_LBFGS_MEMORY:]
            direction = xi
            if pairs:
                # the two-loop recursion, H0 = <s, y>/<y, y> I of the newest pair
                q, alphas = xi.copy(), []
                for s, y, rho_ in reversed(pairs):
                    alphas.append(rho_ * inner(s, q))
                    q -= alphas[-1] * y
                q /= pairs[-1][2] * inner(pairs[-1][1], pairs[-1][1])
                for (s, y, rho_), alpha in zip(pairs, reversed(alphas)):
                    q += (alpha - rho_ * inner(y, q)) * s
                direction = tangent(g, q)
            if inner(xi, direction) <= 0:
                direction = xi
        stale = 0 if best is None or value < best.value - EF_RESTART_TOL else stale + 1
        if best is None or value < best.value:
            best = EFSearch(value, restarts, r, it, norm, 0, stop, restart_stop)
        if stale == EF_RESTART_PATIENCE:
            restarts, restart_stop = r + 1, "converged"
            break
    return dataclasses.replace(
        best, restarts=restarts, evaluations=evaluations, restart_stop=restart_stop
    )


def _line_search_cases():
    # the benchmark's EF calls: K = 2 at four fidelities from four seeds, one restart
    cases = [(isotropic(2, f), 400, s) for f in (0.5, 0.7, 0.9, 1.0) for s in (7, 8, 9, 10)]
    rng = np.random.default_rng(2024)
    for da, db in ((2, 2), (2, 3), (3, 3)):
        for rank in (2, da * db):
            x = rng.standard_normal((da * db, rank)) + 1j * rng.standard_normal((da * db, rank))
            m = x @ x.conj().T
            rho = DensityOperator((m + m.conj().T) / (2 * m.trace().real), BipartiteLabel(da, db))
            cases.append((rho, 800, int(rng.integers(2**16))))
    cases.append((random_density(BipartiteLabel(3, 3), rng), 400, 5))
    # the default budget, where the restart rule stops the search
    cases.append((isotropic(2, 0.7), 8000, 7))
    return cases


@pytest.mark.parametrize("case", range(len(_line_search_cases())))
def test_value_only_line_search_matches_eager_reference(case):
    rho, budget, seed = _line_search_cases()[case]
    assert ef_numeric_search(rho, budget=budget, seed=seed) == _eager_search(rho, budget, seed)


@given(st.integers(2, 1000), st.floats(0, 1, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_formation_bounds_bracket_exact_isotropic_formation(k, f):
    fb = formation_bounds_isotropic(k, f)
    ef = ef_isotropic(k, f)
    assert fb.lower - 1e-12 <= ef <= fb.upper + 1e-12, (fb, ef)


def test_exact_isotropic_formation_values():
    assert ef_isotropic(2, 0.9) == pytest.approx(wootters_formation(isotropic(2, 0.9).matrix), abs=1e-14)
    for k in (2, 3, 7):
        assert ef_isotropic(k, 1 / k) == 0.0
        assert ef_isotropic(k, 1.0) == pytest.approx(math.log2(k), abs=1e-14)
    for k in (3, 5, 16):
        # the linear piece meets R(F) at F = 4(K-1)/K^2
        edge = 4 * (k - 1) / k**2
        assert ef_isotropic(k, edge) == pytest.approx(ef_isotropic(k, edge + 1e-12), abs=1e-10)
    with pytest.raises(ValueError):
        ef_isotropic(1, 0.5)
    with pytest.raises(ValueError):
        ef_isotropic(3, 1.5)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_ef_search_is_an_upper_estimate_of_the_exact_value(k, ef_k4_f095):
    for f in (0.5, 0.8, 0.95):
        if (k, f) == (4, 0.95):
            ef = ef_k4_f095
        else:
            ef = ef_numeric_search(isotropic(k, f), budget=400, seed=1)
        gap = ef.value - ef_isotropic(k, f)
        assert gap >= -1e-9, f"K={k} F={f}: estimate {ef.value!r} is {-gap:.3g} below exact"
        # 7.8e-12: the worst gap the README states for this grid
        assert gap <= 7.8e-12, f"K={k} F={f}: estimate {ef.value!r} is {gap:.3g} above exact ({ef})"
