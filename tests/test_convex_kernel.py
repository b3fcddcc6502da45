import math

import numpy as np
import pytest

from helpers import random_feasible_set, random_hermitian, random_psd, random_unit
from leoican.convex_kernel import (
    EIGENVALUE_FLOOR,
    HERMITIAN_RTOL,
    TRACE_SLACK,
    SurrogateProblem,
    channel_basis,
    project_capped_psd,
    quadforms,
    solve_surrogate,
    surrogate_gradient,
    surrogate_objective,
    validate_psd_set,
)
from leoican.oracles import (
    finite_difference_directional,
    grid_surrogate_max,
    matched_filter_rate,
)


def _random_channels(rng, k, n):
    return np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(k)])


def _feasible_stack(rng, k, n, power_cap):
    return np.array(list(random_feasible_set(rng, range(k), n, power_cap).values()))


def _hermitian_stack(rng, k, n):
    return np.array([random_hermitian(rng, n) for _ in range(k)])


def test_project_capped_psd_properties():
    rng = np.random.default_rng(2)
    cap = 2.5
    for _ in range(30):
        m = random_hermitian(rng, 4)[None, :, :]
        projected = project_capped_psd(m, cap)[0]
        eigenvalues = np.linalg.eigvalsh(projected)
        assert eigenvalues[0] >= -1e-12
        assert np.trace(projected).real <= cap + 1e-9
        # idempotence
        again = project_capped_psd(projected[None, :, :], cap)[0]
        assert np.allclose(again, projected, atol=1e-10)
        # no sampled feasible point is closer
        base = np.linalg.norm(m[0] - projected)
        for _ in range(30):
            candidate = project_capped_psd(
                (projected + 0.4 * random_hermitian(rng, 4))[None, :, :], cap)[0]
            assert np.linalg.norm(m[0] - candidate) >= base - 1e-10


def test_validate_psd_set_rejects_violations():
    rng = np.random.default_rng(3)
    good = np.array([random_psd(rng, 3, 1.0), random_psd(rng, 3, 0.5)])
    validate_psd_set(good, power_cap=2.0)
    validate_psd_set(np.zeros((2, 3, 3)), power_cap=2.0)
    skew = good.copy()
    skew[1, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="row 1 is not Hermitian"):
        validate_psd_set(skew, power_cap=2.0)
    with pytest.raises(ValueError, match="row 0 exceeds the trace cap"):
        validate_psd_set(np.array([3.0 * good[0], good[1]]), power_cap=2.0)
    with pytest.raises(ValueError, match="row 1 is not PSD"):
        validate_psd_set(np.array([good[0], good[1] - 0.5 * np.eye(3)]), power_cap=2.0)


def _first_violation(q_stack, power_cap):
    """The per-matrix loop that validate_psd_set batches, same tolerances."""
    for row, q in enumerate(q_stack):
        # relative Frobenius distance from the Hermitian part; 0 for a zero matrix
        scale = np.linalg.norm(q)
        deviation = float(np.linalg.norm(q - q.conj().T) / scale) if scale != 0.0 else 0.0
        if deviation > HERMITIAN_RTOL:
            return f"row {row} is not Hermitian"
        if np.linalg.eigvalsh(0.5 * (q + q.conj().T))[0] < EIGENVALUE_FLOOR:
            return f"row {row} is not PSD"
        if np.trace(q).real > power_cap + TRACE_SLACK:
            return f"row {row} exceeds the trace cap"
    return None


def test_validate_psd_set_matches_per_matrix_loop():
    # perturbations straddle each tolerance by a factor of two either way
    rng = np.random.default_rng(13)
    cap = 2.0
    outcomes = set()
    for _ in range(300):
        k = int(rng.integers(1, 5))
        stack = np.array([random_psd(rng, 3, rng.uniform(0.2, 0.9) * cap) for _ in range(k)])
        for row in rng.choice(k, size=int(rng.integers(0, k + 1)), replace=False):
            kind = int(rng.integers(3))
            factor = float(rng.choice([0.5, 2.0]))
            if kind == 0:
                skew = np.zeros((3, 3), dtype=complex)  # Q - Q^H gets two such entries
                skew[0, 1] = factor * HERMITIAN_RTOL * np.linalg.norm(stack[row]) / math.sqrt(2.0)
                stack[row] = stack[row] + skew
            elif kind == 1:
                w, v = np.linalg.eigh(stack[row])
                w[0] = -factor * abs(EIGENVALUE_FLOOR)
                stack[row] = (v * w) @ v.conj().T
            else:
                trace = np.trace(stack[row]).real
                stack[row] = stack[row] * ((cap + factor * TRACE_SLACK) / trace)
        expected = _first_violation(stack, cap)
        outcomes.add(expected is None)
        if expected is None:
            validate_psd_set(stack, cap)
        else:
            with pytest.raises(ValueError, match=f"matrix in {expected}$"):
                validate_psd_set(stack, cap)
    assert outcomes == {True, False}


def test_quadforms_match_per_pair_loop():
    rng = np.random.default_rng(12)
    h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    q = np.array([random_psd(rng, 4, 1.0) for _ in range(3)])
    m = quadforms(h, q)
    assert m.dtype == np.float64
    for c in range(3):
        for p in range(3):
            assert m[c, p] == pytest.approx(np.vdot(h[c], q[p] @ h[c]).real, rel=1e-12)


def test_solve_surrogate_scalar_hits_power_cap():
    h = np.array([[0.8 - 0.3j]])
    power = 1.7
    anchor = np.array([[[0.2 + 0.0j]]])
    problem = SurrogateProblem(h, anchor, noise_power=0.5, bandwidth=2.0, power_cap=power)
    solution = solve_surrogate(problem)
    assert solution.converged
    assert solution.q[0, 0, 0].real == pytest.approx(power, rel=1e-6)


def test_solve_surrogate_single_user_matched_filter():
    rng = np.random.default_rng(4)
    for _ in range(10):
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        power = float(rng.uniform(0.5, 3.0))
        noise = float(rng.uniform(0.2, 2.0))
        u = random_unit(rng, 2)
        anchor = 0.3 * power * np.outer(u, u.conj())[None]
        problem = SurrogateProblem(h[None], anchor, noise, 1.0, power)
        solution = solve_surrogate(problem)
        # optimum is the matched-filter point; the anchored constant is log2(noise)
        expected = matched_filter_rate(1.0, power, h, noise)
        assert solution.objective == pytest.approx(expected, rel=1e-6)
        ideal = power * np.outer(h, h.conj()) / np.linalg.norm(h) ** 2
        assert np.linalg.norm(solution.q[0] - ideal) <= 1e-3 * power


def test_solve_surrogate_matches_grid_oracle():
    rng = np.random.default_rng(5)
    for _ in range(3):
        channels = _random_channels(rng, 2, 2)
        anchor = []
        for h in channels:
            u = h / np.linalg.norm(h)
            anchor.append(float(rng.uniform(0.3, 1.0)) * 2.0 * np.outer(u, u.conj()))
        anchor = np.array(anchor)
        problem = SurrogateProblem(channels, anchor, 1.0, 1.0, 2.0)
        solution = solve_surrogate(problem)
        oracle, _ = grid_surrogate_max(channels, anchor, 1.0, 1.0, 2.0)
        assert solution.objective == pytest.approx(oracle, rel=1e-4)


def test_solve_surrogate_feasible_and_ascending():
    rng = np.random.default_rng(6)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 6))
        power = float(rng.uniform(0.5, 4.0))
        channels = _random_channels(rng, k, n)
        anchor = _feasible_stack(rng, k, n, power)
        problem = SurrogateProblem(channels, anchor, 1.0, 1.0, power)
        solution = solve_surrogate(problem)
        validate_psd_set(solution.q, power)
        start = surrogate_objective(problem, anchor)
        assert solution.objective >= start - 1e-9
        assert solution.objective == pytest.approx(
            surrogate_objective(problem, solution.q), rel=1e-9)


def test_solve_surrogate_deterministic():
    rng = np.random.default_rng(7)
    channels = _random_channels(rng, 2, 3)
    anchor = _feasible_stack(rng, 2, 3, 2.0)
    problem = SurrogateProblem(channels, anchor, 1.0, 1.0, 2.0)
    a = solve_surrogate(problem)
    b = solve_surrogate(problem)
    assert a.objective == b.objective
    assert np.array_equal(a.q, b.q)


def test_channel_basis_is_orthonormal_and_preserves_quadratic_forms():
    rng = np.random.default_rng(10)
    h = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    h[2] = 0.5j * h[0] - 2.0 * h[1]  # rank 2
    basis, h_red = channel_basis(h)
    assert basis.shape == (6, 2)
    assert np.allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)
    x = random_psd(rng, 2, 1.0)
    lifted = basis @ x @ basis.conj().T
    for c in range(3):
        assert np.vdot(h[c], lifted @ h[c]).real == pytest.approx(
            np.vdot(h_red[c], x @ h_red[c]).real, rel=1e-12)


def test_solve_surrogate_full_rank_matches_embedded_problem():
    # channels spanning their whole (3-dim) space are solved as posed; the
    # same problem embedded in 8 dimensions is compressed back onto a 3-dim
    # span, which differs from the original coordinates by a rotation only
    rng = np.random.default_rng(11)
    power, noise, bandwidth = 2.0, 0.3, 1.5
    h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    anchor = _feasible_stack(rng, 4, 3, power)
    embed, _ = np.linalg.qr(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))
    small = SurrogateProblem(h, anchor, noise, bandwidth, power)
    large = SurrogateProblem(
        h @ embed.T, embed @ anchor @ embed.conj().T, noise, bandwidth, power)
    a = solve_surrogate(small)
    b = solve_surrogate(large)
    assert a.iterations == b.iterations
    assert a.objective == pytest.approx(b.objective, rel=1e-12)
    for c in range(4):
        assert a.per_ue[c] == pytest.approx(b.per_ue[c], rel=1e-12)
        assert a.q[c].shape == (3, 3) and b.q[c].shape == (8, 8)
        assert np.allclose(embed @ a.q[c] @ embed.conj().T, b.q[c], atol=1e-9 * power)


def test_solve_surrogate_rejects_infeasible_anchor():
    h = np.array([[1.0 + 0.0j, 0.0j]])
    bad = np.diag([3.0 + 0.0j, 0.0j])[None]
    problem = SurrogateProblem(h, bad, 1.0, 1.0, power_cap=1.0)
    with pytest.raises(ValueError, match="trace cap"):
        solve_surrogate(problem)
    with pytest.raises(ValueError, match="one n x n matrix per channel row"):
        solve_surrogate(SurrogateProblem(np.vstack([h, h]), 0.5 * bad, 1.0, 1.0, 1.0))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        power = float(rng.uniform(0.5, 3.0))
        channels = _random_channels(rng, k, n)
        anchor = _feasible_stack(rng, k, n, power)
        point = _feasible_stack(rng, k, n, power)
        problem = SurrogateProblem(channels, anchor, 1.0, 1.0, power)
        grad = surrogate_gradient(problem, point)
        directions = _hermitian_stack(rng, k, n)
        analytic = sum(float(np.trace(grad[c] @ directions[c]).real) for c in range(k))
        numeric = finite_difference_directional(problem, point, directions, 1e-4 * power)
        assert analytic == pytest.approx(numeric, rel=1e-5, abs=1e-9)


def test_gradient_matches_finite_differences_at_physical_scale():
    rng = np.random.default_rng(9)
    power = 10 ** 2.6
    noise = 1.99e-13
    bandwidth = 50e6
    scale = 3.7e-8  # channel magnitude of a 600 km link
    channels = scale * _random_channels(rng, 2, 4)
    anchor = _feasible_stack(rng, 2, 4, power)
    point = _feasible_stack(rng, 2, 4, power)
    problem = SurrogateProblem(channels, anchor, noise, bandwidth, power)
    grad = surrogate_gradient(problem, point)
    directions = _hermitian_stack(rng, 2, 4)
    analytic = sum(float(np.trace(grad[c] @ directions[c]).real) for c in range(2))
    numeric = finite_difference_directional(problem, point, directions, 1e-4 * power)
    assert analytic == pytest.approx(numeric, rel=1e-5)
