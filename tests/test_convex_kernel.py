import math

import numpy as np
import pytest

from helpers import random_feasible_set, random_hermitian, random_psd, random_unit
from leoican.convex_kernel import (
    SurrogateProblem,
    channel_basis,
    project_capped_psd,
    psd_project,
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


def test_psd_project_clips_diagonal():
    assert np.allclose(psd_project(np.diag([2.0, -1.0])), np.diag([2.0, 0.0]))


def test_psd_project_fixes_psd_input():
    rng = np.random.default_rng(0)
    q = random_psd(rng, 4, 3.0)
    assert np.allclose(psd_project(q), q, atol=1e-12)


def test_psd_project_rejects_non_hermitian():
    with pytest.raises(ValueError):
        psd_project(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_project_is_frobenius_nearest():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = random_hermitian(rng, 3)
        projected = psd_project(m)
        base = np.linalg.norm(m - projected)
        # probe PSD points around the projection; none may be closer
        for _ in range(50):
            candidate = psd_project(projected + 0.3 * random_hermitian(rng, 3))
            assert np.linalg.norm(m - candidate) >= base - 1e-12


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
    good = {0: random_psd(rng, 3, 1.0)}
    validate_psd_set(good, power_cap=2.0)
    with pytest.raises(ValueError):
        validate_psd_set({0: 3.0 * good[0]}, power_cap=2.0)
    with pytest.raises(ValueError):
        validate_psd_set({0: good[0] - 0.5 * np.eye(3)}, power_cap=2.0)


def test_solve_surrogate_scalar_hits_power_cap():
    h = {0: np.array([0.8 - 0.3j])}
    power = 1.7
    anchor = {0: np.array([[0.2 + 0.0j]])}
    problem = SurrogateProblem(h, anchor, noise_power=0.5, bandwidth=2.0, power_cap=power)
    solution = solve_surrogate(problem)
    assert solution.converged
    assert solution.q[0][0, 0].real == pytest.approx(power, rel=1e-6)


def test_solve_surrogate_single_user_matched_filter():
    rng = np.random.default_rng(4)
    for _ in range(10):
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        power = float(rng.uniform(0.5, 3.0))
        noise = float(rng.uniform(0.2, 2.0))
        u = random_unit(rng, 2)
        anchor = {0: 0.3 * power * np.outer(u, u.conj())}
        problem = SurrogateProblem({0: h}, anchor, noise, 1.0, power)
        solution = solve_surrogate(problem)
        # optimum is the matched-filter point; the anchored constant is log2(noise)
        expected = matched_filter_rate(1.0, power, h, noise)
        assert solution.objective == pytest.approx(expected, rel=1e-6)
        ideal = power * np.outer(h, h.conj()) / np.linalg.norm(h) ** 2
        assert np.linalg.norm(solution.q[0] - ideal) <= 1e-3 * power


def test_solve_surrogate_matches_grid_oracle():
    rng = np.random.default_rng(5)
    for _ in range(3):
        channels = {c: rng.standard_normal(2) + 1j * rng.standard_normal(2)
                    for c in range(2)}
        anchor = {}
        for c, h in channels.items():
            u = h / np.linalg.norm(h)
            anchor[c] = float(rng.uniform(0.3, 1.0)) * 2.0 * np.outer(u, u.conj())
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
        channels = {c: rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    for c in range(k)}
        anchor = random_feasible_set(rng, range(k), n, power)
        problem = SurrogateProblem(channels, anchor, 1.0, 1.0, power)
        solution = solve_surrogate(problem)
        validate_psd_set(solution.q, power)
        start = surrogate_objective(problem, anchor)
        assert solution.objective >= start - 1e-9
        assert solution.objective == pytest.approx(
            surrogate_objective(problem, solution.q), rel=1e-9)


def test_solve_surrogate_deterministic():
    rng = np.random.default_rng(7)
    channels = {c: rng.standard_normal(3) + 1j * rng.standard_normal(3) for c in range(2)}
    anchor = random_feasible_set(rng, range(2), 3, 2.0)
    problem = SurrogateProblem(channels, anchor, 1.0, 1.0, 2.0)
    a = solve_surrogate(problem)
    b = solve_surrogate(problem)
    assert a.objective == b.objective
    assert all(np.array_equal(a.q[c], b.q[c]) for c in a.q)


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
    anchor = random_feasible_set(rng, range(4), 3, power)
    embed, _ = np.linalg.qr(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))
    small = SurrogateProblem(dict(enumerate(h)), anchor, noise, bandwidth, power)
    large = SurrogateProblem(
        {c: embed @ h[c] for c in range(4)},
        {c: embed @ anchor[c] @ embed.conj().T for c in range(4)},
        noise, bandwidth, power)
    a = solve_surrogate(small)
    b = solve_surrogate(large)
    assert a.iterations == b.iterations
    assert a.objective == pytest.approx(b.objective, rel=1e-12)
    for c in range(4):
        assert a.per_ue[c] == pytest.approx(b.per_ue[c], rel=1e-12)
        assert a.q[c].shape == (3, 3) and b.q[c].shape == (8, 8)
        assert np.allclose(embed @ a.q[c] @ embed.conj().T, b.q[c], atol=1e-9 * power)


def test_solve_surrogate_rejects_infeasible_anchor():
    h = {0: np.array([1.0 + 0.0j, 0.0j])}
    bad = {0: np.diag([3.0 + 0.0j, 0.0j])}
    problem = SurrogateProblem(h, bad, 1.0, 1.0, power_cap=1.0)
    with pytest.raises(ValueError):
        solve_surrogate(problem)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        power = float(rng.uniform(0.5, 3.0))
        channels = {c: rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    for c in range(k)}
        anchor = random_feasible_set(rng, range(k), n, power)
        point = random_feasible_set(rng, range(k), n, power)
        problem = SurrogateProblem(channels, anchor, 1.0, 1.0, power)
        grad = surrogate_gradient(problem, point)
        directions = {c: random_hermitian(rng, n) for c in range(k)}
        analytic = sum(float(np.trace(grad[c] @ directions[c]).real) for c in range(k))
        numeric = finite_difference_directional(problem, point, directions, 1e-4 * power)
        assert analytic == pytest.approx(numeric, rel=1e-5, abs=1e-9)


def test_gradient_matches_finite_differences_at_physical_scale():
    rng = np.random.default_rng(9)
    power = 10 ** 2.6
    noise = 1.99e-13
    bandwidth = 50e6
    scale = 3.7e-8  # channel magnitude of a 600 km link
    channels = {c: scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
                for c in range(2)}
    anchor = random_feasible_set(rng, range(2), 4, power)
    point = random_feasible_set(rng, range(2), 4, power)
    problem = SurrogateProblem(channels, anchor, noise, bandwidth, power)
    grad = surrogate_gradient(problem, point)
    directions = {c: random_hermitian(rng, 4) for c in range(2)}
    analytic = sum(float(np.trace(grad[c] @ directions[c]).real) for c in range(2))
    numeric = finite_difference_directional(problem, point, directions, 1e-4 * power)
    assert analytic == pytest.approx(numeric, rel=1e-5)
