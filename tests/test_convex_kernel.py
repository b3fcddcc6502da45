import math

import numpy as np
import pytest

from helpers import random_feasible_set, random_hermitian, random_psd, random_unit
from leoican import convex_kernel
from leoican.beamforming import dc_beamforming
from leoican.convex_kernel import (
    EIGENVALUE_FLOOR,
    HERMITIAN_RTOL,
    TRACE_SLACK,
    SurrogateCore,
    _hermitize,
    channel_basis,
    project_capped_psd,
    quadforms,
    solve_surrogate,
    validate_psd_set,
)
from leoican.oracles import finite_difference_directional, matched_filter_rate, surrogate_gap


def _random_channels(rng, k, n):
    return np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(k)])


def _feasible_stack(rng, k, n, power_cap):
    return np.array(list(random_feasible_set(rng, range(k), n, power_cap).values()))


def _hermitian_stack(rng, k, n):
    return np.array([random_hermitian(rng, n) for _ in range(k)])


def _solve(h, anchor, noise_power, bandwidth, power_cap):
    """Solve the surrogate as posed, from its anchor."""
    core = SurrogateCore(h, anchor, noise_power, bandwidth)
    return solve_surrogate(core, power_cap, 1e-6, 5000)


def _solve_in_span(h, anchor, noise_power, bandwidth, power_cap):
    """Compress the problem onto the channels' span, solve it there and lift
    the maximizer back, as the DC loop does: (solution, lifted q)."""
    basis, h_red = channel_basis(h)
    reduced = np.einsum("ri,pij,js->prs", basis.conj().T, anchor, basis)
    solution = _solve(h_red, reduced, noise_power, bandwidth, power_cap)
    return solution, np.einsum("ir,prs,js->pij", basis, solution.q, basis.conj())


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
    solution = _solve(h, anchor, noise_power=0.5, bandwidth=2.0, power_cap=power)
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
        # posed in the 1-dim span: in 2 dimensions the objective is flat
        # along the null direction of h
        solution, q = _solve_in_span(h[None], anchor, noise, 1.0, power)
        # optimum is the matched-filter point; the anchored constant is log2(noise)
        expected = matched_filter_rate(1.0, power, h, noise)
        assert solution.objective == pytest.approx(expected, rel=1e-6)
        ideal = power * np.outer(h, h.conj()) / np.linalg.norm(h) ** 2
        assert np.linalg.norm(q[0] - ideal) <= 1e-3 * power


def test_solve_surrogate_certified_by_duality_gap():
    # three two-terminal instances at the 2x2 size, then every k in 3..7
    # with n in k+1..8; the anchors are scaled matched-filter points, as the
    # DC loop starts from
    rng = np.random.default_rng(5)
    shapes = [(2, 2)] * 3 + [(k, n) for k in range(3, 8) for n in range(k + 1, 9)]
    for k, n in shapes:
        channels = _random_channels(rng, k, n)
        anchor = []
        for h in channels:
            u = h / np.linalg.norm(h)
            anchor.append(float(rng.uniform(0.3, 1.0)) * 2.0 * np.outer(u, u.conj()))
        anchor = np.array(anchor)
        solution = _solve(channels, anchor, 1.0, 1.0, 2.0)
        value, gap = surrogate_gap(channels, anchor, 1.0, 1.0, solution.q, 2.0)
        assert value == pytest.approx(solution.objective, rel=1e-12)
        assert gap <= 1e-6 * abs(solution.objective)
        # the certificate catches a solve stopped after one step
        core = SurrogateCore(channels, anchor, 1.0, 1.0)
        early = solve_surrogate(core, 2.0, 1e-6, 1)
        _, early_gap = surrogate_gap(channels, anchor, 1.0, 1.0, early.q, 2.0)
        assert early_gap > 1e-6 * abs(early.objective)


def _rank1_full_power(rng, k, n, power_cap):
    return np.array([power_cap * np.outer(u, u.conj())
                     for u in (random_unit(rng, n) for _ in range(k))])


def test_surrogate_gap_bounds_every_feasible_point():
    # F(Y) <= F(X) + gap(X) at unoptimized X: the anchor and random points
    rng = np.random.default_rng(14)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(2, 6))
        power = float(rng.uniform(0.5, 3.0))
        noise = float(rng.uniform(0.2, 2.0))
        bandwidth = float(rng.uniform(0.5, 2.0))
        channels = _random_channels(rng, k, n)
        anchor = _feasible_stack(rng, k, n, power)
        for x in (anchor, _feasible_stack(rng, k, n, power)):
            value, gap = surrogate_gap(channels, anchor, noise, bandwidth, x, power)
            assert gap >= 0.0
            for _ in range(20):
                for y in (_rank1_full_power(rng, k, n, power),
                          _feasible_stack(rng, k, n, power)):
                    other, _ = surrogate_gap(channels, anchor, noise, bandwidth, y, power)
                    assert other <= value + gap + 1e-12 * (1.0 + abs(value))


def test_surrogate_gap_single_terminal_reaches_matched_filter_optimum():
    # at k = 1 the surrogate is B*log2(1 + h^H X h / noise), whose maximum
    # is the matched-filter rate
    rng = np.random.default_rng(15)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        power = float(rng.uniform(0.5, 3.0))
        noise = float(rng.uniform(0.2, 2.0))
        bandwidth = float(rng.uniform(0.5, 2.0))
        h = _random_channels(rng, 1, n)
        anchor = _feasible_stack(rng, 1, n, power)
        optimum = matched_filter_rate(bandwidth, power, h[0], noise)
        for x in (anchor, _feasible_stack(rng, 1, n, power)):
            value, gap = surrogate_gap(h, anchor, noise, bandwidth, x, power)
            assert gap >= optimum - value - 1e-12 * optimum
        best = power * np.outer(h[0], h[0].conj())[None] / np.linalg.norm(h) ** 2
        value, gap = surrogate_gap(h, anchor, noise, bandwidth, best, power)
        assert value == pytest.approx(optimum, rel=1e-12)
        assert abs(gap) <= 1e-12 * optimum


def test_solve_surrogate_feasible_and_ascending():
    rng = np.random.default_rng(6)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 6))
        power = float(rng.uniform(0.5, 4.0))
        channels = _random_channels(rng, k, n)
        anchor = _feasible_stack(rng, k, n, power)
        core = SurrogateCore(channels, anchor, 1.0, 1.0)
        solution = solve_surrogate(core, power, 1e-6, 5000)
        validate_psd_set(solution.q, power)
        start = core.evaluate(anchor)[0]
        assert solution.objective >= start
        assert solution.objective == pytest.approx(core.evaluate(solution.q)[0], rel=1e-9)


def _count_projections(monkeypatch):
    calls = []
    project = convex_kernel.project_capped_psd

    def spy(x, cap):
        calls.append(x.shape)
        return project(x, cap)

    monkeypatch.setattr(convex_kernel, "project_capped_psd", spy)
    return calls


def test_solve_surrogate_projects_once_per_iteration(monkeypatch):
    # the solve starts at its core's anchor, as it is: one projection per
    # SPG iteration, and none at a zero budget
    calls = _count_projections(monkeypatch)
    rng = np.random.default_rng(16)
    for k, n in ((1, 2), (2, 3), (3, 4)):
        power = 2.0
        channels = _random_channels(rng, k, n)
        anchor = _feasible_stack(rng, k, n, power)
        core = SurrogateCore(channels, anchor, 1.0, 1.0)
        calls.clear()
        solution = solve_surrogate(core, power, 1e-6, 5000)
        assert solution.iterations >= 1
        assert len(calls) == solution.iterations
        calls.clear()
        start = solve_surrogate(core, power, 1e-6, 0)
        assert calls == []
        assert start.iterations == 0
        assert start.objective == float(core.anchor_components().sum())
        assert np.array_equal(start.per_ue, core.anchor_components())
        assert np.array_equal(start.q, _hermitize(anchor))


def test_dc_beamforming_projects_once_per_spg_iteration(monkeypatch):
    calls = _count_projections(monkeypatch)
    rng = np.random.default_rng(17)
    h = _random_channels(rng, 3, 4)
    _, trace = dc_beamforming(h, 2.0, 1.0, 1.0)
    assert trace.solver_iterations > trace.iterations >= 1
    assert len(calls) == trace.solver_iterations


def test_solve_surrogate_deterministic():
    rng = np.random.default_rng(7)
    channels = _random_channels(rng, 2, 3)
    anchor = _feasible_stack(rng, 2, 3, 2.0)
    a = _solve(channels, anchor, 1.0, 1.0, 2.0)
    b = _solve(channels, anchor, 1.0, 1.0, 2.0)
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
    # same problem embedded in 8 dimensions is compressed onto its 3-dim
    # span, which differs from the original coordinates by a rotation only,
    # solved there and lifted back
    rng = np.random.default_rng(11)
    power, noise, bandwidth = 2.0, 0.3, 1.5
    h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    anchor = _feasible_stack(rng, 4, 3, power)
    embed, _ = np.linalg.qr(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))
    a = _solve(h, anchor, noise, bandwidth, power)
    b, b_q = _solve_in_span(
        h @ embed.T, embed @ anchor @ embed.conj().T, noise, bandwidth, power)
    assert a.iterations == b.iterations
    assert a.objective == pytest.approx(b.objective, rel=1e-12)
    for c in range(4):
        assert a.per_ue[c] == pytest.approx(b.per_ue[c], rel=1e-12)
        assert a.q[c].shape == (3, 3) and b_q[c].shape == (8, 8)
        assert np.allclose(embed @ a.q[c] @ embed.conj().T, b_q[c], atol=1e-9 * power)


def test_finite_difference_oracle_error_falls_sixteenfold_per_halving():
    # the extrapolated difference is exact to O(eps^4): along a direction D
    # the function below is exp(t*s + c), so halving eps divides the error
    # by 16 to leading order
    rng = np.random.default_rng(18)
    a = _hermitian_stack(rng, 2, 3)
    point = _hermitian_stack(rng, 2, 3)
    directions = _hermitian_stack(rng, 2, 3)

    def value(q):
        return math.exp(float(np.einsum("cij,cji->", a, q).real))

    slope = float(np.einsum("cij,cji->", a, directions).real)
    exact = value(point) * slope
    errors = [abs(finite_difference_directional(value, point, directions, eps / abs(slope))
                  - exact) for eps in (0.4, 0.2, 0.1)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 < coarse / fine < 18.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        power = float(rng.uniform(0.5, 3.0))
        channels = _random_channels(rng, k, n)
        anchor = _feasible_stack(rng, k, n, power)
        point = _feasible_stack(rng, k, n, power)
        core = SurrogateCore(channels, anchor, 1.0, 1.0)
        grad = core.gradient(core.evaluate(point)[2])
        directions = _hermitian_stack(rng, k, n)
        analytic = sum(float(np.trace(grad[c] @ directions[c]).real) for c in range(k))
        numeric = finite_difference_directional(
            lambda q: core.evaluate(q)[0], point, directions, 1e-4 * power)
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
    core = SurrogateCore(channels, anchor, noise, bandwidth)
    grad = core.gradient(core.evaluate(point)[2])
    directions = _hermitian_stack(rng, 2, 4)
    analytic = sum(float(np.trace(grad[c] @ directions[c]).real) for c in range(2))
    numeric = finite_difference_directional(
        lambda q: core.evaluate(q)[0], point, directions, 1e-4 * power)
    assert analytic == pytest.approx(numeric, rel=1e-5)
