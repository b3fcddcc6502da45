"""The spectral projected-gradient solver against its all-numpy predecessor.

The solver evaluates the surrogate once per iterate (the gradient reuses the
received powers of the line search's accepted point) and water-fills the
eigenvalue rows in float arithmetic. The reference below is the code it
replaced: ``value_grad`` recomputes the terms at every accepted point, and
the projection water-fills with numpy over sorted copies of the rows. Both
must give the same iterates to the last bit.
"""

import math

import numpy as np
import pytest

from leoican.convex_kernel import (
    LOG2,
    SurrogateCore,
    _hermitize,
    _inner,
    _norm,
    _water_fill,
    quadforms,
    solve_surrogate,
)


def _reference_capped_simplex(w, cap):
    clipped = np.maximum(w, 0.0)
    over = clipped.sum(axis=-1) > cap
    if not np.any(over):
        return clipped
    r = w.shape[-1]
    d = np.sort(w, axis=-1)[..., ::-1]
    csum = np.cumsum(d, axis=-1)
    idx = np.arange(1, r + 1)
    tau_candidates = (csum - cap) / idx
    count = np.sum(d - tau_candidates > 0.0, axis=-1)
    tau = np.take_along_axis(tau_candidates, count[..., None] - 1, axis=-1)
    watered = np.maximum(w - tau, 0.0)
    return np.where(over[..., None], watered, clipped)


def _reference_project(x, cap):
    w, v = np.linalg.eigh(_hermitize(x))
    w = _reference_capped_simplex(w, cap)
    return (v * w[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


class _ReferenceCore:
    def __init__(self, h, anchor, noise_power, bandwidth):
        self.h = h
        self.noise = noise_power
        self.bandwidth = bandwidth
        m = quadforms(h, anchor)
        self.anchor_interference = m.sum(axis=1) - np.diagonal(m)
        self.kappa = bandwidth / (LOG2 * (noise_power + self.anchor_interference))
        self.g_anchor = bandwidth * np.log2(noise_power + self.anchor_interference)
        self.outers = np.einsum("ci,cj->cij", h, h.conj())
        self.kappa_total = np.einsum("c,cij->ij", self.kappa, self.outers)

    def _terms(self, x):
        m = quadforms(self.h, x)
        totals = m.sum(axis=1)
        interference = totals - np.diagonal(m)
        f = self.bandwidth * np.log2(self.noise + totals)
        g_bar = self.g_anchor + self.kappa * (interference - self.anchor_interference)
        return f - g_bar, totals

    def value(self, x):
        return float(self._terms(x)[0].sum())

    def value_grad(self, x):
        components, totals = self._terms(x)
        weights = self.bandwidth / (LOG2 * (self.noise + totals))
        shared = np.einsum("c,cij->ij", weights, self.outers) - self.kappa_total
        grad = shared[None, :, :] + self.kappa[:, None, None] * self.outers
        return float(components.sum()), grad


def _reference_inner(a, b):
    return float(np.sum(a.conj() * b).real)


def _reference_spg_maximize(core, x0, cap, tol, max_iters):
    x = _reference_project(x0, cap)
    value, grad = core.value_grad(x)
    grad_norm = np.linalg.norm(grad)
    alpha = cap / grad_norm if grad_norm > 0.0 else 1.0
    residual = 0.0
    converged = False
    iteration = 0
    for iteration in range(1, max_iters + 1):
        z = _reference_project(x + alpha * grad, cap)
        step = z - x
        residual = np.linalg.norm(step) / alpha
        if residual <= tol * (1.0 + abs(value)):
            converged = True
            break
        ascent = _reference_inner(grad, step)
        if ascent <= 0.0:
            converged = residual <= tol * (1.0 + abs(value))
            break
        lam = 1.0
        new_x = z
        new_value = core.value(new_x)
        while new_value < value + 1e-4 * lam * ascent:
            lam *= 0.5
            if lam < 1e-13:
                break
            new_x = x + lam * step
            new_value = core.value(new_x)
        if new_value < value:
            break
        new_value, new_grad = core.value_grad(new_x)
        s = new_x - x
        y = new_grad - grad
        curvature = -_reference_inner(s, y)
        if curvature > 1e-300:
            alpha = min(max(_reference_inner(s, s) / curvature, 1e-30), 1e30)
        else:
            alpha *= 10.0
        x, value, grad = new_x, new_value, new_grad
    return x, value, residual, iteration, converged


def _problem(k, n, seed, scale, fill, cap):
    rng = np.random.default_rng((k, n, seed))
    h = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) * scale
    u = h / np.linalg.norm(h, axis=1, keepdims=True)
    return h, fill * cap * (u[:, :, None] * u.conj()[:, None, :])


@pytest.mark.parametrize("regime", ["binding", "interior"])
@pytest.mark.parametrize("k", range(1, 8))
def test_spg_iterates_bit_identical_to_reference(k, regime):
    # binding: k x k problems (as the DC loop poses them) whose optimum uses
    # every terminal's whole trace; interior: k terminals on 2 dimensions
    # (1 for k = 1) with strong interference, where some optima stop below
    # the cap (every single-terminal optimum binds).
    cap = 2.0
    min_traces = []
    for seed in range(4):
        if regime == "binding":
            h, anchor = _problem(k, k, seed, 1.0, 0.5, cap)
        else:
            h, anchor = _problem(k, min(k, 2), seed, 10.0, 1.0, cap)
        new = solve_surrogate(SurrogateCore(h, anchor, 1.0, 1.0), anchor, cap, 1e-8, 300)
        ref_core = _ReferenceCore(h, anchor, 1.0, 1.0)
        ref = _reference_spg_maximize(ref_core, anchor, cap, 1e-8, 300)
        assert np.array_equal(new.q, _hermitize(ref[0]))
        assert (new.objective, new.residual, new.iterations, new.converged) == ref[1:]
        # the per-terminal values are kept from the loop, not re-evaluated
        assert np.array_equal(new.per_ue, ref_core._terms(ref[0])[0])
        min_traces.append(np.trace(new.q, axis1=1, axis2=2).real.min())
    if regime == "binding":
        assert np.allclose(min_traces, cap, rtol=1e-9)
    elif k >= 3:
        assert min(min_traces) < 0.99 * cap


def _ascending(rows):
    return np.sort(np.asarray(rows, dtype=float), axis=-1)


def _adversarial_cases():
    rng = np.random.default_rng(7)
    cases = [
        (_ascending([[1.0, 1.0, 1.0], [0.5, 2.0, 2.0], [3.0, 3.0, 3.0]]), 2.0),  # ties
        (_ascending([[-1.0, -2.0, 0.0], [-0.0, -5e-324, -1e300]]), 1.0),  # non-positive
        (_ascending([[0.25, 0.25, 0.5], [-1.0, 0.5, 0.5]]), 1.0),  # sum exactly at the cap
        (_ascending([[1e-300, 2e-300, 3e-300], [1e300, 2e300, 3e300]]), 1e300),
        (_ascending([[1e-300, 1.0, 1e300], [-1e300, 1e-300, 1e300]]), 1.0),
        (_ascending([[5e-324, 5e-324]]), 5e-324),
        (_ascending([[0.3], [2.0], [-1.0], [1.0]]), 1.0),  # single column
        (_ascending([2.0, 1.0, -1.0]), 1.0),  # one matrix: a single row
        (_ascending(rng.standard_normal((6, 4, 5))), 0.7),  # stack of stacks
    ]
    # a tie at the water level (cap = x - y puts tau at y): rounding leaves
    # the tied entries above their candidates at some indices and not at
    # others, so tau is the candidate at index count - 1, not at the last
    # index where an entry is above its candidate
    for x, y in ((99.7209935789211, 98.08353387762301), (59.43000301996968, 33.791122550713325),
                 (73.44835717887294, 41.46558493556708)):
        cases.append((_ascending([[y, y, x], [y, y, y]]), x - y))
    # caps at and one ulp around the clipped sum, on rows long enough (8 and
    # more) for numpy to sum them pairwise rather than left to right
    for width in (3, 7, 8, 9, 16, 33):
        rows = _ascending(rng.standard_normal((5, width)) * 10.0 ** rng.uniform(-3, 3, (5, width)))
        for total in np.maximum(rows, 0.0).sum(axis=-1):
            for cap in (np.nextafter(total, -math.inf), total, np.nextafter(total, math.inf)):
                cases.append((rows, float(cap)))
    # no row, every row and some rows over the cap, with 1x1 rows and ties
    stack = _ascending(rng.standard_normal((3, 4, 5)))
    stack_sums = np.maximum(stack, 0.0).sum(axis=-1)
    cases += [
        (_ascending([[0.5], [-1.0], [0.25]]), 1.0),
        (_ascending([[0.25, 0.25, 0.5], [-2.0, 0.3, 0.3], [-0.0, 0.0, 0.1]]), 1.0),
        (stack, float(stack_sums.max()) + 1.0),
        (_ascending([[3.0], [2.0], [1.5]]), 1.0),
        (_ascending([[1.0, 1.0, 1.0], [0.7, 0.7, -0.2], [2.0, 2.0, 2.0]]), 1.0),
        (stack, float(stack_sums.min()) / 2.0),
        (_ascending([[3.0], [0.5], [1.0], [-4.0]]), 1.0),
        (_ascending([[0.4, 0.4, 0.4], [0.1, 0.2, 0.3], [2.0, 2.0, -1.0]]), 1.0),
        (stack, float(np.median(stack_sums))),
    ]
    return cases


def test_water_fill_matches_reference_on_adversarial_rows():
    for w, cap in _adversarial_cases():
        got = _water_fill(w, cap)
        want = _reference_capped_simplex(w, cap)
        assert got.shape == want.shape
        assert np.array_equal(got, want), (w, cap)


@pytest.mark.parametrize("k", [1, 3, 7])
def test_gradient_bit_identical_to_reference_core(k):
    h, anchor = _problem(k, k, 5, 1.0, 0.5, 2.0)
    core = SurrogateCore(h, anchor, 1.0, 1.0)
    ref_core = _ReferenceCore(h, anchor, 1.0, 1.0)
    rng = np.random.default_rng(k)
    for x in (anchor, _reference_project(anchor + 0.3 * rng.standard_normal(anchor.shape), 2.0)):
        value, _, totals = core.evaluate(x)
        ref_value, ref_grad = ref_core.value_grad(x)
        assert value == ref_value
        assert np.array_equal(core.gradient(totals), ref_grad)


@pytest.mark.parametrize("view", ["contiguous", "swapped"])
def test_norm_and_inner_bit_identical_to_numpy_functions(view):
    rng = np.random.default_rng(3)
    for shape in ((1, 1, 1), (3, 4, 4), (7, 7, 7)):
        a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
        if view == "swapped":
            a, b = a.swapaxes(-1, -2), b.swapaxes(-1, -2)
            assert not a.flags.c_contiguous or shape == (1, 1, 1)
        assert _norm(a) == np.linalg.norm(a)
        assert _inner(a, b) == float(np.sum(a.conj() * b).real)
