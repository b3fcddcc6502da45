"""Concave maximization over products of trace-capped PSD cones.

The per-satellite convexified subproblem maximizes

    F(Q) = sum_c B*log2(noise + sum_c' h_c^H Q_c' h_c) - linear terms

over one Hermitian PSD matrix per served terminal, each with a trace cap.
The linear terms come from linearizing the interference part of the rate at
an anchor point, so F is smooth and concave.

The solver is a monotone spectral projected-gradient ascent (Barzilai-Borwein
step with an Armijo line search along the feasible segment). Because the
objective only reads the quadratic forms h^H Q h, nothing outside the span
of the channel vectors matters: :func:`channel_basis` gives an orthonormal
basis B of that span, and a problem posed on the compressed channels B^H h
and matrices B^H Q B has the same values, with B X B^H lifting a solution
back. :func:`solve_surrogate` compresses internally when the channels span
less than the whole space; callers that solve many problems on the same
channels (the DC outer loop) compress once and pose every problem in the
span, where the internal compression is skipped.
"""

import math
from dataclasses import dataclass

import numpy as np

LOG2 = math.log(2.0)

HERMITIAN_RTOL = 1e-10
EIGENVALUE_FLOOR = -1e-8
TRACE_SLACK = 1e-8


@dataclass(frozen=True)
class SurrogateProblem:
    """Data of one per-satellite subproblem.

    ``channels`` maps terminal id -> complex channel vector; ``anchor`` maps
    terminal id -> Hermitian PSD matrix (the linearization point, which must
    be feasible).
    """

    channels: dict
    anchor: dict
    noise_power: float
    bandwidth: float
    power_cap: float


@dataclass
class SurrogateSolution:
    q: dict
    objective: float
    per_ue: dict
    residual: float
    iterations: int
    converged: bool


def _hermitize(m):
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def hermitian_deviation(m):
    """Relative Frobenius distance of a matrix from its Hermitian part."""
    scale = np.linalg.norm(m)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(m - m.conj().T) / scale)


def psd_project(m, hermitian_rtol=1e-8):
    """Frobenius-nearest PSD matrix: clip negative eigenvalues to zero.

    Rejects input whose anti-Hermitian part exceeds ``hermitian_rtol``
    relative to the matrix norm.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("input must be a square matrix")
    if hermitian_deviation(m) > hermitian_rtol:
        raise ValueError("input is not Hermitian within tolerance")
    w, v = np.linalg.eigh(_hermitize(m))
    return (v * np.maximum(w, 0.0)) @ v.conj().T


def _capped_simplex(w, cap):
    """Project eigenvalue rows onto {lam >= 0, sum(lam) <= cap}."""
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


def project_capped_psd(x, cap):
    """Project a stack of Hermitian matrices onto {X >= 0, trace(X) <= cap}."""
    w, v = np.linalg.eigh(_hermitize(x))
    w = _capped_simplex(w, cap)
    return (v * w[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def validate_psd_set(q_by_ue, power_cap):
    """Check the PSD-variable invariants; raises ValueError on violation."""
    for ue, q in q_by_ue.items():
        if hermitian_deviation(q) > HERMITIAN_RTOL:
            raise ValueError(f"matrix for terminal {ue} is not Hermitian")
        eigenvalues = np.linalg.eigvalsh(_hermitize(q))
        if eigenvalues[0] < EIGENVALUE_FLOOR:
            raise ValueError(f"matrix for terminal {ue} is not PSD")
        if float(np.trace(q).real) > power_cap + TRACE_SLACK:
            raise ValueError(f"matrix for terminal {ue} exceeds the trace cap")


def _stack(mapping, ids):
    return np.array([mapping[i] for i in ids])


def _quadforms(h_stack, q_stack):
    """M[c, p] = h_c^H Q_p h_c, real for Hermitian Q."""
    return np.einsum("ci,pij,cj->cp", h_stack.conj(), q_stack, h_stack).real


def _anchor_terms(h_stack, anchor_stack, noise_power, bandwidth):
    m = _quadforms(h_stack, anchor_stack)
    interference = m.sum(axis=1) - np.diagonal(m)
    kappa = bandwidth / (LOG2 * (noise_power + interference))
    g_anchor = bandwidth * np.log2(noise_power + interference)
    return interference, kappa, g_anchor


class _SurrogateCore:
    """Vectorized objective/gradient over a stack of variable matrices."""

    def __init__(self, h_stack, noise_power, bandwidth, anchor_interference,
                 kappa, g_anchor):
        self.h = h_stack
        self.hc = h_stack.conj()
        self.noise = noise_power
        self.bandwidth = bandwidth
        self.kappa = kappa
        self.g_anchor = g_anchor
        self.anchor_interference = anchor_interference
        self.outers = np.einsum("ci,cj->cij", h_stack, h_stack.conj())
        self.kappa_total = np.einsum("c,cij->ij", kappa, self.outers)

    def components(self, x):
        m = np.einsum("ci,pij,cj->cp", self.hc, x, self.h).real
        totals = m.sum(axis=1)
        interference = totals - np.diagonal(m)
        f = self.bandwidth * np.log2(self.noise + totals)
        g_bar = self.g_anchor + self.kappa * (interference - self.anchor_interference)
        return f - g_bar

    def value(self, x):
        return float(self.components(x).sum())

    def value_grad(self, x):
        m = np.einsum("ci,pij,cj->cp", self.hc, x, self.h).real
        totals = m.sum(axis=1)
        interference = totals - np.diagonal(m)
        f = self.bandwidth * np.log2(self.noise + totals)
        g_bar = self.g_anchor + self.kappa * (interference - self.anchor_interference)
        value = float((f - g_bar).sum())
        weights = self.bandwidth / (LOG2 * (self.noise + totals))
        shared = np.einsum("c,cij->ij", weights, self.outers) - self.kappa_total
        grad = shared[None, :, :] + self.kappa[:, None, None] * self.outers
        return value, grad


def _inner(a, b):
    return float(np.sum(a.conj() * b).real)


def _spg_maximize(core, x0, cap, tol, max_iters):
    """Monotone spectral projected-gradient ascent.

    The reported residual is ||X - P(X + alpha*grad)||_F / alpha with the
    current Barzilai-Borwein step alpha (the projected-gradient mapping).
    """
    x = project_capped_psd(x0, cap)
    value, grad = core.value_grad(x)
    grad_norm = np.linalg.norm(grad)
    alpha = cap / grad_norm if grad_norm > 0.0 else 1.0
    residual = 0.0
    converged = False
    iteration = 0
    for iteration in range(1, max_iters + 1):
        z = project_capped_psd(x + alpha * grad, cap)
        step = z - x
        residual = np.linalg.norm(step) / alpha
        if residual <= tol * (1.0 + abs(value)):
            converged = True
            break
        ascent = _inner(grad, step)
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
            break  # no numerical ascent possible
        new_value, new_grad = core.value_grad(new_x)
        s = new_x - x
        y = new_grad - grad
        curvature = -_inner(s, y)
        if curvature > 1e-300:
            alpha = min(max(_inner(s, s) / curvature, 1e-30), 1e30)
        else:
            alpha *= 10.0
        x, value, grad = new_x, new_value, new_grad
    return x, value, residual, iteration, converged


def surrogate_components(problem, q_by_ue):
    """Per-terminal surrogate values at a point, in bits/s."""
    ids = sorted(problem.channels)
    h = _stack(problem.channels, ids)
    anchor = _stack(problem.anchor, ids)
    interference, kappa, g_anchor = _anchor_terms(
        h, anchor, problem.noise_power, problem.bandwidth)
    core = _SurrogateCore(h, problem.noise_power, problem.bandwidth,
                          interference, kappa, g_anchor)
    values = core.components(_stack(q_by_ue, ids))
    return {ue: float(v) for ue, v in zip(ids, values)}


def surrogate_objective(problem, q_by_ue):
    """Total surrogate value at a point, in bits/s."""
    return float(sum(surrogate_components(problem, q_by_ue).values()))


def surrogate_gradient(problem, q_by_ue):
    """Analytic gradient of the surrogate, one Hermitian matrix per terminal.

    The directional derivative along Hermitian directions D is
    sum_c trace(grad_c @ D_c).real.
    """
    ids = sorted(problem.channels)
    h = _stack(problem.channels, ids)
    anchor = _stack(problem.anchor, ids)
    interference, kappa, g_anchor = _anchor_terms(
        h, anchor, problem.noise_power, problem.bandwidth)
    core = _SurrogateCore(h, problem.noise_power, problem.bandwidth,
                          interference, kappa, g_anchor)
    _, grad = core.value_grad(_stack(q_by_ue, ids))
    return {ue: grad[i] for i, ue in enumerate(ids)}


def channel_basis(h):
    """Orthonormal basis of the span of the channel vectors.

    ``h`` stacks one channel vector per row, shape (k, n). Returns
    ``(basis, h_red)``: ``basis`` is (n, r) with orthonormal columns spanning
    the rows' span (numerical rank r >= 1, by a 1e-12 relative singular value
    cut), and ``h_red = h @ basis.conj()`` stacks the compressed channels
    B^H h_c, so that h_c^H (B X B^H) h_c = h_red_c^H X h_red_c.
    """
    _, singulars, vh = np.linalg.svd(h, full_matrices=False)
    if singulars[0] > 0.0:
        rank = max(1, int(np.sum(singulars > singulars[0] * 1e-12)))
    else:
        rank = 1
    basis = vh[:rank].T  # (n, rank); rows of vh span the channel row space
    return basis, h @ basis.conj()


def solve_surrogate(problem, tol=1e-6, max_iters=5000):
    """Maximize the surrogate over trace-capped PSD matrices.

    Starts from the (feasible) anchor and ascends monotonically, so the
    returned objective never falls below the anchor's. Deterministic given
    the problem data.

    When the channels span less than the whole space, the anchor is
    compressed onto their span (see :func:`channel_basis`), the ascent runs
    on r x r matrices and the result is lifted back. When they span the
    whole space (rank == n) the basis would only rotate it, so the problem
    is solved as posed; this is the case for every problem the DC loop
    poses in its compressed space.

    Returns a :class:`SurrogateSolution`; ``converged`` is False when the
    residual target was not reached within ``max_iters`` (the best feasible
    iterate is still returned).
    """
    ids = sorted(problem.channels)
    if sorted(problem.anchor) != ids:
        raise ValueError("anchor and channels must cover the same terminals")
    validate_psd_set(problem.anchor, problem.power_cap)

    h = _stack(problem.channels, ids)
    anchor = _stack(problem.anchor, ids)
    interference, kappa, g_anchor = _anchor_terms(
        h, anchor, problem.noise_power, problem.bandwidth)

    basis, h_red = channel_basis(h)
    full_rank = basis.shape[1] == h.shape[1]
    if not full_rank:
        anchor = np.einsum("ri,pij,js->prs", basis.conj().T, anchor, basis)
        h = h_red

    core = _SurrogateCore(h, problem.noise_power, problem.bandwidth,
                          interference, kappa, g_anchor)
    x, value, residual, iterations, converged = _spg_maximize(
        core, anchor, problem.power_cap, tol, max_iters)

    per_ue_values = core.components(x)
    if not full_rank:
        x = np.einsum("ir,prs,js->pij", basis, x, basis.conj())
    x = _hermitize(x)
    return SurrogateSolution(
        q={ue: x[i] for i, ue in enumerate(ids)},
        objective=value,
        per_ue={ue: float(v) for ue, v in zip(ids, per_ue_values)},
        residual=residual,
        iterations=iterations,
        converged=converged,
    )
