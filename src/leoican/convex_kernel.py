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

    ``channels`` stacks one complex channel vector per served terminal,
    shape (k, n); ``anchor`` stacks the matching Hermitian PSD matrices,
    shape (k, n, n) (the linearization point, which must be feasible).
    """

    channels: np.ndarray
    anchor: np.ndarray
    noise_power: float
    bandwidth: float
    power_cap: float


@dataclass
class SurrogateSolution:
    """Maximizer ``q`` (k, n, n) and its per-terminal values ``per_ue`` (k,)."""

    q: np.ndarray
    objective: float
    per_ue: np.ndarray
    residual: float
    iterations: int
    converged: bool


def _hermitize(m):
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def _water_fill(w, cap):
    """Project eigenvalue rows onto {lam >= 0, sum(lam) <= cap}.

    ``w`` holds rows in ascending order, as ``eigh`` returns them. A row whose
    clipped sum exceeds the cap is lowered by the water level tau and
    clipped: with csum_i the cumulative sums of the row from its largest
    entry, tau is the candidate (csum_i - cap) / i at i = count, where count
    is the number of entries above their candidate. The solver's rows hold
    a few entries, fewer than the numpy calls a vectorized search would
    take, so tau is found in float arithmetic. The clipped sums stay a numpy
    reduction: its summation order decides which rows are over the cap.
    """
    rows = w.reshape(-1, w.shape[-1])
    over = (np.maximum(rows, 0.0).sum(axis=1) > cap).tolist()
    shifted = []
    for row, row_over in zip(rows.tolist(), over):
        if row_over:
            csum = 0.0
            candidates = []
            count = 0
            for i, d in enumerate(reversed(row), 1):
                csum += d
                tau = (csum - cap) / i
                candidates.append(tau)
                if d - tau > 0.0:
                    count += 1
            # by count, not the last such i: at ties rounding can leave gaps
            tau = candidates[count - 1]
            row = [v - tau for v in row]
        shifted += row
    return np.maximum(np.array(shifted).reshape(w.shape), 0.0)


def project_capped_psd(x, cap):
    """Project a stack of Hermitian matrices onto {X >= 0, trace(X) <= cap}."""
    w, v = np.linalg.eigh(_hermitize(x))
    w = _water_fill(w, cap)
    return (v * w[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def validate_psd_set(q_stack, power_cap):
    """Check the PSD-variable invariants of a (k, n, n) stack.

    Raises ValueError naming the first offending row and its first failed
    check (Hermitian, then PSD, then trace cap).
    """
    scale = np.linalg.norm(q_stack, axis=(1, 2))
    deviation = np.linalg.norm(q_stack - np.conj(np.swapaxes(q_stack, 1, 2)), axis=(1, 2))
    failed = np.array([
        deviation > HERMITIAN_RTOL * scale,
        np.linalg.eigvalsh(_hermitize(q_stack))[:, 0] < EIGENVALUE_FLOOR,
        np.trace(q_stack, axis1=1, axis2=2).real > power_cap + TRACE_SLACK,
    ])
    if failed.any():
        row = int(np.argmax(failed.any(axis=0)))
        problem = ("is not Hermitian", "is not PSD",
                   "exceeds the trace cap")[int(np.argmax(failed[:, row]))]
        raise ValueError(f"matrix in row {row} {problem}")


def quadforms(h, q):
    """Received powers M[c, p] = h_c^H Q_p h_c, real for Hermitian Q.

    ``h`` stacks channels (k, n) and ``q`` matrices (k, n, n).
    """
    return np.einsum("ci,pij,cj->cp", h.conj(), q, h).real


class _SurrogateCore:
    """Vectorized objective/gradient over a stack of variable matrices,
    linearized at a stack of anchor matrices."""

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
        """Per-terminal surrogate values and total received powers at x."""
        m = quadforms(self.h, x)
        totals = m.sum(axis=1)
        interference = totals - np.diagonal(m)
        f = self.bandwidth * np.log2(self.noise + totals)
        g_bar = self.g_anchor + self.kappa * (interference - self.anchor_interference)
        return f - g_bar, totals

    def components(self, x):
        return self._terms(x)[0]

    def evaluate(self, x):
        """Surrogate value at x, its per-terminal components and the total
        received powers its gradient needs."""
        components, totals = self._terms(x)
        return float(components.sum()), components, totals

    def gradient(self, totals):
        """Gradient stack at the point whose total received powers are ``totals``."""
        weights = self.bandwidth / (LOG2 * (self.noise + totals))
        shared = np.einsum("c,cij->ij", weights, self.outers) - self.kappa_total
        return shared[None, :, :] + self.kappa[:, None, None] * self.outers


def _inner(a, b):
    return float(np.sum(a.conj() * b).real)


def _spg_maximize(core, x0, cap, tol, max_iters):
    """Monotone spectral projected-gradient ascent.

    The reported residual is ||X - P(X + alpha*grad)||_F / alpha with the
    current Barzilai-Borwein step alpha (the projected-gradient mapping).
    Returns (x, value, residual, iterations, converged, components), the
    last being the per-terminal surrogate values at the returned x, kept
    from the evaluation that accepted it.
    """
    x = project_capped_psd(x0, cap)
    value, components, totals = core.evaluate(x)
    grad = core.gradient(totals)
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
        new_value, new_components, new_totals = core.evaluate(new_x)
        while new_value < value + 1e-4 * lam * ascent:
            lam *= 0.5
            if lam < 1e-13:
                break
            new_x = x + lam * step
            new_value, new_components, new_totals = core.evaluate(new_x)
        if new_value < value:
            break  # no numerical ascent possible
        new_grad = core.gradient(new_totals)
        s = step if lam == 1.0 else new_x - x  # at lam == 1, new_x - x is z - x
        y = new_grad - grad
        curvature = -_inner(s, y)
        if curvature > 1e-300:
            alpha = min(max(_inner(s, s) / curvature, 1e-30), 1e30)
        else:
            alpha *= 10.0
        x, value, components, grad = new_x, new_value, new_components, new_grad
    return x, value, residual, iteration, converged, components


def _core(problem):
    return _SurrogateCore(problem.channels, problem.anchor, problem.noise_power,
                          problem.bandwidth)


def surrogate_components(problem, q):
    """Per-terminal surrogate values at a (k, n, n) point, in bits/s."""
    return _core(problem).components(q)


def surrogate_objective(problem, q):
    """Total surrogate value at a point, in bits/s."""
    return float(surrogate_components(problem, q).sum())


def surrogate_gradient(problem, q):
    """Analytic gradient of the surrogate, a (k, n, n) Hermitian stack.

    The directional derivative along Hermitian directions D is
    sum_c trace(grad_c @ D_c).real.
    """
    core = _core(problem)
    return core.gradient(core.evaluate(q)[2])


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
    h = problem.channels
    anchor = problem.anchor
    if h.ndim != 2 or anchor.shape != (h.shape[0], h.shape[1], h.shape[1]):
        raise ValueError("anchor must stack one n x n matrix per channel row")
    validate_psd_set(anchor, problem.power_cap)

    basis, h_red = channel_basis(h)
    full_rank = basis.shape[1] == h.shape[1]
    if not full_rank:
        anchor = np.einsum("ri,pij,js->prs", basis.conj().T, anchor, basis)
        h = h_red

    core = _SurrogateCore(h, anchor, problem.noise_power, problem.bandwidth)
    x, value, residual, iterations, converged, per_ue = _spg_maximize(
        core, anchor, problem.power_cap, tol, max_iters)
    if not full_rank:
        x = np.einsum("ir,prs,js->pij", basis, x, basis.conj())
    return SurrogateSolution(
        q=_hermitize(x),
        objective=value,
        per_ue=per_ue,
        residual=residual,
        iterations=iterations,
        converged=converged,
    )
