"""Concave maximization over products of trace-capped PSD cones.

The per-satellite convexified subproblem maximizes

    F(Q) = sum_c B*log2(noise + sum_c' h_c^H Q_c' h_c) - linear terms

over one Hermitian PSD matrix per served terminal, each with a trace cap.
The linear terms come from linearizing the interference part of the rate at
an anchor point, so F is smooth and concave. A :class:`SurrogateCore` holds
one such surrogate, and :func:`solve_surrogate` maximizes it.

The solver is a monotone spectral projected-gradient ascent (Barzilai-Borwein
step with an Armijo line search along the feasible segment). Because the
objective only reads the quadratic forms h^H Q h, nothing outside the span
of the channel vectors matters: :func:`channel_basis` gives an orthonormal
basis B of that span, and a problem posed on the compressed channels B^H h
and matrices B^H Q B has the same values, with B X B^H lifting a solution
back. Compressing and lifting are the caller's job; the DC outer loop
compresses once per run and lifts only its final beams.
"""

import math
from dataclasses import dataclass

import numpy as np

LOG2 = math.log(2.0)

HERMITIAN_RTOL = 1e-10
EIGENVALUE_FLOOR = -1e-8
TRACE_SLACK = 1e-8


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
    return 0.5 * (m + m.swapaxes(-1, -2).conj())


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
    return (v * w[..., None, :]) @ v.swapaxes(-1, -2).conj()


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


class SurrogateCore:
    """Vectorized objective/gradient over a stack of variable matrices,
    linearized at a stack of anchor matrices.

    ``m`` keeps the anchor's received powers ``quadforms(h, anchor)``.
    """

    def __init__(self, h, anchor, noise_power, bandwidth):
        self.h = h
        self.noise = noise_power
        self.bandwidth = bandwidth
        self.m = m = quadforms(h, anchor)
        self.anchor_interference = m.sum(axis=1) - m.diagonal()
        self.kappa = bandwidth / (LOG2 * (noise_power + self.anchor_interference))
        self.g_anchor = bandwidth * np.log2(noise_power + self.anchor_interference)
        self.outers = np.einsum("ci,cj->cij", h, h.conj())
        self.kappa_total = np.einsum("c,cij->ij", self.kappa, self.outers)

    def _terms_from_gains(self, m):
        totals = m.sum(axis=1)
        interference = totals - m.diagonal()
        f = self.bandwidth * np.log2(self.noise + totals)
        g_bar = self.g_anchor + self.kappa * (interference - self.anchor_interference)
        return f - g_bar, totals

    def anchor_components(self):
        """Per-terminal surrogate values at the anchor, from its received
        powers ``m``; equal to ``evaluate(anchor)[1]`` bit for bit."""
        return self._terms_from_gains(self.m)[0]

    def evaluate(self, x):
        """Surrogate value at x, its per-terminal components and the total
        received powers its gradient needs."""
        components, totals = self._terms_from_gains(quadforms(self.h, x))
        return float(components.sum()), components, totals

    def gradient(self, totals):
        """Gradient stack at the point whose total received powers are
        ``totals``; the derivative along Hermitian directions D is
        sum_c trace(grad_c @ D_c).real."""
        weights = self.bandwidth / (LOG2 * (self.noise + totals))
        shared = np.einsum("c,cij->ij", weights, self.outers) - self.kappa_total
        return shared[None, :, :] + self.kappa[:, None, None] * self.outers


def _inner(a, b):
    return float((a.conj() * b).sum().real)


def _norm(x):
    """Frobenius norm of a complex array, as ``np.linalg.norm(x)`` computes
    it, bit for bit, without its dispatch."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return np.sqrt(re.dot(re) + im.dot(im))


def solve_surrogate(core, x0, cap, tol, max_iters):
    """Maximize the core's surrogate over trace-capped PSD matrices by a
    monotone spectral projected-gradient ascent from ``x0``, the core's anchor.

    ``x0`` is first projected onto the capped-PSD set, so the returned point
    is feasible, and the ascent never returns a value below that start's.
    Deterministic given the data. The reported residual is
    ||X - P(X + alpha*grad)||_F / alpha with the current Barzilai-Borwein
    step alpha (the projected-gradient mapping).

    Returns a :class:`SurrogateSolution` whose ``per_ue`` are the
    per-terminal surrogate values at ``q``, kept from the evaluation that
    accepted it; ``converged`` is False when the residual target was not
    reached within ``max_iters`` (the best feasible iterate is still
    returned).

    The iterates are stacks of at most a few small matrices, so a numpy
    function wrapper (``np.sum``, ``np.linalg.norm``, ``np.diagonal``) costs
    about as much as its arithmetic. The loop and the code it calls use the
    ndarray methods, :func:`_inner` and :func:`_norm` instead: the same
    operations on the same operands in the same order, so every iterate is
    the one the wrappers give, bit for bit.
    """
    x = project_capped_psd(x0, cap)
    value, components, totals = core.evaluate(x)
    grad = core.gradient(totals)
    grad_norm = _norm(grad)
    alpha = cap / grad_norm if grad_norm > 0.0 else 1.0
    residual = 0.0
    converged = False
    iteration = 0
    for iteration in range(1, max_iters + 1):
        z = project_capped_psd(x + alpha * grad, cap)
        step = z - x
        residual = _norm(step) / alpha
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
    return SurrogateSolution(q=_hermitize(x), objective=value, per_ue=components,
                             residual=residual, iterations=iteration, converged=converged)


def surrogate_components(core, x):
    """Per-terminal surrogate values at a (k, n, n) point, in bits/s."""
    return core.evaluate(x)[1]


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

