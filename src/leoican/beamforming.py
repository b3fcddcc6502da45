"""Inner-layer beamforming: DC-programming design plus MRT and ZF baselines.

All functions operate per satellite on the terminals it serves; satellites
use orthogonal frequencies, so their designs are independent. The engines
are the public API: ``beams_for_satellite(sat_id, ue_ids)`` takes the served
terminals in ascending order and returns ``(beams, trace)``, the beams
stacked one (n,) row per terminal in that order and the DC run's
:class:`DcTrace` (``None`` for MRT and ZF). Engines keep no state between
calls; ``selection.StructureEvaluator`` keeps each result.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .convex_kernel import (
    SurrogateCore,
    channel_basis,
    quadforms,
    solve_surrogate,
    surrogate_components,  # not called here; perfbench/tracing.py patches it by this name
    validate_psd_set,
)
from .metrics import rates_from_gains


class ZeroForcingRankError(ValueError):
    """Channel rows are rank deficient (near-collinear terminals)."""


class ZeroForcingSizeError(ValueError):
    """More served terminals than antennas; the pseudo-inverse cannot null."""


@dataclass
class DcTrace:
    """Per-iteration log of one DC beamforming run.

    ``rows`` holds (iteration, total surrogate value, true sum rate), both in
    bits/s; the true sum rate is evaluated on the lifted matrices before
    rank-1 extraction.
    """

    rows: list = field(default_factory=list)
    converged: bool = False
    solver_iterations: int = 0

    @property
    def iterations(self):
        return len(self.rows)


PSD_RTOL = 1e-8  # rank1_extract: eigenvalue floor, relative to the trace
ZF_COND_LIMIT = 1e12  # zf_satellite: largest Gram condition number
DC_DELTA_BPS = 0.5e6  # dc_beamforming: stop below this summed surrogate change (bit/s)
DC_MAX_OUTER = 50  # dc_beamforming: most outer iterations
SPG_TOL = 1e-6  # dc_beamforming: tolerance of each inner SPG solve
SPG_MAX_ITERS = 5000  # dc_beamforming: most iterations of each inner SPG solve


def true_rates_from_q(q, h, noise_power, bandwidth):
    """Exact per-terminal rates of a lifted point (f - g, not the surrogate).

    ``q`` stacks one matrix per terminal (k, n, n) and ``h`` the matching
    channels (k, n); when every Q_p = w_p w_p^H these are the beams' rates.
    """
    return rates_from_gains(quadforms(h, q), noise_power, bandwidth)


def rank1_extract(q):
    """Dominant-eigenpair beamformer sqrt(lambda_max) * b_max.

    The global phase is fixed by making the largest-magnitude entry real and
    positive. Rejects input that is not PSD within ``PSD_RTOL``.
    """
    q = np.asarray(q)
    scale = max(float(np.trace(q).real), 1.0)
    w, v = np.linalg.eigh(0.5 * (q + q.conj().T))
    if w[0] < -PSD_RTOL * scale:
        raise ValueError("matrix is not positive semidefinite")
    top = max(w[-1], 0.0)
    return math.sqrt(top) * _fix_phase(v[:, -1])


def _fix_phase(vector):
    """Rotate the global phase so the largest-magnitude entry is real, > 0."""
    pivot = vector[np.argmax(np.abs(vector))]
    if abs(pivot) > 0.0:
        vector = vector * (pivot.conj() / abs(pivot))
    return vector


def mrt_weight(h, power):
    """Matched-filter beam at full power."""
    norm = np.linalg.norm(h)
    if norm == 0.0:
        raise ValueError("cannot beamform on a zero channel")
    return math.sqrt(power) * h / norm


def zf_satellite(h, power):
    """Zero-forcing beams for one satellite, one row per channel row of ``h``.

    Scales the pseudo-inverse of the stacked channel rows (k, n) by a common
    factor so the total transmit power is power * k; cross terms vanish by
    construction. Individual beams may exceed the per-beam budget - that is
    the baseline's published normalization and is reported as such.
    """
    h_rows = h.conj()  # rows are h^H
    k, n = h_rows.shape
    if k > n:
        raise ZeroForcingSizeError(f"{k} terminals exceed {n} antennas")
    gram = h_rows @ h_rows.conj().T
    eigenvalues = np.linalg.eigvalsh(gram)
    if eigenvalues[0] <= 0.0 or eigenvalues[-1] / eigenvalues[0] > ZF_COND_LIMIT:
        raise ZeroForcingRankError("channel rows are rank deficient")
    rows = np.linalg.solve(gram, h_rows).conj()  # columns of H^H (H H^H)^-1
    beta = math.sqrt(power * k / float(np.linalg.norm(rows) ** 2))
    return beta * rows


def dc_beamforming(sat_id, ue_ids, channels, power, noise_power, bandwidth):
    """DC-programming beamforming for one satellite.

    Starts from the MRT beams and repeatedly maximizes the convex surrogate
    anchored at the previous iterate until the summed absolute change of the
    per-terminal surrogate values drops below ``DC_DELTA_BPS`` (or
    ``DC_MAX_OUTER`` iterations are done), each inner solve stopped by
    ``SPG_TOL`` and ``SPG_MAX_ITERS``; then extracts rank-1 beams from the
    dominant eigenpairs.

    The whole loop runs in the span of the satellite's channel vectors: the
    orthonormal basis B (n x r, see :func:`channel_basis`) is built once,
    the initial point is compressed into it, and every surrogate problem is
    posed on the r-dimensional channels B^H h_c and matrices X, which is
    exact because the rates only read h_c^H (B X B^H) h_c. Each outer
    iteration builds one surrogate core at its anchor and maximizes it with
    :func:`solve_surrogate`, whose iterates are feasible by construction.
    The core's received powers at the anchor give the previous iterate's
    true rates, so only the final iterate is evaluated on its own; it is
    also the one point checked by ``validate_psd_set``, once per run, before
    rank-1 extraction. Only the final beams are lifted,
    w = B b with b the rank-1 beam of X; the phase is then fixed on w by
    making its largest-magnitude entry real and positive, as
    :func:`rank1_extract` does.

    Returns (beams, :class:`DcTrace`), the beams stacked (k, n) in ascending
    terminal order. The true sum rate recorded in the trace is
    non-decreasing: each surrogate minorizes the rate and is tight at its
    anchor, and the solver never descends from the anchor.
    """
    ue_ids = sorted(ue_ids)
    if not ue_ids:
        raise ValueError("satellite serves no terminals")
    h = np.array([channels[(sat_id, c)].h for c in ue_ids])
    basis, h_red = channel_basis(h)
    # compressed row by row: one stacked matmul rounds differently in the
    # last bit, which the DC iterates amplify
    b = np.array([basis.conj().T @ mrt_weight(row, power) for row in h])
    anchor = b[:, :, None] * b.conj()[:, None, :]

    trace = DcTrace()
    core = SurrogateCore(h_red, anchor, noise_power, bandwidth)
    for outer in range(1, DC_MAX_OUTER + 1):
        solution = solve_surrogate(core, anchor, power, SPG_TOL, SPG_MAX_ITERS)
        trace.solver_iterations += solution.iterations
        change = float(np.abs(solution.per_ue - core.anchor_components()).sum())
        anchor = solution.q
        trace.converged = change < DC_DELTA_BPS
        if trace.converged or outer == DC_MAX_OUTER:
            rates = true_rates_from_q(anchor, h_red, noise_power, bandwidth)
        else:
            # the next iteration is anchored at this iterate: its core's
            # received powers give this iterate's true rates
            core = SurrogateCore(h_red, anchor, noise_power, bandwidth)
            rates = rates_from_gains(core.m, noise_power, bandwidth)
        trace.rows.append((outer, solution.objective, float(rates.sum())))
        if trace.converged:
            break

    validate_psd_set(anchor, power)
    return np.array([_fix_phase(basis @ rank1_extract(q)) for q in anchor]), trace


class MrtEngine:
    """Per-satellite matched-filter engine for the selection layer."""

    name = "mrt"

    def __init__(self, channels, power):
        self.channels = channels
        self.power = power

    def beams_for_satellite(self, sat_id, ue_ids):
        return np.array([mrt_weight(self.channels[(sat_id, c)].h, self.power)
                         for c in ue_ids]), None


class ZfEngine:
    """Per-satellite zero-forcing engine for the selection layer."""

    name = "zf"

    def __init__(self, channels, power):
        self.channels = channels
        self.power = power

    def beams_for_satellite(self, sat_id, ue_ids):
        h = np.array([self.channels[(sat_id, c)].h for c in ue_ids])
        return zf_satellite(h, self.power), None


class DcEngine:
    """Per-satellite DC-programming engine for the selection layer."""

    name = "dc"

    def __init__(self, channels, power, noise_power, bandwidth):
        self.channels = channels
        self.power = power
        self.noise_power = noise_power
        self.bandwidth = bandwidth

    def beams_for_satellite(self, sat_id, ue_ids):
        return dc_beamforming(sat_id, ue_ids, self.channels, self.power,
                              self.noise_power, self.bandwidth)


def make_engine(kind, channels, radio):
    """Engine factory keyed by the scheme's beamforming label."""
    if kind == "mrt":
        return MrtEngine(channels, radio.beam_power_w)
    if kind == "zf":
        return ZfEngine(channels, radio.beam_power_w)
    if kind == "dc":
        return DcEngine(channels, radio.beam_power_w, radio.noise_power_w,
                        radio.bandwidth_hz)
    raise ValueError(f"unknown beamforming engine {kind!r}")
