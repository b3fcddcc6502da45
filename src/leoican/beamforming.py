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
    SurrogateProblem,
    channel_basis,
    quadforms,
    solve_surrogate,
    surrogate_components,
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


DC_INIT_MODES = ("mrt", "random")


@dataclass(frozen=True)
class DcSettings:
    """Settings of the DC outer loop; rejected when constructed if invalid."""

    delta_bps: float = 0.5e6
    max_outer: int = 50
    solver_tol: float = 1e-6
    solver_max_iters: int = 5000
    init: str = "mrt"  # "mrt" or "random"
    init_seed: int = 0

    def __post_init__(self):
        if not self.max_outer >= 1:
            raise ValueError(f"dc.max_outer must be >= 1, got {self.max_outer!r}")
        if not self.solver_max_iters >= 1:
            raise ValueError(
                f"dc.solver_max_iters must be >= 1, got {self.solver_max_iters!r}")
        if not self.solver_tol > 0.0:
            raise ValueError(f"dc.solver_tol must be > 0, got {self.solver_tol!r}")
        if not self.delta_bps >= 0.0:
            raise ValueError(f"dc.delta_bps must be >= 0, got {self.delta_bps!r}")
        if self.init not in DC_INIT_MODES:
            raise ValueError(
                f"dc.init must be one of {DC_INIT_MODES}, got {self.init!r}")


def true_rates_from_q(q, h, noise_power, bandwidth):
    """Exact per-terminal rates of a lifted point (f - g, not the surrogate).

    ``q`` stacks one matrix per terminal (k, n, n) and ``h`` the matching
    channels (k, n); when every Q_p = w_p w_p^H these are the beams' rates.
    """
    return rates_from_gains(quadforms(h, q), noise_power, bandwidth)


def rank1_extract(q, psd_rtol=1e-8):
    """Dominant-eigenpair beamformer sqrt(lambda_max) * b_max.

    The global phase is fixed by making the largest-magnitude entry real and
    positive. Rejects input that is not PSD within tolerance.
    """
    q = np.asarray(q)
    scale = max(float(np.trace(q).real), 1.0)
    w, v = np.linalg.eigh(0.5 * (q + q.conj().T))
    if w[0] < -psd_rtol * scale:
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


def zf_satellite(h, power, cond_limit=1e12):
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
    if eigenvalues[0] <= 0.0 or eigenvalues[-1] / eigenvalues[0] > cond_limit:
        raise ZeroForcingRankError("channel rows are rank deficient")
    rows = np.linalg.solve(gram, h_rows).conj()  # columns of H^H (H H^H)^-1
    beta = math.sqrt(power * k / float(np.linalg.norm(rows) ** 2))
    return beta * rows


def _initial_beams(h, power, settings, sat_id):
    """Starting beams, one full-dimension row per channel row of ``h``."""
    if settings.init == "mrt":
        return np.array([mrt_weight(row, power) for row in h])
    rng = np.random.default_rng((settings.init_seed, sat_id))
    k, n = h.shape
    beams = []
    for _ in range(k):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        beams.append(math.sqrt(power) * u / np.linalg.norm(u))
    return np.array(beams)


def dc_beamforming(sat_id, ue_ids, channels, power, noise_power, bandwidth,
                   settings=DcSettings()):
    """DC-programming beamforming for one satellite.

    Repeatedly maximizes the convex surrogate anchored at the previous
    iterate until the summed absolute change of the per-terminal surrogate
    values drops below ``settings.delta_bps`` (or ``max_outer`` is hit),
    then extracts rank-1 beams from the dominant eigenpairs.

    The whole loop runs in the span of the satellite's channel vectors: the
    orthonormal basis B (n x r, see :func:`channel_basis`) is built once,
    the initial point is compressed into it, and every surrogate problem is
    posed on the r-dimensional channels B^H h_c and matrices X, which is
    exact because the rates only read h_c^H (B X B^H) h_c. Since those
    channels span the r-dimensional space, ``solve_surrogate`` solves them as
    posed. Only the final beams are lifted, w = B b with b the rank-1 beam
    of X; the phase is then fixed on w by making its largest-magnitude
    entry real and positive, as :func:`rank1_extract` does.

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
    b = np.array([basis.conj().T @ w for w in _initial_beams(h, power, settings, sat_id)])
    anchor = b[:, :, None] * b.conj()[:, None, :]

    trace = DcTrace()
    for _ in range(settings.max_outer):
        problem = SurrogateProblem(
            channels=h_red,
            anchor=anchor,
            noise_power=noise_power,
            bandwidth=bandwidth,
            power_cap=power,
        )
        anchor_components = surrogate_components(problem, anchor)
        solution = solve_surrogate(
            problem, tol=settings.solver_tol, max_iters=settings.solver_max_iters)
        trace.solver_iterations += solution.iterations
        true_rate = float(
            true_rates_from_q(solution.q, h_red, noise_power, bandwidth).sum())
        trace.rows.append((len(trace.rows) + 1, solution.objective, true_rate))
        change = float(np.abs(solution.per_ue - anchor_components).sum())
        anchor = solution.q
        if change < settings.delta_bps:
            trace.converged = True
            break

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

    def __init__(self, channels, power, noise_power, bandwidth, settings=DcSettings()):
        self.channels = channels
        self.power = power
        self.noise_power = noise_power
        self.bandwidth = bandwidth
        self.settings = settings

    def beams_for_satellite(self, sat_id, ue_ids):
        return dc_beamforming(sat_id, ue_ids, self.channels, self.power,
                              self.noise_power, self.bandwidth, self.settings)


def make_engine(kind, channels, radio, settings=DcSettings()):
    """Engine factory keyed by the scheme's beamforming label."""
    if kind == "mrt":
        return MrtEngine(channels, radio.beam_power_w)
    if kind == "zf":
        return ZfEngine(channels, radio.beam_power_w)
    if kind == "dc":
        return DcEngine(channels, radio.beam_power_w, radio.noise_power_w,
                        radio.bandwidth_hz, settings)
    raise ValueError(f"unknown beamforming engine {kind!r}")
