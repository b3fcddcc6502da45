"""Inner-layer beamforming: DC-programming design plus MRT and ZF baselines.

All functions operate per satellite on the terminals it serves; satellites
use orthogonal frequencies, so their designs are independent. Beamformer
sets are plain dicts mapping (satellite, terminal) -> complex weight vector.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .convex_kernel import (
    LOG2,
    SurrogateProblem,
    channel_basis,
    solve_surrogate,
    surrogate_components,
)


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

    satellite: int
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


def dc_split_rate(q_by_ue, h_by_ue, noise_power, bandwidth):
    """Split each terminal's rate into its two concave halves.

    For terminal c, ``f`` is B*log2(noise + total received power at c) and
    ``g`` is the same expression without c's own beam; f - g is the rate
    whenever every matrix is the outer product of a beamforming vector.
    """
    f = {}
    g = {}
    for c, h in h_by_ue.items():
        quads = {cp: float(np.real(np.vdot(h, q_by_ue[cp] @ h))) for cp in q_by_ue}
        total = sum(quads.values())
        interference = total - quads[c]
        f[c] = bandwidth * math.log2(noise_power + total)
        g[c] = bandwidth * math.log2(noise_power + interference)
    return f, g


def taylor_g_bar(q_new, q_anchor, h, ue, noise_power, bandwidth):
    """First-order expansion of the interference log for one terminal.

    Linearizes g at the anchor set: the value at the anchor plus the linear
    interference increment scaled by B / (ln2 * (anchor interference + noise)).
    Since g is concave, this always overestimates g(q_new).
    """
    anchor_interference = sum(
        float(np.real(np.vdot(h, q_anchor[cp] @ h))) for cp in q_anchor if cp != ue
    )
    new_interference = sum(
        float(np.real(np.vdot(h, q_new[cp] @ h))) for cp in q_new if cp != ue
    )
    base = bandwidth * math.log2(noise_power + anchor_interference)
    slope = bandwidth / (LOG2 * (noise_power + anchor_interference))
    return base + slope * (new_interference - anchor_interference)


def true_rates_from_q(q_by_ue, h_by_ue, noise_power, bandwidth):
    """Exact per-terminal rates of a lifted point (f - g, not the surrogate)."""
    f, g = dc_split_rate(q_by_ue, h_by_ue, noise_power, bandwidth)
    return {c: f[c] - g[c] for c in f}


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


def mrt_beamforming(channels, assignment, power):
    """Matched-filter beams for every active link."""
    beams = {}
    for s, c in assignment.active_links():
        beams[(s, c)] = mrt_weight(channels[(s, c)].h, power)
    return beams


def zf_satellite(h_by_ue, power, cond_limit=1e12):
    """Zero-forcing beams for one satellite.

    Scales the pseudo-inverse of the stacked channel rows by a common factor
    so the total transmit power is power * n_terminals; cross terms vanish by
    construction. Individual beams may exceed the per-beam budget - that is
    the baseline's published normalization and is reported as such.
    """
    ids = sorted(h_by_ue)
    h_rows = np.array([h_by_ue[c].conj() for c in ids])  # rows are h^H
    k, n = h_rows.shape
    if k > n:
        raise ZeroForcingSizeError(f"{k} terminals exceed {n} antennas")
    gram = h_rows @ h_rows.conj().T
    eigenvalues = np.linalg.eigvalsh(gram)
    if eigenvalues[0] <= 0.0 or eigenvalues[-1] / eigenvalues[0] > cond_limit:
        raise ZeroForcingRankError("channel rows are rank deficient")
    pseudo = np.linalg.solve(gram, h_rows).conj().T  # H^H (H H^H)^-1
    beta = math.sqrt(power * k / float(np.linalg.norm(pseudo) ** 2))
    columns = beta * pseudo
    return {c: columns[:, i].copy() for i, c in enumerate(ids)}


def zf_beamforming(channels, assignment, power):
    """Zero-forcing beams for every satellite with served terminals."""
    beams = {}
    for s in range(assignment.n_satellites):
        ue_ids = assignment.ues_of(s)
        if not ue_ids:
            continue
        h_by_ue = {c: channels[(s, c)].h for c in ue_ids}
        for c, w in zf_satellite(h_by_ue, power).items():
            beams[(s, c)] = w
    return beams


def _initial_beams(h_by_ue, power, settings, sat_id):
    """Starting beams, one full-dimension vector per terminal."""
    if settings.init == "mrt":
        return {c: mrt_weight(h, power) for c, h in h_by_ue.items()}
    rng = np.random.default_rng((settings.init_seed, sat_id))
    beams = {}
    for c in sorted(h_by_ue):
        n = h_by_ue[c].shape[0]
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        beams[c] = math.sqrt(power) * u / np.linalg.norm(u)
    return beams


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

    Returns (beams dict, :class:`DcTrace`). The true sum rate recorded in the
    trace is non-decreasing: each surrogate minorizes the rate and is tight
    at its anchor, and the solver never descends from the anchor.
    """
    ue_ids = sorted(ue_ids)
    if not ue_ids:
        raise ValueError("satellite serves no terminals")
    h_by_ue = {c: channels[(sat_id, c)].h for c in ue_ids}
    basis, h_red = channel_basis(np.array([h_by_ue[c] for c in ue_ids]))
    h_red_by_ue = dict(zip(ue_ids, h_red))
    anchor = {}
    for c, w in _initial_beams(h_by_ue, power, settings, sat_id).items():
        b = basis.conj().T @ w
        anchor[c] = np.outer(b, b.conj())

    trace = DcTrace(satellite=sat_id)
    for _ in range(settings.max_outer):
        problem = SurrogateProblem(
            channels=h_red_by_ue,
            anchor=anchor,
            noise_power=noise_power,
            bandwidth=bandwidth,
            power_cap=power,
        )
        anchor_components = surrogate_components(problem, anchor)
        solution = solve_surrogate(
            problem, tol=settings.solver_tol, max_iters=settings.solver_max_iters)
        trace.solver_iterations += solution.iterations
        true_rate = sum(
            true_rates_from_q(solution.q, h_red_by_ue, noise_power, bandwidth).values())
        trace.rows.append((len(trace.rows) + 1, solution.objective, true_rate))
        change = sum(
            abs(solution.per_ue[c] - anchor_components[c]) for c in ue_ids)
        anchor = solution.q
        if change < settings.delta_bps:
            trace.converged = True
            break

    beams = {c: _fix_phase(basis @ rank1_extract(anchor[c])) for c in ue_ids}
    return beams, trace


def dc_beamforming_all(channels, assignment, power, noise_power, bandwidth,
                       settings=DcSettings()):
    """Run DC beamforming on every satellite with served terminals."""
    beams = {}
    traces = {}
    for s in range(assignment.n_satellites):
        ue_ids = assignment.ues_of(s)
        if not ue_ids:
            continue
        sat_beams, trace = dc_beamforming(
            s, ue_ids, channels, power, noise_power, bandwidth, settings)
        traces[s] = trace
        for c, w in sat_beams.items():
            beams[(s, c)] = w
    return beams, traces


class MrtEngine:
    """Per-satellite matched-filter engine for the selection layer."""

    name = "mrt"

    def __init__(self, channels, power):
        self.channels = channels
        self.power = power

    def beams_for_satellite(self, sat_id, ue_ids):
        return {c: mrt_weight(self.channels[(sat_id, c)].h, self.power) for c in ue_ids}


class ZfEngine:
    """Per-satellite zero-forcing engine for the selection layer."""

    name = "zf"

    def __init__(self, channels, power):
        self.channels = channels
        self.power = power

    def beams_for_satellite(self, sat_id, ue_ids):
        h_by_ue = {c: self.channels[(sat_id, c)].h for c in ue_ids}
        return zf_satellite(h_by_ue, self.power)


class DcEngine:
    """Per-satellite DC-programming engine; keeps traces for reporting."""

    name = "dc"

    def __init__(self, channels, power, noise_power, bandwidth, settings=DcSettings()):
        self.channels = channels
        self.power = power
        self.noise_power = noise_power
        self.bandwidth = bandwidth
        self.settings = settings
        self.traces = {}

    def beams_for_satellite(self, sat_id, ue_ids):
        beams, trace = dc_beamforming(
            sat_id, ue_ids, self.channels, self.power, self.noise_power,
            self.bandwidth, self.settings)
        self.traces[(sat_id, frozenset(ue_ids))] = trace
        return beams


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
