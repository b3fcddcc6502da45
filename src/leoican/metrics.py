"""Performance metrics: the rate kernel and per-terminal GDOP.

Rates follow the single-satellite interference model: satellites transmit on
orthogonal frequencies, so only beams of the same satellite interfere.
GDOP uses a 3-column geometry matrix (position only, no clock column): the
receiver clock error is treated as fixed.
"""

import math

import numpy as np

SINGULAR_EIGENVALUE_THRESHOLD = 1e-10


def rates_from_gains(gains, noise_power, bandwidth):
    """Shannon rates of one satellite's beams from its received powers.

    ``gains[c, p]`` is the power terminal c receives from beam p (the beam
    serving terminal p); the diagonal is each terminal's own signal and the
    rest of its row is interference. Returns the rates in bits/s, shape (k,).
    """
    totals = gains.sum(axis=1)
    own = np.diagonal(gains)
    return bandwidth * np.log2(1.0 + own / (totals - own + noise_power))


def satellite_rates(h, w, noise_power, bandwidth):
    """Rates of one satellite's beams, in bits/s, shape (k,).

    ``h`` stacks the channels of the terminals it serves (k, n) and ``w``
    their beams, row for row (k, n).
    """
    gains = np.abs(h.conj() @ w.T) ** 2  # [c, beam]
    return rates_from_gains(gains, noise_power, bandwidth)


def per_ue_rates(results, n_ues):
    """Total rate of each terminal, summed over its serving satellites.

    ``results`` maps each serving satellite, in ascending order, to its
    record (``selection.SatelliteResult``); the rates are read, not
    recomputed.
    """
    out = np.zeros(n_ues)
    for result in results.values():
        out[list(result.ue_ids)] += result.rates
    return out


def geometry_matrix(ue, sat_positions):
    """Unit direction rows (terminal minus satellite) / distance.

    One row per satellite; requires strictly positive distances.
    """
    ue = np.asarray(ue, dtype=float)
    rows = []
    for pos in sat_positions:
        diff = ue - np.asarray(pos, dtype=float)
        d = np.linalg.norm(diff)
        if d <= 0.0:
            raise ValueError("satellite coincides with the terminal")
        rows.append(diff / d)
    if not rows:
        raise ValueError("need at least one satellite")
    return np.array(rows)


def gdop(g_matrix):
    """Geometric dilution of precision sqrt(trace((G^T G)^-1)) of one (k, 3)
    geometry matrix, k >= 3: :func:`stacked_gdop` of a stack of one."""
    g_matrix = np.asarray(g_matrix, dtype=float)
    if g_matrix.ndim != 2 or g_matrix.shape[1] != 3:
        raise ValueError("geometry matrix must be k x 3")
    if g_matrix.shape[0] < 3:
        raise ValueError("GDOP needs at least three satellites")
    return float(stacked_gdop(g_matrix[None])[0])


def stacked_gdop(g_stack):
    """GDOP of every (k, 3) geometry matrix of an (m, k, 3) stack, shape (m,).

    The one GDOP kernel: one batched Gram product, ``eigvalsh`` and
    reduction. A value is ``math.inf`` when the directions are
    (near-)coplanar, i.e. the smallest eigenvalue of G^T G falls below
    ``SINGULAR_EIGENVALUE_THRESHOLD``, so callers can treat the geometry as
    infeasible.
    """
    eigenvalues = np.linalg.eigvalsh(np.swapaxes(g_stack, 1, 2) @ g_stack)
    regular = ~(eigenvalues[:, 0] < SINGULAR_EIGENVALUE_THRESHOLD)
    values = np.full(len(g_stack), math.inf)
    values[regular] = np.sqrt(np.sum(1.0 / eigenvalues[regular], axis=1))
    return values
