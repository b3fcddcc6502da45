"""Independent brute-force references for the self-check suites.

Everything here recomputes results from first principles (explicit cofactor
inverses, exhaustive enumeration, nested grid search, finite differences)
without calling the production code paths it is used to check.
"""

import functools
import itertools
import math

import numpy as np

from .beamforming import ZeroForcingRankError, ZeroForcingSizeError
from .convex_kernel import LOG2


def gdop_cofactor(g_matrix):
    """GDOP via an explicit cofactor inverse of the 3x3 normal matrix."""
    g = np.asarray(g_matrix, dtype=float)
    a = g.T @ g
    det = (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
    if abs(det) < 1e-30:
        return math.inf
    minor00 = a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    minor11 = a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
    minor22 = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    trace_inv = (minor00 + minor11 + minor22) / det
    if trace_inv <= 0.0:
        return math.inf
    return math.sqrt(trace_inv)


def _subset_gdop(scenario, ue, subset):
    """Cofactor GDOP of one terminal served by the satellites in ``subset``."""
    terminal = scenario.ues[ue]
    rows = []
    for s in subset:
        diff = terminal - scenario.satellites[s].position
        rows.append(diff / np.linalg.norm(diff))
    return gdop_cofactor(np.array(rows))


def exhaustive_min_gdop(scenario, ue, serving_count):
    """Minimum-GDOP subset by full enumeration with the cofactor formula."""
    best_subset = None
    best_value = math.inf
    for subset in itertools.combinations(range(scenario.n_satellites), serving_count):
        value = _subset_gdop(scenario, ue, subset)
        if value < best_value:
            best_value = value
            best_subset = subset
    return best_subset, best_value


def matched_filter_rate(bandwidth, power, h, noise_power):
    """Closed-form single-terminal optimum B*log2(1 + P*||h||^2 / noise)."""
    return bandwidth * math.log2(1.0 + power * float(np.linalg.norm(h)) ** 2 / noise_power)


def upa_angles_reference(sat, ue):
    """Steering coordinates as plain direction cosines in the array frame."""
    los = np.asarray(ue, dtype=float) - sat.position
    los = los / np.linalg.norm(los)
    coords = sat.frame @ los
    return float(coords[0]), float(coords[1])


def finite_difference_directional(value, q, directions, eps):
    """Central finite difference of the function ``value`` at the point
    ``q`` along a stack of Hermitian directions."""
    plus = value(q + eps * directions)
    minus = value(q - eps * directions)
    return (plus - minus) / (2.0 * eps)


def _rank1_quadforms(h_stack, p, a, b):
    """q[c, grid] = p * |h_c^H u(a, b)|^2 for u = (cos a, sin a e^{jb})."""
    u0 = np.cos(a)
    u1 = np.sin(a) * np.exp(1j * b)
    gains = np.abs(h_stack[:, 0:1].conj() * u0[None, :]
                   + h_stack[:, 1:2].conj() * u1[None, :]) ** 2
    return p[None, :] * gains


def grid_surrogate_max(channels, anchor, noise_power, bandwidth, power_cap,
                       levels=8, points=11, coarse_points=21, n_starts=8):
    """Nested grid search of the surrogate over rank-1 feasible points.

    Each variable matrix is parameterized as p * u u^H with u a unit vector
    of two complex entries (global phase removed), so this covers the rank-1
    slice of the feasible set exhaustively up to grid resolution. A dense
    first level (evaluated in memory-bounded chunks) collects several
    well-separated candidate basins; each is refined by zooming to +-2 grid
    cells around its running best, which always contains a smooth maximum.
    Supports one or two terminals with two antennas each; ``channels`` stacks
    their channel vectors (k, 2) and ``anchor`` their anchor matrices.
    """
    ids = range(len(channels))
    if len(ids) > 2 or any(channels[c].shape[0] != 2 for c in ids):
        raise ValueError("grid oracle supports at most 2 terminals with 2 antennas")
    h_stack = np.array([channels[c] for c in ids])

    anchor_interference = np.array([
        sum(float(np.real(np.vdot(channels[c], anchor[cp] @ channels[c])))
            for cp in ids if cp != c)
        for c in ids
    ])
    kappa = bandwidth / (LOG2 * (noise_power + anchor_interference))
    # constant part of the linearized term per terminal
    const = (bandwidth * np.log2(noise_power + anchor_interference)
             - kappa * anchor_interference)

    def sample(windows, n_points):
        grids = []
        quads = []  # quads[m][c, grid_index]
        for window in windows:
            p_ax, a_ax, b_ax = (np.linspace(lo, hi, n_points) for lo, hi in window)
            p, a, b = (x.ravel() for x in np.meshgrid(p_ax, a_ax, b_ax, indexing="ij"))
            grids.append((p, a, b))
            quads.append(_rank1_quadforms(h_stack, p, a, b))
        return grids, quads

    def best_of(windows, n_points, top=1):
        """Top candidates as (value, params) pairs, best first."""
        grids, quads = sample(windows, n_points)
        candidates = []
        if len(ids) == 1:
            values = bandwidth * np.log2(noise_power + quads[0][0]) - const[0]
            order = np.argsort(values)[::-1][: top * 8]
            for flat in order:
                candidates.append((float(values[flat]), (int(flat),)))
        else:
            block = max(1, 2_000_000 // quads[1][0].size)
            for start in range(0, quads[0][0].size, block):
                sl = slice(start, start + block)
                t0 = quads[0][0][sl, None] + quads[1][0][None, :]
                t1 = quads[0][1][sl, None] + quads[1][1][None, :]
                chunk = (
                    bandwidth * np.log2(noise_power + t0)
                    + bandwidth * np.log2(noise_power + t1)
                    - kappa[0] * quads[1][0][None, :]
                    - kappa[1] * quads[0][1][sl, None]
                    - const[0] - const[1]
                )
                keep = min(top * 8, chunk.size)
                flat_top = np.argpartition(chunk, chunk.size - keep, axis=None)[-keep:]
                flat_order = flat_top[np.argsort(chunk.flat[flat_top])[::-1]]
                for flat in flat_order:
                    i, j = np.unravel_index(int(flat), chunk.shape)
                    candidates.append((float(chunk[i, j]), (start + int(i), int(j))))
            candidates.sort(key=lambda item: -item[0])

        # keep candidates separated by at least two cells in some direction
        kept = []
        for value, indices in candidates:
            params = [np.array([grids[m][d][indices[m]] for d in range(3)])
                      for m in range(len(ids))]
            step = [np.array([(hi - lo) / (n_points - 1) or 1.0 for lo, hi in windows[m]])
                    for m in range(len(ids))]
            if any(all(np.all(np.abs(params[m] - other[m]) < 2.0 * step[m])
                       for m in range(len(ids)))
                   for _, other in kept):
                continue
            kept.append((value, params))
            if len(kept) >= top:
                break
        return kept

    bounds = [(0.0, power_cap), (0.0, math.pi / 2.0), (0.0, 2.0 * math.pi)]
    full = [list(bounds) for _ in ids]
    seeds = best_of(full, coarse_points, top=n_starts)

    coarse_pad = [
        [(hi - lo) * (2.0 / (coarse_points - 1)) for lo, hi in bounds]
        for _ in ids
    ]
    best_value = -math.inf
    best_params = None
    for value, params in seeds:
        current_value, current_params = value, params
        windows = [
            [(max(glo, mid - pad), min(ghi, mid + pad))
             for (glo, ghi), mid, pad in zip(bounds, current_params[m], coarse_pad[m])]
            for m in range(len(ids))
        ]
        for _ in range(levels - 1):
            value, params = best_of(windows, points, top=1)[0]
            if value > current_value:
                current_value, current_params = value, params
            windows = [
                [(max(glo, mid - (hi - lo) * (2.0 / (points - 1))),
                  min(ghi, mid + (hi - lo) * (2.0 / (points - 1))))
                 for (glo, ghi), (lo, hi), mid in zip(bounds, windows[m], current_params[m])]
                for m in range(len(ids))
            ]
        if current_value > best_value:
            best_value = current_value
            best_params = current_params

    return best_value, best_params


def exhaustive_coalition_optimum(scenario, channels, serving_count, gdop_limit,
                                 engine):
    """Best coalition structure by enumerating all feasible combinations.

    A terminal's feasible subsets are those whose cofactor GDOP is within
    ``gdop_limit``. Each satellite's beams come from ``engine``, the inner
    engine under test, given the served terminals' stacked channels in
    ascending order, so the comparison isolates the selection logic; the
    rates are recomputed link by link. Structures whose beams cannot be
    formed (a zero-forcing error) are skipped; any other engine error
    propagates.
    """
    feasible = []
    for c in range(scenario.n_ues):
        subsets = [subset for subset in itertools.combinations(range(scenario.n_satellites),
                                                               serving_count)
                   if _subset_gdop(scenario, c, subset) <= gdop_limit]
        if not subsets:
            raise ValueError(f"no feasible subset for terminal {c}")
        feasible.append(subsets)

    radio = scenario.radio

    @functools.cache
    def satellite_rate(s, ue_ids):
        """Summed rate of satellite ``s`` serving ``ue_ids``; None without ZF beams."""
        h = np.array([channels[(s, c)] for c in ue_ids])
        try:
            beams, _ = engine.beams_for_satellite(h)
        except (ZeroForcingRankError, ZeroForcingSizeError):
            return None
        total = 0.0
        for i, h_c in enumerate(h):
            gains = [abs(np.vdot(h_c, w)) ** 2 for w in beams]
            interference = sum(gains[:i]) + sum(gains[i + 1:])
            total += radio.bandwidth_hz * math.log2(
                1.0 + gains[i] / (interference + radio.noise_power_w))
        return total

    best_value = -math.inf
    best_structure = None
    for combo in itertools.product(*feasible):
        served = [tuple(c for c, subset in enumerate(combo) if s in subset)
                  for s in range(scenario.n_satellites)]
        rates = [satellite_rate(s, ue_ids) for s, ue_ids in enumerate(served) if ue_ids]
        if None in rates:
            continue
        value = sum(rates)
        if value > best_value:
            best_value = value
            best_structure = dict(enumerate(combo))
    if best_structure is None:
        raise ValueError("no evaluable coalition structure")
    return best_value, best_structure
