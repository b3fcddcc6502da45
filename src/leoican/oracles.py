"""Independent references for the self-check suites.

Everything here recomputes results from first principles (explicit cofactor
inverses, exhaustive enumeration, a Frank-Wolfe duality-gap certificate,
finite differences) without calling the production code paths it is used to
check.
"""

import functools
import itertools
import math

import numpy as np

from .beamforming import ZeroForcingError


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


def subset_gdop(scenario, ue, subset):
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
        value = subset_gdop(scenario, ue, subset)
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
    """Directional derivative of the function ``value`` at the point ``q``
    along a stack of Hermitian directions: the Richardson extrapolation
    (4*D(eps/2) - D(eps))/3 of two central differences D, whose O(eps^2)
    truncation errors cancel, leaving O(eps^4). That matters where the
    direction is nearly orthogonal to the gradient and the derivative is
    small against the curvature."""

    def central(step):
        return (value(q + step * directions) - value(q - step * directions)) / (2.0 * step)

    return (4.0 * central(0.5 * eps) - central(eps)) / 3.0


def surrogate_gap(h, anchor, noise_power, bandwidth, x, cap):
    """Surrogate value at a feasible ``x`` and its Frank-Wolfe duality gap.

    The surrogate, linearized at the ``anchor`` stack, is
    F(X) = sum_c B*log2(noise + sum_p q_cp) - B*log2(noise + a_c)
    - kappa_c*(i_c - a_c) with q_cp = h_c^H X_p h_c, i_c and a_c the
    interference sum_{p != c} q_cp at X and at the anchor, and
    kappa_c = B / (ln 2 * (noise + a_c)). F is concave, so with G_p its
    gradient in X_p, every Y in the capped-PSD product set has
    F(Y) <= F(X) + sum_p tr(G_p (Y_p - X_p)), and the largest of
    tr(G_p Y_p) over {Y_p >= 0, tr(Y_p) <= cap} is cap*max(lambda_max(G_p), 0).
    Hence gap = sum_p [cap*max(lambda_max(G_p), 0) - tr(G_p X_p)] >= F* - F(X),
    for any number of terminals and antennas (Jaggi, ICML 2013). ``h``
    stacks the channels (k, n); ``anchor`` and ``x`` are (k, n, n) stacks.
    """
    outers = h[:, :, None] * h.conj()[:, None, :]  # h_c h_c^H
    q = np.einsum("cij,pji->cp", outers, x).real
    a = np.einsum("cij,pji->cp", outers, anchor).real
    totals = q.sum(axis=1)
    interference = totals - q.diagonal()
    anchor_interference = a.sum(axis=1) - a.diagonal()
    kappa = bandwidth / (math.log(2.0) * (noise_power + anchor_interference))
    value = float(np.sum(
        bandwidth * np.log2(noise_power + totals)
        - bandwidth * np.log2(noise_power + anchor_interference)
        - kappa * (interference - anchor_interference)))
    # G_p = sum_c w_c h_c h_c^H - sum_{c != p} kappa_c h_c h_c^H
    weights = bandwidth / (math.log(2.0) * (noise_power + totals))
    grad = (np.einsum("c,cij->ij", weights - kappa, outers)[None]
            + kappa[:, None, None] * outers)
    top = np.linalg.eigvalsh(grad)[:, -1]
    linear = np.einsum("pij,pji->p", grad, x).real
    return value, float(np.sum(cap * np.maximum(top, 0.0) - linear))


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
                   if subset_gdop(scenario, c, subset) <= gdop_limit]
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
        except ZeroForcingError:
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
