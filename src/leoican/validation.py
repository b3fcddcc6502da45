"""Randomized invariant battery behind the `leoican validate` subcommand.

Most checks exercise one layer on random instances; the last ones check the
invariants of a real ``run_seed`` of every scheme on a small configuration.
"""

import math

import numpy as np

from . import oracles
from .beamforming import mrt_weight, rank1_extract, true_rates_from_q, zf_satellite
from .channel import build_channel_map, upa_response
from .convex_kernel import SurrogateCore, solve_surrogate, surrogate_components
from .geometry import ScenarioSpec, default_radio, distance, generate_scenario, upa_angles
from .harness import (
    BEAMFORMING_KINDS,
    SEED_ERRORS,
    SELECTION_KINDS,
    ExperimentConfig,
    SchemeId,
    run_seed,
)
from .metrics import gdop

# Small enough for a fraction of a second, large enough that terminals share
# satellites and switch coalitions.
RUN_CONFIG = ExperimentConfig(
    spec=ScenarioSpec(n_satellites=6, n_cells=3, radio=default_radio(nx=2, ny=2)),
    serving_count=3,
    schemes=tuple(SchemeId(selection, beamforming)
                  for selection in SELECTION_KINDS for beamforming in BEAMFORMING_KINDS),
)


def _random_unit_rows(rng, count):
    rows = rng.standard_normal((count, 3))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def run_validation(seed=0):
    """Run all invariant checks; returns a list of (name, ok, detail)."""
    rng = np.random.default_rng(seed)
    checks = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    # distance is a metric
    worst = 0.0
    for _ in range(200):
        a, b, c = rng.standard_normal((3, 3)) * 1e6
        violation = distance(a, c) - (distance(a, b) + distance(b, c))
        worst = max(worst, violation)
        worst = max(worst, abs(distance(a, b) - distance(b, a)))
    check("distance metric properties", worst <= 1e-6, f"worst violation {worst:.2e}")

    # planar-array response: unit norm and Kronecker indexing
    worst = 0.0
    for _ in range(100):
        nx, ny = rng.integers(1, 9, size=2)
        tx, ty = rng.uniform(-1.0, 1.0, size=2)
        v = upa_response(tx, ty, nx, ny)
        worst = max(worst, abs(np.linalg.norm(v) - 1.0))
        m, n = rng.integers(0, nx), rng.integers(0, ny)
        expected = np.exp(-1j * math.pi * (m * tx + n * ty)) / math.sqrt(nx * ny)
        worst = max(worst, abs(v[m * ny + n] - expected))
    check("array response norm/indexing", worst <= 1e-12, f"worst error {worst:.2e}")

    # steering angles match direction cosines on a generated scenario
    scenario = generate_scenario(ScenarioSpec(), seed=seed + 1)
    worst = 0.0
    for sat in scenario.satellites:
        for ue in scenario.ues:
            tx, ty = upa_angles(sat, ue)
            rx, ry = oracles.upa_angles_reference(sat, ue)
            worst = max(worst, abs(tx - rx), abs(ty - ry))
            worst = max(worst, max(0.0, tx * tx - (1.0 - ty * ty) - 1e-12))
    check("steering angle identities", worst <= 1e-12, f"worst error {worst:.2e}")

    # channel norm identity
    channels = build_channel_map(scenario, np.random.default_rng(seed + 2))
    radio = scenario.radio
    worst = 0.0
    for value in channels.values():
        target = value.path_gain * value.atmosphere_gain * radio.n_antennas
        worst = max(worst, abs(np.linalg.norm(value.h) ** 2 / target - 1.0))
    check("channel norm identity", worst <= 1e-9, f"worst rel error {worst:.2e}")

    # GDOP: rotation invariance, monotonicity, cofactor cross-check
    worst = 0.0
    mono = 0.0
    for _ in range(100):
        rows = _random_unit_rows(rng, rng.integers(4, 9))
        value = gdop(rows)
        if math.isinf(value):
            continue
        rotated = gdop(rows @ _random_rotation(rng).T)
        worst = max(worst, abs(rotated - value) / value)
        worst = max(worst, abs(oracles.gdop_cofactor(rows) - value) / value)
        extra = gdop(np.vstack([rows, _random_unit_rows(rng, 1)]))
        mono = max(mono, extra - value)
    check("gdop invariances", worst <= 1e-9 and mono <= 1e-9,
          f"rel err {worst:.2e}, monotonicity slack {mono:.2e}")

    # minorant property and solver ascent on random small instances
    worst_minorant = -math.inf
    worst_ascent = -math.inf
    worst_grad = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        h = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        power = 2.0

        def random_feasible():
            a = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
            m = a @ np.conj(np.swapaxes(a, 1, 2))
            traces = np.trace(m, axis1=1, axis2=2).real
            return m * (rng.uniform(0.1, 1.0, size=k) * power / traces)[:, None, None]

        anchor = random_feasible()
        core = SurrogateCore(h, anchor, 1.0, 1.0)
        point = random_feasible()
        surrogate = surrogate_components(core, point)
        true_rates = true_rates_from_q(point, h, 1.0, 1.0)
        worst_minorant = max(worst_minorant, float(np.max(
            (surrogate - true_rates) / np.maximum(np.abs(true_rates), 1.0))))
        solution = solve_surrogate(core, anchor, power, 1e-6, 5000)
        worst_ascent = max(worst_ascent, core.evaluate(anchor)[0] - solution.objective)
        grad = core.gradient(core.evaluate(point)[2])
        d = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        directions = 0.5 * (d + np.conj(np.swapaxes(d, 1, 2)))
        analytic = float(np.einsum("cij,cji->", grad, directions).real)
        numeric = oracles.finite_difference_directional(
            lambda q: core.evaluate(q)[0], point, directions, 1e-4 * power)
        worst_grad = max(worst_grad, abs(analytic - numeric) / max(abs(numeric), 1e-12))
    check("surrogate minorant/ascent/gradient",
          worst_minorant <= 1e-9 and worst_ascent <= 1e-9 and worst_grad <= 1e-5,
          f"minorant {worst_minorant:.2e}, ascent {worst_ascent:.2e}, grad {worst_grad:.2e}")

    # beamformer normalizations and zero-forcing nulling
    worst_power = 0.0
    worst_null = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        power = float(rng.uniform(0.5, 4.0))
        h = np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(k)])
        w = mrt_weight(h[0], power)
        worst_power = max(worst_power, abs(np.linalg.norm(w) ** 2 / power - 1.0))
        beams = zf_satellite(h, power)
        total = sum(float(np.linalg.norm(beam) ** 2) for beam in beams)
        worst_power = max(worst_power, abs(total / (power * k) - 1.0))
        beta = abs(np.vdot(h[0], beams[0]))  # common diagonal gain
        for c in range(k):
            for cp in range(k):
                if c != cp:
                    cross = abs(np.vdot(h[c], beams[cp])) / beta
                    worst_null = max(worst_null, cross)
    check("beamformer power/nulling", worst_power <= 1e-9 and worst_null <= 1e-8,
          f"power rel err {worst_power:.2e}, nulling {worst_null:.2e}")

    # rank-1 extraction is the best rank-1 approximation
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q = a @ a.conj().T
        w = rank1_extract(q)
        eigenvalues = np.linalg.eigvalsh(q)
        residual = np.linalg.norm(q - np.outer(w, w.conj())) ** 2
        expected = float(np.sum(eigenvalues[:-1] ** 2))
        worst = max(worst, abs(residual - expected) / max(expected, 1e-12))
    check("rank-1 extraction optimality", worst <= 1e-8, f"worst rel err {worst:.2e}")

    # scenario generation determinism
    s1 = generate_scenario(ScenarioSpec(), seed=seed + 3)
    s2 = generate_scenario(ScenarioSpec(), seed=seed + 3)
    same = np.array_equal(s1.ues, s2.ues) and all(
        np.array_equal(a.position, b.position) and np.array_equal(a.frame, b.frame)
        for a, b in zip(s1.satellites, s2.satellites))
    check("scenario determinism", same)

    for name, ok, detail in _run_seed_checks(RUN_CONFIG, seed + 1):
        check(name, ok, detail)
    return checks


def _run_seed_checks(config, seed):
    """Invariants of one real ``run_seed``: the GDOP bound of every final
    coalition (recomputed with the cofactor oracle), ``cfg-X`` at least
    ``gdop_greedy-X`` and non-decreasing DC traces."""
    try:
        results = run_seed(config, seed)
    except SEED_ERRORS as err:
        return [(f"run_seed (seed {seed})", False, f"{type(err).__name__}: {err}")]
    scenario = generate_scenario(config.spec, seed)

    worst_gdop = 0.0
    for result in results:
        for ue, subset in result.coalitions.items():
            diffs = scenario.ues[ue] - np.array(
                [scenario.satellites[s].position for s in subset])
            rows = diffs / np.linalg.norm(diffs, axis=1, keepdims=True)
            worst_gdop = max(worst_gdop, oracles.gdop_cofactor(rows) / config.gdop_limit)

    by_name = {result.scheme.name: result.sum_rate_bps for result in results}
    worst_order = 0.0
    for kind in BEAMFORMING_KINDS:
        greedy, cfg = by_name.get(f"gdop_greedy-{kind}"), by_name.get(f"cfg-{kind}")
        if greedy is not None and cfg is not None:
            worst_order = max(worst_order, (greedy - cfg) / max(abs(greedy), 1.0))

    worst_drop = 0.0
    for result in results:
        last = {}
        for sat, iteration, _surrogate, true_rate in result.dc_trace_rows:
            if iteration > 1:
                worst_drop = max(worst_drop,
                                 (last[sat] - true_rate) / max(abs(last[sat]), 1.0))
            last[sat] = true_rate

    return [
        (f"run_seed GDOP bound (seed {seed})", worst_gdop <= 1.0 + 1e-9,
         f"largest GDOP / limit {worst_gdop:.4f}"),
        (f"run_seed cfg >= gdop_greedy (seed {seed})", worst_order <= 1e-12,
         f"largest relative shortfall {worst_order:.2e}"),
        (f"run_seed DC trace monotone (seed {seed})", worst_drop <= 1e-12,
         f"largest relative drop {worst_drop:.2e}"),
    ]
