"""The DC loop run in the channel span against the full-dimension loop.

``dc_beamforming`` compresses a satellite's problem onto the span of its
channel vectors once and lifts only the final beams. The reference below is
the loop it replaced: every outer iteration poses an n-dimensional problem,
and ``solve_surrogate`` compresses and expands it on every call.
"""

import numpy as np
import pytest

from leoican.beamforming import (
    DcSettings,
    DcTrace,
    dc_beamforming,
    mrt_weight,
    rank1_extract,
    true_rates_from_q,
)
from leoican.channel import build_channel_map
from leoican.convex_kernel import SurrogateProblem, solve_surrogate, surrogate_components
from leoican.geometry import generate_scenario
from leoican.harness import ExperimentConfig

REL = 1e-9


def _full_dimension_initial_point(h, power, settings, sat_id):
    if settings.init == "mrt":
        w = np.array([mrt_weight(row, power) for row in h])
        return w[:, :, None] * w.conj()[:, None, :]
    rng = np.random.default_rng((settings.init_seed, sat_id))
    anchor = []
    for row in h:
        u = rng.standard_normal(row.shape[0]) + 1j * rng.standard_normal(row.shape[0])
        u /= np.linalg.norm(u)
        anchor.append(power * np.outer(u, u.conj()))
    return np.array(anchor)


def _full_dimension_dc(sat_id, ue_ids, channels, power, noise_power, bandwidth,
                       settings):
    """Reference DC loop: n x n anchors and one n-dimensional solve per iteration."""
    ue_ids = sorted(ue_ids)
    h = np.array([channels[(sat_id, c)].h for c in ue_ids])
    anchor = _full_dimension_initial_point(h, power, settings, sat_id)
    trace = DcTrace()
    for _ in range(settings.max_outer):
        problem = SurrogateProblem(h, anchor, noise_power, bandwidth, power)
        anchor_components = surrogate_components(problem, anchor)
        solution = solve_surrogate(
            problem, tol=settings.solver_tol, max_iters=settings.solver_max_iters)
        trace.solver_iterations += solution.iterations
        true_rate = true_rates_from_q(solution.q, h, noise_power, bandwidth).sum()
        trace.rows.append((len(trace.rows) + 1, solution.objective, true_rate))
        change = np.abs(solution.per_ue - anchor_components).sum()
        anchor = solution.q
        if change < settings.delta_bps:
            trace.converged = True
            break
    return np.array([rank1_extract(q) for q in anchor]), trace


def _beam_rates(w, h, noise_power, bandwidth):
    return true_rates_from_q(w[:, :, None] * w.conj()[:, None, :], h, noise_power, bandwidth)


@pytest.mark.parametrize("profile", ["desk", "paper"])  # n = 16 and n = 64
@pytest.mark.parametrize("init", ["mrt", "random"])
def test_compressed_dc_matches_full_dimension_loop(profile, init):
    config = ExperimentConfig.default(profile=profile)
    scenario = generate_scenario(config.spec, 1)
    channels = build_channel_map(scenario, np.random.default_rng((1, 1)))
    radio = scenario.radio
    sat_id, ue_ids = 0, list(range(scenario.n_ues))
    assert len(ue_ids) == 7
    settings = DcSettings(init=init)
    args = (sat_id, ue_ids, channels, radio.beam_power_w, radio.noise_power_w,
            radio.bandwidth_hz, settings)

    beams, trace = dc_beamforming(*args)
    ref_beams, ref_trace = _full_dimension_dc(*args)

    n = radio.nx * radio.ny
    assert beams.shape == (len(ue_ids), n)
    assert trace.iterations == ref_trace.iterations
    assert trace.solver_iterations == ref_trace.solver_iterations
    assert trace.converged == ref_trace.converged
    for row, ref_row in zip(trace.rows, ref_trace.rows):
        assert row[0] == ref_row[0]
        assert row[1] == pytest.approx(ref_row[1], rel=REL)
        assert row[2] == pytest.approx(ref_row[2], rel=REL)

    h = np.array([channels[(sat_id, c)].h for c in ue_ids])
    rates = _beam_rates(beams, h, radio.noise_power_w, radio.bandwidth_hz)
    ref_rates = _beam_rates(ref_beams, h, radio.noise_power_w, radio.bandwidth_hz)
    for c in ue_ids:
        assert rates[c] == pytest.approx(ref_rates[c], rel=REL)
        assert np.linalg.norm(beams[c]) ** 2 <= radio.beam_power_w * (1 + 1e-9)


def test_lifted_beams_keep_the_phase_convention():
    config = ExperimentConfig.default(profile="desk")
    scenario = generate_scenario(config.spec, 2)
    channels = build_channel_map(scenario, np.random.default_rng((2, 1)))
    radio = scenario.radio
    beams, _ = dc_beamforming(1, [0, 2, 5], channels, radio.beam_power_w,
                              radio.noise_power_w, radio.bandwidth_hz)
    for w in beams:
        pivot = w[np.argmax(np.abs(w))]
        assert abs(pivot.imag) <= 1e-12 * abs(pivot)
        assert pivot.real > 0.0
