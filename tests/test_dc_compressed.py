"""The DC loop run in the channel span against loops through the public API.

``dc_beamforming`` compresses a satellite's problem onto the span of its
channel vectors once, runs ``solve_surrogate`` on one surrogate core per
outer iteration and lifts only the final beams. Two references:

- the full-dimension loop: every outer iteration poses an n-dimensional
  problem, and a frozen copy of the former solver boundary validates,
  compresses, solves and lifts it on every call;
- the public-API loop in the span: the basis is built once, and every outer
  iteration goes through ``SurrogateCore``, ``surrogate_components``,
  ``solve_surrogate`` and ``true_rates_from_q``. It must give the same bits.
"""

import numpy as np
import pytest

from leoican import beamforming
from leoican.beamforming import (
    DcTrace,
    _fix_phase,
    dc_beamforming,
    mrt_weight,
    rank1_extract,
    true_rates_from_q,
)
from leoican.channel import build_channel_map
from leoican.convex_kernel import (
    SurrogateCore,
    _hermitize,
    channel_basis,
    solve_surrogate,
    surrogate_components,
    validate_psd_set,
)
from leoican.geometry import generate_scenario
from leoican.harness import ExperimentConfig
from leoican.selection import gdop_greedy_selection, gdop_tables

REL = 1e-9


def _solve_full_dimension(h, anchor, noise_power, bandwidth, power):
    """The former solver boundary, frozen: validate the anchor, compress the
    problem onto the channels' span unless they span the whole space, solve,
    lift. Returns the lifted maximizer, the objective, the per-terminal
    values and the SPG iteration count."""
    validate_psd_set(anchor, power)
    basis, h_red = channel_basis(h)
    full_rank = basis.shape[1] == h.shape[1]
    if not full_rank:
        anchor = np.einsum("ri,pij,js->prs", basis.conj().T, anchor, basis)
        h = h_red
    solution = solve_surrogate(SurrogateCore(h, anchor, noise_power, bandwidth), anchor,
                               power, beamforming.SPG_TOL, beamforming.SPG_MAX_ITERS)
    q = solution.q
    if not full_rank:
        q = _hermitize(np.einsum("ir,prs,js->pij", basis, q, basis.conj()))
    return q, solution.objective, solution.per_ue, solution.iterations


def _full_dimension_dc(sat_id, ue_ids, channels, power, noise_power, bandwidth):
    """Reference DC loop: n x n anchors and one n-dimensional solve per iteration."""
    ue_ids = sorted(ue_ids)
    h = np.array([channels[(sat_id, c)].h for c in ue_ids])
    w = np.array([mrt_weight(row, power) for row in h])
    anchor = w[:, :, None] * w.conj()[:, None, :]
    trace = DcTrace()
    for _ in range(beamforming.DC_MAX_OUTER):
        anchor_components = SurrogateCore(h, anchor, noise_power, bandwidth).anchor_components()
        q, objective, per_ue, iterations = _solve_full_dimension(
            h, anchor, noise_power, bandwidth, power)
        trace.solver_iterations += iterations
        true_rate = true_rates_from_q(q, h, noise_power, bandwidth).sum()
        trace.rows.append((len(trace.rows) + 1, objective, true_rate))
        change = np.abs(per_ue - anchor_components).sum()
        anchor = q
        if change < beamforming.DC_DELTA_BPS:
            trace.converged = True
            break
    return np.array([rank1_extract(q) for q in anchor]), trace


def _beam_rates(w, h, noise_power, bandwidth):
    return true_rates_from_q(w[:, :, None] * w.conj()[:, None, :], h, noise_power, bandwidth)


@pytest.mark.parametrize("profile", ["desk", "paper"])  # n = 16 and n = 64
def test_compressed_dc_matches_full_dimension_loop(profile):
    config = ExperimentConfig.default(profile=profile)
    scenario = generate_scenario(config.spec, 1)
    channels = build_channel_map(scenario, np.random.default_rng((1, 1)))
    radio = scenario.radio
    sat_id, ue_ids = 0, list(range(scenario.n_ues))
    assert len(ue_ids) == 7
    args = (sat_id, ue_ids, channels, radio.beam_power_w, radio.noise_power_w,
            radio.bandwidth_hz)

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


def _public_api_dc(sat_id, ue_ids, channels, power, noise_power, bandwidth):
    """Reference DC loop in the span, one public kernel call per step."""
    ue_ids = sorted(ue_ids)
    h = np.array([channels[(sat_id, c)].h for c in ue_ids])
    basis, h_red = channel_basis(h)
    w = np.array([mrt_weight(row, power) for row in h])
    b = np.array([basis.conj().T @ row for row in w])
    anchor = b[:, :, None] * b.conj()[:, None, :]
    trace = DcTrace()
    for _ in range(beamforming.DC_MAX_OUTER):
        core = SurrogateCore(h_red, anchor, noise_power, bandwidth)
        anchor_components = surrogate_components(core, anchor)
        solution = solve_surrogate(
            core, anchor, power, beamforming.SPG_TOL, beamforming.SPG_MAX_ITERS)
        trace.solver_iterations += solution.iterations
        true_rate = float(true_rates_from_q(solution.q, h_red, noise_power, bandwidth).sum())
        trace.rows.append((len(trace.rows) + 1, solution.objective, true_rate))
        change = float(np.abs(solution.per_ue - anchor_components).sum())
        anchor = solution.q
        if change < beamforming.DC_DELTA_BPS:
            trace.converged = True
            break
    return np.array([_fix_phase(basis @ rank1_extract(q)) for q in anchor]), trace


def _greedy_served_sets(config, seed):
    """(scenario, channels, [(satellite, served terminals)]) of the GDOP-greedy
    structure of one seed."""
    scenario = generate_scenario(config.spec, seed)
    channels = build_channel_map(scenario, np.random.default_rng((seed, 1)))
    tables = gdop_tables(scenario, config.serving_count)
    served = {}
    for c in range(scenario.n_ues):
        for s in gdop_greedy_selection(tables[c]):
            served.setdefault(s, []).append(c)
    return scenario, channels, sorted(served.items())


@pytest.mark.parametrize("profile", ["desk", "paper"])
def test_dc_beamforming_bit_identical_to_public_solver_loop(profile):
    config = ExperimentConfig.default(profile=profile)
    checked = 0
    for seed in (1, 2):
        scenario, channels, served = _greedy_served_sets(config, seed)
        radio = scenario.radio
        for sat_id, ue_ids in served:
            args = (sat_id, ue_ids, channels, radio.beam_power_w, radio.noise_power_w,
                    radio.bandwidth_hz)
            beams, trace = dc_beamforming(*args)
            ref_beams, ref_trace = _public_api_dc(*args)
            assert np.array_equal(beams, ref_beams)
            assert trace.rows == ref_trace.rows
            assert trace.solver_iterations == ref_trace.solver_iterations
            assert trace.converged == ref_trace.converged
            checked += 1
    assert checked >= 8


def test_dc_beamforming_validates_the_extracted_anchor_once(monkeypatch):
    validated = []
    extracted = []
    validate = beamforming.validate_psd_set
    extract = beamforming.rank1_extract

    def spy_validate(q_stack, power_cap):
        validated.append((q_stack, power_cap))
        return validate(q_stack, power_cap)

    def spy_extract(q, *args, **kwargs):
        extracted.append(q)
        return extract(q, *args, **kwargs)

    monkeypatch.setattr(beamforming, "validate_psd_set", spy_validate)
    monkeypatch.setattr(beamforming, "rank1_extract", spy_extract)
    config = ExperimentConfig.default(profile="desk")
    scenario = generate_scenario(config.spec, 1)
    channels = build_channel_map(scenario, np.random.default_rng((1, 1)))
    radio = scenario.radio
    runs = 0
    full_run = beamforming.DC_MAX_OUTER
    for ue_ids in ([0, 2, 5], list(range(scenario.n_ues))):
        for max_outer in (full_run, 1):
            monkeypatch.setattr(beamforming, "DC_MAX_OUTER", max_outer)
            validated.clear()
            extracted.clear()
            _, trace = dc_beamforming(0, ue_ids, channels, radio.beam_power_w,
                                      radio.noise_power_w, radio.bandwidth_hz)
            assert trace.iterations >= 1
            assert len(validated) == 1
            q_stack, power_cap = validated[0]
            assert power_cap == radio.beam_power_w
            assert len(extracted) == len(ue_ids) == len(q_stack)
            assert all(np.array_equal(q, row) for q, row in zip(extracted, q_stack))
            runs += 1
    assert runs == 4


def test_dc_beamforming_solves_through_the_module_solver(monkeypatch):
    # the benchmark's tracer wraps beamforming.solve_surrogate: every outer
    # iteration must be one call of it
    config = ExperimentConfig.default(profile="desk")
    scenario = generate_scenario(config.spec, 1)
    channels = build_channel_map(scenario, np.random.default_rng((1, 1)))
    radio = scenario.radio
    for ue_ids in ([0, 2, 5], list(range(scenario.n_ues))):
        args = (0, ue_ids, channels, radio.beam_power_w, radio.noise_power_w,
                radio.bandwidth_hz)
        plain_beams, _ = dc_beamforming(*args)
        solutions = []
        solve = beamforming.solve_surrogate

        def spy_solve(*solve_args):
            solutions.append(solve(*solve_args))
            return solutions[-1]

        monkeypatch.setattr(beamforming, "solve_surrogate", spy_solve)
        beams, trace = dc_beamforming(*args)
        monkeypatch.undo()
        assert trace.iterations >= 1
        assert len(solutions) == trace.iterations
        assert sum(solution.iterations for solution in solutions) == trace.solver_iterations
        assert np.array_equal(beams, plain_beams)
