import math

import numpy as np
import pytest

from helpers import make_channel
from leoican.geometry import ScenarioSpec, default_radio, generate_scenario
from leoican.channel import build_channel_map
from leoican.metrics import (
    LinkAssignment,
    gdop,
    geometry_matrix,
    per_ue_rates,
    rates_from_gains,
    satellite_rates,
)
from leoican.oracles import gdop_cofactor


def _single_link_setup(power=4.0):
    h = np.array([1.0 + 1.0j, 0.5 - 0.25j])
    channels = {(0, 0): make_channel(h)}
    w = math.sqrt(power) * h / np.linalg.norm(h)
    beams = {(0, 0): w}
    assignment = LinkAssignment([[True]])
    return h, channels, beams, assignment


def test_sinr_matched_filter_no_interference():
    power = 4.0
    noise = 0.3
    h, channels, beams, _ = _single_link_setup(power)
    value = satellite_rates(0, [0], channels, beams, noise, 1.0)[0]
    assert value == pytest.approx(
        math.log2(1.0 + power * np.linalg.norm(h) ** 2 / noise), rel=1e-12)


def test_sinr_zero_beam():
    _, channels, beams, _ = _single_link_setup()
    beams[(0, 0)] = np.zeros(2, dtype=complex)
    assert satellite_rates(0, [0], channels, beams, 1.0, 1.0) == {0: 0.0}


def test_sinr_two_user_hand_computation():
    # two antennas, one satellite, hand-evaluated interference terms:
    # SINR 2 for terminal 0 and 0.5 for terminal 1
    h1 = np.array([1.0, 0.0], dtype=complex)
    h2 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    channels = {(0, 0): make_channel(h1), (0, 1): make_channel(h2)}
    beams = {(0, 0): np.array([1.0, 0.0], dtype=complex),
             (0, 1): np.array([0.0, 1.0], dtype=complex)}
    rates = satellite_rates(0, [0, 1], channels, beams, 0.5, 1.0)
    assert rates[0] == pytest.approx(math.log2(3.0), rel=1e-12)
    assert rates[1] == pytest.approx(math.log2(1.5), rel=1e-12)


def test_sinr_global_phase_invariance():
    rng = np.random.default_rng(2)
    h1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    channels = {(0, 0): make_channel(h1), (0, 1): make_channel(h2)}
    w1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    base = satellite_rates(0, [0, 1], channels, {(0, 0): w1, (0, 1): w2}, 0.1, 1.0)
    spun = satellite_rates(
        0, [0, 1], channels, {(0, 0): w1 * np.exp(0.7j), (0, 1): w2}, 0.1, 1.0)
    assert spun[0] == pytest.approx(base[0], rel=1e-12)
    assert spun[1] == pytest.approx(base[1], rel=1e-12)


def test_rate_reference_points():
    # a lone terminal: gains [[g]] with unit noise is the Shannon rate at SINR g
    assert rates_from_gains(np.array([[1.0]]), 1.0, 50e6)[0] == pytest.approx(50e6)
    assert rates_from_gains(np.array([[0.0]]), 1.0, 50e6)[0] == 0.0
    assert rates_from_gains(np.array([[3.0]]), 1.0, 1.0)[0] == pytest.approx(2.0)
    # interference adds to the noise: SINR 2/(1+1) = 1
    assert rates_from_gains(np.array([[2.0, 1.0], [5.0, 7.0]]), 1.0, 1.0)[0] == pytest.approx(1.0)


def test_rate_monotone():
    values = [rates_from_gains(np.array([[s]]), 1.0, 1.0)[0] for s in np.linspace(0, 10, 50)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_sum_rate_empty_and_single():
    radio = default_radio()
    assignment = LinkAssignment(np.zeros((2, 2), dtype=bool))
    assert per_ue_rates({}, {}, assignment, radio).sum() == 0.0

    h, channels, beams, single = _single_link_setup()
    sinr = abs(np.vdot(h, beams[(0, 0)])) ** 2 / radio.noise_power_w
    assert per_ue_rates(channels, beams, single, radio).sum() == pytest.approx(
        radio.bandwidth_hz * math.log2(1.0 + sinr), rel=1e-12)


def test_sum_rate_matches_per_link_recomputation():
    scenario = generate_scenario(ScenarioSpec(), seed=8)
    channels = build_channel_map(scenario, np.random.default_rng((8, 1)))
    rng = np.random.default_rng(3)
    alpha = np.zeros((7, 7), dtype=bool)
    for c in range(7):
        for s in rng.choice(7, size=4, replace=False):
            alpha[s, c] = True
    assignment = LinkAssignment(alpha)
    radio = scenario.radio
    beams = {}
    for s, c in assignment.active_links():
        w = rng.standard_normal(radio.n_antennas) + 1j * rng.standard_normal(radio.n_antennas)
        beams[(s, c)] = math.sqrt(radio.beam_power_w) * w / np.linalg.norm(w)
    total = 0.0
    for s, c in assignment.active_links():
        h = channels[(s, c)].h
        signal = abs(np.vdot(h, beams[(s, c)])) ** 2
        interference = sum(abs(np.vdot(h, beams[(s, other)])) ** 2
                           for other in assignment.ues_of(s) if other != c)
        total += radio.bandwidth_hz * math.log2(
            1.0 + signal / (interference + radio.noise_power_w))
    assert per_ue_rates(channels, beams, assignment, radio).sum() == pytest.approx(total, rel=1e-9)


def test_geometry_matrix_axis_satellites():
    ue = np.zeros(3)
    sats = [np.array([1.0, 0, 0]), np.array([0, 2.0, 0]), np.array([0, 0, 0.5])]
    g = geometry_matrix(ue, sats)
    assert np.allclose(g, -np.eye(3))


def test_geometry_matrix_single_row_unit_norm():
    g = geometry_matrix(np.array([1.0, 2.0, 3.0]), [np.array([4.0, 6.0, 3.0])])
    assert g.shape == (1, 3)
    assert np.linalg.norm(g[0]) == pytest.approx(1.0, rel=1e-12)


def test_geometry_matrix_random_rows_unit_norm():
    rng = np.random.default_rng(0)
    ue = rng.standard_normal(3)
    sats = rng.standard_normal((6, 3)) * 10
    g = geometry_matrix(ue, sats)
    assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-9)


def test_geometry_matrix_rejects_coincident():
    p = np.array([1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        geometry_matrix(p, [p])


def test_gdop_axis_aligned():
    assert gdop(-np.eye(3)) == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_gdop_duplicated_rows():
    g = np.vstack([-np.eye(3), -np.eye(3)])
    assert gdop(g) == pytest.approx(math.sqrt(1.5), abs=1e-12)


def test_gdop_matches_cofactor_inverse():
    rng = np.random.default_rng(1)
    for _ in range(100):
        rows = rng.standard_normal((4, 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        value = gdop(rows)
        reference = gdop_cofactor(rows)
        if math.isinf(value):
            assert math.isinf(reference) or reference > 1e4
        else:
            assert value == pytest.approx(reference, rel=1e-9)


def test_gdop_rotation_invariance():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((5, 3))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    base = gdop(rows)
    for _ in range(100):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert gdop(rows @ q.T) == pytest.approx(base, rel=1e-9)


def test_gdop_never_worse_with_more_satellites():
    rng = np.random.default_rng(3)
    for _ in range(100):
        rows = rng.standard_normal((rng.integers(3, 8), 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        value = gdop(rows)
        if math.isinf(value):
            continue
        extra = rng.standard_normal(3)
        extra /= np.linalg.norm(extra)
        assert gdop(np.vstack([rows, extra])) <= value + 1e-9


def test_gdop_flags_coplanar_geometry():
    rows = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 1.0, 0]])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    assert math.isinf(gdop(rows))


def test_gdop_needs_three_rows():
    with pytest.raises(ValueError):
        gdop(np.array([[1.0, 0, 0], [0, 1.0, 0]]))


def test_link_assignment_roundtrip():
    assignment = LinkAssignment.from_coalitions({0: (1, 2), 1: (0, 2)}, n_satellites=3)
    assert assignment.sats_of(0) == (1, 2)
    assert assignment.sats_of(1) == (0, 2)
    assert assignment.ues_of(2) == (0, 1)
    assert assignment.is_complete(2)
    assert not assignment.is_complete(3)
    assert set(assignment.active_links()) == {(1, 0), (2, 0), (0, 1), (2, 1)}
