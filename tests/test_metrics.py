import math

import numpy as np
import pytest

from leoican.geometry import RadioParams, ScenarioSpec, generate_scenario
from leoican.channel import build_channel_map
from leoican.metrics import (
    gdop,
    geometry_matrix,
    per_ue_rates,
    rates_from_gains,
    satellite_rates,
)
from leoican.oracles import gdop_cofactor
from leoican.selection import SatelliteResult


def _single_link_setup(power=4.0):
    h = np.array([[1.0 + 1.0j, 0.5 - 0.25j]])
    w = math.sqrt(power) * h / np.linalg.norm(h)
    return h, w


def _record(ue_ids, h, w, noise_power, bandwidth):
    rates = satellite_rates(h, w, noise_power, bandwidth)
    return SatelliteResult(tuple(ue_ids), w, rates, sum(rates.tolist()), None)


def test_sinr_matched_filter_no_interference():
    power = 4.0
    noise = 0.3
    h, w = _single_link_setup(power)
    value = satellite_rates(h, w, noise, 1.0)[0]
    assert value == pytest.approx(
        math.log2(1.0 + power * np.linalg.norm(h) ** 2 / noise), rel=1e-12)


def test_sinr_zero_beam():
    h, _ = _single_link_setup()
    assert np.array_equal(satellite_rates(h, np.zeros((1, 2), dtype=complex), 1.0, 1.0), [0.0])


def test_sinr_two_user_hand_computation():
    # two antennas, one satellite, hand-evaluated interference terms:
    # SINR 2 for terminal 0 and 0.5 for terminal 1
    h = np.array([[1.0, 0.0], [1.0 / math.sqrt(2), 1.0 / math.sqrt(2)]], dtype=complex)
    w = np.eye(2, dtype=complex)
    rates = satellite_rates(h, w, 0.5, 1.0)
    assert rates.shape == (2,)
    assert rates[0] == pytest.approx(math.log2(3.0), rel=1e-12)
    assert rates[1] == pytest.approx(math.log2(1.5), rel=1e-12)


def test_sinr_global_phase_invariance():
    rng = np.random.default_rng(2)
    h1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = np.array([h1, h2])
    w1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    base = satellite_rates(h, np.array([w1, w2]), 0.1, 1.0)
    spun = satellite_rates(h, np.array([w1 * np.exp(0.7j), w2]), 0.1, 1.0)
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
    radio = RadioParams()
    assert np.array_equal(per_ue_rates({}, 2), [0.0, 0.0])

    h, w = _single_link_setup()
    single = {0: _record((0,), h, w, radio.noise_power_w, radio.bandwidth_hz)}
    sinr = abs(np.vdot(h[0], w[0])) ** 2 / radio.noise_power_w
    assert per_ue_rates(single, 1).sum() == pytest.approx(
        radio.bandwidth_hz * math.log2(1.0 + sinr), rel=1e-12)


def test_sum_rate_matches_per_link_recomputation():
    scenario = generate_scenario(ScenarioSpec(), seed=8)
    channels = build_channel_map(scenario, np.random.default_rng((8, 1)))
    rng = np.random.default_rng(3)
    alpha = np.zeros((7, 7), dtype=bool)
    for c in range(7):
        for s in rng.choice(7, size=4, replace=False):
            alpha[s, c] = True
    radio = scenario.radio
    beams = {}
    for s, c in zip(*np.nonzero(alpha)):
        w = rng.standard_normal(radio.n_antennas) + 1j * rng.standard_normal(radio.n_antennas)
        beams[(s, c)] = math.sqrt(radio.beam_power_w) * w / np.linalg.norm(w)
    results = {}
    for s in range(7):
        ue_ids = np.flatnonzero(alpha[s])
        if len(ue_ids):
            results[s] = _record(
                ue_ids, np.array([channels[(s, c)] for c in ue_ids]),
                np.array([beams[(s, c)] for c in ue_ids]),
                radio.noise_power_w, radio.bandwidth_hz)
    per_ue = np.zeros(7)
    for (s, c), w in beams.items():
        h = channels[(s, c)]
        signal = abs(np.vdot(h, w)) ** 2
        interference = sum(abs(np.vdot(h, beams[(s, other)])) ** 2
                           for other in np.flatnonzero(alpha[s]) if other != c)
        per_ue[c] += radio.bandwidth_hz * math.log2(
            1.0 + signal / (interference + radio.noise_power_w))
    assert np.allclose(per_ue_rates(results, 7), per_ue, rtol=1e-9, atol=0.0)
    assert per_ue_rates(results, 7).sum() == pytest.approx(per_ue.sum(), rel=1e-9)


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
