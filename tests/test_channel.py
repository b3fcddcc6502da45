import math

import numpy as np
import pytest

from leoican.channel import (
    build_channel_map,
    channel_vector,
    path_loss,
    upa_response,
)
from leoican.geometry import RadioParams, ScenarioSpec, distance, generate_scenario

# hand-evaluated: -10*log10((lambda / (4 pi d))^2) at 4 GHz over 600 km
REFERENCE_LOSS_DB = 160.0520080561155


def test_path_loss_identity_point():
    d = 123.0
    assert path_loss(4.0 * math.pi * d, d) == pytest.approx(1.0, rel=1e-12)


def test_path_loss_reference_link_budget():
    radio = RadioParams()
    gain = path_loss(radio.wavelength_m, 600e3)
    assert -10.0 * math.log10(gain) == pytest.approx(REFERENCE_LOSS_DB, abs=1e-6)


def test_path_loss_inverse_square():
    lam = 0.075
    assert path_loss(lam, 2 * 600e3) == pytest.approx(path_loss(lam, 600e3) / 4.0, rel=1e-12)


def test_path_loss_rejects_degenerate():
    with pytest.raises(ValueError):
        path_loss(0.075, 0.0)
    with pytest.raises(ValueError):
        path_loss(0.0, 1.0)


def test_upa_response_singleton():
    assert np.allclose(upa_response(0.3, -0.7, 1, 1), [1.0])


def test_upa_response_two_element_cases():
    assert np.allclose(upa_response(0.0, 0.0, 2, 1), [1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert np.allclose(upa_response(1.0, 0.0, 2, 1), [1 / math.sqrt(2), -1 / math.sqrt(2)])


def test_upa_response_unit_norm_and_kronecker_structure():
    rng = np.random.default_rng(0)
    for _ in range(50):
        nx, ny = rng.integers(1, 9, size=2)
        tx, ty = rng.uniform(-1, 1, size=2)
        v = upa_response(tx, ty, nx, ny)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        vx = np.exp(-1j * math.pi * tx * np.arange(nx)) / math.sqrt(nx)
        vy = np.exp(-1j * math.pi * ty * np.arange(ny)) / math.sqrt(ny)
        for m in range(nx):
            for n in range(ny):
                assert v[m * ny + n] == pytest.approx(vx[m] * vy[n], abs=1e-12)


def test_channel_vector_norm_identity():
    scenario = generate_scenario(ScenarioSpec(), seed=4)
    rng = np.random.default_rng(42)
    radio = scenario.radio
    for sat in scenario.satellites:
        h = channel_vector(sat, scenario.ues[0], radio, rng)
        gain = path_loss(radio.wavelength_m, distance(sat.position, scenario.ues[0]))
        target = gain * radio.atmosphere_gain * radio.n_antennas
        assert np.linalg.norm(h) ** 2 == pytest.approx(target, rel=1e-9)


def test_channel_vector_degenerate_array():
    spec = ScenarioSpec(radio=RadioParams(nx=1, ny=1, atmosphere_loss_db=0.0))
    scenario = generate_scenario(spec, seed=4)
    sat, ue = scenario.satellites[0], scenario.ues[0]
    h = channel_vector(sat, ue, scenario.radio, np.random.default_rng(0))
    assert h.shape == (1,)
    gain = path_loss(scenario.radio.wavelength_m, distance(sat.position, ue))
    assert abs(h[0]) == pytest.approx(math.sqrt(gain), rel=1e-12)


def test_channel_vector_deterministic_given_seed():
    scenario = generate_scenario(ScenarioSpec(), seed=4)
    a = build_channel_map(scenario, np.random.default_rng(123))
    b = build_channel_map(scenario, np.random.default_rng(123))
    for key in a:
        assert np.array_equal(a[key], b[key])


def test_channel_phase_is_uniform():
    spec = ScenarioSpec(n_satellites=1, n_cells=1, radio=RadioParams(nx=1, ny=1))
    scenario = generate_scenario(spec, seed=4)
    rng = np.random.default_rng(5)
    # a 1x1 array's response is 1, so h = amplitude * exp(-j*phase)
    phases = np.array([
        -np.angle(channel_vector(scenario.satellites[0], scenario.ues[0], scenario.radio,
                                 rng)[0]) % (2.0 * math.pi)
        for _ in range(10_000)
    ])
    assert np.all((phases >= 0.0) & (phases < 2.0 * math.pi))
    assert abs(np.mean(np.exp(1j * phases))) < 0.05
