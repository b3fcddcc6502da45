import math

import numpy as np
import pytest

from leoican.geometry import (
    EARTH_RADIUS_M,
    SatelliteState,
    ScenarioGenerationError,
    ScenarioSpec,
    distance,
    elevation_deg,
    generate_scenario,
    hex_grid_offsets,
    nadir_frame,
    upa_angles,
    zenith_elevation_deg,
)
from leoican.harness import ExperimentConfig
from leoican.oracles import upa_angles_reference


def test_distance_345():
    assert distance((0, 0, 0), (3, 4, 0)) == pytest.approx(5.0)


def test_distance_identity():
    p = np.array([1.0, 2.0, 3.0])
    assert distance(p, p) == 0.0


def test_distance_radial_satellite():
    ue = np.array([EARTH_RADIUS_M, 0.0, 0.0])
    sat = np.array([EARTH_RADIUS_M + 600e3, 0.0, 0.0])
    assert distance(ue, sat) == pytest.approx(600e3)


def test_distance_is_a_metric():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b, c = rng.standard_normal((3, 3)) * 1e5
        assert distance(a, b) >= 0.0
        assert distance(a, b) == pytest.approx(distance(b, a), rel=1e-12)
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6


def test_hex_grid_spacing():
    radius = 43.3e3
    offsets = hex_grid_offsets(7, radius)
    assert np.allclose(offsets[0], 0.0)
    ring = offsets[1:]
    pitch = math.sqrt(3.0) * radius
    assert np.allclose(np.linalg.norm(ring, axis=1), pitch)
    # 19 cells = center + two full rings
    offsets = hex_grid_offsets(19, radius)
    assert len({tuple(np.round(row, 3)) for row in offsets}) == 19


def test_nadir_frame_orthonormal_and_earthward():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pos = rng.standard_normal(3)
        pos = (EARTH_RADIUS_M + 600e3) * pos / np.linalg.norm(pos)
        frame = nadir_frame(pos)
        assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-9)
        assert frame[2] @ (pos / np.linalg.norm(pos)) < 0.0


def test_generate_scenario_reference_layout():
    spec = ScenarioSpec()
    scenario = generate_scenario(spec, seed=1)
    assert scenario.n_satellites == 7
    assert scenario.n_ues == 7
    orbit = EARTH_RADIUS_M + 600e3
    for sat in scenario.satellites:
        assert abs(np.linalg.norm(sat.position) - orbit) < 1e3
    assert np.allclose(np.linalg.norm(scenario.ues, axis=1), EARTH_RADIUS_M, atol=10e3)


def test_generate_scenario_visibility_and_separation():
    spec = ScenarioSpec()
    scenario = generate_scenario(spec, seed=5)
    for sat in scenario.satellites:
        for ue in scenario.ues:
            assert elevation_deg(ue, sat.position) >= spec.min_elevation_deg
    center = np.array([EARTH_RADIUS_M, 0.0, 0.0])
    for i, a in enumerate(scenario.satellites):
        for b in scenario.satellites[i + 1:]:
            da = a.position - center
            db = b.position - center
            angle = math.degrees(math.acos(np.clip(
                da @ db / (np.linalg.norm(da) * np.linalg.norm(db)), -1, 1)))
            assert angle >= spec.min_separation_deg - 1e-9


def test_generate_scenario_single_link_is_overhead():
    scenario = generate_scenario(ScenarioSpec(n_satellites=1, n_cells=1), seed=99)
    sat = scenario.satellites[0]
    ue = scenario.ues[0]
    # satellite sits at the zenith of the lone terminal
    cross = np.cross(sat.position, ue)
    assert np.linalg.norm(cross) / np.linalg.norm(sat.position) < 1e-6 * np.linalg.norm(ue)
    assert np.linalg.norm(sat.position) > np.linalg.norm(ue)


def test_zenith_elevation_is_the_largest_feasible_min_elevation():
    ceiling = zenith_elevation_deg(ScenarioSpec())
    assert ceiling == pytest.approx(82.2064, abs=1e-4)
    generate_scenario(ScenarioSpec(n_satellites=1, min_elevation_deg=ceiling), seed=1)
    with pytest.raises(ScenarioGenerationError, match="zenith"):
        generate_scenario(ScenarioSpec(n_satellites=1, min_elevation_deg=ceiling + 1e-9), seed=1)


def test_generate_scenario_deterministic():
    spec = ScenarioSpec()
    a = generate_scenario(spec, seed=17)
    b = generate_scenario(spec, seed=17)
    assert np.array_equal(a.ues, b.ues)
    for sa, sb in zip(a.satellites, b.satellites):
        assert np.array_equal(sa.position, sb.position)
        assert np.array_equal(sa.frame, sb.frame)


def test_generate_scenario_rejects_impossible_packing():
    spec = ScenarioSpec(n_satellites=40, cap_halfangle_deg=5.0, min_separation_deg=15.0)
    with pytest.raises(ScenarioGenerationError):
        generate_scenario(spec, seed=1)


def test_generate_scenario_rejects_bad_counts():
    with pytest.raises(ValueError):
        generate_scenario(ScenarioSpec(n_satellites=0), seed=1)


def test_upa_angles_axis_cases():
    sat = SatelliteState(id=0, position=np.zeros(3), frame=np.eye(3))
    theta_x, theta_y = upa_angles(sat, np.array([0.0, 1.0, 0.0]))
    assert theta_x == pytest.approx(0.0, abs=1e-12)
    assert theta_y == pytest.approx(1.0)
    theta_x, theta_y = upa_angles(sat, np.array([1.0, 0.0, 0.0]))
    assert theta_x == pytest.approx(1.0)
    assert theta_y == pytest.approx(0.0, abs=1e-12)


def test_upa_angles_rejects_backside():
    sat = SatelliteState(id=0, position=np.zeros(3), frame=np.eye(3))
    with pytest.raises(ValueError):
        upa_angles(sat, np.array([0.1, 0.1, -1.0]))


def test_upa_angles_match_direction_cosines():
    scenario = generate_scenario(ScenarioSpec(), seed=11)
    for sat in scenario.satellites:
        for ue in scenario.ues:
            theta_x, theta_y = upa_angles(sat, ue)
            ref_x, ref_y = upa_angles_reference(sat, ue)
            assert theta_x == pytest.approx(ref_x, abs=1e-12)
            assert theta_y == pytest.approx(ref_y, abs=1e-12)
            assert -1.0 <= theta_x <= 1.0 and -1.0 <= theta_y <= 1.0
            assert theta_x ** 2 <= 1.0 - theta_y ** 2 + 1e-12


def test_spec_from_dict():
    spec = ExperimentConfig.from_dict({
        "n_satellites": 5,
        "altitude_m": 500e3,
        "radio": {"nx": 2, "ny": 3, "beam_power_dbw": 20.0},
    }).spec
    assert spec.n_satellites == 5
    assert spec.altitude_m == 500e3
    assert spec.radio.n_antennas == 6
    assert spec.radio.beam_power_w == pytest.approx(100.0)
