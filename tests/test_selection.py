import itertools
import math

import numpy as np
import pytest

from leoican.beamforming import DcSettings, MrtEngine, ZeroForcingRankError, make_engine
from leoican.channel import build_channel_map
from leoican.geometry import (
    EARTH_RADIUS_M,
    SatelliteState,
    Scenario,
    ScenarioSpec,
    default_radio,
    generate_scenario,
    nadir_frame,
)
from leoican.harness import ExperimentConfig
from leoican.metrics import gdop, geometry_matrix, per_ue_rates, stacked_gdop
from leoican.oracles import exhaustive_coalition_optimum, exhaustive_min_gdop
from leoican.selection import (
    InfeasibleSelectionError,
    StructureEvaluator,
    build_preference_list,
    cfg_selection,
    gdop_greedy_selection,
    gdop_selection,
    gdop_tables,
)

TINY_SPEC = ScenarioSpec(n_satellites=5, n_cells=2, radio=default_radio(nx=2, ny=2))
SELECT12 = ExperimentConfig.from_dict({"n_satellites": 12, "cap_halfangle_deg": 10.0,
                                       "radio": {"nx": 8, "ny": 8}})
# 17 satellites, C(17, 4) = 2,380 subsets per terminal: larger than any
# benchmark workload
SELECT17 = {"n_satellites": 17, "cap_halfangle_deg": 14.0, "min_separation_deg": 8.0}


def _scalar_gdop(scenario, ue, subset):
    positions = [scenario.satellites[s].position for s in subset]
    return gdop(geometry_matrix(scenario.ues[ue], positions))


def _greedy(scenario, ue, serving_count):
    return gdop_greedy_selection(gdop_tables(scenario, serving_count)[ue])


def _preference(scenario, ue, serving_count, gdop_limit):
    return build_preference_list(gdop_tables(scenario, serving_count)[ue], gdop_limit)


def _evaluator(scenario, channels, engine):
    radio = scenario.radio
    return StructureEvaluator(engine, channels, radio.noise_power_w, radio.bandwidth_hz,
                              scenario.n_satellites)


def _cfg(scenario, channels, serving_count, gdop_limit, engine, **kwargs):
    """(coalitions, results, log) of the coalition game, and its evaluator."""
    evaluator = _evaluator(scenario, channels, engine)
    return (*cfg_selection(gdop_tables(scenario, serving_count), gdop_limit, evaluator,
                           **kwargs), evaluator)


def _random_unit_rows(rng, count):
    rows = rng.standard_normal((count, 3))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _synthetic_scenario(sat_positions, ue=None):
    """Scenario with hand-placed satellites around a single terminal."""
    ue = np.array([EARTH_RADIUS_M, 0.0, 0.0]) if ue is None else ue
    satellites = tuple(
        SatelliteState(id=i, position=np.asarray(p, dtype=float),
                       frame=nadir_frame(p))
        for i, p in enumerate(sat_positions)
    )
    return Scenario(satellites=satellites, ues=ue[None, :],
                    cell_radius_m=43.3e3, radio=default_radio(), seed=0)


def test_gdop_greedy_whole_constellation():
    scenario = generate_scenario(ScenarioSpec(n_satellites=4), seed=1)
    assert _greedy(scenario, 0, 4) == (0, 1, 2, 3)


def test_gdop_greedy_matches_exhaustive_oracle():
    for seed in range(5):
        scenario = generate_scenario(ScenarioSpec(n_satellites=5), seed=seed)
        subset = _greedy(scenario, 0, 4)
        oracle_subset, oracle_value = exhaustive_min_gdop(scenario, 0, 4)
        assert subset == oracle_subset
        assert _scalar_gdop(scenario, 0, subset) == pytest.approx(oracle_value, rel=1e-9)


def test_gdop_greedy_avoids_coplanar_subsets():
    # four satellites in the same vertical plane through the terminal: all
    # their direction rows span a 2-D subspace, so every triple among them is
    # singular and the selection must include the out-of-plane satellite
    up = np.array([1.0, 0.0, 0.0])
    east = np.array([0.0, 1.0, 0.0])
    north = np.array([0.0, 0.0, 1.0])
    ue = EARTH_RADIUS_M * up
    in_plane = [
        ue + 600e3 * (math.cos(theta) * up + math.sin(theta) * east)
        for theta in np.radians([-40.0, -15.0, 10.0, 35.0])
    ]
    off_plane = ue + 600e3 * (math.sqrt(0.5) * up + math.sqrt(0.5) * north)
    scenario = _synthetic_scenario(in_plane + [off_plane])
    for triple in ((0, 1, 2), (1, 2, 3), (0, 2, 3)):
        assert math.isinf(_scalar_gdop(scenario, 0, triple))
    chosen = _greedy(scenario, 0, 3)
    assert 4 in chosen
    assert not math.isinf(_scalar_gdop(scenario, 0, chosen))


def test_preference_list_unfiltered_matches_combination_count():
    scenario = generate_scenario(ScenarioSpec(n_satellites=6), seed=2)
    entries = _preference(scenario, 0, 4, math.inf)
    assert len(entries) == math.comb(6, 4)
    values = [v for _, v in entries]
    assert values == sorted(values)


def test_preference_list_empty_below_minimum():
    scenario = generate_scenario(ScenarioSpec(n_satellites=5), seed=2)
    floor = min(v for _, v in _preference(scenario, 0, 4, math.inf))
    assert _preference(scenario, 0, 4, floor * 0.99) == []


def test_preference_list_head_agrees_with_greedy():
    scenario = generate_scenario(ScenarioSpec(), seed=3)
    for ue in range(scenario.n_ues):
        entries = _preference(scenario, ue, 4, 6.0)
        assert entries[0][0] == _greedy(scenario, ue, 4)


def _tiny_setup(seed):
    scenario = generate_scenario(TINY_SPEC, seed=seed)
    channels = build_channel_map(scenario, np.random.default_rng((seed, 1)))
    return scenario, channels


def test_cfg_single_ue_scans_whole_list():
    spec = ScenarioSpec(n_satellites=4, n_cells=1, radio=default_radio(nx=2, ny=2))
    scenario = generate_scenario(spec, seed=5)
    channels = build_channel_map(scenario, np.random.default_rng((5, 1)))
    engine = make_engine("dc", channels, scenario.radio, DcSettings())
    coalitions, _, _, evaluator = _cfg(scenario, channels, 3, math.inf, engine)

    best_utility, best = exhaustive_coalition_optimum(
        scenario, channels, 3, math.inf,
        make_engine("dc", channels, scenario.radio, DcSettings()))
    assert evaluator.utility(coalitions) == pytest.approx(best_utility, rel=1e-9)
    assert coalitions[0] == best[0]


def test_cfg_properties_and_improvement():
    for seed in (1, 2, 3):
        scenario, channels = _tiny_setup(seed)
        engine = make_engine("dc", channels, scenario.radio, DcSettings())
        coalitions, _, log, evaluator = _cfg(scenario, channels, 3, 6.0, engine)
        for c, subset in coalitions.items():
            assert len(subset) == 3
            assert _scalar_gdop(scenario, c, subset) <= 6.0
        init = {c: _greedy(scenario, c, 3) for c in range(scenario.n_ues)}
        assert evaluator.utility(coalitions) >= evaluator.utility(init) - 1e-9
        for record in log:
            if record.accepted:
                assert record.utility_new >= record.utility_old


def test_cfg_utility_cache_consistent():
    scenario, channels = _tiny_setup(4)
    engine = make_engine("mrt", channels, scenario.radio)
    coalitions, results, _, evaluator = _cfg(scenario, channels, 3, 6.0, engine)
    radio = scenario.radio
    served = {s: tuple(c for c, subset in coalitions.items() if s in subset)
              for s in range(scenario.n_satellites)}
    assert {s: result.ue_ids for s, result in results.items()} == {
        s: ue_ids for s, ue_ids in served.items() if ue_ids}
    recomputed = 0.0
    for s, result in results.items():
        for i, c in enumerate(result.ue_ids):
            h = channels[(s, c)].h
            interference = sum(abs(np.vdot(h, result.beams[p])) ** 2
                               for p in range(len(result.ue_ids)) if p != i)
            recomputed += radio.bandwidth_hz * math.log2(
                1.0 + abs(np.vdot(h, result.beams[i])) ** 2
                / (interference + radio.noise_power_w))
    assert evaluator.utility(coalitions) == pytest.approx(recomputed, rel=1e-9)
    assert evaluator.utility(coalitions) == pytest.approx(
        per_ue_rates(results, scenario.n_ues).sum(), rel=1e-12)


def test_cfg_deterministic_with_mrt_engine():
    scenario, channels = _tiny_setup(6)
    runs = []
    for _ in range(2):
        engine = MrtEngine(channels, scenario.radio.beam_power_w)
        coalitions, _, log, evaluator = _cfg(scenario, channels, 3, 6.0, engine)
        runs.append((coalitions, evaluator.utility(coalitions), len(log)))
    assert runs[0] == runs[1]


def test_cfg_rejects_unreachable_gdop():
    scenario, channels = _tiny_setup(7)
    engine = MrtEngine(channels, scenario.radio.beam_power_w)
    with pytest.raises(InfeasibleSelectionError):
        _cfg(scenario, channels, 3, 1e-6, engine)


class _FailingEngine(MrtEngine):
    """MRT engine that raises ``error`` for every served set except those of
    the GDOP-greedy starting structure, i.e. on every switch trial."""

    def __init__(self, scenario, channels, error):
        super().__init__(channels, scenario.radio.beam_power_w)
        self.error = error
        served = {}
        for c in range(scenario.n_ues):
            for s in _greedy(scenario, c, 3):
                served.setdefault(s, []).append(c)
        self.allowed = {(s, tuple(ues)) for s, ues in served.items()}

    def beams_for_satellite(self, sat_id, ue_ids):
        if (sat_id, tuple(ue_ids)) not in self.allowed:
            raise self.error
        return super().beams_for_satellite(sat_id, ue_ids)


def test_cfg_rejects_zf_failures_of_a_switch_as_nan_records():
    scenario, channels = _tiny_setup(6)
    engine = _FailingEngine(scenario, channels,
                            ZeroForcingRankError("channel rows are rank deficient"))
    coalitions, _, log, _ = _cfg(scenario, channels, 3, 6.0, engine)
    assert log
    assert all(math.isnan(record.utility_new) and not record.accepted for record in log)
    assert coalitions == {c: _greedy(scenario, c, 3) for c in range(scenario.n_ues)}


def test_cfg_propagates_engine_defects():
    # a plain ValueError in a switch trial is a defect, not a rejected switch
    scenario, channels = _tiny_setup(6)
    engine = _FailingEngine(scenario, channels, ValueError("operands could not be broadcast"))
    with pytest.raises(ValueError, match="broadcast"):
        _cfg(scenario, channels, 3, 6.0, engine)


def test_cfg_multi_pass_terminates_and_does_not_regress():
    scenario, channels = _tiny_setup(8)
    single, _, _, single_evaluator = _cfg(
        scenario, channels, 3, 6.0, MrtEngine(channels, scenario.radio.beam_power_w))
    multi, _, _, multi_evaluator = _cfg(
        scenario, channels, 3, 6.0, MrtEngine(channels, scenario.radio.beam_power_w),
        multi_pass=True)
    assert multi_evaluator.utility(multi) >= single_evaluator.utility(single) - 1e-9


def test_gdop_selection_structure():
    scenario, channels = _tiny_setup(9)
    engine = MrtEngine(channels, scenario.radio.beam_power_w)
    coalitions, results, log = gdop_selection(
        gdop_tables(scenario, 3), _evaluator(scenario, channels, engine))
    assert log == []
    for c in range(scenario.n_ues):
        assert coalitions[c] == _greedy(scenario, c, 3)
    assert {(s, c) for s, result in results.items() for c in result.ue_ids} == {
        (s, c) for c, subset in coalitions.items() for s in subset}


def test_stacked_gdop_matches_scalar_gdop_bit_for_bit():
    rng = np.random.default_rng(21)
    rows = _random_unit_rows(rng, 9)
    # rows 0-4 lie in one plane through the terminal: every subset drawn
    # from them is singular
    rows[:5, 2] = 0.0
    rows[:5] /= np.linalg.norm(rows[:5], axis=1, keepdims=True)
    for k in (3, 4, 5):
        subsets = list(itertools.combinations(range(len(rows)), k))
        values = stacked_gdop(rows[np.array(subsets)])
        for subset, value in zip(subsets, values):
            assert value == gdop(rows[list(subset)])
        assert math.isinf(values[subsets.index(tuple(range(k)))])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gdop_tables_match_scalar_gdop_on_select12(seed):
    scenario = generate_scenario(SELECT12.spec, seed)
    tables = gdop_tables(scenario, SELECT12.serving_count)
    assert [table.ue for table in tables] == list(range(scenario.n_ues))
    for table in tables:
        assert len(table.entries) == math.comb(12, 4)
        assert list(table.entries) == sorted(table.entries, key=lambda e: (e[1], e[0]))
        for subset, value in table.entries:
            assert type(value) is float
            assert value == _scalar_gdop(scenario, table.ue, subset)
            assert table.by_subset[subset] is value


def test_greedy_is_table_head_and_preference_is_filtered_prefix():
    for seed in (1, 2):
        scenario = generate_scenario(SELECT12.spec, seed)
        for table in gdop_tables(scenario, 4):
            reference = sorted(
                ((subset, _scalar_gdop(scenario, table.ue, subset))
                 for subset in itertools.combinations(range(12), 4)),
                key=lambda e: (e[1], e[0]))
            assert gdop_greedy_selection(table) == reference[0][0]
            assert table.entries[0] == reference[0]
            for limit in (reference[0][1] * 0.99, reference[5][1], 6.0, math.inf):
                assert build_preference_list(table, limit) == [
                    e for e in reference if e[1] <= limit]


def test_gdop_tables_reject_bad_serving_counts():
    scenario = generate_scenario(TINY_SPEC, seed=1)
    with pytest.raises(ValueError, match="fewer satellites"):
        gdop_tables(scenario, 6)
    with pytest.raises(ValueError, match="at least three"):
        gdop_tables(scenario, 2)


def test_cfg_switch_utilities_equal_full_reevaluation():
    # a trial re-keys only the satellites the terminal joins or leaves; its
    # utility must equal the whole candidate structure evaluated afresh
    for seed in (1, 4, 8):
        scenario, channels = _tiny_setup(seed)
        coalitions_out, _, log, evaluator = _cfg(
            scenario, channels, 3, 6.0, MrtEngine(channels, scenario.radio.beam_power_w),
            multi_pass=seed == 8)
        fresh = _evaluator(scenario, channels, MrtEngine(channels, scenario.radio.beam_power_w))
        coalitions = {c: _greedy(scenario, c, 3) for c in range(scenario.n_ues)}
        for record in log:
            assert record.utility_old == fresh.utility(coalitions)
            candidate = {c: (record.candidate if c == record.ue else subset)
                         for c, subset in coalitions.items()}
            assert record.utility_new == fresh.utility(candidate)
            if record.accepted:
                coalitions = candidate
        assert coalitions_out == coalitions
        assert evaluator.utility(coalitions_out) == fresh.utility(coalitions)


class _TwoTerminalDefectEngine(MrtEngine):
    """MRT engine with a defect: a plain ValueError on 2-terminal served sets."""

    def beams_for_satellite(self, sat_id, ue_ids):
        if len(ue_ids) == 2:
            raise ValueError("defect on a 2-terminal served set")
        return super().beams_for_satellite(sat_id, ue_ids)


def test_exhaustive_coalition_optimum_propagates_engine_defects():
    scenario, channels = _tiny_setup(6)
    engine = _TwoTerminalDefectEngine(channels, scenario.radio.beam_power_w)
    with pytest.raises(ValueError, match="defect on a 2-terminal served set"):
        exhaustive_coalition_optimum(scenario, channels, 3, 6.0, engine)


def test_greedy_is_exhaustive_minimum_above_sixteen_satellites():
    config = ExperimentConfig.from_dict(SELECT17)
    for seed in (1, 2):
        scenario = generate_scenario(config.spec, seed)
        for table in gdop_tables(scenario, config.serving_count):
            subset = gdop_greedy_selection(table)
            assert subset == table.entries[0][0]
            _, oracle_value = exhaustive_min_gdop(scenario, table.ue, config.serving_count)
            assert table.by_subset[subset] == pytest.approx(oracle_value, rel=1e-9)
