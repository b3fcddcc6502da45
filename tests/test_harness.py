import csv
import json
import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import link_lookup
from leoican import harness, metrics, selection
from leoican.beamforming import (
    DcEngine,
    MrtEngine,
    ZfEngine,
    dc_beamforming,
    make_engine,
    mrt_weight,
    zf_satellite,
)
from leoican.channel import build_channel_map
from leoican.geometry import ScenarioSpec, default_radio, generate_scenario
from leoican.harness import (
    DEFAULT_SCHEMES,
    ExperimentConfig,
    SchemeId,
    _write_csv,
    emit_reports,
    run_experiment,
    run_scheme,
    run_seed,
)
from leoican.metrics import per_ue_rates
from leoican.selection import StructureEvaluator, cfg_selection, gdop_tables

TINY = ExperimentConfig(
    spec=ScenarioSpec(n_satellites=5, n_cells=2, radio=default_radio(nx=2, ny=2)),
    serving_count=3,
    seeds=(1, 2),
)
ALL_SCHEMES = tuple(SchemeId(sel, bf) for sel in ("gdop_greedy", "cfg")
                    for bf in ("mrt", "zf", "dc"))


def test_scheme_id_roundtrip():
    scheme = SchemeId.parse("gdop_greedy-dc")
    assert scheme.selection == "gdop_greedy"
    assert scheme.beamforming == "dc"
    assert scheme.name == "gdop_greedy-dc"
    with pytest.raises(ValueError):
        SchemeId("cfg", "nope")
    assert len(DEFAULT_SCHEMES) == 4


def test_config_from_dict_and_profiles():
    config = ExperimentConfig.from_dict({
        "n_satellites": 5,
        "serving_count": 3,
        "gdop_limit": 4.5,
        "radio": {"nx": 2, "ny": 2},
        "schemes": ["cfg-dc", "cfg-mrt"],
        "num_seeds": 3,
    })
    assert config.spec.n_satellites == 5
    assert config.gdop_limit == 4.5
    assert config.seeds == (1, 2, 3)
    assert [s.name for s in config.schemes] == ["cfg-dc", "cfg-mrt"]

    desk = ExperimentConfig.default("desk")
    paper = ExperimentConfig.default("paper")
    assert desk.spec.radio.n_antennas == 16
    assert paper.spec.radio.n_antennas == 64


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"satellites": 7})


@pytest.mark.parametrize("data, key", [
    ({"serving_count": 2}, "serving_count"),
    ({"serving_count": 9}, "serving_count"),
    ({"gdop_limit": -1}, "gdop_limit"),
    ({"gdop_limit": 0}, "gdop_limit"),
    ({"radio": {"nx": 0}}, "radio.nx"),
    ({"radio": {"ny": 0}}, "radio.ny"),
    ({"num_seeds": 0}, "seeds"),
    ({"seeds": []}, "seeds"),
    ({"seeds": "12"}, "seeds"),
    ({"multi_pass": "false"}, "multi_pass"),
    ({"multi_pass": 1}, "multi_pass"),
    ({"seeds": [1, 1]}, r"seeds\[1\]"),
    ({"radio": {"nxx": 2}}, "radio.nxx"),
    ({"dc": {"max_outer": 3}}, "dc"),
    ({"radio": [4, 4]}, "radio"),
    ({"schemes": "cfg-dc"}, "schemes"),
    ({"seeds": [3, 2, 3]}, r"seeds\[2\]"),
    ({"radio": {"nx": "4"}}, "radio.nx"),
    ({"n_satellites": "7"}, "n_satellites"),
    ({"gdop_limit": None}, "gdop_limit"),
    ({"seeds": ["a"]}, "seeds"),
    ({"serving_count": "x"}, "serving_count"),
    ({"seeds": [1.7]}, "seeds"),
    ({"serving_count": True}, "serving_count"),
    ({"dc": {}}, "dc"),
    ({"num_seeds": "3"}, "num_seeds"),
    ({"n_cells": 0}, "n_cells"),
    ({"cell_radius_m": -1.0}, "cell_radius_m"),
    ({"altitude_m": -5.0}, "altitude_m"),
    ({"radio": {"frequency_hz": 0}}, "radio.frequency_hz"),
    ({"radio": {"bandwidth_hz": 0}}, "radio.bandwidth_hz"),
    ({"radio": {"bandwidth_hz": -5e7}}, "radio.bandwidth_hz"),
    ({"radio": {"bandwidth_hz": math.nan}}, "radio.bandwidth_hz"),
    ({"radio": {"beam_power_dbw": math.nan}}, "radio.beam_power_dbw"),
    ({"altitude_m": math.nan}, "altitude_m"),
    ({"gdop_limit": math.inf}, "gdop_limit"),
    ({"cell_radius_m": -math.inf}, "cell_radius_m"),
    ({"max_outer": 3}, "max_outer"),
    ({"min_elevation_deg": 10 ** 400}, "min_elevation_deg"),
    ({"radio": {"atmosphere_loss_db": 1e6}}, "radio.atmosphere_loss_db"),
    ({"radio": {"beam_power_dbw": -1e6}}, "radio.beam_power_dbw"),
    ({"radio": {"noise_density_dbm_hz": -1e6}}, "radio.noise_density_dbm_hz"),
    ({"radio": {"noise_density_dbm_hz": 1e6}}, "radio.noise_density_dbm_hz"),
    ([], "config must be a JSON object"),
    ("abc", "config must be a JSON object"),
    (5, "config must be a JSON object"),
    ({"schemes": []}, "schemes"),
    ({"schemes": [1]}, r"schemes\[0\]"),
    ({"schemes": ["cfg-mrt", "cfg-mrt"]}, r"schemes\[1\]"),
    ({"schemes": ["cfg-dc", "mrt"]}, r"schemes\[1\]"),
    ({"schemes": ["cfg-dc", "cfg-dc-zf"]}, r"schemes\[1\]"),
    ({"seeds": [1], "num_seeds": 3}, "seeds or num_seeds"),
    ({"seeds": [-1]}, r"seeds\[0\] must be >= 0"),
    ({"cap_halfangle_deg": -8.0}, "cap_halfangle_deg"),
    ({"min_elevation_deg": 95.0}, "min_elevation_deg"),
    ({"min_separation_deg": -15.0}, "min_separation_deg"),
])
def test_config_rejects_invalid_values_when_parsed(data, key):
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(data)


def test_config_number_keys_take_ints_and_floats():
    config = ExperimentConfig.from_dict({"gdop_limit": 6, "cap_halfangle_deg": 10})
    assert config.gdop_limit == 6.0 and type(config.gdop_limit) is float
    assert config.spec.cap_halfangle_deg == 10.0
    assert ExperimentConfig.from_dict({"seeds": [3, 1]}).seeds == (3, 1)


def test_config_rejects_repeated_seeds_however_built():
    with pytest.raises(ValueError, match=r"seeds\[2\] repeats seed 1"):
        replace(TINY, seeds=(1, 2, 1))
    with pytest.raises(ValueError, match=r"seeds\[1\] repeats seed 2"):
        TINY.with_seeds([2, 2])
    with pytest.raises(ValueError, match=r"seeds\[0\] must be an integer"):
        TINY.with_seeds([1.0])
    assert TINY.with_seeds(()).seeds == ()


def test_run_experiment_rejects_repeated_seeds_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "run_seed", lambda config, seed: ran.append(seed) or [])
    with pytest.raises(ValueError, match=r"seeds\[1\]"):
        run_experiment(TINY, seeds=[1, 1])
    assert ran == []
    assert run_experiment(TINY, seeds=[2]).config.seeds == (2,)
    assert ran == [2]


def test_config_multi_pass_parsed_as_boolean():
    assert ExperimentConfig.from_dict({"multi_pass": True}).multi_pass is True
    assert ExperimentConfig.from_dict({"multi_pass": False}).multi_pass is False


def test_config_from_file_profile_override(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"radio": {"nx": 2, "ny": 2}, "num_seeds": 1}))
    config = ExperimentConfig.from_file(path, profile="paper")
    assert config.spec.radio.n_antennas == 64


def test_run_seed_composition_matches_direct_modules():
    config = replace(TINY, schemes=(SchemeId("cfg", "mrt"),))
    results = run_seed(config, seed=1)
    assert len(results) == 1
    result = results[0]

    scenario = generate_scenario(config.spec, 1)
    channels = build_channel_map(scenario, np.random.default_rng((1, 1)))
    engine = make_engine("mrt", scenario.radio)
    evaluator = StructureEvaluator(engine, channels, scenario.radio.noise_power_w,
                                   scenario.radio.bandwidth_hz, scenario.n_satellites)
    coalitions, results, _ = cfg_selection(
        gdop_tables(scenario, config.serving_count), config.gdop_limit, evaluator)
    rates = per_ue_rates(results, scenario.n_ues)
    assert result.sum_rate_bps == pytest.approx(float(rates.sum()), rel=1e-12)
    assert result.coalitions == coalitions


def test_run_experiment_pairs_schemes_and_respects_limits():
    report = run_experiment(TINY)
    assert not report.failures
    assert len(report.results) == len(TINY.seeds) * len(TINY.schemes)
    for result in report.results:
        assert sum(result.ue_rates_bps) == pytest.approx(result.sum_rate_bps, rel=1e-9)
        for value in result.ue_gdop:
            assert value <= TINY.gdop_limit
        for subset in result.coalitions.values():
            assert len(subset) == TINY.serving_count
    summaries = {s.scheme.name: s for s in report.summaries()}
    assert summaries["cfg-dc"].mean_sum_rate_bps >= summaries["gdop_greedy-dc"].mean_sum_rate_bps - 1e-6


def test_run_experiment_records_failures():
    config = replace(TINY, gdop_limit=1e-9, seeds=(1,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_experiment(config)
    assert len(report.failures) == 1
    assert report.results == []
    assert math.isnan(report.summaries()[0].mean_sum_rate_bps)


def test_run_experiment_above_sixteen_satellites_starts_from_the_table_heads():
    # a GDOP limit just above every terminal's minimum is feasible at any
    # constellation size: the coalition game starts from each table's head
    config = ExperimentConfig.from_dict({
        "n_satellites": 17, "cap_halfangle_deg": 14.0, "min_separation_deg": 8.0,
        "gdop_limit": 1.55, "schemes": ["cfg-mrt", "gdop_greedy-mrt"], "seeds": [1]})
    report = run_experiment(config)
    assert report.failures == []
    cfg, greedy = report.results
    assert max(cfg.ue_gdop) <= 1.55
    tables = gdop_tables(generate_scenario(config.spec, 1), config.serving_count)
    assert greedy.coalitions == {table.ue: table.entries[0][0] for table in tables}
    assert greedy.ue_gdop == [table.entries[0][1] for table in tables]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("scheme", ["gdop_greedy-zf", "cfg-zf"])
def test_run_experiment_records_zero_forcing_failures(scheme, jobs):
    # 7 terminals on a 2-antenna array: zero forcing cannot null them
    config = ExperimentConfig.from_dict(
        {"radio": {"nx": 2, "ny": 1}, "schemes": [scheme], "seeds": [1]})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_experiment(config, jobs=jobs)
    assert report.results == []
    assert len(report.failures) == 1
    seed, message = report.failures[0]
    assert seed == 1 and "exceed 2 antennas" in message


def test_parallel_seeds_match_serial():
    serial = run_experiment(TINY, jobs=1)
    parallel = run_experiment(TINY, jobs=2)
    a = {(r.scheme.name, r.seed): r.sum_rate_bps for r in serial.results}
    b = {(r.scheme.name, r.seed): r.sum_rate_bps for r in parallel.results}
    assert a == b


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, seeds, workers", [
    (1, (1, 2), []),
    (2, (1,), []),
    (1000, (1,), []),
    (1000, (1, 2), [2]),
    (3, (1, 2, 3, 4), [3]),
])
def test_run_experiment_forks_at_most_one_worker_per_seed(monkeypatch, jobs, seeds, workers):
    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    report = run_experiment(TINY, seeds=seeds, jobs=jobs)
    assert _InProcessPool.sizes == workers
    assert sorted({r.seed for r in report.results}) == list(seeds)


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_experiment_rejects_fewer_than_one_job(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_experiment(TINY, jobs=jobs)


def test_emit_reports_files_and_shapes(tmp_path):
    report = run_experiment(TINY)
    paths = emit_reports(report, tmp_path / "out")
    names = {p.name for p in paths}
    assert names == {"summary.csv", "per_ue.csv", "dc_trace.csv", "switches.csv", "summary.txt"}
    per_ue = (tmp_path / "out" / "per_ue.csv").read_text().splitlines()
    expected_rows = len(TINY.seeds) * len(TINY.schemes) * TINY.spec.n_cells
    assert len(per_ue) == 1 + expected_rows
    assert per_ue[0] == "scheme,seed,ue,rate_bps,gdop"
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert len(summary) == 1 + len(TINY.schemes)


def test_emit_reports_empty_seed_list(tmp_path):
    report = run_experiment(TINY.with_seeds(()))
    emit_reports(report, tmp_path / "out")
    per_ue = (tmp_path / "out" / "per_ue.csv").read_text().splitlines()
    assert per_ue == ["scheme,seed,ue,rate_bps,gdop"]


def test_emit_reports_rerun_byte_identical(tmp_path):
    for directory in ("a", "b"):
        report = run_experiment(TINY)
        emit_reports(report, tmp_path / directory)
    for name in ("summary.csv", "per_ue.csv", "dc_trace.csv", "switches.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_write_csv_matches_per_value_repr_writer(tmp_path):
    rows = [
        ["cfg-dc", 3, 0, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1],
        ["a,b", -7, 12, 0.1, 1.0 / 3.0, 1e300, 2.5e-10, 123456789.123456789, 0],
        ["", 0, 1, 1e16, -1.5, 0.0, float(np.float64(0.7)), 2.0 ** 0.5, 1],
    ]
    header = [f"c{i}" for i in range(len(rows[0]))]

    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])

    _write_csv(tmp_path / "written.csv", header, rows)
    assert (tmp_path / "written.csv").read_bytes() == reference.read_bytes()


def _list_switch_rows(report):
    """The switch-log rows as the writer built them before it streamed:
    one list of every row, each float converted and written by csv."""
    rows = []
    labels = {}
    for r in report.results:
        for record in r.switches:
            label = labels.get(record.candidate)
            if label is None:
                label = labels[record.candidate] = "|".join(map(str, record.candidate))
            rows.append([r.scheme.name, r.seed, record.ue, label, float(record.gdop),
                         float(record.utility_old), float(record.utility_new),
                         int(record.accepted)])
    return rows


def test_streamed_switch_log_matches_list_writer(tmp_path):
    def fresh(text):  # a float object of its own, equal to other parses
        return float(text)

    u0, u1, u2 = fresh("1.5e9"), fresh("1.5e9"), fresh("-0.0")
    assert u0 is not u1
    records = [
        selection.SwitchRecord(0, (0, 1, 2), 2.5, u0, math.nan, False),
        selection.SwitchRecord(0, (0, 1, 3), 5e-324, u0, fresh("1.6e9"), True),
        selection.SwitchRecord(1, (1, 2, 3), math.inf, u1, -math.inf, False),
        selection.SwitchRecord(1, (0, 2, 3), 3.0, u1, math.inf, False),
        selection.SwitchRecord(2, (0, 1, 2), 3.25, u2, 5e-324, False),
        selection.SwitchRecord(2, (0, 1, 3), 3.5, fresh("0.0"), -0.0, True),
        selection.SwitchRecord(0, (0, 1, 2), 4.0, math.nan, fresh("nan"), False),
        selection.SwitchRecord(0, (0, 1, 3), 4.5, fresh("nan"), np.float64(0.7), False),
        selection.SwitchRecord(1, (1, 2, 3), np.float64(2.0), np.float64(1.0 / 3.0), 1.0,
                               np.bool_(True)),
        selection.SwitchRecord(1, (1, 2, 3), 6.0, fresh("inf"), fresh("-inf"), False),
    ]
    results = [
        harness.SeedResult(SchemeId("cfg", "mrt"), seed, 0.0, [], [], {}, log, [], 0.0)
        for seed, log in ((1, records[:5]), (2, records[5:]), (3, []))
    ]
    report = harness.ExperimentReport(TINY, results, [])

    emit_reports(report, tmp_path)
    reference = tmp_path / "reference.csv"
    _write_csv(reference, ["scheme", "seed", "ue", "candidate", "gdop",
                           "u_old_bps", "u_new_bps", "accepted"], _list_switch_rows(report))
    assert (tmp_path / "switches.csv").read_bytes() == reference.read_bytes()
    assert "-0.0" in reference.read_text() and "5e-324" in reference.read_text()


def test_dc_trace_rows_only_for_dc_schemes():
    report = run_experiment(replace(TINY, schemes=(SchemeId("cfg", "mrt"), SchemeId("cfg", "dc"))))
    for result in report.results:
        if result.scheme.beamforming == "dc":
            assert result.dc_trace_rows
        else:
            assert result.dc_trace_rows == []


def test_run_scheme_switch_log_populated():
    scenario = generate_scenario(TINY.spec, 3)
    channels = build_channel_map(scenario, np.random.default_rng((3, 1)))
    evaluator = StructureEvaluator(
        make_engine("mrt", scenario.radio), channels,
        scenario.radio.noise_power_w, scenario.radio.bandwidth_hz, scenario.n_satellites)
    result = run_scheme(SchemeId("cfg", "mrt"), scenario,
                        gdop_tables(scenario, TINY.serving_count), evaluator, TINY)
    assert result.switches  # candidate evaluations were logged
    accepted = [s for s in result.switches if s.accepted]
    for record in accepted:
        assert record.utility_new >= record.utility_old


def _seed_link_lookup(config, seed):
    """:func:`helpers.link_lookup` of the channel map ``run_seed`` draws."""
    scenario = generate_scenario(config.spec, seed)
    return link_lookup(build_channel_map(scenario, np.random.default_rng((seed, 1))))


def test_run_seed_shares_selection_work_across_schemes(monkeypatch):
    # each terminal's GDOP table is built once per seed, and each engine
    # kind solves each (satellite, served set) at most once per seed
    config = replace(TINY, schemes=ALL_SCHEMES)
    table_calls = []
    scalar_calls = []
    engine_calls = []
    stacked_gdop = selection.stacked_gdop
    gdop = selection.gdop

    def counting_stacked_gdop(g_stack):
        table_calls.append(len(g_stack))
        return stacked_gdop(g_stack)

    def counting_gdop(g_matrix):
        scalar_calls.append(g_matrix)
        return gdop(g_matrix)

    monkeypatch.setattr(selection, "stacked_gdop", counting_stacked_gdop)
    monkeypatch.setattr(selection, "gdop", counting_gdop)
    for engine_class in (MrtEngine, ZfEngine, DcEngine):
        def counting_beams(self, h, _original=engine_class.beams_for_satellite):
            engine_calls.append((self.name, *served(h)))
            return _original(self, h)
        monkeypatch.setattr(engine_class, "beams_for_satellite", counting_beams)

    for seed in config.seeds:
        table_calls.clear()
        engine_calls.clear()
        served = _seed_link_lookup(config, seed)
        results = run_seed(config, seed)
        assert len(results) == 6
        n_ues = generate_scenario(config.spec, seed).n_ues
        assert table_calls == [math.comb(5, 3)] * n_ues
        assert scalar_calls == []
        assert {kind for kind, _, _ in engine_calls} == {"mrt", "zf", "dc"}
        assert len(set(engine_calls)) == len(engine_calls)
        by_scheme = {r.scheme.name: r for r in results}
        for kind in ("mrt", "zf", "dc"):
            assert by_scheme[f"cfg-{kind}"].sum_rate_bps >= by_scheme[
                f"gdop_greedy-{kind}"].sum_rate_bps * (1.0 - 1e-12)


def test_run_seed_computes_each_rate_once_and_keeps_engines_stateless(monkeypatch):
    # each (satellite, served set) record holds its rates: the rate kernel
    # runs once per engine call, the reported per-terminal rates are read
    # from the records, and an engine is the same after the run
    config = replace(TINY, schemes=ALL_SCHEMES)
    kernel_calls = []  # True for a call made inside per_ue_rates
    engine_returns = []
    inside_per_ue = []
    engines = []
    rates_kernel = metrics.satellite_rates
    per_ue = harness.per_ue_rates
    build_engine = harness.make_engine

    def counting_kernel(*args):
        kernel_calls.append(bool(inside_per_ue))
        return rates_kernel(*args)

    def tracking_per_ue(*args):
        inside_per_ue.append(True)
        try:
            return per_ue(*args)
        finally:
            inside_per_ue.pop()

    def recording_make_engine(*args):
        engine = build_engine(*args)
        engines.append((engine, pickle.dumps(vars(engine))))
        return engine

    monkeypatch.setattr(selection, "satellite_rates", counting_kernel)
    monkeypatch.setattr(metrics, "satellite_rates", counting_kernel)
    monkeypatch.setattr(harness, "per_ue_rates", tracking_per_ue)
    monkeypatch.setattr(harness, "make_engine", recording_make_engine)
    for engine_class in (MrtEngine, ZfEngine, DcEngine):
        def counting_beams(self, h, _original=engine_class.beams_for_satellite):
            out = _original(self, h)
            engine_returns.append((self.name, *served(h)))
            return out
        monkeypatch.setattr(engine_class, "beams_for_satellite", counting_beams)

    for seed in config.seeds:
        kernel_calls.clear()
        engine_returns.clear()
        engines.clear()
        served = _seed_link_lookup(config, seed)
        assert len(run_seed(config, seed)) == 6
        assert {kind for kind, _, _ in engine_returns} == {"mrt", "zf", "dc"}
        assert len(kernel_calls) == len(engine_returns)
        assert not any(kernel_calls)
        assert [engine.name for engine, _ in engines] == ["mrt", "zf", "dc"]
        for engine, before in engines:
            assert pickle.dumps(vars(engine)) == before, engine.name


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind", ["mrt", "zf", "dc"])
def test_seed_result_rates_match_per_link_reference(kind, seed):
    # the reported rates and DC trace rows come from cached records; redo
    # each final satellite's design directly and its rates link by link
    config = replace(TINY, schemes=(SchemeId("cfg", kind),))
    [result] = run_seed(config, seed)
    scenario = generate_scenario(config.spec, seed)
    channels = build_channel_map(scenario, np.random.default_rng((seed, 1)))
    radio = scenario.radio
    expected = np.zeros(scenario.n_ues)
    dc_rows = []
    for s in range(scenario.n_satellites):
        ue_ids = [c for c, subset in sorted(result.coalitions.items()) if s in subset]
        if not ue_ids:
            continue
        h = [channels[(s, c)] for c in ue_ids]
        if kind == "mrt":
            beams = [mrt_weight(row, radio.beam_power_w) for row in h]
        elif kind == "zf":
            beams = zf_satellite(np.array(h), radio.beam_power_w)
        else:
            beams, trace = dc_beamforming(np.array(h), radio.beam_power_w,
                                          radio.noise_power_w, radio.bandwidth_hz)
            dc_rows += [(s, *row) for row in trace.rows]
        for i, c in enumerate(ue_ids):
            interference = sum(abs(np.vdot(h[i], beams[p])) ** 2
                               for p in range(len(ue_ids)) if p != i)
            expected[c] += radio.bandwidth_hz * math.log2(
                1.0 + abs(np.vdot(h[i], beams[i])) ** 2 / (interference + radio.noise_power_w))
    assert np.allclose(result.ue_rates_bps, expected, rtol=1e-9, atol=0.0)
    assert result.dc_trace_rows == dc_rows
    assert (kind == "dc") == bool(dc_rows)
