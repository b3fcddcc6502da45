"""Experiment orchestration: scheme matrix, seeded Monte-Carlo runs, reports.

A scheme pairs a selection algorithm with a beamforming algorithm. All
schemes within one seed share the same scenario and channel realization, so
comparisons are paired, and the same selection-layer work: the terminals'
GDOP tables and one per-satellite result cache per beamforming kind (see
``selection``), each computed once per seed. Per-seed failures (e.g. an
infeasible GDOP limit) are recorded and excluded from aggregates, never
silently dropped.
"""

import concurrent.futures
import contextlib
import csv
import functools
import json
import math
import time
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .beamforming import ZeroForcingError, make_engine
from .channel import build_channel_map
from .geometry import (
    RadioParams,
    ScenarioGenerationError,
    ScenarioSpec,
    generate_scenario,
    zenith_elevation_deg,
)
from .metrics import per_ue_rates
from .selection import (
    InfeasibleSelectionError,
    StructureEvaluator,
    cfg_selection,
    gdop_selection,
    gdop_tables,
)

SELECTION_KINDS = ("gdop_greedy", "cfg")
BEAMFORMING_KINDS = ("mrt", "zf", "dc")


@dataclass(frozen=True)
class SchemeId:
    """One row of the comparison matrix."""

    selection: str
    beamforming: str

    def __post_init__(self):
        if self.selection not in SELECTION_KINDS:
            raise ValueError(f"unknown selection kind {self.selection!r}")
        if self.beamforming not in BEAMFORMING_KINDS:
            raise ValueError(f"unknown beamforming kind {self.beamforming!r}")

    @property
    def name(self) -> str:
        return f"{self.selection}-{self.beamforming}"

    @classmethod
    def parse(cls, text):
        selection, _, beamforming = text.rpartition("-")
        return cls(selection, beamforming)


DEFAULT_SCHEMES = (
    SchemeId("cfg", "mrt"),
    SchemeId("cfg", "zf"),
    SchemeId("gdop_greedy", "dc"),
    SchemeId("cfg", "dc"),
)

PROFILE_ANTENNAS = {"desk": (4, 4), "paper": (8, 8)}

# Errors that make one seed unusable (its scenario, GDOP limit or channels
# admit no run of some scheme); the seed is recorded as failed, the
# experiment goes on.
SEED_ERRORS = (InfeasibleSelectionError, ScenarioGenerationError, ZeroForcingError)


def _pop_list(data, key):
    """Pop the list ``data[key]``; a string is rejected, not read as a list of
    characters."""
    value = data.pop(key)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def _schemes(names):
    """The ``schemes`` list as :class:`SchemeId` rows: at least one, each a
    distinct "<selection>-<beamforming>" string."""
    if not names:
        raise ValueError("schemes must name at least one scheme")
    schemes = []
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise ValueError(f"schemes[{i}] must be a string, got {name!r}")
        try:
            scheme = SchemeId.parse(name)
        except ValueError as err:
            raise ValueError(f"schemes[{i}]={name!r}: {err}") from None
        if scheme in schemes:
            raise ValueError(f"schemes[{i}] repeats {name!r}")
        schemes.append(scheme)
    return tuple(schemes)


def _int(key, value):
    """``value`` of the config key ``key``, which takes a JSON integer only:
    no bool, string or fraction."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _float(key, value):
    """``value`` of the config key ``key``, which takes a finite JSON number
    (int or float, not bool, NaN or infinity), as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return number


def _bool(key, value):
    """``value`` of the config key ``key``, which takes true or false only."""
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


_FIELD_CHECKS = {bool: _bool, int: _int, float: _float}


def _pop_fields(data, cls, prefix=""):
    """Pop from ``data`` the keys that name scalar fields of the dataclass
    ``cls``; each value is checked by the type of its field's default."""
    return {f.name: _FIELD_CHECKS[type(f.default)](prefix + f.name, data.pop(f.name))
            for f in fields(cls) if f.name in data and type(f.default) in _FIELD_CHECKS}


@dataclass(frozen=True)
class ExperimentConfig:
    spec: ScenarioSpec = field(default_factory=ScenarioSpec)
    serving_count: int = 4
    gdop_limit: float = 6.0
    schemes: tuple = DEFAULT_SCHEMES
    seeds: tuple = tuple(range(1, 21))
    multi_pass: bool = False

    def __post_init__(self):
        if not 3 <= self.serving_count <= self.spec.n_satellites:
            raise ValueError(
                f"serving_count must be in [3, n_satellites={self.spec.n_satellites}], "
                f"got {self.serving_count!r}")
        if not self.gdop_limit > 0.0:
            raise ValueError(f"gdop_limit must be > 0, got {self.gdop_limit!r}")
        for i, seed in enumerate(self.seeds):
            if _int(f"seeds[{i}]", seed) < 0:
                raise ValueError(f"seeds[{i}] must be >= 0, got {seed!r}")
            if seed in self.seeds[:i]:
                raise ValueError(f"seeds[{i}] repeats seed {seed}")
        spec, radio = self.spec, self.spec.radio
        for key, value in (("n_cells", spec.n_cells), ("radio.nx", radio.nx),
                           ("radio.ny", radio.ny)):
            if not value >= 1:
                raise ValueError(f"{key} must be >= 1, got {value!r}")
        for key, value in (("altitude_m", spec.altitude_m),
                           ("cell_radius_m", spec.cell_radius_m),
                           ("radio.frequency_hz", radio.frequency_hz),
                           ("radio.bandwidth_hz", radio.bandwidth_hz)):
            if not value > 0.0:
                raise ValueError(f"{key} must be > 0, got {value!r}")
        # the sampler reads only the cosine of the cap half-angle, so an
        # angle outside its range would run silently as another one
        if not 0.0 < spec.cap_halfangle_deg <= 180.0:
            raise ValueError(
                f"cap_halfangle_deg must be in (0, 180], got {spec.cap_halfangle_deg!r}")
        for key, value, low, high in (
                ("min_elevation_deg", spec.min_elevation_deg, -90.0, 90.0),
                ("min_separation_deg", spec.min_separation_deg, 0.0, 180.0)):
            if not low <= value <= high:
                raise ValueError(f"{key} must be in [{low:g}, {high:g}], got {value!r}")
        ceiling = zenith_elevation_deg(spec)
        if spec.min_elevation_deg > ceiling:
            raise ValueError(
                f"min_elevation_deg must be at most the zenith ceiling {ceiling:.4f}, the "
                f"zenith satellite's lowest elevation over the terminals, "
                f"got {spec.min_elevation_deg!r}")
        # terminal 0 sits at the grid center, where the zenith satellite is at
        # 90 degrees, so any other satellite is at most 90 - min_separation_deg
        if spec.min_elevation_deg >= 90.0 - spec.min_separation_deg:
            raise ValueError(
                f"min_elevation_deg must be below 90 - min_separation_deg "
                f"= {90.0 - spec.min_separation_deg:g}, or no second satellite can be "
                f"placed, got {spec.min_elevation_deg!r}")
        # the dB keys reach the scenario as linear values; one that over- or
        # underflows a float is rejected under the key the user wrote
        for key, name in (("radio.beam_power_dbw", "beam_power_w"),
                          ("radio.noise_density_dbm_hz", "noise_power_w"),
                          ("radio.atmosphere_loss_db", "atmosphere_gain")):
            value = getattr(radio, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{key} gives {name}={value!r}; it must be finite and > 0")

    @classmethod
    def from_dict(cls, data, profile=None):
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
        data = dict(data)
        radio = data.pop("radio", {})
        if not isinstance(radio, dict):
            raise ValueError(f"radio must be a mapping, got {radio!r}")
        radio = dict(radio)
        radio_kwargs = _pop_fields(radio, RadioParams, "radio.")
        if profile is not None:
            if profile not in PROFILE_ANTENNAS:
                raise ValueError(
                    f"profile must be one of {sorted(PROFILE_ANTENNAS)}, got {profile!r}")
            radio_kwargs["nx"], radio_kwargs["ny"] = PROFILE_ANTENNAS[profile]
        kwargs = _pop_fields(data, cls)
        kwargs["spec"] = ScenarioSpec(radio=RadioParams(**radio_kwargs),
                                      **_pop_fields(data, ScenarioSpec))
        if "schemes" in data:
            kwargs["schemes"] = _schemes(_pop_list(data, "schemes"))
        if "seeds" in data and "num_seeds" in data:
            raise ValueError("give seeds or num_seeds, not both")
        if "seeds" in data:
            kwargs["seeds"] = tuple(_pop_list(data, "seeds"))
        elif "num_seeds" in data:
            kwargs["seeds"] = tuple(range(1, _int("num_seeds", data.pop("num_seeds")) + 1))
        unknown = sorted(data) + sorted(f"radio.{key}" for key in radio)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        if kwargs.get("seeds") == ():
            raise ValueError("seeds must name at least one seed")
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path, profile=None):
        with open(path) as fh:
            return cls.from_dict(json.load(fh), profile=profile)

    def with_seeds(self, seeds):
        return replace(self, seeds=tuple(seeds))


@dataclass
class SeedResult:
    scheme: SchemeId
    seed: int
    sum_rate_bps: float
    ue_rates_bps: list
    ue_gdop: list
    coalitions: dict
    switches: list
    dc_trace_rows: list  # (satellite, iteration, surrogate_bps, sum_rate_bps)
    elapsed_s: float


@dataclass
class SchemeSummary:
    scheme: SchemeId
    n_seeds: int
    mean_sum_rate_bps: float
    std_sum_rate_bps: float


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    results: list
    failures: list  # (seed, message)

    def scheme_rates(self, scheme):
        return [r.sum_rate_bps for r in self.results if r.scheme == scheme]

    def summaries(self):
        out = []
        for scheme in self.config.schemes:
            rates = self.scheme_rates(scheme)
            if rates:
                mean = float(np.mean(rates))
                std = float(np.std(rates, ddof=1)) if len(rates) > 1 else 0.0
            else:
                mean = std = math.nan
            out.append(SchemeSummary(scheme, len(rates), mean, std))
        return out


def run_scheme(scheme, scenario, tables, evaluator, config):
    """Run one scheme on a prepared scenario with the seed's shared work.

    ``tables`` are the terminals' GDOP tables and ``evaluator`` the seed's
    :class:`StructureEvaluator` for the scheme's beamforming kind. The
    per-terminal rates and DC trace rows are read from the evaluator's
    records of the final coalitions, and each terminal's GDOP from its
    table.
    """
    start = time.perf_counter()
    if scheme.selection == "cfg":
        coalitions, results, switches = cfg_selection(
            tables, config.gdop_limit, evaluator, multi_pass=config.multi_pass)
    else:
        coalitions, results, switches = gdop_selection(tables, evaluator)

    rates = per_ue_rates(results, scenario.n_ues)
    dc_rows = [(s, *row) for s, result in results.items() if result.dc_trace is not None
               for row in result.dc_trace.rows]

    return SeedResult(
        scheme=scheme,
        seed=scenario.seed,
        sum_rate_bps=float(rates.sum()),
        ue_rates_bps=[float(r) for r in rates],
        ue_gdop=[tables[c].by_subset[coalitions[c]] for c in sorted(coalitions)],
        coalitions=coalitions,
        switches=switches,
        dc_trace_rows=dc_rows,
        elapsed_s=time.perf_counter() - start,
    )


def run_seed(config, seed):
    """All schemes on one seed, sharing the scenario, the channels, the GDOP
    tables and one evaluator per beamforming kind."""
    scenario = generate_scenario(config.spec, seed)
    channels = build_channel_map(scenario, np.random.default_rng((int(seed), 1)))
    tables = gdop_tables(scenario, config.serving_count)
    radio = scenario.radio
    evaluators = {
        kind: StructureEvaluator(make_engine(kind, radio), channels,
                                 radio.noise_power_w, radio.bandwidth_hz,
                                 scenario.n_satellites)
        for kind in dict.fromkeys(scheme.beamforming for scheme in config.schemes)
    }
    return [run_scheme(scheme, scenario, tables, evaluators[scheme.beamforming], config)
            for scheme in config.schemes]


def _seed_outcome(config, seed):
    """(results, None) of one seed, or (None, error) if the seed cannot run."""
    try:
        return run_seed(config, seed), None
    except SEED_ERRORS as err:
        return None, err


def run_experiment(config, seeds=None, jobs=1):
    """Run the scheme matrix over all seeds and collect a report.

    ``seeds`` replaces the config's seeds, checked before any seed runs.
    ``jobs`` (at least 1) caps the worker processes; with more than one seed
    and ``jobs > 1`` the seeds run in a pool of at most one worker per seed.
    Results and failures are collected in seed order either way.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs!r}")
    if seeds is not None:
        config = config.with_seeds(seeds)
    results = []
    failures = []
    workers = min(jobs, len(config.seeds))
    with (concurrent.futures.ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        outcomes = (pool.map if pool else map)(
            functools.partial(_seed_outcome, config), config.seeds)
        for seed, (outcome, error) in zip(config.seeds, outcomes):
            if error is not None:
                warnings.warn(f"seed {seed} excluded: {error}")
                failures.append((seed, str(error)))
            else:
                results.extend(outcome)
    return ExperimentReport(config=config, results=results, failures=failures)


def _write_csv(path, header, rows):
    """Write rows of str, int and Python float; csv writes a float as its
    repr, the shortest string that reads back to the same value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _switch_rows(report):
    """The rows of ``switches.csv``, generated one at a time.

    A candidate's label is made once; ``utility_old`` is the same float
    object on every record between two accepts, so its text is reused while
    it is (``is``, so NaN and -0.0 keep their own text). The text is the
    ``repr`` that csv writes for a float.
    """
    labels = {}  # candidate tuple -> "a|b|c|d"; candidates repeat across rows
    utility_old = old_text = None
    for r in report.results:
        name = r.scheme.name
        for record in r.switches:
            label = labels.get(record.candidate)
            if label is None:
                label = labels[record.candidate] = "|".join(map(str, record.candidate))
            if record.utility_old is not utility_old:
                utility_old = record.utility_old
                old_text = repr(float(utility_old))
            yield [name, r.seed, record.ue, label, float(record.gdop), old_text,
                   float(record.utility_new), int(record.accepted)]


def emit_reports(report, out_dir):
    """Write summary/per-terminal/trace/switch CSVs plus a text summary.

    CSV contents are a pure function of the report data (timings go to the
    text summary only), so reruns with identical inputs are byte-identical.
    The switch log, one row per trial, is streamed to its file row by row
    (:func:`_switch_rows`) rather than built as one list.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summary_rows = []
    for s in report.summaries():
        summary_rows.append([
            s.scheme.name, s.scheme.selection, s.scheme.beamforming, s.n_seeds,
            float(s.mean_sum_rate_bps), float(s.std_sum_rate_bps),
            float(s.mean_sum_rate_bps / 1e9), float(s.std_sum_rate_bps / 1e9),
        ])
    _write_csv(out / "summary.csv",
               ["scheme", "selection", "beamforming", "n_seeds",
                "mean_sum_rate_bps", "std_sum_rate_bps",
                "mean_sum_rate_gbps", "std_sum_rate_gbps"],
               summary_rows)

    per_ue_rows = []
    for r in report.results:
        for c, (rate_bps, gdop_value) in enumerate(zip(r.ue_rates_bps, r.ue_gdop)):
            per_ue_rows.append([r.scheme.name, r.seed, c, float(rate_bps), float(gdop_value)])
    _write_csv(out / "per_ue.csv",
               ["scheme", "seed", "ue", "rate_bps", "gdop"], per_ue_rows)

    trace_rows = []
    for r in report.results:
        for sat, iteration, surrogate, true_rate in r.dc_trace_rows:
            trace_rows.append([r.scheme.name, r.seed, sat, iteration,
                               float(surrogate), float(true_rate)])
    _write_csv(out / "dc_trace.csv",
               ["scheme", "seed", "satellite", "iteration",
                "surrogate_bps", "sum_rate_bps"], trace_rows)

    _write_csv(out / "switches.csv",
               ["scheme", "seed", "ue", "candidate", "gdop",
                "u_old_bps", "u_new_bps", "accepted"], _switch_rows(report))

    (out / "summary.txt").write_text(format_summary(report))
    return [out / name for name in
            ("summary.csv", "per_ue.csv", "dc_trace.csv", "switches.csv", "summary.txt")]


def format_summary(report):
    spec = report.config.spec
    lines = [
        "experiment summary",
        f"  satellites={spec.n_satellites} cells={spec.n_cells} "
        f"antennas={spec.radio.nx}x{spec.radio.ny} serving_count={report.config.serving_count} "
        f"gdop_limit={report.config.gdop_limit}",
        f"  seeds: {len(report.config.seeds)} requested, {len(report.failures)} failed",
    ]
    for s in report.summaries():
        mean_gbps = s.mean_sum_rate_bps / 1e9
        std_gbps = s.std_sum_rate_bps / 1e9
        lines.append(
            f"  {s.scheme.name:>16}: {mean_gbps:8.4f} Gbps mean +- {std_gbps:7.4f} ({s.n_seeds} seeds)")
    total_time = sum(r.elapsed_s for r in report.results)
    lines.append(f"  total scheme runtime: {total_time:.1f} s")
    for seed, message in report.failures:
        lines.append(f"  seed {seed} FAILED: {message}")
    return "\n".join(lines) + "\n"
