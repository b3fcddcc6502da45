"""The coalition switch loop against its dict-and-frozenset predecessor.

``cfg_selection`` memoizes, per terminal, the rate of each satellite with the
terminal toggled in its served set, and continues each trial's utility from
the running prefix sum of the current rates. The reference below is the loop
it replaced: every trial asks the evaluator for every changed satellite and
sums the whole candidate structure afresh. Both must make the same engine
calls in the same order and give the same log, structure and records, to the
last bit.
"""

import math

import numpy as np
import pytest

from leoican.beamforming import DcSettings, ZeroForcingRankError, ZeroForcingSizeError, make_engine
from leoican.channel import build_channel_map
from leoican.geometry import generate_scenario
from leoican.harness import ExperimentConfig
from leoican.selection import (
    InfeasibleSelectionError,
    StructureEvaluator,
    SwitchRecord,
    build_preference_list,
    cfg_selection,
    gdop_greedy_selection,
    gdop_tables,
)

SELECT12 = {"n_satellites": 12, "cap_halfangle_deg": 10.0, "radio": {"nx": 8, "ny": 8}}
# five terminals on 2x2 arrays: every switch that puts a fifth terminal on a
# satellite has no zero-forcing solution and is logged with a NaN utility
SELECT12_2X2 = {"n_satellites": 12, "cap_halfangle_deg": 10.0, "n_cells": 5,
                "radio": {"nx": 2, "ny": 2}}
TINY = {"n_satellites": 5, "n_cells": 2, "serving_count": 3, "radio": {"nx": 2, "ny": 2}}


def _total(rates):
    total = 0.0
    for rate in rates:
        total += rate
    return total


def _reference_cfg_selection(tables, gdop_limit, evaluator,
                             multi_pass=False, min_gain_rel=1e-6):
    """(coalitions, GDOPs, utility, results, log) of the replaced loop."""
    preference = {}
    for c in range(len(tables)):
        entries = build_preference_list(tables[c], gdop_limit)
        if not entries:
            raise InfeasibleSelectionError(
                f"GDOP limit {gdop_limit} is infeasible for terminal {c}")
        preference[c] = entries

    coalitions = {c: gdop_greedy_selection(tables[c]) for c in range(len(tables))}
    served = evaluator.served_sets(coalitions)
    rates = [evaluator.rate(s, ue_ids) for s, ue_ids in enumerate(served)]
    utility = _total(rates)
    log = []

    while True:
        accepted_any = False
        for c in range(len(tables)):
            for subset, subset_gdop_value in preference[c]:
                if subset == coalitions[c]:
                    continue
                changed = sorted(set(coalitions[c]).symmetric_difference(subset))
                try:
                    moved = {s: evaluator.rate(s, served[s] ^ {c}) for s in changed}
                except (ZeroForcingRankError, ZeroForcingSizeError):
                    log.append(SwitchRecord(c, subset, subset_gdop_value,
                                            utility, math.nan, False))
                    continue
                utility_new = _total([moved.get(s, rate) for s, rate in enumerate(rates)])
                if multi_pass:
                    accepted = utility_new > utility + min_gain_rel * abs(utility)
                else:
                    accepted = utility_new >= utility
                log.append(SwitchRecord(c, subset, subset_gdop_value,
                                        utility, utility_new, accepted))
                if accepted:
                    coalitions[c] = subset
                    for s, rate in moved.items():
                        served[s] ^= {c}
                        rates[s] = rate
                    utility = utility_new
                    accepted_any = True
        if not multi_pass or not accepted_any:
            break

    gdops = {c: tables[c].by_subset[coalitions[c]] for c in coalitions}
    return coalitions, gdops, utility, evaluator.results(coalitions), log


class _RecordingEngine:
    """Passes calls to ``engine`` and records each (satellite, terminals),
    also those that raise."""

    def __init__(self, engine):
        self.engine = engine
        self.calls = []

    def beams_for_satellite(self, sat_id, ue_ids):
        self.calls.append((sat_id, tuple(ue_ids)))
        return self.engine.beams_for_satellite(sat_id, ue_ids)


def _same(a, b):
    """Equal, or both NaN."""
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def _fields(record):
    return (record.ue, record.candidate, record.gdop, record.utility_old,
            record.utility_new, record.accepted)


@pytest.mark.parametrize("config, seed, kind, multi_pass", [
    *[(SELECT12, seed, kind, False) for seed in (1, 2, 3) for kind in ("mrt", "zf")],
    (SELECT12, 1, "zf", True),
    (SELECT12_2X2, 3, "zf", False),
    (SELECT12_2X2, 3, "zf", True),
    (TINY, 2, "dc", False),
    (TINY, 8, "dc", True),
])
def test_switch_loop_matches_reference(config, seed, kind, multi_pass):
    config = ExperimentConfig.from_dict(config)
    scenario = generate_scenario(config.spec, seed)
    channels = build_channel_map(scenario, np.random.default_rng((seed, 1)))
    tables = gdop_tables(scenario, config.serving_count)
    dc = DcSettings(max_outer=5) if kind == "dc" else config.dc
    radio = scenario.radio

    def evaluator():
        engine = _RecordingEngine(make_engine(kind, channels, radio, dc))
        return StructureEvaluator(engine, channels, radio.noise_power_w,
                                  radio.bandwidth_hz, scenario.n_satellites)

    reference, lean = evaluator(), evaluator()
    ref_coalitions, ref_gdops, ref_utility, ref_results, ref_log = _reference_cfg_selection(
        tables, config.gdop_limit, reference, multi_pass=multi_pass)
    coalitions, results, log = cfg_selection(
        tables, config.gdop_limit, lean, multi_pass=multi_pass)

    assert lean.engine.calls == reference.engine.calls
    assert coalitions == ref_coalitions
    assert {c: tables[c].by_subset[subset] for c, subset in coalitions.items()} == ref_gdops
    assert lean.utility(coalitions) == ref_utility
    assert len(log) == len(ref_log)
    for record, ref_record in zip(log, ref_log):
        assert all(map(_same, _fields(record), _fields(ref_record))), (record, ref_record)
    # every record of one accepted structure holds its utility object, which
    # the switch-log writer relies on
    for previous, record in zip(log, log[1:]):
        held = previous.utility_new if previous.accepted else previous.utility_old
        assert record.utility_old is held
    assert list(results) == list(ref_results)
    for s, result in results.items():
        assert result.ue_ids == ref_results[s].ue_ids
        assert np.array_equal(result.rates, ref_results[s].rates)
        assert result.rate == ref_results[s].rate

    # on the reference's evaluator the loop ends on the very records the
    # reference read
    _, shared_results, _ = cfg_selection(
        tables, config.gdop_limit, reference, multi_pass=multi_pass)
    assert list(shared_results) == list(ref_results)
    assert all(shared_results[s] is ref_results[s] for s in ref_results)

    if config.spec.radio.n_antennas < config.spec.n_cells:
        assert any(math.isnan(record.utility_new) for record in log)
        assert any(record.accepted for record in log)
