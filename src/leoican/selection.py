"""Outer-layer satellite selection: GDOP-greedy baseline and coalition game.

Each terminal must be served by a fixed number of satellites whose GDOP
stays below a threshold. The coalition game starts from the GDOP-greedy
structure and lets terminals switch, in id order, to GDOP-feasible
alternatives whenever the network sum rate does not decrease.
"""

import itertools
import math
from dataclasses import dataclass

from .beamforming import ZeroForcingRankError, ZeroForcingSizeError
from .metrics import geometry_matrix, gdop, satellite_rates


class InfeasibleSelectionError(RuntimeError):
    """No satellite subset satisfies the GDOP requirement for some terminal."""


EXHAUSTIVE_LIMIT = 16  # largest constellation enumerated exhaustively


@dataclass
class CoalitionStructure:
    """Final assignment: per-terminal satellite sets with cached metrics."""

    coalitions: dict
    gdop_by_ue: dict
    utility: float


@dataclass
class SwitchRecord:
    ue: int
    candidate: tuple
    gdop: float
    utility_old: float
    utility_new: float
    accepted: bool


def subset_gdop(scenario, ue, subset):
    positions = [scenario.satellites[s].position for s in subset]
    return gdop(geometry_matrix(scenario.ues[ue], positions))


def gdop_greedy_selection(ue, scenario, serving_count):
    """Satellite subset with the smallest GDOP for one terminal.

    Exhaustive over all subsets for small constellations; for more than
    EXHAUSTIVE_LIMIT satellites, seeds with the best triple and greedily adds
    the satellite that most reduces GDOP. Ties break on ascending ids.
    """
    sat_ids = list(range(scenario.n_satellites))
    if serving_count > len(sat_ids):
        raise ValueError("fewer satellites than the requested serving count")
    if serving_count < 3:
        raise ValueError("GDOP needs at least three serving satellites")

    if len(sat_ids) <= EXHAUSTIVE_LIMIT:
        best = min(
            itertools.combinations(sat_ids, serving_count),
            key=lambda subset: (subset_gdop(scenario, ue, subset), subset),
        )
        if math.isinf(subset_gdop(scenario, ue, best)):
            raise InfeasibleSelectionError(
                f"no {serving_count}-subset has finite GDOP for terminal {ue}")
        return best

    best_triple = min(
        itertools.combinations(sat_ids, 3),
        key=lambda subset: (subset_gdop(scenario, ue, subset), subset),
    )
    chosen = list(best_triple)
    while len(chosen) < serving_count:
        remaining = [s for s in sat_ids if s not in chosen]
        chosen.append(min(
            remaining,
            key=lambda s: (subset_gdop(scenario, ue, tuple(sorted(chosen + [s]))), s),
        ))
    subset = tuple(sorted(chosen))
    if math.isinf(subset_gdop(scenario, ue, subset)):
        raise InfeasibleSelectionError(
            f"greedy selection found no finite-GDOP subset for terminal {ue}")
    return subset


def build_preference_list(ue, scenario, serving_count, gdop_limit):
    """GDOP-feasible subsets for one terminal, ascending by GDOP.

    Returns a list of (subset, gdop) pairs; an empty list means the GDOP
    constraint is infeasible for this terminal.
    """
    entries = []
    for subset in itertools.combinations(range(scenario.n_satellites), serving_count):
        value = subset_gdop(scenario, ue, subset)
        if value <= gdop_limit:
            entries.append((subset, value))
    entries.sort(key=lambda item: (item[1], item[0]))
    return entries


class _StructureEvaluator:
    """Sum-rate evaluation with per-satellite caching across switch trials.

    A satellite's beams and rates depend only on the set of terminals it
    serves, so results are memoized on (satellite, served set); a tentative
    switch then only costs the satellites whose served set actually changed.
    """

    def __init__(self, engine, channels, noise_power, bandwidth, n_satellites):
        self.engine = engine
        self.channels = channels
        self.noise_power = noise_power
        self.bandwidth = bandwidth
        self.n_satellites = n_satellites
        self._cache = {}

    def _satellite_result(self, sat_id, ue_ids):
        key = (sat_id, frozenset(ue_ids))
        if key not in self._cache:
            beams = self.engine.beams_for_satellite(sat_id, sorted(ue_ids))
            rates = satellite_rates(
                sat_id, sorted(ue_ids), self.channels, {
                    (sat_id, c): w for c, w in beams.items()},
                self.noise_power, self.bandwidth)
            self._cache[key] = (beams, sum(rates.values()))
        return self._cache[key]

    def served_sets(self, coalitions):
        sets = {s: [] for s in range(self.n_satellites)}
        for c, subset in coalitions.items():
            for s in subset:
                sets[s].append(c)
        return sets

    def utility(self, coalitions):
        total = 0.0
        for s, ue_ids in self.served_sets(coalitions).items():
            if ue_ids:
                total += self._satellite_result(s, ue_ids)[1]
        return total

    def beams(self, coalitions):
        out = {}
        for s, ue_ids in self.served_sets(coalitions).items():
            if ue_ids:
                for c, w in self._satellite_result(s, ue_ids)[0].items():
                    out[(s, c)] = w
        return out


def cfg_selection(scenario, channels, serving_count, gdop_limit, engine,
                  multi_pass=False, min_gain_rel=1e-6):
    """Coalition-formation selection jointly with the given inner engine.

    Initializes every terminal at its GDOP-greedy subset, then walks each
    terminal's preference list and accepts a switch whenever the re-evaluated
    sum rate does not decrease. ``multi_pass`` repeats full passes until no
    switch is accepted, in which case acceptance requires a strict relative
    improvement of ``min_gain_rel`` so the loop terminates.
    A switch whose beams cannot be formed (a zero-forcing error) is logged as
    rejected with a NaN utility; any other engine error propagates.

    Returns (structure, beams, switch log).
    """
    preference = {}
    for c in range(scenario.n_ues):
        entries = build_preference_list(c, scenario, serving_count, gdop_limit)
        if not entries:
            raise InfeasibleSelectionError(
                f"GDOP limit {gdop_limit} is infeasible for terminal {c}")
        preference[c] = entries

    gdop_of = {c: dict(preference[c]) for c in preference}
    coalitions = {c: gdop_greedy_selection(c, scenario, serving_count)
                  for c in range(scenario.n_ues)}
    for c, subset in coalitions.items():
        if subset not in gdop_of[c]:
            raise InfeasibleSelectionError(
                f"GDOP limit {gdop_limit} excludes even the best subset of terminal {c}")

    evaluator = _StructureEvaluator(
        engine, channels, scenario.radio.noise_power_w,
        scenario.radio.bandwidth_hz, scenario.n_satellites)
    utility = evaluator.utility(coalitions)
    log = []

    while True:
        accepted_any = False
        for c in range(scenario.n_ues):
            for subset, subset_gdop_value in preference[c]:
                if subset == coalitions[c]:
                    continue
                candidate = dict(coalitions)
                candidate[c] = subset
                try:
                    utility_new = evaluator.utility(candidate)
                except (ZeroForcingRankError, ZeroForcingSizeError):
                    log.append(SwitchRecord(c, subset, subset_gdop_value,
                                            utility, math.nan, False))
                    continue
                if multi_pass:
                    accepted = utility_new > utility + min_gain_rel * abs(utility)
                else:
                    accepted = utility_new >= utility
                log.append(SwitchRecord(c, subset, subset_gdop_value,
                                        utility, utility_new, accepted))
                if accepted:
                    coalitions = candidate
                    utility = utility_new
                    accepted_any = True
        if not multi_pass or not accepted_any:
            break

    structure = CoalitionStructure(
        coalitions=coalitions,
        gdop_by_ue={c: gdop_of[c][coalitions[c]] for c in coalitions},
        utility=utility,
    )
    return structure, evaluator.beams(coalitions), log


def gdop_selection(scenario, channels, serving_count, engine):
    """GDOP-greedy structure (no rate feedback) with beams from the engine."""
    coalitions = {c: gdop_greedy_selection(c, scenario, serving_count)
                  for c in range(scenario.n_ues)}
    evaluator = _StructureEvaluator(
        engine, channels, scenario.radio.noise_power_w,
        scenario.radio.bandwidth_hz, scenario.n_satellites)
    structure = CoalitionStructure(
        coalitions=coalitions,
        gdop_by_ue={c: subset_gdop(scenario, c, coalitions[c]) for c in coalitions},
        utility=evaluator.utility(coalitions),
    )
    return structure, evaluator.beams(coalitions), []
