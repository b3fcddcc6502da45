"""Outer-layer satellite selection: GDOP-greedy baseline and coalition game.

Each terminal must be served by a fixed number of satellites whose GDOP
stays below a threshold. The coalition game starts from the GDOP-greedy
structure and lets terminals switch, in id order, to GDOP-feasible
alternatives whenever the network sum rate does not decrease.

The facts these algorithms read depend only on the seed, so
``harness.run_seed`` computes them once and every scheme of the seed shares
them:

* one :class:`GdopTable` per terminal (:func:`gdop_tables`): every
  ``serving_count``-subset with its GDOP, evaluated in one batch and sorted
  by (GDOP, subset). The GDOP-greedy choice is its head and the preference
  list is its prefix within the GDOP limit, for any constellation size;
  selection reads GDOP from nowhere else;
* one :class:`StructureEvaluator` per beamforming engine kind: one
  :class:`SatelliteResult` (beams, per-terminal rates, DC trace) memoized
  per (satellite, served set), so ``gdop_greedy-X`` and ``cfg-X`` solve
  their common structure once, and a scheme's reported rates and DC trace
  rows are read from the records of its final structure.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .beamforming import ZeroForcingRankError, ZeroForcingSizeError
from .metrics import geometry_matrix, satellite_rates, stacked_gdop
from .metrics import gdop  # not called here; perfbench/tracing.py patches it by this name


class InfeasibleSelectionError(RuntimeError):
    """No satellite subset satisfies the GDOP requirement for some terminal."""


MIN_GAIN_REL = 1e-6  # multi-pass acceptance: the relative gain a switch must beat


@dataclass(slots=True)
class SwitchRecord:
    ue: int
    candidate: tuple
    gdop: float
    utility_old: float
    utility_new: float
    accepted: bool


@dataclass(frozen=True, eq=False)
class SatelliteResult:
    """One satellite's outcome for one served set.

    ``ue_ids`` are the served terminals in ascending order; ``beams`` (k, n)
    and ``rates`` (k,), in bits/s, follow that order, and ``rate`` is the
    rates summed left to right. ``dc_trace`` is the DC run's
    ``beamforming.DcTrace`` (``None`` for MRT and ZF).
    """

    ue_ids: tuple
    beams: np.ndarray
    rates: np.ndarray
    rate: float
    dc_trace: object


@dataclass(frozen=True)
class GdopTable:
    """Every ``serving_count``-subset of one terminal with its GDOP.

    ``entries`` holds (subset, gdop) pairs sorted by (gdop, subset), GDOP as
    a Python float and ``inf`` for (near-)coplanar geometry; ``by_subset``
    maps each subset to its GDOP.
    """

    ue: int
    serving_count: int
    entries: tuple
    by_subset: dict


def gdop_tables(scenario, serving_count):
    """One :class:`GdopTable` per terminal, in terminal order.

    Each terminal's unit direction rows are built once; the rows of all
    C(n_satellites, serving_count) subsets are stacked and evaluated by one
    :func:`stacked_gdop` call.
    """
    if serving_count > scenario.n_satellites:
        raise ValueError("fewer satellites than the requested serving count")
    if serving_count < 3:
        raise ValueError("GDOP needs at least three serving satellites")
    subsets = list(itertools.combinations(range(scenario.n_satellites), serving_count))
    index = np.array(subsets)
    positions = [sat.position for sat in scenario.satellites]
    tables = []
    for ue in range(scenario.n_ues):
        rows = geometry_matrix(scenario.ues[ue], positions)
        values = stacked_gdop(rows[index]).tolist()
        # subsets come in lexicographic order, so a stable sort on the GDOP
        # orders them by (gdop, subset)
        entries = tuple(sorted(zip(subsets, values), key=lambda entry: entry[1]))
        tables.append(GdopTable(ue, serving_count, entries, dict(entries)))
    return tables


def gdop_greedy_selection(table):
    """Satellite subset with the smallest GDOP for one terminal: the head of
    its table, ties broken on ascending ids."""
    best, value = table.entries[0]
    if math.isinf(value):
        raise InfeasibleSelectionError(
            f"no {table.serving_count}-subset has finite GDOP for terminal {table.ue}")
    return best


def build_preference_list(table, gdop_limit):
    """GDOP-feasible subsets for one terminal, ascending by GDOP.

    Returns the prefix of the table's (subset, gdop) pairs within
    ``gdop_limit``; an empty list means the GDOP constraint is infeasible
    for this terminal.
    """
    return list(itertools.takewhile(lambda entry: entry[1] <= gdop_limit, table.entries))


def _total(rates):
    """Left-to-right float sum, the order every utility is summed in."""
    total = 0.0
    for rate in rates:
        total += rate
    return total


class StructureEvaluator:
    """Sum-rate evaluation of coalition structures with one inner engine.

    A satellite's beams and rates depend only on the set of terminals it
    serves, so one :class:`SatelliteResult` is memoized per (satellite,
    served set): a tentative switch only costs the satellites whose served
    set actually changed, and every scheme of a seed that shares the
    evaluator (one per engine kind, see ``harness.run_seed``) reuses the
    others' results. Evaluations that raise are not memoized. Utilities sum
    the per-satellite rates in ascending satellite order.
    """

    def __init__(self, engine, channels, noise_power, bandwidth, n_satellites):
        self.engine = engine
        self.channels = channels
        self.noise_power = noise_power
        self.bandwidth = bandwidth
        self.n_satellites = n_satellites
        self._cache = {}

    def _result(self, sat_id, ue_ids):
        """The :class:`SatelliteResult` of one satellite serving ``ue_ids``."""
        key = (sat_id, frozenset(ue_ids))
        result = self._cache.get(key)
        if result is None:
            ids = tuple(sorted(ue_ids))
            beams, trace = self.engine.beams_for_satellite(sat_id, ids)
            h = np.array([self.channels[(sat_id, c)].h for c in ids])
            rates = satellite_rates(h, beams, self.noise_power, self.bandwidth)
            result = self._cache[key] = SatelliteResult(
                ids, beams, rates, sum(rates.tolist()), trace)
        return result

    def rate(self, sat_id, ue_ids):
        """Summed rate of one satellite's beams; 0.0 when it serves nobody."""
        return self._result(sat_id, ue_ids).rate if ue_ids else 0.0

    def served_sets(self, coalitions):
        """Terminals served by each satellite, as frozensets by satellite id."""
        sets = [[] for _ in range(self.n_satellites)]
        for c, subset in coalitions.items():
            for s in subset:
                sets[s].append(c)
        return [frozenset(ue_ids) for ue_ids in sets]

    def utility(self, coalitions):
        return _total([self.rate(s, ue_ids)
                       for s, ue_ids in enumerate(self.served_sets(coalitions))])

    def results(self, coalitions):
        """Serving satellite -> :class:`SatelliteResult`, in ascending order."""
        return {s: self._result(s, ue_ids)
                for s, ue_ids in enumerate(self.served_sets(coalitions)) if ue_ids}


def cfg_selection(tables, gdop_limit, evaluator, multi_pass=False):
    """Coalition-formation selection jointly with the evaluator's engine.

    ``tables`` are the terminals' GDOP tables, in terminal order. Initializes
    every terminal at its GDOP-greedy subset, the head of its preference list,
    then walks each terminal's list and accepts a switch whenever the
    re-evaluated sum rate does not decrease. ``multi_pass`` repeats full
    passes until no switch is accepted, in which case acceptance requires a
    strict relative improvement of ``MIN_GAIN_REL`` so the loop terminates.

    A trial of terminal c changes only the satellites c joins or leaves. While
    c walks its list, the rate of satellite s with c toggled in its served set
    is memoized the first time a trial needs it and dropped when an accepted
    switch moves s, so the evaluator sees the same calls in the same order as
    a full re-evaluation would make. A trial's utility continues the running
    left-to-right sum of the current rates from its lowest changed satellite:
    the same additions in the same order as summing the whole candidate
    structure, so every utility is bit-identical to it.
    A switch whose beams cannot be formed (a zero-forcing error) is logged as
    rejected with a NaN utility and its error is not memoized; any other
    engine error propagates.

    Returns (coalitions, results, switch log): terminal -> satellite subset,
    and ``results`` as :meth:`StructureEvaluator.results` gives them for the
    final coalitions. The log's records of one accepted structure share its
    utility object.
    """
    preference = []
    for table in tables:
        entries = build_preference_list(table, gdop_limit)
        if not entries:
            raise InfeasibleSelectionError(
                f"GDOP limit {gdop_limit} is infeasible for terminal {table.ue}")
        preference.append(entries)

    coalitions = {table.ue: gdop_greedy_selection(table) for table in tables}
    served = evaluator.served_sets(coalitions)
    rates = [evaluator.rate(s, ue_ids) for s, ue_ids in enumerate(served)]
    prefix = list(itertools.accumulate(rates, initial=0.0))  # prefix[s]: rates[:s] summed
    utility = prefix[-1]
    log = []

    while True:
        accepted_any = False
        for c, entries in enumerate(preference):
            current = coalitions[c]
            serving = set(current)
            toggled = {}  # satellite -> its rate with c toggled in its served set
            for subset, subset_gdop in entries:
                if subset == current:
                    continue
                changed = sorted(serving.symmetric_difference(subset))
                lowest = changed[0]
                trial = rates[lowest:]
                try:
                    for s in changed:
                        rate = toggled.get(s)
                        if rate is None:
                            rate = toggled[s] = evaluator.rate(s, served[s] ^ {c})
                        trial[s - lowest] = rate
                except (ZeroForcingRankError, ZeroForcingSizeError):
                    log.append(SwitchRecord(c, subset, subset_gdop,
                                            utility, math.nan, False))
                    continue
                utility_new = prefix[lowest]
                for rate in trial:
                    utility_new += rate
                if multi_pass:
                    accepted = utility_new > utility + MIN_GAIN_REL * abs(utility)
                else:
                    accepted = utility_new >= utility
                log.append(SwitchRecord(c, subset, subset_gdop,
                                        utility, utility_new, accepted))
                if accepted:
                    coalitions[c] = current = subset
                    serving = set(subset)
                    for s in changed:
                        served[s] ^= {c}
                        rates[s] = toggled.pop(s)
                    prefix = list(itertools.accumulate(rates, initial=0.0))
                    utility = utility_new
                    accepted_any = True
        if not multi_pass or not accepted_any:
            break

    return coalitions, evaluator.results(coalitions), log


def gdop_selection(tables, evaluator):
    """GDOP-greedy coalitions (no rate feedback) with the evaluator's results,
    returned as (coalitions, results, log) like :func:`cfg_selection`, with
    an empty log."""
    coalitions = {table.ue: gdop_greedy_selection(table) for table in tables}
    return coalitions, evaluator.results(coalitions), []
