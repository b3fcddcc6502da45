"""Output checks behind ``failed_share``.

One operation is one (seed, scheme) pair of a pass. It fails if its seed
raised inside ``run_experiment`` or if any check below finds a problem:

* every final coalition holds ``serving_count`` distinct satellites and its
  GDOP, recomputed with the independent cofactor formula of
  ``leoican.oracles``, is at most ``gdop_limit``;
* the per-terminal rates add up to the reported sum rate;
* every DC trace has a non-decreasing true sum rate for each satellite;
* ``cfg-X`` reaches at least the sum rate of ``gdop_greedy-X`` on the seed;
* the sum rate matches the value recorded in ``reference.json``.
"""

import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from leoican.geometry import generate_scenario
from leoican.oracles import gdop_cofactor

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Sum rates may move by float reassociation only; a changed accept/reject
# decision moves them by far more than this.
REFERENCE_RTOL = 1e-9
# Rates are sums of positive terms, so these comparisons only absorb rounding.
SUM_RTOL = 1e-12
MONOTONE_RTOL = 1e-12
GDOP_RTOL = 1e-9
ORDER_RTOL = 1e-12


def load_references():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _coalition_problems(result, scenario, config):
    problems = []
    if sorted(result.coalitions) != list(range(scenario.n_ues)):
        problems.append("coalitions do not cover every terminal once")
    for ue, subset in result.coalitions.items():
        if len(subset) != config.serving_count or len(set(subset)) != len(subset):
            problems.append(f"terminal {ue}: coalition {subset} is not "
                            f"{config.serving_count} distinct satellites")
            continue
        rows = []
        for s in subset:
            diff = scenario.ues[ue] - scenario.satellites[s].position
            rows.append(diff / np.linalg.norm(diff))
        value = gdop_cofactor(np.array(rows))
        if not value <= config.gdop_limit * (1.0 + GDOP_RTOL):
            problems.append(f"terminal {ue}: GDOP {value:.6g} exceeds {config.gdop_limit}")
    return problems


def _trace_problems(result):
    problems = []
    last = {}
    for sat, iteration, _surrogate, true_rate in result.dc_trace_rows:
        if iteration == 1:
            last[sat] = true_rate
            continue
        previous = last.get(sat)
        if previous is None:
            problems.append(f"satellite {sat}: DC trace does not start at iteration 1")
        elif true_rate < previous - MONOTONE_RTOL * abs(previous):
            problems.append(f"satellite {sat}: DC true sum rate fell at iteration "
                            f"{iteration} ({previous!r} -> {true_rate!r})")
        last[sat] = true_rate
    return problems


def check_report(report, config, workload, references, seeds):
    """Problems per (seed, scheme name); an empty list means the pair passed.

    ``report`` comes from ``run_experiment(config, seeds=seeds)``.
    """
    schemes = [scheme.name for scheme in config.schemes]
    problems = {(seed, name): [] for seed in seeds for name in schemes}
    for seed, message in report.failures:
        for name in schemes:
            problems[(seed, name)].append(f"seed raised: {message}")

    by_seed = defaultdict(dict)
    for result in report.results:
        by_seed[result.seed][result.scheme.name] = result
    expected = references.get(workload, {})

    for seed, results in by_seed.items():
        scenario = generate_scenario(config.spec, seed)
        for name, result in results.items():
            found = problems[(seed, name)]
            found += _coalition_problems(result, scenario, config)
            if not math.isclose(math.fsum(result.ue_rates_bps), result.sum_rate_bps,
                                rel_tol=SUM_RTOL):
                found.append("per-terminal rates do not add up to the sum rate")
            found += _trace_problems(result)
            reference = expected.get(str(seed), {}).get(name)
            if reference is not None and not math.isclose(
                    result.sum_rate_bps, reference, rel_tol=REFERENCE_RTOL):
                found.append(f"sum rate {result.sum_rate_bps!r} differs from "
                             f"reference {reference!r}")
            if name.startswith("cfg-"):
                greedy = results.get("gdop_greedy-" + name[len("cfg-"):])
                if greedy is not None and result.sum_rate_bps < (
                        greedy.sum_rate_bps * (1.0 - ORDER_RTOL)):
                    found.append(f"{name} falls below {greedy.scheme.name}")
        for name in schemes:
            if name not in results and not problems[(seed, name)]:
                problems[(seed, name)].append("no result")
    return problems

