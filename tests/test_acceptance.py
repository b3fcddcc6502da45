"""Acceptance criteria of the experiment, checked on real runs.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

from leoican.harness import ExperimentConfig, run_experiment

PAPER_SEEDS = (1, 2, 3, 4)


def _report(name, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_criterion_1_scheme_ordering():
    """On the paper profile (8x8 arrays), the coalition game with DC
    beamforming beats every other default scheme on every seed (paired:
    same scenario and channels per seed)."""
    config = ExperimentConfig.from_dict({}, profile="paper")
    report = run_experiment(config, seeds=PAPER_SEEDS)
    assert not report.failures
    rate = {(r.scheme.name, r.seed): r.sum_rate_bps for r in report.results}

    best = "cfg-dc"
    rivals = [s.name for s in config.schemes if s.name != best]
    assert sorted(rivals) == ["cfg-mrt", "cfg-zf", "gdop_greedy-dc"]
    margins = {(seed, rival): rate[(best, seed)] - rate[(rival, seed)]
               for seed in PAPER_SEEDS for rival in rivals}
    (seed, rival), smallest = min(margins.items(), key=lambda item: item[1])
    ok = smallest > 0.0
    _report("criterion 1 (scheme ordering, paper profile, seeds 1-4)", ok,
            f"smallest margin of {best} is {smallest / 1e9:.3f} Gbps "
            f"(seed {seed}, over {rival})")
    assert ok, {key: value / 1e9 for key, value in margins.items() if value <= 0.0}
