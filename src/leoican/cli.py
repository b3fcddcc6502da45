"""Command line interface: run experiments, validate invariants, print oracles."""

import argparse
import sys

import numpy as np

from . import oracles
from .convex_kernel import SurrogateCore, solve_surrogate
from .geometry import RadioParams, ScenarioSpec, generate_scenario
from .harness import (
    PROFILE_ANTENNAS,
    ExperimentConfig,
    emit_reports,
    format_summary,
    run_experiment,
)
from .validation import run_validation


def _parse_seed(text):
    """One seed: a non-negative integer, as numpy's generators require."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"names a negative seed: {text}")
    return seed


def _parse_seeds(text):
    if "," in text:
        seeds = [_parse_seed(part) for part in text.split(",") if part]
    else:
        seeds = list(range(1, int(text) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError("must name at least one seed")
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"repeats a seed: {text}")
    return seeds


def _parse_jobs(text):
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text}")
    return jobs


def _cmd_run(args):
    try:
        if args.config is not None:
            config = ExperimentConfig.from_file(args.config, profile=args.profile)
        else:
            config = ExperimentConfig.from_dict({}, profile=args.profile)
    except (ValueError, OSError) as err:  # JSONDecodeError is a ValueError
        print(f"leoican run: {err}", file=sys.stderr)
        return 2
    report = run_experiment(config, seeds=args.seeds, jobs=args.jobs)
    paths = emit_reports(report, args.out)
    print(format_summary(report), end="")
    print(f"wrote: {', '.join(str(p) for p in paths)}")
    return 1 if report.failures and not report.results else 0


def _cmd_validate(args):
    failures = 0
    for name, ok, detail in run_validation(seed=args.seed):
        status = "ok  " if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{status} {name}{suffix}")
        failures += 0 if ok else 1
    return 1 if failures else 0


def _cmd_oracle(args):
    rng = np.random.default_rng(args.seed)

    radio = RadioParams()
    loss_db = -10.0 * np.log10(
        (radio.wavelength_m / (4.0 * np.pi * 600e3)) ** 2)
    print(f"free-space loss at 4 GHz / 600 km: {loss_db:.4f} dB")

    print(f"axis-aligned GDOP (cofactor): {oracles.gdop_cofactor(-np.eye(3)):.12f}")
    doubled = np.vstack([-np.eye(3), -np.eye(3)])
    print(f"duplicated-rows GDOP (cofactor): {oracles.gdop_cofactor(doubled):.12f}")

    scenario = generate_scenario(ScenarioSpec(n_satellites=5), seed=args.seed)
    subset, value = oracles.exhaustive_min_gdop(scenario, 0, 4)
    print(f"exhaustive min-GDOP subset (5 sats, pick 4, seed {args.seed}): "
          f"{subset} -> {value:.6f}")

    h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    print(f"matched-filter rate oracle (B=1, P=2, noise=1): "
          f"{oracles.matched_filter_rate(1.0, 2.0, h, 1.0):.9f}")

    channels = np.array([h, rng.standard_normal(2) + 1j * rng.standard_normal(2)])
    u = channels / np.linalg.norm(channels, axis=1, keepdims=True)
    anchor = 2.0 * (u[:, :, None] * u.conj()[:, None, :])
    core = SurrogateCore(channels, anchor, 1.0, 1.0)
    solution = solve_surrogate(core, 2.0, 1e-6, 5000)
    _, gap = oracles.surrogate_gap(channels, anchor, 1.0, 1.0, solution.q, 2.0)
    print(f"2-terminal surrogate: solver {solution.objective:.9f}, certified gap {gap:.3e}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="leoican",
        description="Joint beamforming and satellite-selection experiments "
                    "for LEO communication-and-navigation constellations.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the scheme-comparison experiment")
    run_p.add_argument("config", nargs="?", default=None,
                       help="JSON config file (omit for built-in defaults)")
    run_p.add_argument("--seeds", type=_parse_seeds, default=None,
                       help="seed count, or comma-separated seed list")
    run_p.add_argument("--out", default="out", help="output directory for CSVs")
    run_p.add_argument("--profile", choices=PROFILE_ANTENNAS, default=None,
                       help="antenna profile: " + ", ".join(
                           f"{name}={nx}x{ny}" for name, (nx, ny) in PROFILE_ANTENNAS.items()))
    run_p.add_argument("--jobs", type=_parse_jobs, default=1,
                       help="parallel worker processes across seeds, at most one per seed")
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="run the randomized invariant suite")
    val_p.add_argument("--seed", type=_parse_seed, default=0)
    val_p.set_defaults(func=_cmd_validate)

    ora_p = sub.add_parser("oracle", help="print brute-force reference values")
    ora_p.add_argument("--seed", type=_parse_seed, default=0)
    ora_p.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
