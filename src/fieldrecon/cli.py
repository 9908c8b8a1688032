"""Command-line interface.

Subcommands: ``sweep`` (density sweep from a JSON config), ``verify``
(brute-force verification suites), ``stability`` (feasibility report for a
PDE), ``scenarios`` (catalog listing).

Exit codes: 0 success, 2 configuration error, 3 PDE outside the model (a
growing mode or repeated roots), 4 verification-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigInvalid, DegenerateRoots, InfeasiblePde
from .experiments import load_config, run_sweep
from .field import CATALOG
from .oracle import (
    MIN_SCALING_TRIALS,
    SuiteReport,
    bandlimit_suite,
    grid_deviation_suite,
    ode_equivalence_suite,
)
from .pde_core import PdeSpec, check_stability

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4

SUITE_RUNNERS = {
    "ode": lambda args: ode_equivalence_suite(),
    "appendix-a": lambda args: bandlimit_suite(seed=args.seed),
    "appendix-b": lambda args: grid_deviation_suite(seed=args.seed, trials=args.trials),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldrecon",
        description="Simulate, sample, and reconstruct PDE-evolving bandlimited fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a density sweep from a JSON config file")
    sweep.add_argument("--config", required=True, help="path to the JSON configuration")
    sweep.add_argument("--seed", type=int, default=None, help="override master_seed")
    sweep.add_argument("--out", default=None, help="override the output directory")
    sweep.add_argument("--workers", type=int, default=1, help="trial-level process workers (>= 1)")

    verify = sub.add_parser("verify", help="run the brute-force verification suites")
    verify.add_argument(
        "--suite",
        choices=[*SUITE_RUNNERS, "all"],
        default="all",
        help="which suite to run (default: all)",
    )
    verify.add_argument("--seed", type=int, default=2024)
    verify.add_argument(
        "--trials", type=int, default=10_000, help="Monte Carlo trials for the scaling table"
    )

    stability = sub.add_parser("stability", help="report characteristic-root feasibility")
    stability.add_argument("--pde", required=True, help="JSON file with p_coeffs and q_coeffs")
    stability.add_argument("--band", type=int, required=True, help="band limit b")

    sub.add_parser("scenarios", help="list the scenario catalog")
    return parser


def _cmd_sweep(args) -> int:
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, master_seed=args.seed)
        result = run_sweep(config, workers=args.workers, out_dir=args.out)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasiblePde, DegenerateRoots) as exc:
        print(f"PDE outside the model: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    header = f"{'n':>8} {'mean_distortion':>16} {'stderr':>12} {'mean_M':>10} {'mean_kappa':>12} {'rank_fail':>9}"
    print(header)
    for row in result.rows:
        print(
            f"{row.n:>8} {row.mean_distortion:>16.6e} {row.stderr:>12.3e} "
            f"{row.mean_M:>10.1f} {row.mean_kappa:>12.4e} {row.rank_failures:>9}"
        )
    print(f"log-log slope = {result.slope:.4f}, intercept = {result.intercept:.4f}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = list(SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    # Checked before any suite runs, so bad input does no work.
    if args.seed < 0:
        print(f"config error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_CONFIG
    if "appendix-b" in names and args.trials < MIN_SCALING_TRIALS:
        print(f"config error: --trials must be at least {MIN_SCALING_TRIALS}", file=sys.stderr)
        return EXIT_CONFIG
    all_ok = True
    for name in names:
        report: SuiteReport = SUITE_RUNNERS[name](args)
        status = "PASS" if report.passed else "FAIL"
        print(f"[{status}] suite {name}")
        for line in report.lines:
            print(f"  {line}")
        all_ok &= report.passed
    return EXIT_OK if all_ok else EXIT_VERIFY


def _cmd_stability(args) -> int:
    try:
        record = json.loads(Path(args.pde).read_text())
        spec = PdeSpec(tuple(record["p_coeffs"]), tuple(record["q_coeffs"]))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = check_stability(spec, args.band)
    except ValueError as exc:  # a negative band limit
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateRoots as exc:
        print(f"PDE outside the model: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    for k in sorted(report.worst_real_parts):
        print(f"k={k:>4}  worst Re(r) = {report.worst_real_parts[k]: .6e}")
    if report.feasible:
        print("feasible: yes")
        return EXIT_OK
    print(f"feasible: no (offending harmonics: {list(report.offending)})")
    return EXIT_INFEASIBLE


def _cmd_scenarios(args) -> int:
    for entry in CATALOG:
        spec = entry.spec
        print(
            f"{entry.index}: p={spec.p_coeffs} q={spec.q_coeffs} "
            f"coefficients={entry.set_id} b=3 m={spec.degree}"
        )
        for k, value in enumerate(entry.mode_values):
            print(f"     a[{k}] = {value.real:+.4f} {value.imag:+.4f}j")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "stability": _cmd_stability,
        "scenarios": _cmd_scenarios,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
