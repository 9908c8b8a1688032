"""Command-line interface.

Subcommands: ``sweep`` (density sweep from a JSON config), ``verify``
(brute-force verification suites), ``stability`` (feasibility report for a
PDE), ``scenarios`` (catalog listing).

Exit codes: 0 success, 2 configuration error (a malformed argument
included), 3 PDE outside the model (a
growing mode, repeated roots or an overflowing characteristic polynomial),
4 verification-suite failure; ``main`` alone maps raised refusals to them.
A sweep that runs but measures nothing exits 0 with warnings on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import ConfigInvalid, DegenerateRoots, InfeasiblePde
from .experiments import config_integer, load_config, pde_from_record, read_json, run_sweep
from .field import CATALOG
from .oracle import (
    MIN_SCALING_TRIALS,
    SuiteReport,
    bandlimit_suite,
    grid_deviation_suite,
    ode_equivalence_suite,
)
from .pde_core import MAX_BAND_LIMIT, check_stability

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4

SUITE_RUNNERS = {
    "ode": lambda args: ode_equivalence_suite(),
    "appendix-a": lambda args: bandlimit_suite(seed=args.seed),
    "appendix-b": lambda args: grid_deviation_suite(seed=args.seed, trials=args.trials),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusal is argparse's error line alone, with
    no usage lines above it; subcommand parsers share the class."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fieldrecon",
        description="Simulate, sample, and reconstruct PDE-evolving bandlimited fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a density sweep from a JSON config file")
    sweep.add_argument("--config", required=True, help="path to the JSON configuration")
    sweep.add_argument(
        "--out", default=None, help="directory for sweep.csv and summary.json; without it nothing is written"
    )
    sweep.add_argument("--workers", type=int, default=1, help="trial-level process workers (>= 1)")
    sweep.set_defaults(run=_cmd_sweep)

    verify = sub.add_parser("verify", help="run the brute-force verification suites")
    verify.add_argument(
        "--suite",
        choices=[*SUITE_RUNNERS, "all"],
        default="all",
        help="which suite to run (default: %(default)s)",
    )
    verify.add_argument("--seed", type=int, default=2024)
    verify.add_argument(
        "--trials",
        type=int,
        default=10_000,
        help="appendix-b Monte Carlo size: paths per density of the scaling table "
        "and paths of the invariant fuzz (default: %(default)s)",
    )
    verify.set_defaults(run=_cmd_verify)

    stability = sub.add_parser("stability", help="report characteristic-root feasibility")
    stability.add_argument("--pde", required=True, help="JSON file with p_coeffs and q_coeffs")
    stability.add_argument("--band", type=int, required=True, help="band limit b")
    stability.set_defaults(run=_cmd_stability)

    sub.add_parser("scenarios", help="list the scenario catalog").set_defaults(run=_cmd_scenarios)
    return parser


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    result = run_sweep(config, workers=args.workers, out_dir=args.out)
    header = f"{'n':>8} {'mean_distortion':>16} {'stderr':>12} {'mean_M':>10} {'mean_kappa':>12} {'rank_fail':>9}"
    print(header)
    for row in result.rows:
        print(
            f"{row.n:>8} {row.mean_distortion:>16.6e} {row.stderr:>12.3e} "
            f"{row.mean_M:>10.1f} {row.mean_kappa:>12.4e} {row.rank_failures:>9}"
        )
    print(f"log-log slope = {result.slope:.4f}, intercept = {result.intercept:.4f}")
    for row in result.rows:
        if row.rank_failures == config.trials:
            print(f"warning: n={row.n}: all {config.trials} trials refused, no mean distortion", file=sys.stderr)
    if math.isnan(result.slope):
        print("warning: no slope fitted: fewer than two densities have a positive mean", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = list(SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    # Checked before any suite runs, so bad input does no work.  appendix-b's
    # stream master is seed + 1 and its stream key entries are trial indices.
    config_integer("--seed", args.seed, 0, 2**64 - 2)
    if "appendix-b" in names:
        config_integer("--trials", args.trials, MIN_SCALING_TRIALS, 2**32)
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
    spec = pde_from_record(read_json(args.pde))
    report = check_stability(spec, config_integer("--band", args.band, 0, MAX_BAND_LIMIT))
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
            f"coefficients={entry.set_id} b={entry.b} m={spec.degree}"
        )
        for k, value in enumerate(entry.mode_values):
            print(f"     a[{k}] = {value.real:+.4f} {value.imag:+.4f}j")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasiblePde, DegenerateRoots) as exc:
        print(f"PDE outside the model: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
