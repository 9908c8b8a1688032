"""Every integer the package takes from a caller is read by
``pde_core.integer``'s rule and bounds.  At each entry point a bool, a float
and a value one step past a bound are refused, by a message that names the
input; a numpy integer at each bound is accepted, at the upper one where a
call there fits in memory."""

import contextlib
import io
import json
from typing import Callable, NamedTuple

import numpy as np
import pytest

import fieldrecon.cli as cli
from fieldrecon.cli import EXIT_CONFIG, main
from fieldrecon.errors import ConfigInvalid, FieldReconError
from fieldrecon.estimator import build_design_matrix, condition_diagnostics
from fieldrecon.experiments import ExperimentConfig, run_sweep
from fieldrecon.field import MAX_GRID_SIZE, catalog_entry, grid_tables, scenario_field
from fieldrecon.oracle import (
    MIN_SCALING_TRIALS,
    SuiteReport,
    bandlimit_preservation_check,
    grid_deviation_scaling,
)
from fieldrecon.pde_core import MAX_BAND_LIMIT, check_stability
from fieldrecon.sampling import NoiseSpec, RenewalSpec, draw_paths
from fieldrecon.streams import cell_streams

DIFFUSION = catalog_entry(3).spec
ROOTS = scenario_field("diffusion").roots


def config(**overrides) -> ExperimentConfig:
    fields = {
        "scenario": "diffusion",
        "pde": 3,
        "n_list": (64,),
        "trials": 1,
        "renewal": RenewalSpec(),
        "noise": NoiseSpec(),
        "master_seed": 0,
        **overrides,
    }
    return ExperimentConfig(**fields)


def run_cli(*argv: str) -> int:
    """``main(argv)``; a refusal (exit 2, from main or from argparse) is
    raised as ConfigInvalid carrying its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refuses what int() cannot read
            code = exc.code
    if code == EXIT_CONFIG:
        raise ConfigInvalid(err.getvalue())
    return code


class Case(NamedTuple):
    name: str  # what the refusal names
    call: Callable[[object], object]
    low: int
    high: int | None
    call_at_high: bool = True  # whether a numpy integer at ``high`` is tried


CASES = {
    "check_stability": Case("band limit b", lambda b: check_stability(DIFFUSION, b), 0, MAX_BAND_LIMIT),
    "bandlimit_preservation_check": Case(
        "band limit b", lambda b: bandlimit_preservation_check(DIFFUSION, b, {}), 0, MAX_BAND_LIMIT
    ),
    "build_design_matrix": Case("sample count M", lambda m: build_design_matrix(ROOTS, m, 1.0), 0, MAX_GRID_SIZE),
    # It allocates M zero readings, so it is called at its low bound only.
    "condition_diagnostics": Case(
        "sample count M", lambda m: condition_diagnostics(ROOTS, m, 1.0), 0, MAX_GRID_SIZE, call_at_high=False
    ),
    # Unbounded, a size of 2**63 ended in numpy's OverflowError and 2**40 took 516 MB.
    "grid_tables": Case("grid size M", lambda m: grid_tables(ROOTS, [m], [1.0]), 0, MAX_GRID_SIZE),
    "config-n_list": Case("n_list item", lambda n: config(n_list=(n,)), 1, 2**32 - 1),
    "config-trials": Case("trials", lambda t: config(trials=t), 1, 2**32),
    "config-master_seed": Case("master_seed", lambda s: config(master_seed=s), 0, 2**64 - 1),
    "config-random-seed": Case("random scenario", lambda s: config(scenario=f"random:{s}"), 0, 2**64 - 1),
    "run_sweep-workers": Case("workers", lambda w: run_sweep(config(), workers=w), 1, None),
    "draw_paths": Case("density n", lambda n: draw_paths(RenewalSpec("deterministic"), n, []), 1, None),
    "cell_streams": Case("count", lambda count: next(cell_streams([(0, 1)], count)), 1, None),
    "grid_deviation_scaling": Case(
        "trials", lambda t: grid_deviation_scaling(RenewalSpec(), (), t, 0), MIN_SCALING_TRIALS, 2**32
    ),
    "verify--seed": Case("--seed", lambda s: run_cli("verify", "--seed", str(s)), 0, 2**64 - 2),
    "verify--trials": Case(
        "--trials",
        lambda t: run_cli("verify", "--suite", "appendix-b", "--trials", str(t)),
        MIN_SCALING_TRIALS,
        2**32,
    ),
    "stability--band": Case(
        "--band", lambda b: run_cli("stability", "--pde", "pde.json", "--band", str(b)), 0, MAX_BAND_LIMIT
    ),
}


@pytest.fixture(autouse=True)
def cli_inputs(tmp_path, monkeypatch):
    # The CLI cases read pde.json (the diffusion PDE) from the working
    # directory, and their suites pass without running: only the flags'
    # checks are under test.
    (tmp_path / "pde.json").write_text(json.dumps({"p_coeffs": [0.0, 1.0], "q_coeffs": [0.0, 0.0, 0.01]}))
    monkeypatch.chdir(tmp_path)
    for name in cli.SUITE_RUNNERS:
        monkeypatch.setitem(cli.SUITE_RUNNERS, name, lambda args: SuiteReport(True, ()))


def numpy_integer(value: int) -> np.integer:
    return np.uint64(value) if value > np.iinfo(np.int64).max else np.int64(value)


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_integer_input_is_read_within_its_bounds(case):
    outside = [case.low - 1] + ([] if case.high is None else [case.high + 1])
    for value in [True, 2.0, *outside]:
        with pytest.raises((ValueError, ConfigInvalid)) as refusal:
            case.call(value)
        assert case.name in str(refusal.value), (value, refusal.value)
    for bound in [case.low] + ([case.high] if case.high is not None and case.call_at_high else []):
        try:
            case.call(numpy_integer(bound))
        except FieldReconError as exc:  # refused on other grounds, e.g. too few samples
            assert not isinstance(exc, ConfigInvalid), (bound, exc)
