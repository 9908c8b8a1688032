import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fieldrecon
import fieldrecon.cli as cli
import fieldrecon.experiments as experiments
from fieldrecon.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_VERIFY, main
from fieldrecon.oracle import SuiteReport
from fieldrecon.pde_core import STABILITY_TOL


# A JSON integer beyond the float range (10**400), once an OverflowError
# traceback with exit 1.
BEYOND_FLOAT = 10**400


def write_config(tmp_path, **overrides):
    record = {
        "scenario": "diffusion",
        "pde": 3,
        "n_list": [64, 128],
        "trials": 4,
        "renewal": {"family": "uniform_scaled", "lambda": 2.0, "mu": 2.0},
        "noise": {"family": "gaussian", "variance": 1e-4},
        "master_seed": 7,
    }
    record.update(overrides)
    target = tmp_path / "config.json"
    target.write_text(json.dumps(record))
    return target


def test_scenarios_listing(capsys):
    assert main(["scenarios"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "coefficients=set1" in out
    assert "coefficients=diffusion" in out


def test_stability_feasible(tmp_path, capsys):
    pde = tmp_path / "pde.json"
    pde.write_text(json.dumps({"p_coeffs": [0.0, 1.0], "q_coeffs": [0.0, 0.0, 0.01]}))
    assert main(["stability", "--pde", str(pde), "--band", "3"]) == EXIT_OK
    assert "feasible: yes" in capsys.readouterr().out


def test_stability_infeasible(tmp_path, capsys):
    pde = tmp_path / "pde.json"
    pde.write_text(json.dumps({"p_coeffs": [0.0, 1.0], "q_coeffs": [0.0, 0.0, -0.01]}))
    assert main(["stability", "--pde", str(pde), "--band", "2"]) == EXIT_INFEASIBLE
    assert "feasible: no" in capsys.readouterr().out


def test_stability_bad_file(tmp_path):
    pde = tmp_path / "pde.json"
    pde.write_text("{broken")
    assert main(["stability", "--pde", str(pde), "--band", "2"]) == EXIT_CONFIG


def test_stability_negative_band(tmp_path, capsys):
    pde = tmp_path / "pde.json"
    pde.write_text(json.dumps({"p_coeffs": [0.0, 1.0], "q_coeffs": [0.0, 0.0, 0.01]}))
    assert main(["stability", "--pde", str(pde), "--band", "-1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("\n") == 1


def test_sweep_runs_and_writes(tmp_path, capsys):
    config = write_config(tmp_path)
    out_dir = tmp_path / "results"
    code = main(["sweep", "--config", str(config), "--out", str(out_dir)])
    assert code == EXIT_OK
    assert (out_dir / "sweep.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert "log-log slope" in capsys.readouterr().out


def test_sweep_seed_override(tmp_path):
    config = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["sweep", "--config", str(config), "--out", str(out_a), "--seed", "123"])
    main(["sweep", "--config", str(config), "--out", str(out_b), "--seed", "123"])
    assert (out_a / "sweep.csv").read_text() == (out_b / "sweep.csv").read_text()
    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["config"]["master_seed"] == 123


def test_sweep_config_error(tmp_path, capsys):
    config = write_config(tmp_path, unexpected=1)
    assert main(["sweep", "--config", str(config)]) == EXIT_CONFIG
    missing = tmp_path / "nope.json"
    assert main(["sweep", "--config", str(missing)]) == EXIT_CONFIG
    capsys.readouterr()
    config.write_bytes(b"\xff\xfe{}")  # not UTF-8
    assert main(["sweep", "--config", str(config)]) == EXIT_CONFIG
    assert_one_line_error(capsys, "config error:")
    assert main(["stability", "--pde", str(config), "--band", "2"]) == EXIT_CONFIG
    assert_one_line_error(capsys, "config error:")


def test_sweep_warns_when_every_trial_is_refused(tmp_path, capsys):
    # An order-3 PDE whose every design the rank gate refuses: this sweep
    # once exited 0 with rows of NaN, a null slope and nothing on stderr.
    config = write_config(
        tmp_path,
        scenario="random:7",
        pde={"p_coeffs": [1, 3, 3, 1], "q_coeffs": [-0.5, 0, 0.01]},
        n_list=[256, 1024, 4096],
        trials=16,
        master_seed=5,
    )
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().err.splitlines() == [
        *(f"warning: n={n}: all 16 trials refused, no mean distortion" for n in (256, 1024, 4096)),
        "warning: no slope fitted: fewer than two densities have a positive mean",
    ]
    assert (tmp_path / "out" / "summary.json").exists()


def test_sweep_infeasible(tmp_path):
    config = write_config(
        tmp_path, pde={"p_coeffs": [0.0, 1.0], "q_coeffs": [0.0, 0.0, -0.01]}
    )
    assert main(["sweep", "--config", str(config)]) == EXIT_INFEASIBLE


# p = z^2, q = 0.01 z^2: a double characteristic root at 0 for harmonic k = 0.
DOUBLE_ROOT_PDE = {"p_coeffs": [0.0, 0.0, 1.0], "q_coeffs": [0.0, 0.0, 0.01]}
# PDEs outside the model: the double root, and finite coefficients whose
# characteristic polynomial overflows at k != 0, in q(j*2*pi*k) itself or in
# its quotient by the leading p coefficient.
OUTSIDE_MODEL_PDES = pytest.mark.parametrize(
    "record",
    [
        DOUBLE_ROOT_PDE,
        {"p_coeffs": [0, 1], "q_coeffs": [0, 0, 1e308]},
        {"p_coeffs": [0, 1e-308], "q_coeffs": [0, 0, 1]},
    ],
    ids=["double-root", "q-overflows", "monic-overflows"],
)


def assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "override",
    [
        {"renewal": 5},
        {"noise": "gaussian"},
        {"pde": True},
        {"pde": 1.0},
        {"pde": [1]},
        {"trials": 2.7},
        {"trials": True},
        {"master_seed": 7.0},
        {"master_seed": False},
        {"n_list": [64, 128.0]},
        {"n_list": [True, 128]},
        {"n_list": 128},
        {"n_list": "128"},
        {"scenario": 5},
        {"renewal": {"family": "uniform_scaled", "lambda": "2", "mu": 2.0}},
        {"noise": {"family": "gaussian", "variance": True}},
        {"noise": {"family": "uniform", "variance": 1e308}},
        {"pde": {"p_coeffs": ["0", True], "q_coeffs": [0, 0, "0.01"]}},
        {"pde": {"p_coeffs": [0.0, 1.0], "q_coeffs": [0.0, 0.0, "0.01"]}},
        {"pde": {"p_coeffs": [0.0, True], "q_coeffs": [0.0, 0.0, 0.01]}},
        {"renewal": {"family": "beta_scaled", "lambda": BEYOND_FLOAT, "mu": 2.0}},
        {"renewal": {"family": "beta_scaled", "lambda": 2.0, "mu": BEYOND_FLOAT}},
        {"noise": {"family": "gaussian", "variance": BEYOND_FLOAT}},
        {"pde": {"p_coeffs": [0.0, BEYOND_FLOAT], "q_coeffs": [0.0, 0.0, 0.01]}},
        {"pde": {"p_coeffs": [0.0, 1.0], "q_coeffs": [0.0, 0.0, BEYOND_FLOAT]}},
    ],
    ids=lambda override: "-".join(f"{k}={v!r}" for k, v in override.items()),
)
def test_sweep_rejects_mistyped_config(tmp_path, capsys, override):
    config = write_config(tmp_path, **override)
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert_one_line_error(capsys, "config error:")
    assert not (tmp_path / "out").exists()


def test_sweep_names_the_json_forms_of_a_malformed_pde(tmp_path, capsys):
    # The refusal speaks JSON: an index or an object, not a Python class.
    config = write_config(tmp_path, pde=[1])
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert_one_line_error(
        capsys,
        "config error: pde must be a catalog index or an object with p_coeffs and q_coeffs, got [1]",
    )
    assert not (tmp_path / "out").exists()


def test_sweep_refuses_repeated_densities(tmp_path, capsys):
    config = write_config(tmp_path, n_list=[128, 128, 256])
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert_one_line_error(capsys, "config error: n_list repeats densities [128]")
    assert not (tmp_path / "out").exists()


def test_sweep_refuses_density_of_2_32(tmp_path, capsys):
    # Stream key entries lie below 2**32: this sweep once ran its n = 64
    # trials and then ended in a traceback.
    config = write_config(tmp_path, n_list=[64, 2**32])
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert_one_line_error(capsys, "config error: n_list densities must be below 2**32")
    assert not (tmp_path / "out").exists()


@OUTSIDE_MODEL_PDES
def test_sweep_repeated_roots(tmp_path, capsys, record):
    config = write_config(tmp_path, pde=record)
    assert main(["sweep", "--config", str(config)]) == EXIT_INFEASIBLE
    assert_one_line_error(capsys, "PDE outside the model:")


@pytest.mark.parametrize(
    "record",
    [
        {"p_coeffs": ["0", True], "q_coeffs": [0, 0, "0.01"]},
        {"p_coeffs": [0.0, 1.0], "q_coeffs": [0.0, 0.0, "0.01"]},
        {"p_coeffs": [0.0, True], "q_coeffs": [0.0, 0.0, 0.01]},
        {"p_coeffs": [0, 1], "q_coeffs": [0, 0, 0.01], "q_coefs": [1]},
        [[0, 1], [0, 0, 0.01]],
        {"p_coeffs": [0, BEYOND_FLOAT], "q_coeffs": [0, 0, 0.01]},
        {"p_coeffs": [0, 1], "q_coeffs": [0, 0, BEYOND_FLOAT]},
    ],
    ids=[
        "strings-and-bool",
        "string",
        "bool",
        "misspelled-key",
        "not-an-object",
        "p-beyond-float",
        "q-beyond-float",
    ],
)
def test_stability_rejects_mistyped_coefficients(tmp_path, capsys, record):
    pde = tmp_path / "pde.json"
    pde.write_text(json.dumps(record))
    assert main(["stability", "--pde", str(pde), "--band", "2"]) == EXIT_CONFIG
    assert_one_line_error(capsys, "config error:")


@OUTSIDE_MODEL_PDES
def test_stability_repeated_roots(tmp_path, capsys, record):
    pde = tmp_path / "pde.json"
    pde.write_text(json.dumps(record))
    assert main(["stability", "--pde", str(pde), "--band", "2"]) == EXIT_INFEASIBLE
    assert_one_line_error(capsys, "PDE outside the model:")


@pytest.mark.parametrize("factor, code", [(1 - 1e-3, EXIT_OK), (1 + 1e-3, EXIT_INFEASIBLE)])
def test_stability_tol_boundary(tmp_path, capsys, factor, code):
    # q(z) = eps puts every root at r = eps; STABILITY_TOL is the largest admitted.
    pde = tmp_path / "pde.json"
    pde.write_text(json.dumps({"p_coeffs": [0.0, 1.0], "q_coeffs": [STABILITY_TOL * factor]}))
    assert main(["stability", "--pde", str(pde), "--band", "2"]) == code
    assert ("feasible: yes" if code == EXIT_OK else "feasible: no") in capsys.readouterr().out


def test_sweep_refuses_output_path_that_is_a_file(tmp_path, monkeypatch, capsys):
    # The output directory is made before the first trial, so this costs none.
    tasks = []
    monkeypatch.setattr(experiments, "_run_block", lambda *args: tasks.append(args))
    config = write_config(tmp_path)
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert_one_line_error(capsys, f"config error: cannot create output directory {out}")
    assert tasks == []


def test_sweep_refusal_is_one_line_at_the_process_boundary(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    # lambda = nextafter(17/10, inf): every draw at n = 17 refuses it, though
    # 10 * lambda rounds to 17.
    beta = {"family": "beta_scaled", "lambda": 1.7000000000000002, "mu": 1.5}
    huge = {"family": "gaussian", "variance": BEYOND_FLOAT}
    src = str(Path(fieldrecon.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for overrides, out in (
        ({}, taken),
        ({"n_list": [17, 34], "renewal": beta}, tmp_path / "out"),
        ({"noise": huge}, tmp_path / "out"),
        ({"pde": [1]}, tmp_path / "out"),
    ):
        config = write_config(tmp_path, **overrides)
        args = ["sweep", "--config", str(config), "--out", str(out)]
        done = subprocess.run(
            [sys.executable, "-m", "fieldrecon.cli", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == EXIT_CONFIG
        assert done.stderr.startswith("config error:") and done.stderr.count("\n") == 1, done.stderr
        assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_sweep_draws_deterministic_densities_below_ten_lambda(tmp_path):
    # The zero-variance family is exempt from the density floor, in the
    # sweep's check as in every draw.
    renewal = {"family": "deterministic", "lambda": 2.0, "mu": 2.0}
    config = write_config(tmp_path, n_list=[10, 16], renewal=renewal)
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["10", "16"]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_refuses_workers_below_one(tmp_path, capsys, workers):
    config = write_config(tmp_path)
    args = ["sweep", "--config", str(config), "--out", str(tmp_path / "out"), "--workers", workers]
    assert main(args) == EXIT_CONFIG
    assert_one_line_error(capsys, "config error:")
    assert not (tmp_path / "out").exists()


def test_sweep_refuses_empty_output_directory(tmp_path, monkeypatch, capsys):
    # Path("") is the working directory: this sweep once replaced the
    # sweep.csv and summary.json there, with exit 0.
    config = write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", str(config), "--out", ""]) == EXIT_CONFIG
    assert_one_line_error(capsys, "config error:")
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


def test_sweep_refuses_an_output_path_key(tmp_path, monkeypatch, capsys):
    # --out is the one output setting; a config key naming a second one is
    # unknown, refused before anything is written.
    config = write_config(tmp_path, output_path="elsewhere")
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", str(config), "--out", "out"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown config keys: ['output_path']\n"
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize(
    "args",
    [
        ["--suite", "appendix-b", "--trials", "5"],
        ["--suite", "appendix-b", "--trials", "0"],
        ["--suite", "appendix-a", "--seed", "-1"],
        ["--suite", "appendix-a", "--seed", "18446744073709551615"],
        ["--suite", "all", "--trials", str(2**32 + 1)],
    ],
    ids=["trials=5", "trials=0", "seed=-1", "seed=2^64-1", "trials=2^32+1"],
)
def test_verify_rejects_bad_input(monkeypatch, capsys, args):
    def never_run(suite_args):
        raise AssertionError("a suite ran on refused input")

    for name in cli.SUITE_RUNNERS:
        monkeypatch.setitem(cli.SUITE_RUNNERS, name, never_run)
    assert main(["verify", *args]) == EXIT_CONFIG
    assert_one_line_error(capsys, "config error:")


def test_verify_accepts_largest_seed(capsys):
    # appendix-b fuzzes under seed + 1 = 2**64 - 1, the largest stream master.
    args = ["--suite", "appendix-b", "--trials", "100", "--seed", "18446744073709551614"]
    assert main(["verify", *args]) == EXIT_OK
    assert "[PASS] suite appendix-b" in capsys.readouterr().out


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "ode"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] suite ode" in out


def test_verify_failure_exit_code(monkeypatch, capsys):
    import fieldrecon.cli as cli

    failing = lambda args: SuiteReport(passed=False, lines=("boom",))
    monkeypatch.setitem(cli.SUITE_RUNNERS, "ode", failing)
    assert main(["verify", "--suite", "ode"]) == EXIT_VERIFY
    assert "[FAIL]" in capsys.readouterr().out
