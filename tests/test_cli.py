import json

import pytest

from fieldrecon.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_VERIFY, main
from fieldrecon.oracle import SuiteReport
from fieldrecon.pde_core import STABILITY_TOL


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


def test_sweep_config_error(tmp_path):
    config = write_config(tmp_path, unexpected=1)
    assert main(["sweep", "--config", str(config)]) == EXIT_CONFIG
    missing = tmp_path / "nope.json"
    assert main(["sweep", "--config", str(missing)]) == EXIT_CONFIG


def test_sweep_infeasible(tmp_path):
    config = write_config(
        tmp_path, pde={"p_coeffs": [0.0, 1.0], "q_coeffs": [0.0, 0.0, -0.01]}
    )
    assert main(["sweep", "--config", str(config)]) == EXIT_INFEASIBLE


# p = z^2, q = 0.01 z^2: a double characteristic root at 0 for harmonic k = 0.
DOUBLE_ROOT_PDE = {"p_coeffs": [0.0, 0.0, 1.0], "q_coeffs": [0.0, 0.0, 0.01]}


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
        {"scenario": 5},
        {"renewal": {"family": "uniform_scaled", "lambda": "2", "mu": 2.0}},
        {"noise": {"family": "gaussian", "variance": True}},
    ],
    ids=lambda override: "-".join(f"{k}={v!r}" for k, v in override.items()),
)
def test_sweep_rejects_mistyped_config(tmp_path, capsys, override):
    config = write_config(tmp_path, **override)
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert_one_line_error(capsys, "config error:")
    assert not (tmp_path / "out").exists()


def test_sweep_repeated_roots(tmp_path, capsys):
    config = write_config(tmp_path, pde=DOUBLE_ROOT_PDE)
    assert main(["sweep", "--config", str(config)]) == EXIT_INFEASIBLE
    assert_one_line_error(capsys, "PDE outside the model:")


def test_stability_repeated_roots(tmp_path, capsys):
    pde = tmp_path / "pde.json"
    pde.write_text(json.dumps(DOUBLE_ROOT_PDE))
    assert main(["stability", "--pde", str(pde), "--band", "2"]) == EXIT_INFEASIBLE
    assert_one_line_error(capsys, "PDE outside the model:")


@pytest.mark.parametrize("factor, code", [(1 - 1e-3, EXIT_OK), (1 + 1e-3, EXIT_INFEASIBLE)])
def test_stability_tol_boundary(tmp_path, capsys, factor, code):
    # q(z) = eps puts every root at r = eps; STABILITY_TOL is the largest admitted.
    pde = tmp_path / "pde.json"
    pde.write_text(json.dumps({"p_coeffs": [0.0, 1.0], "q_coeffs": [STABILITY_TOL * factor]}))
    assert main(["stability", "--pde", str(pde), "--band", "2"]) == code
    assert ("feasible: yes" if code == EXIT_OK else "feasible: no") in capsys.readouterr().out


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_refuses_workers_below_one(tmp_path, capsys, workers):
    config = write_config(tmp_path)
    args = ["sweep", "--config", str(config), "--out", str(tmp_path / "out"), "--workers", workers]
    assert main(args) == EXIT_CONFIG
    assert_one_line_error(capsys, "config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["--suite", "appendix-b", "--trials", "5"],
        ["--suite", "appendix-b", "--trials", "0"],
        ["--suite", "appendix-a", "--seed", "-1"],
    ],
    ids=["trials=5", "trials=0", "seed=-1"],
)
def test_verify_rejects_bad_input(capsys, args):
    assert main(["verify", *args]) == EXIT_CONFIG
    assert_one_line_error(capsys, "config error:")


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "ode"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] suite ode" in out


def test_verify_failure_exit_code(monkeypatch, capsys):
    import fieldrecon.cli as cli

    failing = lambda args: SuiteReport(name="ode", passed=False, lines=("boom",))
    monkeypatch.setitem(cli.SUITE_RUNNERS, "ode", failing)
    assert main(["verify", "--suite", "ode"]) == EXIT_VERIFY
    assert "[FAIL]" in capsys.readouterr().out
