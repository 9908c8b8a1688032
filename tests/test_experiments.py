import json
import math

import numpy as np
import pytest

from fieldrecon.errors import ConfigInvalid, DegenerateFit, InfeasiblePde, UnknownScenario
from fieldrecon.experiments import (
    ExperimentConfig,
    config_from_record,
    config_to_record,
    fit_loglog_slope,
    load_config,
    run_sweep,
    sweep_csv_text,
)
from fieldrecon.field import catalog_scenario, coefficients_at
from fieldrecon.pde_core import PdeSpec, check_stability, eval_poly
from fieldrecon.sampling import NoiseSpec, RenewalSpec


def quick_config(**overrides):
    base = dict(
        scenario="diffusion",
        pde=3,
        n_list=(64, 128),
        trials=6,
        renewal=RenewalSpec("uniform_scaled", 2.0, 2.0),
        noise=NoiseSpec("gaussian", 1e-4),
        master_seed=424242,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------ slope fit


def test_fit_slope_two_point_exact():
    slope, intercept = fit_loglog_slope([(100, 1e-2), (1000, 1e-3)])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_constant():
    slope, intercept = fit_loglog_slope([(10, 5.0), (100, 5.0), (1000, 5.0)])
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert intercept == pytest.approx(math.log10(5.0), abs=1e-12)


def test_fit_slope_exact_log_linear():
    points = [(n, 3.0 / n) for n in (10, 100, 1000)]
    slope, intercept = fit_loglog_slope(points)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(math.log10(3.0), abs=1e-12)


def test_fit_slope_degenerate():
    with pytest.raises(DegenerateFit):
        fit_loglog_slope([(100, 1.0), (100, 2.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(100, 1.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(100, 1.0), (200, 0.0)])


# ------------------------------------------------------------------- catalog


def test_catalog_scenarios():
    spec3, state3 = catalog_scenario(3)
    assert spec3.p_coeffs == (0.0, 1.0)
    assert spec3.q_coeffs == (0.0, 0.0, 0.01)
    assert coefficients_at(state3, 0.0)[3] == pytest.approx(0.11, abs=1e-14)
    spec1, _ = catalog_scenario(1)
    assert eval_poly(spec1.q_coeffs, 1.0) == pytest.approx(0.009875, abs=1e-15)
    for index in (1, 2, 3):
        spec, state = catalog_scenario(index)
        assert check_stability(spec, state.b).feasible
    with pytest.raises(UnknownScenario):
        catalog_scenario(4)


# -------------------------------------------------------------------- config


def test_config_record_roundtrip(tmp_path):
    config = quick_config(output_path="out")
    record = config_to_record(config)
    back = config_from_record(record)
    assert back == config
    target = tmp_path / "config.json"
    target.write_text(json.dumps(record))
    assert load_config(target) == config


def test_config_unknown_keys():
    record = config_to_record(quick_config())
    record["extra"] = 1
    with pytest.raises(ConfigInvalid):
        config_from_record(record)
    record = config_to_record(quick_config())
    record["renewal"]["surprise"] = 2
    with pytest.raises(ConfigInvalid):
        config_from_record(record)
    record = config_to_record(quick_config())
    record["noise"].pop("variance")
    with pytest.raises(ConfigInvalid):
        config_from_record(record)


def test_config_explicit_pde_record():
    record = config_to_record(quick_config())
    record["pde"] = {"p_coeffs": [0.0, 1.0], "q_coeffs": [0.0, 0.0, 0.02]}
    config = config_from_record(record)
    assert isinstance(config.pde, PdeSpec)
    assert config.pde.q_coeffs == (0.0, 0.0, 0.02)


def test_config_bad_json(tmp_path):
    target = tmp_path / "broken.json"
    target.write_text("{not json")
    with pytest.raises(ConfigInvalid):
        load_config(target)
    with pytest.raises(ConfigInvalid):
        load_config(tmp_path / "missing.json")


def test_config_validation_errors():
    with pytest.raises(ConfigInvalid):
        quick_config(scenario="setX")
    with pytest.raises(ConfigInvalid):
        quick_config(scenario="random:notanint")
    with pytest.raises(ConfigInvalid):
        quick_config(trials=0)
    with pytest.raises(ConfigInvalid):
        quick_config(n_list=())
    with pytest.raises(ConfigInvalid):
        quick_config(pde=9)


def test_config_refuses_bool_pde():
    # True == 1 would otherwise pair the diffusion coefficients with PDE 1.
    with pytest.raises(ConfigInvalid):
        quick_config(pde=True)
    # Neither an index nor a PdeSpec: refused here, not in resolve_field.
    for pde in (3.0, "3"):
        with pytest.raises(ConfigInvalid):
            quick_config(pde=pde)


def test_config_stores_numpy_pde_as_int():
    # A numpy integer pde once reached resolve_field as if it were a PdeSpec.
    config = quick_config(pde=np.int64(3), n_list=(64,), trials=1)
    assert type(config.pde) is int and config.pde == 3
    assert config_to_record(config)["pde"] == 3
    plain = quick_config(pde=3, n_list=(64,), trials=1)
    assert sweep_csv_text(run_sweep(config)) == sweep_csv_text(run_sweep(plain))


@pytest.mark.parametrize(
    "override",
    [
        {"n_list": (128.9, 256)},
        {"n_list": (True, 256)},
        {"trials": 2.7},
        {"trials": True},
        {"master_seed": 3.9},
        {"master_seed": False},
    ],
    ids=["n_list-float", "n_list-bool", "trials-float", "trials-bool", "seed-float", "seed-bool"],
)
def test_config_refuses_non_integers(override):
    # Library callers got these truncated: 128.9 ran as 128, trials=True as 1 trial.
    with pytest.raises(ConfigInvalid):
        quick_config(**override)


def test_config_accepts_numpy_integers():
    config = quick_config(n_list=np.array([64, 128]), trials=np.int64(6), master_seed=np.uint64(7))
    assert config.n_list == (64, 128) and config.trials == 6 and config.master_seed == 7
    assert all(type(n) is int for n in (*config.n_list, config.trials, config.master_seed))


def test_density_floor_validation():
    # n must exceed the unknown count and 10*max(lam, mu).
    with pytest.raises(ConfigInvalid):
        run_sweep(quick_config(n_list=(6, 64), trials=1))
    with pytest.raises(ConfigInvalid):
        run_sweep(quick_config(n_list=(15, 64), trials=1))


def test_infeasible_pde_rejected():
    config = quick_config(pde=PdeSpec((0.0, 1.0), (0.0, 0.0, -0.01)))
    with pytest.raises(InfeasiblePde):
        run_sweep(config)


# --------------------------------------------------------------------- sweeps


def test_exact_recovery_sweep():
    config = quick_config(
        renewal=RenewalSpec("deterministic", 2.0, 2.0),
        noise=NoiseSpec(),
        trials=2,
        n_list=(32, 64),
    )
    result = run_sweep(config)
    for row in result.rows:
        assert row.mean_distortion < 1e-14
        assert row.rank_failures == 0


def test_sweep_rows_sorted_and_csv_format():
    config = quick_config(n_list=(128, 64))
    result = run_sweep(config)
    assert [row.n for row in result.rows] == [64, 128]
    text = sweep_csv_text(result)
    lines = text.strip().split("\n")
    assert lines[0] == "n,mean_distortion,stderr,mean_M,mean_kappa,rank_failures"
    for line, row in zip(lines[1:], result.rows):
        fields = line.split(",")
        assert int(fields[0]) == row.n
        assert float(fields[1]) == row.mean_distortion  # repr round-trips
        assert int(fields[5]) == row.rank_failures


def test_sweep_deterministic_across_runs_and_workers():
    config = quick_config()
    first = sweep_csv_text(run_sweep(config))
    second = sweep_csv_text(run_sweep(config))
    assert first == second
    parallel = sweep_csv_text(run_sweep(config, workers=2))
    assert parallel == first


def test_sweep_writes_outputs(tmp_path):
    config = quick_config(output_path=str(tmp_path / "out"))
    result = run_sweep(config)
    csv_path = tmp_path / "out" / "sweep.csv"
    summary_path = tmp_path / "out" / "summary.json"
    assert csv_path.read_text() == sweep_csv_text(result)
    summary = json.loads(summary_path.read_text())
    assert summary["config"]["master_seed"] == config.master_seed
    assert summary["version"]
    if np.isfinite(result.slope):
        assert summary["slope"] == pytest.approx(result.slope)


def test_sweep_monotone_trend():
    config = quick_config(n_list=(128, 256, 512, 1024), trials=24, master_seed=7)
    result = run_sweep(config)
    means = [row.mean_distortion for row in result.rows]
    inversions = sum(1 for a, b in zip(means, means[1:]) if b >= a)
    assert inversions <= 1


def test_stderr_shrinks_with_trials():
    small = run_sweep(quick_config(n_list=(512,), trials=64, master_seed=3))
    large = run_sweep(quick_config(n_list=(512,), trials=256, master_seed=3))
    ratio = small.rows[0].stderr / large.rows[0].stderr
    assert 1.4 <= ratio <= 2.6


def test_random_scenario_reproducible():
    config = quick_config(scenario="random:99", trials=3)
    a = run_sweep(config)
    b = run_sweep(config)
    assert sweep_csv_text(a) == sweep_csv_text(b)
    # Different field seed changes the outcome.
    c = run_sweep(quick_config(scenario="random:100", trials=3))
    assert sweep_csv_text(c) != sweep_csv_text(a)


def test_rank_failures_counted(monkeypatch):
    import fieldrecon.experiments as exp
    from fieldrecon.errors import RankDeficient

    calls = {"count": 0}

    def sometimes_fail(design, samples, true_k0):
        calls["count"] += 1
        if calls["count"] % 3 == 0:
            raise RankDeficient("forced for the test")
        return original(design, samples, true_k0)

    original = exp.reconstruct
    monkeypatch.setattr(exp, "reconstruct", sometimes_fail)
    result = run_sweep(quick_config(n_list=(64,), trials=6))
    assert result.rows[0].rank_failures == 2
    assert sum(1 for r in result.trial_records if r.ok) == 4


def test_trial_records_cover_grid():
    config = quick_config(n_list=(64, 128), trials=4)
    result = run_sweep(config)
    assert len(result.trial_records) == 8
    assert {(r.n, r.trial) for r in result.trial_records} == {
        (n, t) for n in (64, 128) for t in range(4)
    }
