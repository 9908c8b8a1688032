import concurrent.futures
import dataclasses
import json
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fieldrecon.experiments as exp
from fieldrecon.errors import ConfigInvalid, DegenerateFit, InfeasiblePde, UnknownScenario
from fieldrecon.estimator import ReconstructionResult, reconstruct_stack
from fieldrecon.experiments import (
    ExperimentConfig,
    config_from_record,
    config_to_record,
    distortion,
    fit_loglog_slope,
    load_config,
    run_sweep,
    sweep_csv_text,
)
from fieldrecon.field import GridTables, catalog_entry, coefficients_at, scenario_field
from fieldrecon.pde_core import PdeSpec, check_stability, eval_poly
from fieldrecon.sampling import NoiseSpec, RenewalSpec, draw_path, sample_field
from fieldrecon.streams import cell_streams


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


@pytest.mark.parametrize(
    "point",
    [(200, math.nan), (200, math.inf), (math.nan, 1.0), (math.inf, 1.0)],
    ids=["y-nan", "y-inf", "n-nan", "n-inf"],
)
def test_fit_slope_refuses_non_finite_coordinates(point, capfd):
    # Not (nan, nan), and no LAPACK complaint on stderr before a LinAlgError.
    with pytest.raises(ValueError, match="finite coordinates"):
        fit_loglog_slope([(100, 1.0), point, (400, 0.25)])
    assert capfd.readouterr().err == ""


# ------------------------------------------------------------------- catalog


def test_catalog_scenarios():
    state3 = scenario_field(catalog_entry(3).set_id)
    assert state3.spec.p_coeffs == (0.0, 1.0)
    assert state3.spec.q_coeffs == (0.0, 0.0, 0.01)
    assert coefficients_at(state3, 0.0)[3] == pytest.approx(0.11, abs=1e-14)
    assert eval_poly(catalog_entry(1).spec.q_coeffs, 1.0) == pytest.approx(0.009875, abs=1e-15)
    for index in (1, 2, 3):
        state = scenario_field(catalog_entry(index).set_id)
        assert check_stability(state.spec, state.b).feasible
    with pytest.raises(UnknownScenario):
        catalog_entry(4)


# -------------------------------------------------------------------- config


def test_config_record_roundtrip(tmp_path):
    config = quick_config()
    record = config_to_record(config)
    back = config_from_record(record)
    assert back == config
    target = tmp_path / "config.json"
    target.write_text(json.dumps(record))
    assert load_config(target) == config


def test_config_schema_is_complete():
    # A field added to ExperimentConfig or to a spec, but not to the schema,
    # fails here: every field is a record key, and each section's keys name
    # its spec's fields one to one, in order ("lambda" is a Python keyword).
    config = quick_config(pde=PdeSpec((0.0, 1.0), (0.0, 0.0, 0.02)))
    record = config_to_record(config)
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert list(record) == names
    assert config_from_record(record) == config
    for name, (spec_type, keys) in exp._SECTIONS.items():
        assert [{"lambda": "lam"}.get(key, key) for key in keys] == [f.name for f in dataclasses.fields(spec_type)]
        assert list(record[name]) == list(keys)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda path: path.stem)
def test_committed_configs_round_trip(path):
    assert config_to_record(load_config(path)) == json.loads(path.read_text())


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
    target.write_bytes(b"\xff\xfe{}")  # not UTF-8
    with pytest.raises(ConfigInvalid):
        load_config(target)


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
    with pytest.raises(ConfigInvalid):
        quick_config(scenario="random:18446744073709551616")  # 2**64
    # int() reads each of these as a seed that a canonical tag also names
    # ("random:10" or "random:7"), so one field had many tags.
    for tag in ("random:1_0", "random: 7 ", "random:+7", "random:007", "random:\uff17"):
        with pytest.raises(ConfigInvalid, match="canonical decimal"):
            quick_config(scenario=tag)
    # A string was read by its characters, a mapping by its keys.
    for n_list in ("128", {64: 1, 128: 1}):
        with pytest.raises(ConfigInvalid, match="n_list must be a list of integers"):
            quick_config(n_list=n_list)
    # Mistyped fields are refused here, not met later as AttributeError or TypeError.
    for override in (
        {"scenario": 5},
        {"scenario": None},
        {"n_list": 128},
        {"renewal": 5},
        {"noise": "gaussian"},
    ):
        with pytest.raises(ConfigInvalid):
            quick_config(**override)


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


def test_config_refuses_stream_keys_from_2_32():
    # Densities and trial indices are stream key entries, which lie below
    # 2**32; a density of 2**32 ran every smaller density's trials first,
    # then failed deriving its own streams.
    with pytest.raises(ConfigInvalid, match="n_list item must be at most 4294967295, got 4294967296"):
        quick_config(n_list=(64, 2**32))
    with pytest.raises(ConfigInvalid, match="trials must be at most 4294967296, got 4294967297"):
        quick_config(trials=2**32 + 1)
    # The largest keys are accepted.  Only the config is built: one path at
    # such a density would take tens of gigabytes.
    config = quick_config(n_list=(64, 2**32 - 1), trials=2**32)
    assert config.n_list == (64, 2**32 - 1) and config.trials == 2**32


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
    # 10 * lambda rounds to 17 here, so a floor printed as 10*max(lam, mu)
    # read "at least 17" for n = 17: the refusal states both sides exactly.
    renewal = RenewalSpec("beta_scaled", 1.7000000000000002, 1.5)
    with pytest.raises(ConfigInvalid, match=r"up to n/10 = 1\.7, got 1\.7000000000000002$"):
        run_sweep(quick_config(n_list=(17, 64), trials=1, renewal=renewal))


class Reached(Exception):
    """Raised by the doubles below: the caller got past every check."""


class NoDraws:
    """A path generator that refuses to draw: draw_path reaches it only
    once the density is accepted."""

    def beta(self, *args, **kwargs):
        raise Reached


def reached_task(*args):
    raise Reached


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(11, 10**6 - 1), step=st.sampled_from([-1, 0, 1]))
def test_sweep_refuses_exactly_the_densities_draws_refuse(n, step):
    # lam = nextafter(n/10, 0), n/10 or nextafter(n/10, inf).  For many n,
    # 10 * nextafter(n/10, inf) rounds to n, so a check written as
    # n < 10 * lam lets through a density that every draw refuses.
    lam = float(np.nextafter(n / 10, step * np.inf)) if step else n / 10
    renewal = RenewalSpec("beta_scaled", lam, 1.5)
    try:
        draw_path(renewal, n, (NoDraws(), NoDraws()))
    except ValueError:
        drawn = False
    except Reached:
        drawn = True
    config = quick_config(n_list=(n,), trials=1, renewal=renewal)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exp, "_run_block", reached_task)
        with pytest.raises(Reached if drawn else ConfigInvalid):
            run_sweep(config)


def test_infeasible_pde_rejected(tmp_path):
    config = quick_config(pde=PdeSpec((0.0, 1.0), (0.0, 0.0, -0.01)))
    with pytest.raises(InfeasiblePde):
        run_sweep(config, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


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


def test_sweep_refuses_non_integer_workers():
    for workers in (1.5, 2.0, True, "2", None):  # refused, never truncated
        with pytest.raises(ConfigInvalid, match="workers must be an integer"):
            run_sweep(quick_config(), workers=workers)
    with pytest.raises(ConfigInvalid, match="workers must be at least 1"):
        run_sweep(quick_config(), workers=0)


def test_sweep_deterministic_across_runs_and_workers():
    config = quick_config()
    first = sweep_csv_text(run_sweep(config))
    second = sweep_csv_text(run_sweep(config))
    assert first == second
    parallel = sweep_csv_text(run_sweep(config, workers=2))
    assert parallel == first


def test_sweep_refuses_unusable_output_paths(tmp_path, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    tasks = []
    with monkeypatch.context() as patch:
        patch.setattr(exp, "_run_block", lambda *args: tasks.append(args))
        refusal = re.escape(f"cannot create output directory {taken}")
        with pytest.raises(ConfigInvalid, match=refusal):
            run_sweep(quick_config(), out_dir=taken)
    assert tasks == []
    # A directory in the place of sweep.csv fails once the trials have run.
    (tmp_path / "out" / "sweep.csv").mkdir(parents=True)
    with pytest.raises(ConfigInvalid, match="cannot write the sweep outputs to"):
        run_sweep(quick_config(), out_dir=tmp_path / "out")


def test_sweep_writes_outputs(tmp_path):
    config = quick_config()
    result = run_sweep(config, out_dir=str(tmp_path / "out"))
    csv_path = tmp_path / "out" / "sweep.csv"
    summary_path = tmp_path / "out" / "summary.json"
    assert csv_path.read_text() == sweep_csv_text(result)
    summary = json.loads(summary_path.read_text())
    assert summary["config"]["master_seed"] == config.master_seed
    assert summary["version"]
    if np.isfinite(result.slope):
        assert summary["slope"] == pytest.approx(result.slope)


def test_sweep_summary_does_not_depend_on_out_dir(tmp_path):
    # out_dir is the one output setting: the summary echoes every config
    # field, and no path, so two output directories hold the same bytes.
    config = quick_config()
    for name in ("a", "b"):
        run_sweep(config, out_dir=tmp_path / name)
    summary = (tmp_path / "a" / "summary.json").read_bytes()
    assert (tmp_path / "b" / "summary.json").read_bytes() == summary
    echo = json.loads(summary)["config"]
    assert sorted(echo) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
    assert config_from_record(echo) == config


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
    from fieldrecon.errors import RankDeficient

    def sometimes_fail(*args):
        # Every third member of each stack is refused.
        outcomes = original(*args)
        return [RankDeficient("forced for the test") if i % 3 == 2 else o for i, o in enumerate(outcomes)]

    original = exp.reconstruct_stack
    monkeypatch.setattr(exp, "reconstruct_stack", sometimes_fail)
    result = run_sweep(quick_config(n_list=(64,), trials=6))
    assert result.rows[0].rank_failures == 2
    assert [r.ok for r in result.trial_records] == [True, True, False] * 2
    kept = [r.distortion for r in result.trial_records if r.ok]
    assert result.rows[0].mean_distortion == pytest.approx(np.mean(kept), rel=1e-15)


def test_trials_never_materialize_the_design(monkeypatch):
    # Each stack of trials solves through the grids' power tables; the M x c
    # design is built only when something materializes them.
    def refuse(tables, grid=0):
        raise AssertionError(f"materialized a {tables.m_counts[grid]}-row design")

    stacks = []

    def solve(roots, t0s, *args):
        stacks.append(len(t0s))
        return original(roots, t0s, *args)

    original = exp.reconstruct_stack
    monkeypatch.setattr(GridTables, "materialize", refuse)
    monkeypatch.setattr(exp, "reconstruct_stack", solve)
    result = run_sweep(quick_config(scenario="set1", pde=1, n_list=(64, 2048), trials=3))
    assert all(record.ok for record in result.trial_records)
    # 14 columns: three 64-sample designs fit one stack, 2048-sample ones two.
    assert stacks == [3, 2, 1]


def test_noiseless_sweep_derives_no_noise_stream(monkeypatch):
    # Without noise to draw, each cell derives its two path generators only,
    # and the sweep reads as it does with the noise generator derived too.
    counts = []

    def derive(cells, count):
        counts.append(count)
        return cell_streams(cells, count)

    config = quick_config(noise=NoiseSpec(), n_list=(64, 128), trials=20)
    monkeypatch.setattr(exp, "cell_streams", derive)
    lean = run_sweep(config)
    assert set(counts) == {2}
    monkeypatch.setattr(exp, "cell_streams", lambda cells, count: cell_streams(cells, 3))
    full = run_sweep(config)
    assert sweep_csv_text(lean) == sweep_csv_text(full)
    assert [repr(r) for r in lean.trial_records] == [repr(r) for r in full.trial_records]


# Traced peak of one 16-trial task on set1.  Measured: 0.65 MB at n = 128
# and 0.60 MB at n = 8192.  A task that held all its readings and reduced
# systems at once read 8.6 MB at n = 8192; one trial at a time, 0.06 MB and
# 0.5 MB.
TASK_PEAK_MB = 1.5


@pytest.mark.parametrize("n", [128, 8192])
def test_task_memory_stays_bounded(n):
    # numpy reports its buffers to tracemalloc, so this pins what a task
    # holds at once: one stack's readings and systems, not the whole task's.
    config = quick_config(scenario="set1", pde=1, n_list=(n,), trials=16)
    state = exp.resolve_field(config)
    exp._run_block(config, state, n, range(16))  # warm caches
    tracemalloc.start()
    try:
        records = exp._run_block(config, state, n, range(16, 32))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert len(records) == 16
    assert peak < TASK_PEAK_MB


def test_stack_scoring_is_each_members_own_distortion():
    # One stack of healthy set1 paths, the same readings at set1's collision
    # horizon T0* = 1.1028 and 10 readings for its 14 columns: the harness
    # scores the solved members in one pass, bit for bit as each member's
    # own estimate scores alone, and leaves the refused ones NaN.
    state = scenario_field("set1")
    true_k0 = coefficients_at(state, 0.0)
    stack = []
    for trial, gens in enumerate(cell_streams([(77, 512, trial) for trial in range(3)], 3)):
        path = draw_path(RenewalSpec(), 512, gens[:2])
        stack.append((trial, path.T0[0], sample_field(state, path, NoiseSpec("gaussian", 1e-4), gens[2])))
    stack += [(3, 1.1028, stack[0][2]), (4, 1.0, stack[1][2][:10])]
    records = exp._solve_stack(state, true_k0, 512, stack)
    outcomes = reconstruct_stack(state.roots, [t0 for _, t0, _ in stack], [v for _, _, v in stack])
    assert [r.ok for r in records] == [True, True, True, False, False]
    for record, (trial, t0, values), outcome in zip(records, stack, outcomes):
        assert (record.n, record.trial, record.samples, record.t0) == (512, trial, len(values), t0)
        if not record.ok:
            assert not isinstance(outcome, ReconstructionResult)
            assert all(math.isnan(x) for x in (record.distortion, record.coeff_error_sq, record.kappa))
            continue
        modes = outcome.a_hat.reshape(len(state.roots), -1).sum(axis=1)
        assert record.distortion == distortion(modes, true_k0)
        assert record.coeff_error_sq == distortion(outcome.a_hat, state.flat_coeffs())
        assert record.kappa == outcome.kappa


def test_run_trial_is_one_trial_of_a_task():
    # A trial alone gives the record a sweep task gives it within a stack;
    # the stack's shared block length moves the floats at rounding level.
    config = quick_config(scenario="set1", pde=1, n_list=(256,), trials=16)
    state = exp.resolve_field(config)
    task = exp._run_block(config, state, 256, range(16))
    for trial in (0, 7, 15):
        record = exp.run_trial(config, state, 256, trial)
        expected = task[trial]
        assert (record.n, record.trial, record.ok, record.samples, record.t0) == (
            expected.n,
            expected.trial,
            expected.ok,
            expected.samples,
            expected.t0,
        )
        for name in ("distortion", "coeff_error_sq", "kappa"):
            assert getattr(record, name) == pytest.approx(getattr(expected, name), rel=1e-9)


def test_trial_records_cover_grid():
    config = quick_config(n_list=(64, 128), trials=4)
    result = run_sweep(config)
    assert len(result.trial_records) == 8
    assert {(r.n, r.trial) for r in result.trial_records} == {
        (n, t) for n in (64, 128) for t in range(4)
    }


def test_config_refuses_repeated_densities():
    # A repeated n reran its trials on the same seeds and pooled both copies
    # into one row: the same mean with an understated stderr.
    with pytest.raises(ConfigInvalid, match=r"repeats densities \[128\]"):
        quick_config(n_list=(128, 128, 256))
    with pytest.raises(ConfigInvalid):
        quick_config(n_list=np.array([64, 64]))


# Any JSON value: scalars (integers beyond the float range, NaN and +-inf
# included), lists and objects.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(10**300, 10**400)
    | st.integers(-(10**400), -(10**300))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=4,
)
# Where a value lands: a key path into a valid record with an explicit pde.
CONFIG_PLACES = [
    ("scenario",),
    ("pde",),
    ("n_list",),
    ("n_list", 0),
    ("trials",),
    ("master_seed",),
    ("renewal",),
    ("renewal", "family"),
    ("renewal", "lambda"),
    ("renewal", "mu"),
    ("noise",),
    ("noise", "family"),
    ("noise", "variance"),
    ("pde", "p_coeffs"),
    ("pde", "p_coeffs", 1),
    ("pde", "q_coeffs"),
    ("pde", "q_coeffs", 2),
]


@settings(derandomize=True, max_examples=250, deadline=None)
@given(value=JSON_VALUES, place=st.sampled_from(CONFIG_PLACES))
def test_config_from_record_refuses_only_with_config_invalid(value, place):
    # A 400-digit lambda, mu, variance or coefficient once escaped as
    # OverflowError, a traceback at the command line.
    record = config_to_record(quick_config(renewal=RenewalSpec("beta_scaled", 3.0, 3.0)))
    record["pde"] = {"p_coeffs": [0.0, 1.0], "q_coeffs": [0.0, 0.0, 0.01]}
    *parents, last = place
    target = record
    for key in parents:
        target = target[key]
    target[last] = value
    try:
        config = config_from_record(record)
    except ConfigInvalid:
        return
    assert isinstance(config, ExperimentConfig)


# ---------------------------------------------------------------- BLAS threads


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread-count getter and setter; the count is restored after the test."""
    control = exp._openblas_threads()
    assert control is not None
    get, set_ = control
    before = get()
    yield get, set_
    set_(before)


def test_openblas_thread_control_found(blas_threads):
    # A numpy whose OpenBLAS renames the symbols must fail here, not
    # silently run every sweep on the default thread count again.
    get, set_ = blas_threads
    for count in (2, 1):
        set_(count)
        assert get() == count


_run_block = exp._run_block


def _record_blas_threads(*args):
    """_run_block, with the thread count its task ran under in ``kappa`` and
    its process id in ``t0``."""
    get, _ = exp._openblas_threads()
    threads = get()
    records = _run_block(*args)
    return [dataclasses.replace(r, kappa=float(threads), t0=float(os.getpid())) for r in records]


@pytest.mark.parametrize("workers", [1, 2])
def test_trials_run_on_one_blas_thread(monkeypatch, blas_threads, workers):
    get, set_ = blas_threads
    set_(2)
    monkeypatch.setattr(exp, "_run_block", _record_blas_threads)
    result = run_sweep(quick_config(n_list=(64,), trials=4), workers=workers)
    assert {r.kappa for r in result.trial_records} == {1.0}
    pids = {int(r.t0) for r in result.trial_records}
    assert (pids == {os.getpid()}) == (workers == 1)
    assert get() == 2


def test_pool_worker_pins_one_blas_thread(blas_threads):
    # Pool workers started by spawn or forkserver do not inherit the
    # parent's count, so the initializer sets it.
    get, set_ = blas_threads
    set_(2)
    exp._init_worker()
    assert get() == 1


class InlinePool:
    """ProcessPoolExecutor stand-in: records its size and runs every task
    in this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "workers, cpus, size",
    [(8, 64, 2), (2, 64, 2), (8, 1, 1), (8, None, 1)],
    ids=["tasks-bound", "workers-bound", "cpu-bound", "cpu-unknown"],
)
def test_pool_starts_no_more_workers_than_tasks_or_cpus(monkeypatch, workers, cpus, size):
    # ProcessPoolExecutor starts all max_workers processes at the first
    # submit, however few tasks there are.
    config = quick_config(n_list=(64, 128), trials=6)  # one task per density
    pinned = sweep_csv_text(run_sweep(config))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert sweep_csv_text(run_sweep(config, workers=workers)) == pinned
    assert InlinePool.sizes == [size]


def test_sweep_restores_blas_threads(monkeypatch, blas_threads):
    get, set_ = blas_threads
    set_(2)
    run_sweep(quick_config(n_list=(64,), trials=2))
    assert get() == 2

    def failing_task(*args):
        raise RuntimeError("task failed")

    monkeypatch.setattr(exp, "_run_block", failing_task)
    with pytest.raises(RuntimeError, match="task failed"):
        run_sweep(quick_config(n_list=(64,), trials=2))
    assert get() == 2


def test_sweep_without_blas_control_is_unchanged(monkeypatch):
    config = quick_config(n_list=(64, 128), trials=4)
    pinned = sweep_csv_text(run_sweep(config))
    monkeypatch.setattr(exp, "_openblas_threads", lambda: None)
    assert sweep_csv_text(run_sweep(config)) == pinned
    assert sweep_csv_text(run_sweep(config, workers=2)) == pinned
