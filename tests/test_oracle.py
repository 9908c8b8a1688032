import cmath
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fieldrecon.oracle as oracle
from fieldrecon.field import CATALOG, catalog_entry, coefficients_at, scenario_field
from fieldrecon.oracle import (
    bandlimit_preservation_check,
    bandlimit_suite,
    grid_deviation_scaling,
    grid_deviation_suite,
    integrate_coefficient_ode,
    ode_equivalence_suite,
)
from fieldrecon.pde_core import PdeSpec
from fieldrecon.sampling import PathBlock, RenewalSpec

DIFFUSION_RATE = -0.39478417604357435
GOLDEN = Path(__file__).resolve().parent / "golden" / "verify"


def assert_golden_lines(report, name):
    # The suite's report lines, byte for byte, as pinned in tests/golden/verify.
    assert ("\n".join(report.lines) + "\n").encode() == (GOLDEN / name).read_bytes()


def test_rk4_scalar_exponential():
    times, (values,) = integrate_coefficient_ode([(catalog_entry(3).spec, [1], [[1.0]])], t_end=1.0, dt=1e-3)
    assert times[-1] == pytest.approx(1.0, abs=1e-12)
    assert values.shape == (1001, 1)
    assert abs(values[-1, 0] - cmath.exp(DIFFUSION_RATE)) < 1e-9


def test_rk4_two_mode_closed_form():
    # p(z) = z^2 + 3z with constant forcing -2 puts the roots at -1 and -2,
    # so a(0) = 1, a'(0) = 0 evolves as 2 e^{-t} - e^{-2t}.
    spec = PdeSpec((0.0, 3.0, 1.0), (-2.0,))
    _, (values,) = integrate_coefficient_ode([(spec, [0], [[1.0, 0.0]])], t_end=1.0, dt=1e-3)
    expected = 2 * math.exp(-1.0) - math.exp(-2.0)
    assert expected == pytest.approx(0.600423599106272, abs=1e-12)
    assert abs(values[-1, 0] - expected) < 1e-8


def test_rk4_zero_initial_conditions():
    _, (values,) = integrate_coefficient_ode([(catalog_entry(2).spec, [2], [[0.0, 0.0]])], t_end=0.5, dt=1e-3)
    assert np.all(values == 0)


def test_rk4_matches_closed_form_all_scenarios():
    times = np.arange(1001) * 1e-3
    for entry in CATALOG:
        state = scenario_field(entry.set_id)
        closed = np.array([coefficients_at(state, t) for t in times])
        for hr in state.roots:
            conditions = np.zeros(state.m, dtype=complex)
            conditions[0] = complex(np.sum(state.coeffs[hr.k + state.b]))
            rk4_times, (values,) = integrate_coefficient_ode([(state.spec, [hr.k], [conditions])], 1.0, 1e-3)
            assert np.array_equal(rk4_times, times)
            assert float(np.max(np.abs(closed[:, hr.k + state.b] - values[:, 0]))) < 1e-6


def test_rk4_stacked_equals_each_harmonic_alone():
    # A harmonic's trajectory must not depend on what else shares the stack.
    for entry in CATALOG:
        state = scenario_field(entry.set_id)
        ks = [hr.k for hr in state.roots] + [7, -9]
        rng = np.random.default_rng(entry.index)
        conditions = rng.normal(size=(len(ks), state.m)) + 1j * rng.normal(size=(len(ks), state.m))
        times, (stacked,) = integrate_coefficient_ode([(state.spec, ks, conditions)], t_end=0.3, dt=1e-3)
        assert stacked.shape == (301, len(ks))
        for h, k in enumerate(ks):
            alone_times, (alone,) = integrate_coefficient_ode([(state.spec, [k], conditions[h : h + 1])], 0.3, 1e-3)
            assert np.array_equal(stacked[:, h], alone[:, 0]), (entry.index, k)
            assert np.array_equal(times, alone_times)


def test_rk4_one_stack_equals_each_pde_alone():
    # The suites integrate the catalog's PDEs (degrees 2, 2, 1) as one
    # zero-padded stack; each trajectory must equal its own PDE's run.
    states = [scenario_field(entry.set_id) for entry in CATALOG]
    for dt in (oracle.ORACLE_DT, oracle.ORACLE_DT / 2):
        times, runs = integrate_coefficient_ode([oracle._at_rest(state) for state in states], 1.0, dt)
        for state, values in zip(states, runs):
            alone_times, (alone,) = integrate_coefficient_ode([oracle._at_rest(state)], 1.0, dt)
            assert values.shape == (len(times), 2 * state.b + 1)
            assert np.array_equal(values, alone), (state.spec, dt)
            assert np.array_equal(times, alone_times)


def test_rk4_fourth_order_convergence():
    # Halving the step should shrink the error by about 2^4.
    state = scenario_field("set1")  # k = 3 has the largest |r| among the scenarios
    conditions = np.array([[complex(np.sum(state.coeffs[3 + state.b])), 0.0]])
    errors = {}
    for dt in (1e-3, 5e-4):
        times, (values,) = integrate_coefficient_ode([(state.spec, [3], conditions)], t_end=1.0, dt=dt)
        closed = np.array([coefficients_at(state, t)[3 + state.b] for t in times])
        errors[dt] = float(np.max(np.abs(closed - values[:, 0])))
    ratio = errors[1e-3] / errors[5e-4]
    assert 8.0 <= ratio <= 32.0


def test_rk4_parameter_validation():
    diffusion, set2 = catalog_entry(3).spec, catalog_entry(2).spec
    with pytest.raises(ValueError, match="dt must be positive"):
        integrate_coefficient_ode([(diffusion, [0], [[1.0]])], t_end=1.0, dt=0.0)
    with pytest.raises(ValueError, match="t_end must be finite and at least one step"):
        integrate_coefficient_ode([(diffusion, [0], [[1.0]])], t_end=0.001, dt=0.01)
    with pytest.raises(ValueError, match="at least one harmonic"):
        integrate_coefficient_ode([(diffusion, [], np.zeros((0, 1)))], t_end=1.0, dt=0.01)
    with pytest.raises(ValueError, match="at least one problem"):
        integrate_coefficient_ode([], t_end=1.0, dt=0.01)
    for k in (1.5, True, "1"):  # int(k) would integrate harmonic 1
        with pytest.raises(ValueError, match="a harmonic k must be an integer"):
            integrate_coefficient_ode([(diffusion, [k], [[1.0]])], t_end=0.01, dt=1e-3)
    for t_end, dt, what in (
        (1.0, np.nan, "dt must be positive and finite, got nan"),
        (1.0, np.inf, "dt must be positive and finite, got inf"),
        (np.nan, 0.01, "t_end must be finite and at least one step, got nan"),
        (np.inf, 0.01, "t_end must be finite and at least one step, got inf"),
        (1.0, "0.01", "dt must be a real number"),
        (True, 0.01, "t_end must be a real number"),
    ):
        with pytest.raises(ValueError, match=re.escape(what)):
            integrate_coefficient_ode([(diffusion, [0], [[1.0]])], t_end=t_end, dt=dt)
    for conditions in (
        [[1.0]],  # one value for a second-order ODE
        [1.0, 0.0],  # not one row per harmonic
        [[1.0, 0.0], [0.0, 0.0]],  # two rows for one harmonic
        [[1.0, 0.0, 0.0]],  # three values for a second-order ODE
    ):
        with pytest.raises(ValueError, match="initial conditions"):
            integrate_coefficient_ode([(set2, [0], conditions)], t_end=1.0, dt=0.01)
        # The same shape check holds for every problem of a stack.
        with pytest.raises(ValueError, match="initial conditions"):
            integrate_coefficient_ode([(diffusion, [0], [[1.0]]), (set2, [0], conditions)], t_end=1.0, dt=0.01)


def test_suites_reach_the_rk4_through_its_public_name(monkeypatch):
    # Each RK4 run goes through oracle.integrate_coefficient_ode, the name a
    # tracer hooks: one stack per step size for the ode suite, one for
    # appendix-a.
    integrate, calls = oracle.integrate_coefficient_ode, []

    def counted(problems, t_end, dt):
        calls.append(dt)
        return integrate(problems, t_end, dt)

    monkeypatch.setattr(oracle, "integrate_coefficient_ode", counted)
    ode_equivalence_suite()
    assert len(calls) == 2
    calls.clear()
    bandlimit_suite(instances=30)
    assert len(calls) == 1


def test_bandlimit_silent_out_of_band():
    for entry in CATALOG:
        assert bandlimit_preservation_check(entry.spec, b=3) < 1e-12


def test_bandlimit_negative_control():
    leak = bandlimit_preservation_check(catalog_entry(3).spec, b=3, conditions={5: [1.0]})
    assert leak > 0.5  # |a_5(0)| = 1 is already in the probe grid
    with pytest.raises(ValueError):
        bandlimit_preservation_check(catalog_entry(2).spec, b=3, conditions={5: [1.0]})


def test_bandlimit_check_refuses_a_band_limit_as_check_stability_does():
    # A negative or boolean band limit would probe harmonics that bound
    # nothing and pass; a fraction is refused by name, never truncated.
    spec = catalog_entry(3).spec
    for b in (1.5, True, "3", None):
        with pytest.raises(ValueError, match="band limit b must be an integer"):
            bandlimit_preservation_check(spec, b)
    with pytest.raises(ValueError, match="band limit must be non-negative"):
        bandlimit_preservation_check(spec, -1)
    assert bandlimit_preservation_check(spec, np.int64(0)) == 0.0


def test_scaling_deterministic_family_is_zero():
    spec = RenewalSpec(family="deterministic")
    rows = grid_deviation_scaling(spec, (100, 400), trials=100, seed=0)
    for row in rows:
        assert row.scaled_spatial == 0.0
        assert row.scaled_temporal == 0.0


def test_scaling_bounded_band():
    spec = RenewalSpec("uniform_scaled", 2.0, 2.0)
    rows = grid_deviation_scaling(spec, (100, 400, 1600), trials=2000, seed=3)
    for column in (
        [r.scaled_spatial for r in rows],
        [r.scaled_temporal for r in rows],
    ):
        assert all(np.isfinite(column)) and min(column) > 0
        assert max(column) / min(column) < 3.0


def test_scaling_requires_trials():
    with pytest.raises(ValueError):
        grid_deviation_scaling(RenewalSpec(), (100,), trials=10, seed=0)
    for trials in (100.5, 100.0, True, "100", None):  # refused, never truncated
        with pytest.raises(ValueError, match="trials must be an integer"):
            grid_deviation_scaling(RenewalSpec(), (100,), trials=trials, seed=0)
    grid_deviation_scaling(RenewalSpec(), (100,), trials=np.int64(100), seed=0)


def test_fuzz_counts_a_refused_path_as_one_violation(monkeypatch):
    # The first block is refused, and so is the first path when the cells
    # are retried one by one; the other paths are checked as usual.
    draw_paths, calls = oracle.draw_paths, []

    def refuse_first_two(spec, n, streams):
        streams = list(streams)
        calls.append(len(streams))
        if len(calls) <= 2:
            raise ValueError("require S_M <= 1 < S_{M+1}")
        return draw_paths(spec, n, streams)

    monkeypatch.setattr(oracle, "draw_paths", refuse_first_two)
    cells = [(7, 50, trial) for trial in range(5)]
    assert oracle._tally_invariants(RenewalSpec(), 50, cells) == (4, 1)
    assert calls == [5, 1, 1, 1, 1, 1]


def test_fuzz_counts_a_path_below_the_law_bound(monkeypatch):
    # At n = 50 and lam = 2 the law bound asks M > 24.  Both rows make a
    # valid PathBlock; only the two-sample row breaks the bound.
    grid = np.arange(1, 32) / 30  # S_30 = 1 < S_31
    S = np.array([grid, np.r_[0.3, 0.7, 1.2, np.zeros(28)]])
    block = PathBlock(S, S.copy(), np.array([30, 2]))
    monkeypatch.setattr(oracle, "draw_paths", lambda spec, n, streams: iter([block]))
    cells = [(7, 50, trial) for trial in range(2)]
    assert oracle._tally_invariants(RenewalSpec(), 50, cells) == (2, 1)


def test_ode_suite_passes():
    report = ode_equivalence_suite()
    assert report.passed, "\n".join(report.lines)
    assert_golden_lines(report, "ode-suite.txt")


def test_bandlimit_suite_requires_instances():
    # Zero random root sets would pass with nothing checked; a fraction is
    # refused by name, never truncated.
    for instances in (0, -1):
        with pytest.raises(ValueError, match="at least one random root set"):
            bandlimit_suite(instances=instances)
    for instances in (2.5, True):
        with pytest.raises(ValueError, match="instances must be an integer"):
            bandlimit_suite(instances=instances)


def test_bandlimit_suite_passes():
    report = bandlimit_suite(instances=30)
    assert report.passed, "\n".join(report.lines)
    assert_golden_lines(report, "appendix-a-suite-30.txt")


def test_grid_deviation_suite_smoke():
    report = grid_deviation_suite(trials=500)
    # The scaling table heads the report, one row per density.
    assert report.lines[0].splitlines()[0].split() == ["n", "n*E[spatial_dev]", "n*E[temporal_dev]"]
    assert len(report.lines[0].splitlines()) == 5
    # The scaled columns are noisy at 500 trials but the invariant fuzz and
    # table structure must hold; full-scale bounds run in the acceptance suite.
    assert any("per-draw invariants" in line for line in report.lines)
    # The invariant fuzz draws as many paths as the table does per density.
    fuzz = "per-draw invariants: 0 violations over 500 paths"
    assert any(line.startswith(fuzz) for line in report.lines)
