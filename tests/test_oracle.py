import cmath
import math

import numpy as np
import pytest

from fieldrecon.field import CATALOG, catalog_entry, catalog_scenario, coefficients_at
from fieldrecon.oracle import (
    bandlimit_preservation_check,
    bandlimit_suite,
    grid_deviation_scaling,
    grid_deviation_suite,
    integrate_coefficient_ode,
    ode_equivalence_suite,
)
from fieldrecon.pde_core import PdeSpec
from fieldrecon.sampling import RenewalSpec

DIFFUSION_RATE = -0.39478417604357435


def test_rk4_scalar_exponential():
    traj = integrate_coefficient_ode(catalog_entry(3).spec, 1, [1.0], t_end=1.0, dt=1e-3)
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert abs(traj.values[-1] - cmath.exp(DIFFUSION_RATE)) < 1e-9


def test_rk4_two_mode_closed_form():
    # p(z) = z^2 + 3z with constant forcing -2 puts the roots at -1 and -2,
    # so a(0) = 1, a'(0) = 0 evolves as 2 e^{-t} - e^{-2t}.
    spec = PdeSpec((0.0, 3.0, 1.0), (-2.0,))
    traj = integrate_coefficient_ode(spec, 0, [1.0, 0.0], t_end=1.0, dt=1e-3)
    expected = 2 * math.exp(-1.0) - math.exp(-2.0)
    assert expected == pytest.approx(0.600423599106272, abs=1e-12)
    assert abs(traj.values[-1] - expected) < 1e-8


def test_rk4_zero_initial_conditions():
    traj = integrate_coefficient_ode(catalog_entry(2).spec, 2, [0.0, 0.0], t_end=0.5, dt=1e-3)
    assert np.all(traj.values == 0)


def test_rk4_matches_closed_form_all_scenarios():
    times = np.arange(1001) * 1e-3
    for entry in CATALOG:
        spec, state = catalog_scenario(entry.index)
        closed = np.array([coefficients_at(state, t) for t in times])
        for hr in state.roots:
            conditions = np.zeros(state.m, dtype=complex)
            conditions[0] = complex(np.sum(state.row(hr.k)))
            traj = integrate_coefficient_ode(spec, hr.k, conditions, t_end=1.0, dt=1e-3)
            assert np.array_equal(traj.times, times)
            assert float(np.max(np.abs(closed[:, hr.k + state.b] - traj.values))) < 1e-6


def test_rk4_fourth_order_convergence():
    # Halving the step should shrink the error by about 2^4.
    spec, state = catalog_scenario(1)  # k = 3 has the largest |r| among the scenarios
    conditions = np.array([complex(np.sum(state.row(3))), 0.0])
    errors = {}
    for dt in (1e-3, 5e-4):
        traj = integrate_coefficient_ode(spec, 3, conditions, t_end=1.0, dt=dt)
        closed = np.array([coefficients_at(state, t)[3 + state.b] for t in traj.times])
        errors[dt] = float(np.max(np.abs(closed - traj.values)))
    ratio = errors[1e-3] / errors[5e-4]
    assert 8.0 <= ratio <= 32.0


def test_rk4_parameter_validation():
    with pytest.raises(ValueError):
        integrate_coefficient_ode(catalog_entry(3).spec, 0, [1.0], t_end=1.0, dt=0.0)
    with pytest.raises(ValueError):
        integrate_coefficient_ode(catalog_entry(3).spec, 0, [1.0], t_end=0.001, dt=0.01)
    with pytest.raises(ValueError):
        integrate_coefficient_ode(catalog_entry(2).spec, 0, [1.0], t_end=1.0, dt=0.01)


def test_bandlimit_silent_out_of_band():
    for entry in CATALOG:
        assert bandlimit_preservation_check(entry.spec, b=3) < 1e-12


def test_bandlimit_negative_control():
    leak = bandlimit_preservation_check(catalog_entry(3).spec, b=3, conditions={5: [1.0]})
    assert leak > 0.5  # |a_5(0)| = 1 is already in the probe grid


def test_bandlimit_grid_validation():
    with pytest.raises(ValueError):
        bandlimit_preservation_check(catalog_entry(3).spec, b=3, t_grid=np.array([0.5, 1.0]))


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


def test_ode_suite_passes():
    report = ode_equivalence_suite()
    assert report.passed, "\n".join(report.lines)


def test_bandlimit_suite_passes():
    report = bandlimit_suite(instances=30)
    assert report.passed, "\n".join(report.lines)


def test_grid_deviation_suite_smoke():
    report = grid_deviation_suite(trials=500)
    assert report.name == "appendix-b"
    # The scaled columns are noisy at 500 trials but the invariant fuzz and
    # table structure must hold; full-scale bounds run in the acceptance suite.
    assert any("per-draw invariants" in line for line in report.lines)
