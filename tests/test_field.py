import cmath

import numpy as np
import pytest

from fieldrecon.errors import InfeasiblePde, UnknownScenario
from fieldrecon.field import (
    CATALOG,
    FieldState,
    basis_matrix,
    catalog_entry,
    coefficients_at,
    evaluate,
    evaluate_at_points,
    field_from_mode_values,
    grid_basis_matrix,
    random_real_field,
    scenario_field,
)
from fieldrecon.pde_core import PdeSpec, characteristic_roots

DIFFUSION_RATE = -0.39478417604357435


@pytest.fixture(scope="module")
def diffusion():
    return scenario_field("diffusion")


@pytest.fixture(scope="module")
def set1():
    return scenario_field("set1")


def constant_mode_state(value=0.5):
    # p(z) = z, q(z) = z gives r = q(0) = 0 at k = 0: a frozen constant field.
    spec = PdeSpec((0.0, 1.0), (0.0, 1.0))
    return field_from_mode_values(0, spec, [value])


def test_constant_mode_everywhere(diffusion):
    state = constant_mode_state()
    for x in (0.0, 0.3, 0.99):
        for t in (0.0, 1.0, 7.5):
            assert evaluate(state, x, t) == pytest.approx(0.5, abs=1e-14)


def test_diffusion_value_at_origin(diffusion):
    # Direct sum of the listed modes with conjugate symmetry.
    assert evaluate(diffusion, 0.0, 0.0).real == pytest.approx(0.6898, abs=1e-12)
    assert abs(evaluate(diffusion, 0.0, 0.0).imag) < 1e-12


def test_decay_envelope(diffusion):
    total = float(np.sum(np.abs(diffusion.coeffs)))
    for t in (0.5, 2.0, 5.0):
        for x in (0.1, 0.6):
            assert abs(evaluate(diffusion, x, t)) <= total + 1e-12


def test_coefficients_at_zero_row_sums(diffusion, set1):
    for state in (diffusion, set1):
        assert np.allclose(coefficients_at(state, 0.0), state.coeffs.sum(axis=1), atol=0)


def test_coefficients_at_parseval(diffusion):
    # Quadrature oracle: 4096-point trapezoid of |g(x, 0)|^2 over one period.
    xs = np.linspace(0.0, 1.0, 4097)
    g = evaluate(diffusion, xs, 0.0)
    integral = float(np.trapezoid(np.abs(g) ** 2, xs))
    modal = float(np.sum(np.abs(coefficients_at(diffusion, 0.0)) ** 2))
    assert modal == pytest.approx(integral, abs=1e-6)


def test_coefficients_at_diffusion_k3(diffusion):
    got = coefficients_at(diffusion, 0.5)[3 + 3]
    expected = (0.2 + 0.0821j) * cmath.exp(DIFFUSION_RATE * 9 * 0.5)
    assert got == pytest.approx(expected, abs=1e-12)


def test_coefficients_at_oscillator_preserves_modulus():
    # p(z) = z^2 + 4, q(z) = z: roots -2j, 2j at k = 0.  A value riding one
    # purely imaginary root keeps its modulus for all time.
    spec = PdeSpec((4.0, 0.0, 1.0), (0.0, 1.0))
    roots = (characteristic_roots(spec, 0),)
    assert roots[0].roots == pytest.approx((-2j, 2j), abs=1e-12)
    state = FieldState(b=0, spec=spec, coeffs=[[0.0, 0.4 - 0.3j]], roots=roots)
    for t in (0.0, 0.7, 3.1):
        assert abs(coefficients_at(state, t)[0]) == pytest.approx(0.5, abs=1e-12)


def test_coefficients_at_decay_envelope():
    # |a_k(t)| <= sum_i |a_ki| exp(max_i Re r_i(k) t), harmonic by harmonic.
    spec = catalog_entry(2).spec
    roots = tuple(characteristic_roots(spec, k) for k in range(-3, 4))
    a = np.array([0.5 + 0.2j, -0.3 + 0.4j])
    state = FieldState(b=3, spec=spec, coeffs=np.tile(a, (7, 1)), roots=roots)
    for t in (0.5, 1.0, 2.0):
        values = coefficients_at(state, t)
        for hr in roots:
            bound = float(np.sum(np.abs(a))) * np.exp(hr.worst_real_part() * t)
            assert abs(values[hr.k + 3]) <= bound + 1e-12


def test_scenario_values_exact():
    diff = scenario_field("diffusion")
    assert coefficients_at(diff, 0.0)[3] == pytest.approx(0.11, abs=1e-14)
    s1 = scenario_field("set1")
    assert coefficients_at(s1, 0.0)[6] == pytest.approx(-0.1679 - 0.0586j, abs=1e-12)
    s2 = scenario_field("set2")
    assert coefficients_at(s2, 0.0)[4] == pytest.approx(-0.0357 + 0.0478j, abs=1e-12)


def test_scenario_fields_are_real():
    xs = np.arange(1024) / 1024
    for scenario_id in (entry.set_id for entry in CATALOG):
        state = scenario_field(scenario_id)
        g = evaluate(state, xs, 0.0)
        assert float(np.max(np.abs(g.imag))) < 1e-12


def test_scenario_bounded():
    xs = np.arange(1024) / 1024
    for scenario_id in (entry.set_id for entry in CATALOG):
        g = evaluate(scenario_field(scenario_id), xs, 0.0)
        assert float(np.max(np.abs(g))) <= 1.0 + 1e-9


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        scenario_field("set9")


def test_catalog_entry_refuses_bool():
    # True == 1, but a bool names no catalog row.
    for key in (True, False):
        with pytest.raises(UnknownScenario):
            catalog_entry(key)


def test_two_evaluation_paths_agree(diffusion, set1):
    rng = np.random.default_rng(3)
    for state in (diffusion, set1):
        xs = rng.uniform(0, 1, 20)
        ts = rng.uniform(0, 1.5, 20)
        stacked = evaluate_at_points(state, xs, ts)
        pointwise = np.array([evaluate(state, x, t) for x, t in zip(xs, ts)])
        assert np.max(np.abs(stacked - pointwise)) < 1e-12


@pytest.mark.parametrize("entry", CATALOG, ids=lambda entry: entry.set_id)
@pytest.mark.parametrize("m_count", [1, 2, 3, 15, 16, 17, 8191, 8192, 8193])
@pytest.mark.parametrize("t0", [0.3, 1.0, 1.7])
def test_grid_basis_matches_basis_matrix(entry, m_count, t0):
    # Power tables have side ceil(sqrt(M + 1)): M = 15 fills a 4 x 4 table
    # exactly, M = 16 starts a 5 x 5 one.
    roots = tuple(characteristic_roots(entry.spec, k) for k in range(-3, 4))
    idx = np.arange(1, m_count + 1)
    expected = basis_matrix(roots, idx / m_count, idx * t0 / m_count)
    grid = grid_basis_matrix(roots, m_count, t0)
    assert grid.shape == expected.shape
    assert np.max(np.abs(grid - expected)) < 1e-13


def test_bandlimit_dft(diffusion, set1):
    # The 4096-point DFT of x -> g(x, t) must hold all its energy in |k| <= b.
    xs = np.arange(4096) / 4096
    for state, t in ((diffusion, 0.7), (set1, 0.3)):
        g = evaluate(state, xs, t)
        spectrum = np.fft.fft(g) / 4096
        energy = np.abs(spectrum) ** 2
        in_band = energy[: state.b + 1].sum() + energy[-state.b :].sum()
        assert energy.sum() - in_band < 1e-10 * energy.sum()


def test_random_field_invariants():
    spec = catalog_entry(3).spec
    xs = np.arange(1024) / 1024
    for seed in range(100):
        state = random_real_field(3, spec, np.random.default_rng(seed))
        g = evaluate(state, xs, 0.0)
        assert float(np.max(np.abs(g))) <= 1.0 + 1e-9
        assert float(np.max(np.abs(g.imag))) < 1e-9
        # Conjugate pairing: row -k against row k under conjugate roots.
        for k in range(1, 4):
            pos = state.roots[k + 3]
            neg = state.roots[3 - k]
            for i, r in enumerate(pos.roots):
                j = int(np.argmin([abs(s - r.conjugate()) for s in neg.roots]))
                assert state.coeffs[3 - k, j] == pytest.approx(
                    state.coeffs[k + 3, i].conjugate(), abs=1e-12
                )


def test_random_field_peak_normalized():
    state = random_real_field(3, catalog_entry(3).spec, np.random.default_rng(7))
    xs = np.arange(4096) / 4096
    peak = float(np.max(np.abs(evaluate(state, xs, 0.0))))
    assert peak == pytest.approx(1.0, abs=1e-9)


def test_random_field_deterministic():
    a = random_real_field(3, catalog_entry(2).spec, np.random.default_rng(123))
    b = random_real_field(3, catalog_entry(2).spec, np.random.default_rng(123))
    assert np.array_equal(a.coeffs, b.coeffs)
    assert a.roots == b.roots


def test_random_field_infeasible():
    spec = PdeSpec((0.0, 1.0), (0.0, 0.0, -0.01))
    with pytest.raises(InfeasiblePde):
        random_real_field(2, spec, np.random.default_rng(0))


def test_field_state_shape_validation():
    spec = catalog_entry(3).spec
    roots = tuple(characteristic_roots(spec, k) for k in range(-1, 2))
    with pytest.raises(ValueError):
        FieldState(b=1, spec=spec, coeffs=np.zeros((2, 1)), roots=roots)
    with pytest.raises(ValueError):
        FieldState(b=1, spec=spec, coeffs=np.zeros((3, 1)), roots=roots[:2])
