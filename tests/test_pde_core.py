import cmath
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldrecon.errors import DegenerateRoots
from fieldrecon.field import CATALOG, FieldState, catalog_entry, coefficients_at, scenario_field
from fieldrecon.pde_core import (
    DISTINCTNESS_RTOL,
    MAX_BAND_LIMIT,
    STABILITY_TOL,
    PdeSpec,
    characteristic_roots,
    check_stability,
    eval_poly,
    integer,
    real_number,
    solve_initial_coefficients,
)

# Hand-expanded 0.01*(j*2*pi)**2; every diffusion-mode rate is k**2 times this.
DIFFUSION_RATE = -0.39478417604357435


def test_eval_poly_identity():
    assert eval_poly([0.0, 1.0], -0.39478) == -0.39478


def test_eval_poly_diffusion_forcing():
    got = eval_poly([0.0, 0.0, 0.01], 2j * np.pi)
    assert got == pytest.approx(DIFFUSION_RATE, abs=1e-15)
    assert abs(got.imag) < 1e-15


def test_eval_poly_constant():
    for z in (0.0, 1.7j, -3.0 + 2.0j):
        assert eval_poly([3.0, 0.0], z) == 3.0


def test_pde_spec_validation():
    with pytest.raises(ValueError):
        PdeSpec((1.0,), (0.0, 1.0))  # degree 0
    with pytest.raises(ValueError):
        PdeSpec((0.0, 1.0, 0.0), (0.0, 1.0))  # leading p zero
    with pytest.raises(ValueError):
        PdeSpec((0.0, 1.0), (0.0, 1.0, 0.0))  # leading q zero
    with pytest.raises(ValueError):
        PdeSpec((0.0, float("inf")), (0.0, 1.0))
    # Only real numbers are coefficients: float() would read "0.01" and True.
    for p, q in (
        (("0", True), (0, 0, "0.01")),
        ((0.0, 1.0), (0.0, 0.0, "0.01")),
        ((0.0, True), (0.0, 1.0)),
        ((0.0, 1.0), (False, 1.0)),
        ((0.0, np.True_), (0.0, 1.0)),
        ((0.0, 1.0), (0.0, 1.0 + 0j)),
    ):
        with pytest.raises(ValueError):
            PdeSpec(p, q)
    spec = PdeSpec((np.float64(0.0), np.int64(1)), (0, 0, np.float32(0.5)))
    assert spec.p_coeffs == (0.0, 1.0) and spec.q_coeffs == (0.0, 0.0, 0.5)


def test_real_number_boundaries():
    # The largest finite float is accepted exactly; the next power of two,
    # which float() cannot hold, is refused as a ValueError, not an OverflowError.
    assert real_number("x", int(sys.float_info.max)) == sys.float_info.max
    with pytest.raises(ValueError, match="x lies beyond the float range"):
        real_number("x", 2**1024)
    with pytest.raises(ValueError, match="x must be a real number"):
        real_number("x", True)
    half = real_number("x", np.float32(0.5))
    assert type(half) is float and half == 0.5


def test_integer_rule():
    # A bool or a whole float is refused, never read as 0/1 or truncated; a
    # numpy integer comes back as an int, and so does one beyond int64.
    for value in (True, np.False_, 128.0, 128.9, "128", None, np.float64(3)):
        with pytest.raises(ValueError, match="n must be an integer"):
            integer("n", value)
    for value in (np.int64(-7), np.uint64(2**64 - 1), 10**400):
        got = integer("n", value)
        assert type(got) is int and got == int(value)


def test_diffusion_root_is_forcing():
    # Degree-1 p forces r = q(j 2 pi k) directly.
    hr = characteristic_roots(catalog_entry(3).spec, 1)
    assert hr.roots == pytest.approx((DIFFUSION_RATE + 0j,), abs=1e-12)


def test_damped_wave_roots_quadratic_formula():
    # Independent oracle: quadratic formula on r^2 + 3r - q(j 2 pi) = 0.
    spec = catalog_entry(2).spec
    target = complex(0.01 * (2j * np.pi) ** 2)
    disc = cmath.sqrt(9.0 + 4.0 * target)
    expected = sorted([(-3 + disc) / 2, (-3 - disc) / 2], key=lambda r: (r.real, r.imag))
    got = characteristic_roots(spec, 1).roots
    assert got == pytest.approx(expected, abs=1e-10)
    assert got[1] == pytest.approx(-0.13793692364985333, abs=1e-9)
    assert got[0] == pytest.approx(-2.8620630763501467, abs=1e-9)


def test_quartic_forcing_roots():
    spec = catalog_entry(1).spec
    z = 2j * np.pi
    target = 0.01 * (z**2 - 0.0125 * z**4)
    assert target == pytest.approx(-0.5896023581115791, abs=1e-12)
    disc = cmath.sqrt(9.0 + 4.0 * target)
    expected = sorted([(-3 + disc) / 2, (-3 - disc) / 2], key=lambda r: (r.real, r.imag))
    got = characteristic_roots(spec, 1).roots
    assert got == pytest.approx(expected, abs=1e-10)
    assert got[1] == pytest.approx(-0.21143582158729068, abs=1e-9)


def test_root_residual_invariant():
    for spec in (entry.spec for entry in CATALOG):
        for k in range(-3, 4):
            target = spec.q_at_harmonic(k)
            for r in characteristic_roots(spec, k).roots:
                residual = abs(eval_poly(spec.p_coeffs, r) - target)
                assert residual <= 1e-8 * (1.0 + abs(target))


def test_conjugate_harmonic_symmetry():
    from fieldrecon.pde_core import _order_key

    for spec in (entry.spec for entry in CATALOG):
        for k in range(1, 4):
            pos = characteristic_roots(spec, k).roots
            neg = characteristic_roots(spec, -k).roots
            mirrored = sorted((r.conjugate() for r in pos), key=_order_key)
            assert np.allclose(mirrored, neg, atol=1e-9)


def test_repeated_roots_rejected():
    # p(r) = r^2 with q(0) = 0 has a double root at the k = 0 harmonic.
    spec = PdeSpec((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    with pytest.raises(DegenerateRoots):
        characteristic_roots(spec, 0)


def test_roots_need_an_integer_harmonic():
    # Only whole harmonics exist: a fraction, a bool or a string is refused
    # by name, where q(j 2 pi k) would give roots of no harmonic.
    spec = catalog_entry(3).spec
    for k in (1.5, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="a harmonic k must be an integer"):
            characteristic_roots(spec, k)


def test_roots_are_derived_once_per_harmonic():
    # Building a catalog field and gating it, as a sweep does, misses the
    # root cache once per harmonic and hits it for every later use.
    characteristic_roots.cache_clear()
    state = scenario_field("set1")
    check_stability(state.spec, state.b)
    info = characteristic_roots.cache_info()
    assert info.misses == 2 * state.b + 1
    assert info.hits == 2 * (2 * state.b + 1)  # the FieldState and the gate
    scenario_field("set1")
    assert characteristic_roots.cache_info().misses == 2 * state.b + 1
    # An equal k of another type gets its own entry, so k comes back as given.
    assert type(characteristic_roots(state.spec, np.int64(1)).k) is np.int64
    assert type(characteristic_roots(state.spec, 1).k) is int
    # A refusal is not cached: it raises again on the next call.
    spec = PdeSpec((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    for _ in range(2):
        with pytest.raises(DegenerateRoots):
            characteristic_roots(spec, 0)
    assert characteristic_roots.cache_info().currsize == 2 * state.b + 2
    # The cache holds every harmonic at the band ceiling: a second gate there
    # misses nothing.
    check_stability(state.spec, MAX_BAND_LIMIT)
    misses = characteristic_roots.cache_info().misses
    check_stability(state.spec, MAX_BAND_LIMIT)
    assert characteristic_roots.cache_info().misses == misses


@pytest.mark.parametrize(
    "p, q",
    [
        ((0.0, 1.0), (0.0, 0.0, 1e308)),  # q(j*2*pi*k) overflows
        ((0.0, 1e-308), (0.0, 0.0, 1.0)),  # q(j*2*pi*k) / p_1 overflows
        ((0.0, 1.0), (-1.7e308, 1.7e308 / (2 * np.pi))),  # |r| overflows: a NaN root
    ],
    ids=["q", "monic", "root"],
)
def test_overflowing_characteristic_polynomial_rejected(p, q):
    spec = PdeSpec(p, q)
    assert np.isfinite(characteristic_roots(spec, 0).roots).all()
    with pytest.raises(DegenerateRoots, match="harmonic k=-1: "):
        characteristic_roots(spec, -1)


@pytest.mark.parametrize("factor, distinct", [(1 + 1e-3, True), (1 - 1e-3, False)])
def test_distinctness_rtol_boundary(factor, distinct):
    # p(z) = z (z + gap) with q(0) = 0 puts the k = 0 roots at 0 and -gap
    # exactly.  The tolerance is DISTINCTNESS_RTOL * (1 + gap), so
    # gap = c / (1 - c) with c = DISTINCTNESS_RTOL * factor is factor times it.
    c = DISTINCTNESS_RTOL * factor
    gap = c / (1.0 - c)
    spec = PdeSpec((0.0, gap, 1.0), (0.0, 1.0))
    if distinct:
        assert characteristic_roots(spec, 0).roots == (-gap, 0.0)
    else:
        with pytest.raises(DegenerateRoots):
            characteristic_roots(spec, 0)


def test_stability_diffusion_feasible():
    report = check_stability(catalog_entry(3).spec, 3)
    assert report.feasible
    assert report.offending == ()
    for k in range(-3, 4):
        assert report.worst_real_parts[k] == pytest.approx(DIFFUSION_RATE * k * k, abs=1e-9)


def test_stability_antidiffusion_infeasible():
    spec = PdeSpec((0.0, 1.0), (0.0, 0.0, -0.01))
    report = check_stability(spec, 1)
    assert not report.feasible
    assert report.offending == (-1, 1)
    assert report.worst_real_parts[1] == pytest.approx(-DIFFUSION_RATE, abs=1e-9)


@pytest.mark.parametrize("factor, feasible", [(1 - 1e-3, True), (1 + 1e-3, False)])
def test_stability_tol_boundary(factor, feasible):
    # p(z) = z, q(z) = eps: every root of every harmonic is r = eps exactly.
    eps = STABILITY_TOL * factor
    report = check_stability(PdeSpec((0.0, 1.0), (eps,)), 2)
    assert report.worst_real_parts == {k: eps for k in range(-2, 3)}
    assert report.feasible is feasible
    assert report.offending == (() if feasible else (-2, -1, 0, 1, 2))


def test_stability_band_limit_follows_the_integer_rule():
    spec = catalog_entry(3).spec
    for b in (True, False, 1.5, 1.0, "1", None):
        with pytest.raises(ValueError, match="band limit b must be an integer"):
            check_stability(spec, b)
    worst = check_stability(spec, np.int64(1)).worst_real_parts  # numpy integers are integers
    assert worst == check_stability(spec, 1).worst_real_parts
    with pytest.raises(ValueError, match="band limit b must be at least 0, got -1"):
        check_stability(spec, -1)


def test_stability_zero_root_allowed():
    # b = 0 with q(0) = 0: the root r = 0 is a sustained oscillation, not growth.
    report = check_stability(catalog_entry(3).spec, 0)
    assert report.feasible
    assert report.worst_real_parts[0] == pytest.approx(0.0, abs=1e-12)


def test_solve_initial_zero_conditions():
    hr = characteristic_roots(catalog_entry(2).spec, 1)
    solved = solve_initial_coefficients(hr, np.zeros(2, dtype=complex))
    assert np.all(solved == 0)


def test_solve_initial_two_roots_closed_form():
    # 2 e^{-t} - e^{-2t} has value 1 and derivative 0 at t = 0.
    hr_sorted = sorted([-1.0 + 0j, -2.0 + 0j], key=lambda r: (r.real, r.imag))
    from fieldrecon.pde_core import HarmonicRoots

    hr = HarmonicRoots(k=0, roots=tuple(hr_sorted))
    solved = solve_initial_coefficients(hr, [1.0, 0.0])
    by_root = dict(zip(hr.roots, solved))
    assert by_root[-1.0 + 0j] == pytest.approx(2.0, abs=1e-12)
    assert by_root[-2.0 + 0j] == pytest.approx(-1.0, abs=1e-12)


def test_solve_initial_single_root():
    from fieldrecon.pde_core import HarmonicRoots

    hr = HarmonicRoots(k=0, roots=(DIFFUSION_RATE + 0j,))
    assert solve_initial_coefficients(hr, [0.11]) == pytest.approx([0.11], abs=1e-15)


def test_solve_initial_wrong_length():
    hr = characteristic_roots(catalog_entry(2).spec, 1)
    with pytest.raises(ValueError):
        solve_initial_coefficients(hr, [1.0])



def single_harmonic_state(spec, a, k=1):
    # Band limit |k| with every row zero except a_k: coefficients_at then
    # returns the closed form sum_i a_ki exp(r_i(k) t) at row k + b.
    b = abs(k)
    coeffs = np.zeros((2 * b + 1, spec.degree), dtype=complex)
    coeffs[k + b] = a
    return FieldState(spec, coeffs)


def test_evolve_at_zero_is_plain_sum():
    a = np.array([0.3 - 0.1j, -0.2 + 0.05j])
    state = single_harmonic_state(catalog_entry(2).spec, a)
    assert coefficients_at(state, 0.0)[2] == complex(np.dot(a, np.ones(2)))


def test_evolve_diffusion_scalar_exponential():
    # Oracle: plain scalar exponential on the k = 1 diffusion mode.
    state = single_harmonic_state(catalog_entry(3).spec, [0.023 - 0.076j])
    value = coefficients_at(state, 1.0)[2]
    expected = (0.023 - 0.076j) * cmath.exp(DIFFUSION_RATE)
    assert value == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.01549798537832297 - 0.05121073429358895j, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 4),
)
def test_solve_initial_roundtrip(seed, m):
    # Oracle: differentiate sum_i a_i e^{r_i t} analytically at t = 0 and
    # recover the supplied conditions: (d/dt)^j -> sum_i a_i r_i^j.
    rng = np.random.default_rng(seed)
    while True:
        roots = rng.uniform(-3.0, -0.1, m) + 1j * rng.uniform(-3.0, 3.0, m)
        gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]]
        if min(gaps) > 0.1:
            break
    from fieldrecon.pde_core import HarmonicRoots

    hr = HarmonicRoots(k=0, roots=tuple(sorted(map(complex, roots), key=lambda r: (r.real, r.imag))))
    conditions = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
    solved = solve_initial_coefficients(hr, conditions)
    r = np.array(hr.roots)
    for j in range(m):
        reproduced = np.sum(solved * r**j)
        assert abs(reproduced - conditions[j]) <= 1e-9 * (1.0 + abs(conditions[j]))
