import cmath
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fieldrecon.errors import DegenerateRoots, InfeasiblePde, UnknownScenario
from fieldrecon.field import (
    CATALOG,
    ROW_BLOCK,
    FieldState,
    _exp_in_layout,
    basis_matrix,
    catalog_entry,
    coefficients_at,
    conjugate_layout,
    evaluate,
    evaluate_at_points,
    field_from_mode_values,
    grid_tables,
    random_real_field,
    scenario_field,
)
from fieldrecon.pde_core import HarmonicRoots, PdeSpec, characteristic_roots, check_stability
from test_estimator import feasible_pdes

DIFFUSION_RATE = -0.39478417604357435
EPS = np.finfo(float).eps
# The half-angle kernel against numpy's complex exp, relative to |exp(a + jb)|.
# Measured maxima: 2.1 eps over 10^5 random (a, b) with |b| up to 1e8, and
# 2.7 eps on the bases of 400 random feasible PDEs; each side lies within
# 2 eps of a 200-bit reference.
EXP_RTOL = 4 * EPS


@pytest.fixture(scope="module")
def diffusion():
    return scenario_field("diffusion")


@pytest.fixture(scope="module")
def set1():
    return scenario_field("set1")


def constant_mode_state(value=0.5):
    # p(z) = z, q(z) = z gives r = q(0) = 0 at k = 0: a frozen constant field.
    spec = PdeSpec((0.0, 1.0), (0.0, 1.0))
    return field_from_mode_values(spec, [value])


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


def test_coefficients_at_a_time_grid(set1):
    # One row per time, each the same bits as the time alone.
    times = np.linspace(0.0, 1.0, 11)
    expected = np.array([coefficients_at(set1, t) for t in times])
    assert np.array_equal(coefficients_at(set1, times), expected)
    with pytest.raises(ValueError, match="non-negative"):
        coefficients_at(set1, [0.5, -1e-3])


@pytest.mark.parametrize("t", [np.nan, np.inf, [0.25, np.nan, 0.5]], ids=["nan", "inf", "array-with-nan"])
def test_coefficients_at_refuses_non_finite_times(diffusion, t):
    # NaN passes a t < 0 test, and at +inf the k = 0 root (0) times inf is
    # NaN: both used to come back as NaN modal values.
    with pytest.raises(ValueError, match="non-negative"):
        coefficients_at(diffusion, t)
    with pytest.raises(ValueError, match="non-negative"):
        evaluate(diffusion, 0.5, t)


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
    state = FieldState(spec, [[0.0, 0.4 - 0.3j]])
    assert state.roots[0].roots == pytest.approx((-2j, 2j), abs=1e-12)
    for t in (0.0, 0.7, 3.1):
        assert abs(coefficients_at(state, t)[0]) == pytest.approx(0.5, abs=1e-12)


def test_coefficients_at_decay_envelope():
    # |a_k(t)| <= sum_i |a_ki| exp(max_i Re r_i(k) t), harmonic by harmonic.
    a = np.array([0.5 + 0.2j, -0.3 + 0.4j])
    state = FieldState(catalog_entry(2).spec, np.tile(a, (7, 1)))
    for t in (0.5, 1.0, 2.0):
        values = coefficients_at(state, t)
        for hr in state.roots:
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
    # Tiny, mid-size and acceptance-size grids; the block edges of the power
    # tables are covered by test_estimator's reduced-solve test.
    roots = tuple(characteristic_roots(entry.spec, k) for k in range(-3, 4))
    idx = np.arange(1, m_count + 1)
    expected = basis_matrix(roots, idx / m_count, idx * t0 / m_count)
    grid = grid_tables(roots, [m_count], [t0]).materialize()
    assert grid.shape == expected.shape
    assert np.max(np.abs(grid - expected)) < 1e-13


def test_grid_reduce_needs_one_value_per_row():
    tables = grid_tables(scenario_field("diffusion").roots, [20, 9], [1.0, 0.5])
    assert tables.reduce([np.zeros(20), np.zeros(9)]).shape[0] == 2
    with pytest.raises(ValueError, match="one value per grid row"):
        tables.reduce([np.zeros(20), np.zeros(8)])


def assert_matches_complex_exp(a, b):
    # One pair (a, b) and one self-conjugate column a, a layout column per row.
    out = np.stack((a, b, a))
    _exp_in_layout(out, 2)
    expected = np.exp(np.asarray(a) + 1j * np.asarray(b))
    got = out[0] + 1j * out[1]
    assert np.all(np.abs(got - expected) <= EXP_RTOL * np.abs(expected))
    assert np.array_equal(out[2], np.exp(a))


@pytest.mark.parametrize(
    "b", [0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 2 * np.pi, 1e-300, 1e8, -1e8]
)
def test_exp_in_layout_half_angle_edges(b):
    # tan(b/2) is largest (about 1.6e16) at b = +-pi; no NaN, no warning.
    assert_matches_complex_exp(np.array([-1.5, 0.0, 0.3]), np.full(3, b))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    a=st.lists(st.floats(-40.0, 1.0), min_size=1, max_size=32),
    b=st.lists(st.floats(-1e8, 1e8), min_size=1, max_size=32),
)
def test_exp_in_layout_matches_complex_exp(a, b):
    size = min(len(a), len(b))
    assert_matches_complex_exp(np.array(a[:size]), np.array(b[:size]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(spec=feasible_pdes(), b=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_basis_matrix_matches_complex_exp_on_random_pdes(spec, b, seed):
    try:
        feasible = check_stability(spec, b).feasible
        roots = tuple(characteristic_roots(spec, k) for k in range(-b, b + 1))
    except DegenerateRoots:
        assume(False)
    assume(feasible)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, 64)
    ts = rng.uniform(0.0, 1.5, 64)
    layout = conjugate_layout(roots)
    n_pair = 2 * len(layout.pairs)
    # The exponents as basis_matrix forms them: an ulp of b is an error of
    # |b| ulps in exp(a + jb), so the reference must start from the same bits.
    exponents = (layout.exponents.T @ np.array((ts, xs, np.ones(64)))).T
    expected = np.exp(exponents[:, 0:n_pair:2] + 1j * exponents[:, 1:n_pair:2])
    got = basis_matrix(roots, xs, ts)
    pairs = got[:, 0:n_pair:2] + 1j * got[:, 1:n_pair:2]
    assert np.all(np.abs(pairs - expected) <= EXP_RTOL * np.abs(expected))
    assert np.array_equal(got[:, n_pair:], np.exp(exponents[:, n_pair:]))


@pytest.mark.parametrize(
    "m_count", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1]
)
def test_evaluate_at_points_row_blocks(set1, m_count):
    # The readings come a row block at a time; a block boundary, a one-row
    # tail block and a single row all agree with the whole basis at once.
    rng = np.random.default_rng(m_count)
    xs = rng.uniform(0.0, 1.0, m_count)
    ts = rng.uniform(0.0, 1.5, m_count)
    expected = basis_matrix(set1.roots, xs, ts) @ set1.real_coeffs
    got = evaluate_at_points(set1, xs, ts)
    assert got.shape == (m_count,)
    # Only the matvec's summation order can differ: 0.77 eps ||x||_1 at most,
    # measured over 35 paths of up to 8192 rows.
    bound = 4 * EPS * float(np.sum(np.abs(set1.real_coeffs)))
    assert np.max(np.abs(got - expected), initial=0.0) <= bound


def test_evaluate_at_points_refuses_asymmetric_coefficients(set1):
    coeffs = set1.coeffs.copy()
    coeffs[0, 0] += 1e-6  # k = -b no longer mirrors k = b
    state = FieldState(set1.spec, coeffs)
    xs = np.linspace(0.0, 1.0, 2 * ROW_BLOCK + 1)
    with pytest.raises(ValueError, match="conjugate asymmetry"):
        evaluate_at_points(state, xs, xs)


@pytest.mark.parametrize(
    "roots_per_k, message",
    [
        (  # k = 0 carries two roots, k = +-1 one each
            [(-1, (-1 - 2j,)), (0, (-1.0 + 0j, -2.0 + 0j)), (1, (-1 + 2j,))],
            "all harmonics must carry the same number of roots",
        ),
        ([(0, (-1.0 + 0j,)), (1, (-1 + 2j,))], "harmonic k=1 has no mirror harmonic k=-1"),
        (
            [(-1, (-1 - 2j,)), (0, (-1.0 + 0j,)), (1, (-1 + 3j,))],
            "harmonic k=-1: root -1-2j has no conjugate at k=1",
        ),
        (  # both k = -1 roots lie within the tolerance of one k = 1 conjugate
            [(-1, (-1 - 1j, -1 + 1e-8 - 1j)), (1, (-1 + 1j, -1 + 5e-8 + 1j))],
            "conjugate pairing is not one-to-one",
        ),
    ],
    ids=["root-counts", "mirror", "conjugate", "one-to-one"],
)
def test_conjugate_layout_refusals(roots_per_k, message):
    roots = tuple(HarmonicRoots(k=k, roots=r) for k, r in roots_per_k)
    with pytest.raises(ValueError, match=message):
        basis_matrix(roots, [0.5], [0.1])
    with pytest.raises(ValueError, match=message):
        grid_tables(roots, [8], [1.0])


@pytest.mark.parametrize(
    "values, message",
    [
        ([], "expected one mode value for each k = 0..b"),
        ([[0.1, 0.2]], "expected one mode value for each k = 0..b"),
        ([0.1 + 0.2j, 0.3], "the k = 0 mode value must be real"),
    ],
    ids=["empty", "not-1d", "complex-k0"],
)
def test_field_from_mode_values_refusals(values, message):
    with pytest.raises(ValueError, match=message):
        field_from_mode_values(catalog_entry(3).spec, values)


def test_evaluate_at_points_refuses_unpaired_points(set1):
    for xs, ts in (([0.1, 0.2], [0.1]), ([], [0.1]), (np.zeros((2, 2)), np.zeros((2, 2)))):
        with pytest.raises(ValueError, match="1-d arrays of equal length"):
            evaluate_at_points(set1, xs, ts)


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
    # Malformed coefficients are refused when the state is built, never by
    # an IndexError in a later evaluation.
    spec = catalog_entry(3).spec
    for coeffs in (
        np.zeros((2, 1)),  # an even number of rows is no band limit
        np.zeros((0, 1)),
        np.zeros((3, 2)),  # the PDE has one root per harmonic
        np.zeros((3, 0)),
        np.zeros(3),  # not 2-D
        np.zeros((3, 1, 1)),
        0.5,
    ):
        with pytest.raises(ValueError, match="coefficient matrix must be"):
            FieldState(spec, coeffs)


def test_field_state_derives_band_limit_and_roots_from_spec():
    # The diffusion coefficients under q = 0.01 z^2 and under q = 0.02 z^2:
    # each state evolves with its own PDE's roots, a_3(1) = 0.2 exp(9 r t)
    # with r = DIFFUSION_RATE and twice it (5.7e-3 and 1.6e-4 in real part).
    diffusion = scenario_field("diffusion")
    for factor in (1.0, 2.0):
        spec = PdeSpec((0.0, 1.0), (0.0, 0.0, 0.01 * factor))
        state = FieldState(spec, diffusion.coeffs)
        assert state.b == 3
        assert state.roots == tuple(characteristic_roots(spec, k) for k in range(-3, 4))
        expected = (0.2 + 0.0821j) * cmath.exp(factor * DIFFUSION_RATE * 9 * 1.0)
        assert coefficients_at(state, 1.0)[6] == pytest.approx(expected, abs=1e-12)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    spec=st.one_of(feasible_pdes(), st.sampled_from([entry.spec for entry in CATALOG])),
    b=st.integers(0, 4),
)
def test_field_state_roots_are_the_characteristic_roots(spec, b):
    try:
        expected = tuple(characteristic_roots(spec, k) for k in range(-b, b + 1))
    except DegenerateRoots:
        assume(False)
    state = FieldState(spec, np.zeros((2 * b + 1, spec.degree)))
    assert state.b == b
    assert state.roots == expected


def test_field_state_pickle_carries_roots(monkeypatch):
    import fieldrecon.field as field_module

    state = scenario_field("set1")
    state.real_coeffs  # cached, so pickled with the state
    calls = []

    def counted(spec, k):
        calls.append(k)
        return characteristic_roots(spec, k)

    monkeypatch.setattr(field_module, "characteristic_roots", counted)
    copy = pickle.loads(pickle.dumps(state))
    assert calls == []
    assert copy.b == state.b and copy.roots == state.roots
    assert np.array_equal(copy.coeffs, state.coeffs)
    # A pool worker's copy refuses writes, as the parent's state does.
    assert "real_coeffs" in vars(copy)
    assert not copy.coeffs.flags.writeable
    assert not copy.real_coeffs.flags.writeable


def test_random_field_band_limit_follows_the_integer_rule():
    spec = catalog_entry(3).spec
    for b in (True, 1.5, 2.0, "2"):
        with pytest.raises(ValueError, match="band limit b must be an integer"):
            random_real_field(b, spec, np.random.default_rng(0))
    state = random_real_field(np.int64(2), spec, np.random.default_rng(0))
    assert type(state.b) is int and state.b == 2


def test_field_state_stores_read_only_view():
    coeffs = np.array([[0.1 - 0.2j], [0.3], [0.1 + 0.2j]])
    state = FieldState(catalog_entry(3).spec, coeffs)
    assert not state.coeffs.flags.writeable
    assert np.shares_memory(state.coeffs, coeffs)
    assert coeffs.flags.writeable
