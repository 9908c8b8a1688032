import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fieldrecon.errors import DegenerateRoots, InsufficientSamples, RankDeficient
from fieldrecon.estimator import (
    RANK_RTOL,
    DesignMatrix,
    build_design_matrix,
    condition_diagnostics,
    distortion,
    least_squares,
    reconstruct,
)
from fieldrecon.field import (
    basis_matrix,
    catalog_entry,
    coefficients_at,
    evaluate,
    field_from_mode_values,
    random_real_field,
    scenario_field,
)
from fieldrecon.pde_core import HarmonicRoots, PdeSpec, characteristic_roots, check_stability
from fieldrecon.sampling import NoiseSpec, RenewalSpec, draw_path, sample_field
from fieldrecon.streams import PathStreams


@pytest.fixture(scope="module")
def diffusion():
    return scenario_field("diffusion")


def complex_basis(roots_per_k, xs, ts):
    """Oracle: the stacked complex basis exp(r_j(k) t + i 2 pi k x), column
    (k + b) * m + j, evaluated in full without any conjugate pairing."""
    ks = np.array([hr.k for hr in roots_per_k], dtype=float)
    root_mat = np.array([hr.roots for hr in roots_per_k])
    temporal = np.exp(ts[:, None, None] * root_mat[None, :, :])
    spatial = np.exp(2j * np.pi * xs[:, None] * ks[None, :])
    return (temporal * spatial[:, :, None]).reshape(len(xs), root_mat.size)


def constant_roots():
    # Single harmonic k = 0 with root exactly 0: the all-ones design column.
    return (HarmonicRoots(k=0, roots=(0.0 + 0.0j,)),)


def test_constant_mode_design_matrix():
    design = build_design_matrix(constant_roots(), 25, 1.0)
    assert design.rows == 25 and design.cols == 1
    assert np.allclose(design.entries, 1.0, atol=0)


def test_entry_modulus_and_row_norm_bound(diffusion):
    design = build_design_matrix(diffusion.roots, 100, 0.97)
    # Recombine each (sqrt(2) Re c, sqrt(2) Im c) pair into the complex entry c.
    n_pair = 2 * len(design.layout.pairs)
    pairs = (design.entries[:, 0:n_pair:2] + 1j * design.entries[:, 1:n_pair:2]) / np.sqrt(2.0)
    moduli = np.concatenate((np.abs(pairs), np.abs(design.entries[:, n_pair:])), axis=1)
    assert float(np.max(moduli)) <= 1.0 + 1e-12
    row_norms_sq = np.sum(design.entries**2, axis=1)
    assert float(np.max(row_norms_sq)) <= diffusion.m * (2 * diffusion.b + 1) + 1e-12


def test_true_grid_forward_oracle(diffusion):
    # Y(true points) @ a must reproduce per-point field evaluation.
    path = draw_path(RenewalSpec(), 120, PathStreams.from_seed(3))
    entries = basis_matrix(diffusion.roots, path.S[: path.M], path.T[: path.M])
    design = DesignMatrix(entries=entries, roots=diffusion.roots, t0=path.T[path.M - 1])
    predicted = design.entries @ design.layout.to_real(diffusion.flat_coeffs())
    direct = np.array(
        [evaluate(diffusion, x, t) for x, t in zip(path.S[: path.M], path.T[: path.M])]
    )
    assert np.max(np.abs(predicted - direct)) < 1e-12


def test_exact_recovery_on_uniform_grid(diffusion):
    path = draw_path(RenewalSpec(family="deterministic"), 200, PathStreams.from_seed(0))
    samples = sample_field(diffusion, path, NoiseSpec())
    design = build_design_matrix(diffusion.roots, path.M, path.T0)
    a_hat = least_squares(design, samples)
    err = np.max(np.abs(a_hat - diffusion.flat_coeffs()))
    assert err < 1e-8 * float(np.max(np.abs(diffusion.flat_coeffs())))


def test_constant_mode_least_squares_is_mean():
    rng = np.random.default_rng(4)
    values = rng.uniform(-1, 1, 50)
    design = build_design_matrix(constant_roots(), 50, 1.0)
    a_hat = least_squares(design, values)
    assert a_hat[0] == pytest.approx(values.mean(), abs=1e-12)


def test_small_instance_matches_normal_equations():
    # Independent oracle: explicit 3x3 normal-equations solve on a tiny instance.
    spec = catalog_entry(3).spec
    roots = tuple(characteristic_roots(spec, k) for k in (-1, 0, 1))
    design = build_design_matrix(roots, 8, 0.9)
    rng = np.random.default_rng(6)
    values = rng.uniform(-1, 1, 8)
    a_hat = least_squares(design, values)
    idx = np.arange(1, 9)
    basis = complex_basis(roots, idx / 8, idx * 0.9 / 8)
    gram = basis.conj().T @ basis
    oracle = np.linalg.solve(gram, basis.conj().T @ values)
    assert np.max(np.abs(a_hat - oracle)) < 1e-10


def test_insufficient_samples(diffusion):
    design = build_design_matrix(diffusion.roots, 5, 1.0)
    with pytest.raises(InsufficientSamples):
        least_squares(design, np.zeros(5))


def test_condition_diagnostics_refuses_underdetermined(diffusion):
    # 5 rows cannot give 7 columns full rank, whatever the 5 singular values say.
    design = build_design_matrix(diffusion.roots, 5, 1.0)
    with pytest.raises(InsufficientSamples):
        condition_diagnostics(design)


def test_rank_deficient_detected():
    spec = catalog_entry(3).spec
    roots = tuple(characteristic_roots(spec, k) for k in (-1, 0, 1))
    entries = basis_matrix(roots, [0.5] * 5, [0.5] * 5)  # identical rows: rank 1 < 3
    design = DesignMatrix(entries=entries, roots=roots, t0=0.5)
    with pytest.raises(RankDeficient):
        least_squares(design, np.zeros(5))
    with pytest.raises(RankDeficient):
        condition_diagnostics(design)


@pytest.mark.parametrize("factor, refused", [(1 + 1e-3, False), (1 - 1e-3, True)])
def test_rank_gate_boundary(factor, refused):
    # Synthetic U diag(s) V^T with sigma_min / sigma_max a hair off RANK_RTOL:
    # the solve and the diagnostics share one gate.
    spec = catalog_entry(3).spec
    roots = tuple(characteristic_roots(spec, k) for k in (-1, 0, 1))
    rng = np.random.default_rng(12)
    u, _ = np.linalg.qr(rng.normal(size=(40, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    ratio = RANK_RTOL * factor
    design = DesignMatrix(entries=(u * [1.0, ratio**0.5, ratio]) @ v.T, roots=roots, t0=1.0)
    if refused:
        with pytest.raises(RankDeficient):
            least_squares(design, np.ones(40))
        with pytest.raises(RankDeficient):
            condition_diagnostics(design)
    else:
        least_squares(design, np.ones(40))
        assert condition_diagnostics(design).kappa == pytest.approx(ratio**-2, rel=1e-6)


def test_distortion_values():
    a = np.array([0.1 + 0.2j, -0.3 + 0.0j, 0.05 - 0.05j])
    assert distortion(a, a) == 0.0
    bumped = a.copy()
    bumped[1] += 0.1
    assert distortion(bumped, a) == pytest.approx(0.01, abs=1e-15)


def test_distortion_parseval_quadrature(diffusion):
    # Quadrature oracle: integrate |Ghat(x,0) - g(x,0)|^2 on a 4096-point grid.
    rng = np.random.default_rng(8)
    true_k0 = coefficients_at(diffusion, 0.0)
    est_k0 = true_k0 + (rng.uniform(-0.05, 0.05, 7) + 1j * rng.uniform(-0.05, 0.05, 7))
    xs = np.linspace(0.0, 1.0, 4097)
    k_vals = diffusion.k_values
    delta = (est_k0 - true_k0) @ np.exp(2j * np.pi * np.outer(k_vals, xs))
    integral = float(np.trapezoid(np.abs(delta) ** 2, xs))
    assert distortion(est_k0, true_k0) == pytest.approx(integral, abs=1e-6)


def test_estimator_linearity(diffusion):
    path = draw_path(RenewalSpec(), 150, PathStreams.from_seed(10))
    design = build_design_matrix(diffusion.roots, path.M, path.T0)
    rng = np.random.default_rng(11)
    g1 = rng.uniform(-1, 1, path.M)
    g2 = rng.uniform(-1, 1, path.M)
    lhs = least_squares(design, 0.6 * g1 + 2.5 * g2)
    rhs = 0.6 * least_squares(design, g1) + 2.5 * least_squares(design, g2)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_noise_only_unbiased():
    # Pure zero-mean noise decodes to zero coefficients on average.
    spec = catalog_entry(3).spec
    roots = tuple(characteristic_roots(spec, k) for k in (-1, 0, 1))
    design = build_design_matrix(roots, 64, 1.0)
    rng = np.random.default_rng(21)
    trials = 10_000
    estimates = np.empty((trials, 3), dtype=complex)
    for i in range(trials):
        estimates[i] = least_squares(design, rng.normal(0.0, 0.1, 64))
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(mean) <= 3 * np.abs(se) + 1e-12)


def test_condition_diagnostics_constant_mode():
    design = build_design_matrix(constant_roots(), 10, 1.0)
    report = condition_diagnostics(design)
    assert report.trace == pytest.approx(10.0, abs=1e-12)
    assert report.trace_inverse == pytest.approx(0.1, abs=1e-14)
    assert report.kappa == pytest.approx(1.0, abs=1e-12)
    assert report.polya_szego_ok and report.trace_lower_ok


def test_trace_two_ways(diffusion):
    # Direct sum oracle: trace = sum over k, i, j of exp(2 Re r_j(k) t_i).
    t0 = 0.9
    design = build_design_matrix(diffusion.roots, 512, t0)
    report = condition_diagnostics(design)
    t_i = np.arange(1, 513) * t0 / 512
    direct = sum(
        float(np.sum(np.exp(2.0 * r.real * t_i)))
        for hr in diffusion.roots
        for r in hr.roots
    )
    assert report.trace == pytest.approx(direct, rel=1e-9)


def test_inequality_flags_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(25):
        c = rng.uniform(0.004, 0.05)
        spec = PdeSpec((0.0, 1.0), (0.0, 0.0, c))
        b = int(rng.integers(1, 4))
        roots = tuple(characteristic_roots(spec, k) for k in range(-b, b + 1))
        path = draw_path(
            RenewalSpec(),
            int(rng.integers(100, 800)),
            PathStreams.from_seed(int(rng.integers(2**31))),
        )
        design = build_design_matrix(roots, path.M, path.T0)
        report = condition_diagnostics(design)
        assert report.polya_szego_ok
        assert report.trace_lower_ok
        assert report.kappa >= 1.0


def test_chain_bound_on_reconstructions(diffusion):
    # Cauchy-Schwarz: sum_k |Ahat_k - a_k|^2 <= m(2b+1) ||ahat - a||^2.
    true_k0 = coefficients_at(diffusion, 0.0)
    flat = diffusion.flat_coeffs()
    rng = np.random.default_rng(41)
    for seed in range(10):
        path = draw_path(RenewalSpec(), 200, PathStreams.from_seed(seed))
        samples = sample_field(diffusion, path, NoiseSpec("gaussian", 1e-3), rng)
        design = build_design_matrix(diffusion.roots, path.M, path.T0)
        result = reconstruct(design, samples, true_k0)
        coeff_err = float(np.sum(np.abs(result.a_hat - flat) ** 2))
        bound = diffusion.m * (2 * diffusion.b + 1) * coeff_err
        assert result.distortion <= bound * (1 + 1e-12)


def test_grid_design_layout(diffusion):
    # Rows sit at (i/4, i*0.8/4), i = 1..4; the last at (1, T0) with T0 exact.
    design = build_design_matrix(diffusion.roots, 4, 0.8)
    assert design.rows == 4
    assert design.t0 == 0.8
    idx = np.arange(1, 5)
    expected = basis_matrix(diffusion.roots, idx / 4, idx * 0.8 / 4)
    assert np.max(np.abs(design.entries - expected)) < 1e-13


# ------------------------------------------- real estimator vs complex oracle


@st.composite
def feasible_pdes(draw):
    """PDEs of temporal order 1-3 with dissipative or advective spatial terms."""
    m = draw(st.integers(1, 3))
    p = [draw(st.floats(0.0, 5.0)) for _ in range(m)] + [draw(st.floats(0.5, 2.0))]
    advection = draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5)))  # odd q
    if draw(st.booleans()):
        q = (draw(st.floats(-1.0, 0.0)), advection, draw(st.floats(0.001, 0.05)))
    else:
        assume(advection != 0.0)
        q = (draw(st.floats(-1.0, 0.0)), advection)
    return PdeSpec(tuple(p), q)


def complex_svd_solve(basis, values):
    """Oracle: the complex least-squares solution and kappa, None if rank deficient."""
    u, s, vh = np.linalg.svd(basis, full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        return None
    return vh.conj().T @ ((u.conj().T @ values) / s), (s[0] / s[-1]) ** 2


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    spec=feasible_pdes(),
    b=st.integers(0, 4),
    extra_rows=st.integers(0, 200),
    t0=st.floats(0.3, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
# odd q (advection), so the roots of -k are not those of k
@example(spec=PdeSpec((0.0, 1.0), (0.0, 0.3, 0.01)), b=3, extra_rows=50, t0=0.9, seed=1)
# p = 1 + z^2: a conjugate root pair at k = 0
@example(spec=PdeSpec((1.0, 0.0, 1.0), (0.0, 0.0, 0.01)), b=2, extra_rows=80, t0=1.0, seed=2)
# third order with advection at the largest band
@example(spec=PdeSpec((6.0, 11.0, 6.0, 1.0), (0.0, 0.1, 0.01)), b=4, extra_rows=120, t0=0.7, seed=3)
def test_real_estimator_matches_complex_oracle(spec, b, extra_rows, t0, seed):
    try:
        feasible = check_stability(spec, b).feasible
        roots = tuple(characteristic_roots(spec, k) for k in range(-b, b + 1))
    except DegenerateRoots:
        assume(False)
    assume(feasible)
    cols = spec.degree * (2 * b + 1)
    m_count = cols + 1 + extra_rows
    design = build_design_matrix(roots, m_count, t0)
    idx = np.arange(1, m_count + 1)
    basis = complex_basis(roots, idx / m_count, idx * t0 / m_count)

    layout = design.layout
    assert np.array_equal(np.sort(np.r_[layout.pairs.ravel(), layout.selfconj]), np.arange(cols))
    p, q = layout.pairs.T
    assert np.max(np.abs(basis[:, q] - basis[:, p].conj()), initial=0.0) < 1e-12
    assert np.max(np.abs(basis[:, layout.selfconj].imag), initial=0.0) < 1e-12
    # The grid design, entry by entry, is the complex basis in the real layout.
    pair = np.sqrt(2.0) * basis[:, p]
    expected = np.column_stack(
        (np.stack((pair.real, pair.imag), axis=2).reshape(m_count, -1), basis[:, layout.selfconj].real)
    )
    assert np.max(np.abs(design.entries - expected)) < 1e-12

    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=cols) + 1j * rng.normal(size=cols)
    values = (basis @ coeffs).real  # a real field: consistent with the design
    assert np.max(np.abs(design.entries @ layout.to_real(coeffs) - values)) < 1e-12 * cols

    oracle = complex_svd_solve(basis, values)
    if oracle is None:
        with pytest.raises(RankDeficient):
            reconstruct(design, values, np.zeros(2 * b + 1))
        return
    a_oracle, kappa_oracle = oracle
    result = reconstruct(design, values, np.zeros(2 * b + 1))
    assert result.kappa == pytest.approx(kappa_oracle, rel=1e-9)
    bound = 1e3 * np.finfo(float).eps * np.sqrt(kappa_oracle)
    assert np.linalg.norm(result.a_hat - a_oracle) <= bound * np.linalg.norm(a_oracle)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(spec=feasible_pdes(), b=st.integers(0, 4), n_extra=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_noiseless_grid_recovery(spec, b, n_extra, seed):
    # On a deterministic path the readings sit exactly on the uniform grid, so
    # a noiseless solve recovers the field or refuses the design outright.
    try:
        feasible = check_stability(spec, b).feasible
    except DegenerateRoots:
        assume(False)
    assume(feasible)
    state = random_real_field(b, spec, np.random.default_rng(seed))
    n = min(state.m * (2 * b + 1) + n_extra, 300)
    path = draw_path(RenewalSpec(family="deterministic"), n, PathStreams.from_seed(seed))
    design = build_design_matrix(state.roots, path.M, path.T0)
    samples = sample_field(state, path, NoiseSpec())
    try:
        result = reconstruct(design, samples, coefficients_at(state, 0.0))
    except RankDeficient:
        return
    assert result.distortion < 1e-14
