import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fieldrecon import estimator
from fieldrecon.errors import DegenerateRoots, InsufficientSamples, RankDeficient
from fieldrecon.estimator import (
    RANK_RTOL,
    ReconstructionResult,
    build_design_matrix,
    condition_diagnostics,
    reconstruct,
    reconstruct_stack,
)
from fieldrecon.experiments import distortion
from fieldrecon.field import (
    basis_matrix,
    catalog_entry,
    coefficients_at,
    conjugate_layout,
    evaluate,
    grid_tables,
    random_real_field,
    scenario_field,
)
from fieldrecon.pde_core import HarmonicRoots, PdeSpec, characteristic_roots, check_stability
from fieldrecon.sampling import NoiseSpec, RenewalSpec, draw_path, sample_field
from fieldrecon.streams import cell_streams, substream


def path_streams(seed):
    """The spatial and temporal generators of keys 0 and 1 under ``seed``."""
    return substream(seed, 0), substream(seed, 1)


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


def solve(roots, t0, values):
    """The stacked complex estimate of ``reconstruct``."""
    return reconstruct(roots, t0, values).a_hat


def mode_distortion(roots, a_hat, true_k0):
    """distortion of the mode values at t = 0 of the stacked estimate
    ``a_hat``: each harmonic's coefficients summed."""
    return distortion(a_hat.reshape(len(roots), -1).sum(axis=1), true_k0)


def constant_roots():
    # Single harmonic k = 0 with root exactly 0: the all-ones design column.
    return (HarmonicRoots(k=0, roots=(0.0 + 0.0j,)),)


def test_constant_mode_design_matrix():
    entries = grid_tables(constant_roots(), [25], [1.0]).materialize()
    assert entries.shape == (25, 1)
    assert np.allclose(entries, 1.0, atol=0)


def test_entry_modulus_and_row_norm_bound(diffusion):
    entries = grid_tables(diffusion.roots, [100], [0.97]).materialize()
    # Recombine each (sqrt(2) Re c, sqrt(2) Im c) pair into the complex entry c.
    n_pair = 2 * len(conjugate_layout(diffusion.roots).pairs)
    pairs = (entries[:, 0:n_pair:2] + 1j * entries[:, 1:n_pair:2]) / np.sqrt(2.0)
    moduli = np.concatenate((np.abs(pairs), np.abs(entries[:, n_pair:])), axis=1)
    assert float(np.max(moduli)) <= 1.0 + 1e-12
    row_norms_sq = np.sum(entries**2, axis=1)
    assert float(np.max(row_norms_sq)) <= diffusion.m * (2 * diffusion.b + 1) + 1e-12


def test_true_grid_forward_oracle(diffusion):
    # Y(true points) @ a must reproduce per-point field evaluation.
    path = draw_path(RenewalSpec(), 120, path_streams(3))
    entries = basis_matrix(diffusion.roots, path.S[0, : path.M[0]], path.T[0, : path.M[0]])
    predicted = entries @ conjugate_layout(diffusion.roots).to_real(diffusion.flat_coeffs())
    direct = np.array(
        [evaluate(diffusion, x, t) for x, t in zip(path.S[0, : path.M[0]], path.T[0, : path.M[0]])]
    )
    assert np.max(np.abs(predicted - direct)) < 1e-12


def test_exact_recovery_on_uniform_grid(diffusion):
    path = draw_path(RenewalSpec(family="deterministic"), 200, path_streams(0))
    samples = sample_field(diffusion, path, NoiseSpec())
    a_hat = solve(diffusion.roots, path.T0[0], samples)
    err = np.max(np.abs(a_hat - diffusion.flat_coeffs()))
    assert err < 1e-8 * float(np.max(np.abs(diffusion.flat_coeffs())))


def test_constant_mode_least_squares_is_mean():
    rng = np.random.default_rng(4)
    values = rng.uniform(-1, 1, 50)
    a_hat = solve(constant_roots(), 1.0, values)
    assert a_hat[0] == pytest.approx(values.mean(), abs=1e-12)


def test_small_instance_matches_normal_equations():
    # Independent oracle: explicit 3x3 normal-equations solve on a tiny instance.
    spec = catalog_entry(3).spec
    roots = tuple(characteristic_roots(spec, k) for k in (-1, 0, 1))
    rng = np.random.default_rng(6)
    values = rng.uniform(-1, 1, 8)
    a_hat = solve(roots, 0.9, values)
    idx = np.arange(1, 9)
    basis = complex_basis(roots, idx / 8, idx * 0.9 / 8)
    gram = basis.conj().T @ basis
    oracle = np.linalg.solve(gram, basis.conj().T @ values)
    assert np.max(np.abs(a_hat - oracle)) < 1e-10


def test_insufficient_samples(diffusion):
    with pytest.raises(InsufficientSamples):
        solve(diffusion.roots, 1.0, np.zeros(5))


def test_condition_diagnostics_refuses_underdetermined(diffusion):
    # 5 rows cannot give 7 columns full rank, whatever the 5 singular values say.
    with pytest.raises(InsufficientSamples):
        condition_diagnostics(diffusion.roots, 5, 1.0)


def test_reconstruct_requires_real_vector(diffusion):
    for values in (np.zeros(20, dtype=complex), np.zeros((20, 1))):
        with pytest.raises(ValueError, match="sample values must form a real vector"):
            solve(diffusion.roots, 1.0, values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_readings_are_refused(diffusion, bad):
    # One bad reading among 200 is refused by name, never solved into a NaN
    # estimate or an overflow warning, alone or as one member of a stack.
    values = np.random.default_rng(3).uniform(-1, 1, 200)
    values[117] = bad
    with pytest.raises(ValueError, match="sample values must be finite"):
        solve(diffusion.roots, 1.0, values)
    with pytest.raises(ValueError, match="sample values must be finite"):
        reconstruct_stack(diffusion.roots, [1.0, 0.9], [np.zeros(200), values])


def test_reconstruct_converts_its_readings_once(diffusion, monkeypatch):
    # The one conversion and finiteness pass is reconstruct_stack's.
    calls = []
    as_values = estimator._as_values

    def counted(values):
        calls.append(values)
        return as_values(values)

    monkeypatch.setattr(estimator, "_as_values", counted)
    solve(diffusion.roots, 1.0, np.random.default_rng(3).uniform(-1, 1, 200))
    assert len(calls) == 1


def test_rank_deficient_detected():
    # set1 at M = 2048 around its collision horizon T0* = 1.1028, where two
    # columns share a real part: the solve and the diagnostics refuse exactly
    # when lstsq on the materialized design reads sigma_min / sigma_max at or
    # below RANK_RTOL (about 5.8e-6, 3.6e-6, 1.7e-8 and 4.2e-6 here).
    roots = scenario_field("set1").roots
    values = np.random.default_rng(12).uniform(-1, 1, 2048)
    refused = []
    for t0 in (1.085, 1.0925, 1.1028, 1.115):
        entries = grid_tables(roots, [2048], [t0]).materialize()
        singular = np.linalg.lstsq(entries, values, rcond=None)[3]
        refused.append(bool(singular[-1] <= RANK_RTOL * singular[0]))
        if refused[-1]:
            with pytest.raises(RankDeficient):
                solve(roots, t0, values)
            with pytest.raises(RankDeficient):
                condition_diagnostics(roots, 2048, t0)
        else:
            solve(roots, t0, values)
            condition_diagnostics(roots, 2048, t0)
    assert refused == [False, True, True, False]


@pytest.mark.parametrize("factor, refused", [(1 + 1e-3, False), (1 - 1e-3, True)])
def test_rank_gate_boundary(factor, refused):
    # Synthetic U diag(s) V^T with sigma_min / sigma_max a hair off RANK_RTOL,
    # through the one gate the solve and the diagnostics share.
    rng = np.random.default_rng(12)
    u, _ = np.linalg.qr(rng.normal(size=(40, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    ratio = RANK_RTOL * factor
    augmented = np.column_stack(((u * [1.0, ratio**0.5, ratio]) @ v.T, np.ones(40)))[None]
    _, singular, (refusal,) = estimator._solve(augmented)
    if refused:
        assert isinstance(refusal, RankDeficient)
    else:
        assert refusal is None
        assert (singular[0, 0] / singular[0, -1]) ** 2 == pytest.approx(ratio**-2, rel=1e-6)


def test_distortion_values():
    a = np.array([0.1 + 0.2j, -0.3 + 0.0j, 0.05 - 0.05j])
    assert distortion(a, a) == 0.0
    bumped = a.copy()
    bumped[1] += 0.1
    assert distortion(bumped, a) == pytest.approx(0.01, abs=1e-15)


def test_distortion_refuses_unequal_lengths():
    with pytest.raises(ValueError, match="coefficient vectors must have equal length"):
        distortion([0.1, 0.2], [0.1, 0.2, 0.3])


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
    path = draw_path(RenewalSpec(), 150, path_streams(10))
    roots, t0 = diffusion.roots, path.T0[0]
    rng = np.random.default_rng(11)
    g1 = rng.uniform(-1, 1, path.M[0])
    g2 = rng.uniform(-1, 1, path.M[0])
    lhs = solve(roots, t0, 0.6 * g1 + 2.5 * g2)
    rhs = 0.6 * solve(roots, t0, g1) + 2.5 * solve(roots, t0, g2)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_noise_only_unbiased():
    # Pure zero-mean noise decodes to zero coefficients on average.
    spec = catalog_entry(3).spec
    roots = tuple(characteristic_roots(spec, k) for k in (-1, 0, 1))
    rng = np.random.default_rng(21)
    trials = 10_000
    estimates = np.empty((trials, 3), dtype=complex)
    for i in range(trials):
        estimates[i] = solve(roots, 1.0, rng.normal(0.0, 0.1, 64))
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(mean) <= 3 * np.abs(se) + 1e-12)


def test_condition_diagnostics_constant_mode():
    report = condition_diagnostics(constant_roots(), 10, 1.0)
    assert report.trace == pytest.approx(10.0, abs=1e-12)
    assert report.trace_inverse == pytest.approx(0.1, abs=1e-14)
    assert report.kappa == pytest.approx(1.0, abs=1e-12)
    assert report.polya_szego_ok and report.trace_lower_ok


def test_trace_two_ways(diffusion):
    # Direct sum oracle: trace = sum over k, i, j of exp(2 Re r_j(k) t_i).
    t0 = 0.9
    report = condition_diagnostics(diffusion.roots, 512, t0)
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
            path_streams(int(rng.integers(2**31))),
        )
        report = condition_diagnostics(roots, path.M[0], path.T0[0])
        assert report.polya_szego_ok
        assert report.trace_lower_ok
        assert report.kappa >= 1.0


def test_chain_bound_on_reconstructions(diffusion):
    # Cauchy-Schwarz: sum_k |Ahat_k - a_k|^2 <= m(2b+1) ||ahat - a||^2.
    true_k0 = coefficients_at(diffusion, 0.0)
    flat = diffusion.flat_coeffs()
    rng = np.random.default_rng(41)
    for seed in range(10):
        path = draw_path(RenewalSpec(), 200, path_streams(seed))
        samples = sample_field(diffusion, path, NoiseSpec("gaussian", 1e-3), rng)
        a_hat = solve(diffusion.roots, path.T0[0], samples)
        coeff_err = float(np.sum(np.abs(a_hat - flat) ** 2))
        bound = diffusion.m * (2 * diffusion.b + 1) * coeff_err
        assert mode_distortion(diffusion.roots, a_hat, true_k0) <= bound * (1 + 1e-12)


def test_grid_design_layout(diffusion):
    # Rows sit at (i/4, i*0.8/4), i = 1..4; the last at (1, T0) with T0 exact.
    design = build_design_matrix(diffusion.roots, 4, 0.8)
    assert design.rows == 4
    assert design.t0 == 0.8
    idx = np.arange(1, 5)
    expected = basis_matrix(diffusion.roots, idx / 4, idx * 0.8 / 4)
    assert np.max(np.abs(design.entries - expected)) < 1e-13
    # M is a count: no fractional or negative grids, no bool, for the design
    # and the diagnostics alike.
    for m_count, message in ((50.5, "integer"), (True, "integer"), (-3, ">= 0")):
        with pytest.raises(ValueError, match=f"sample count M must be.*{message}"):
            build_design_matrix(diffusion.roots, m_count, 0.8)
        with pytest.raises(ValueError, match=f"sample count M must be.*{message}"):
            condition_diagnostics(diffusion.roots, m_count, 0.8)


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
    entries = grid_tables(roots, [m_count], [t0]).materialize()
    idx = np.arange(1, m_count + 1)
    basis = complex_basis(roots, idx / m_count, idx * t0 / m_count)

    layout = conjugate_layout(roots)
    assert np.array_equal(np.sort(np.r_[layout.pairs.ravel(), layout.selfconj]), np.arange(cols))
    p, q = layout.pairs.T
    assert np.max(np.abs(basis[:, q] - basis[:, p].conj()), initial=0.0) < 1e-12
    assert np.max(np.abs(basis[:, layout.selfconj].imag), initial=0.0) < 1e-12
    # The grid design, entry by entry, is the complex basis in the real layout.
    pair = np.sqrt(2.0) * basis[:, p]
    expected = np.column_stack(
        (np.stack((pair.real, pair.imag), axis=2).reshape(m_count, -1), basis[:, layout.selfconj].real)
    )
    assert np.max(np.abs(entries - expected)) < 1e-12

    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=cols) + 1j * rng.normal(size=cols)
    values = (basis @ coeffs).real  # a real field: consistent with the design
    assert np.max(np.abs(entries @ layout.to_real(coeffs) - values)) < 1e-12 * cols

    oracle = complex_svd_solve(basis, values)
    if oracle is None:
        with pytest.raises(RankDeficient):
            reconstruct(roots, t0, values)
        return
    a_oracle, kappa_oracle = oracle
    result = reconstruct(roots, t0, values)
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
    path = draw_path(RenewalSpec(family="deterministic"), n, path_streams(seed))
    samples = sample_field(state, path, NoiseSpec())
    try:
        a_hat = solve(state.roots, path.T0[0], samples)
    except RankDeficient:
        return
    assert mode_distortion(state.roots, a_hat, coefficients_at(state, 0.0)) < 1e-14


# ------------------------------------- reduced solve vs lstsq on the entries

# Relative gap between a member's solution and lstsq on its materialized
# design, and between their singular values (relative to sigma_max), in
# units of eps * sqrt(kappa).  Measured maxima over 6 000 random draws of
# this test's strategies (12 566 members): 47.7 for the solution and 11.5
# for the singular values; above kappa = 1e4, 1.2 and 0.05.  The largest
# solution gaps sit on single-column grids (c = 1, kappa = 1) and come from
# lstsq on the materialized column, which sums its M rows in one pass: on
# a root at 0 it misses the exact coefficient by tens of eps at M = 9000
# while the reduced solve stays within a few eps.
REDUCED_SOLVE_C = 64.0
# Sample counts at the block edges, as (base, offset): M = c + offset, or
# M = k B + offset for k blocks of the grid's own block length B.
EDGES = (("c", -1), ("c", 0), ("c", 1), ("c", 2), ("kB", -1), ("kB", 0), ("kB", 1))
# The other members of a stack, at the edges of the block length B that its
# longest member sets: c, c + 1, B - 1, B, B + 1 and k B +- 1.
STACK_EDGES = (("c", 0), ("c", 1), ("B", -1), ("B", 0), ("B", 1), ("kB", -1), ("kB", 1))


def grid_block(m_count, cols):
    """Block length of the grid's power tables (field.grid_tables)."""
    return math.isqrt(m_count * cols) + 1


def block_edge(cols, edge, k):
    """Sample count at ``edge``: c + offset, or the least M >= c with
    M - offset equal to k blocks of its own block length.

    M = c has one block longer than the grid (B = c + 1: every row is in the
    partial block), M = c + 1 fills one block exactly and M = c + 2 leaves a
    one-row partial block, the B - 1, B and B + 1 of the smallest grids.
    """
    base, offset = edge
    if base == "c":
        return cols + offset
    m_count = cols
    while m_count - offset != k * grid_block(m_count, cols):
        m_count += 1
    return m_count


def stack_edge(cols, block, edge, k):
    """Sample count at ``edge`` of a stack with block length ``block``."""
    base, offset = edge
    return {"c": cols, "B": block, "kB": k * block}[base] + offset


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    spec=feasible_pdes(),
    b=st.integers(0, 4),
    size=st.one_of(st.sampled_from(EDGES), st.integers(0, 9000)),
    blocks=st.integers(2, 12),
    others=st.lists(st.tuples(st.sampled_from(STACK_EDGES), st.integers(2, 12)), max_size=4),
    t0=st.floats(0.3, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
# catalog set1 at the acceptance sweep's densest grid, alone
@example(spec=catalog_entry(1).spec, b=3, size=8192, blocks=2, others=[], t0=0.9, seed=4)
# third order with advection at the largest band, a one-row partial block
@example(
    spec=PdeSpec((6.0, 11.0, 6.0, 1.0), (0.0, 0.1, 0.01)),
    b=4,
    size=("kB", 1),
    blocks=12,
    others=[(("c", 0), 2), (("B", 1), 2), (("kB", -1), 5)],
    t0=1.2,
    seed=5,
)
def test_reduced_solve_matches_lstsq_on_entries(spec, b, size, blocks, others, t0, seed):
    # Each member of a stack, solved from the grids' power tables, against
    # np.linalg.lstsq on its materialized design, on noiseless readings of a
    # random real field.  The first member is the longest and sets the
    # stack's block length; the others sit at that length's edges.
    try:
        feasible = check_stability(spec, b).feasible
        roots = tuple(characteristic_roots(spec, k) for k in range(-b, b + 1))
    except DegenerateRoots:
        assume(False)
    assume(feasible)
    cols = spec.degree * (2 * b + 1)
    top = size if isinstance(size, int) else block_edge(cols, size, blocks)
    block = grid_block(top, cols)
    m_counts = [top] + [min(top, max(0, stack_edge(cols, block, edge, k))) for edge, k in others]
    rng = np.random.default_rng(seed)
    t0s = [t0, *rng.uniform(0.3, 1.5, len(others))]
    tables = grid_tables(roots, m_counts, t0s)
    assert tables.block == block
    designs = [tables.materialize(g) for g in range(len(m_counts))]
    values = [entries @ rng.normal(size=cols) for entries in designs]
    outcomes = reconstruct_stack(roots, t0s, values)
    if top >= cols:
        # Each member's reduced system within the stack, and the singular
        # values the solve reads from it (rank gate, kappa, trace identities).
        reduced = tables.reduce(values)
        read = estimator._solve(reduced)[1]
    for g, (entries, v, outcome) in enumerate(zip(designs, values, outcomes)):
        if len(v) < cols:
            assert isinstance(outcome, InsufficientSamples)
            continue
        solution, _, _, singular = np.linalg.lstsq(entries, v, rcond=None)
        if singular[-1] <= RANK_RTOL * singular[0]:
            assert isinstance(outcome, RankDeficient)
            continue
        kappa = (singular[0] / singular[-1]) ** 2
        assert outcome.kappa == pytest.approx(kappa, rel=1e-9)
        bound = REDUCED_SOLVE_C * np.finfo(float).eps * np.sqrt(kappa)
        oracle = conjugate_layout(roots).to_complex(solution)
        assert np.linalg.norm(outcome.a_hat - oracle) <= bound * np.linalg.norm(oracle)
        kept = np.linalg.svd(reduced[g, :, :-1], compute_uv=False)
        assert np.max(np.abs(kept - singular)) <= bound * singular[0]
        assert np.max(np.abs(read[g] - singular)) <= bound * singular[0]


def test_reduced_system_keeps_the_singular_values(diffusion):
    # One grid at a block edge: GridTables.reduce keeps the design's
    # singular values, in the property test's C eps sqrt(kappa) form.
    for m_count in (7, 8, 9, 60, 61, 62, 700):
        tables = grid_tables(diffusion.roots, [m_count], [1.1])
        (augmented,) = tables.reduce([np.arange(float(m_count))])
        expected = np.linalg.svd(tables.materialize(), compute_uv=False)
        reduced = np.linalg.svd(augmented[:, :-1], compute_uv=False)
        bound = REDUCED_SOLVE_C * np.finfo(float).eps * (expected[0] / expected[-1])
        assert np.max(np.abs(reduced - expected)) <= bound * expected[0]
    # An empty grid reduces to an empty system.
    augmented = grid_tables(diffusion.roots, [0], [1.1]).reduce([np.zeros(0)])
    assert augmented.shape == (1, 0, len(diffusion.roots) + 1)


# Largest relative gap between a member of a stack and its one-member solve
# (solution, kappa and distortion) on set1 at n = 1024.  Measured: 4.4e-11,
# 9.2e-12 and 8.0e-11 over 40 stacks of four paths; a member's result moves
# only through the block length it shares with the stack.
STACK_RTOL = 1e-9


def test_stack_members_are_independent():
    state = scenario_field("set1")
    true_k0 = coefficients_at(state, 0.0)
    t0s, values = [], []
    for gens in cell_streams([(2024, 1024, trial) for trial in range(4)], 3):
        path = draw_path(RenewalSpec(), 1024, gens[:2])
        t0s.append(path.T0[0])
        values.append(sample_field(state, path, NoiseSpec("gaussian", 1e-4), gens[2]))
    # The same readings at set1's collision horizon T0* = 2 pi / (1.564 +
    # 4.133), where sigma_min / sigma_max falls below RANK_RTOL, and at fewer
    # samples than the 14 columns.
    t0s[2:2] = [1.1028]
    values[2:2] = [values[1]]
    t0s.append(1.0)
    values.append(values[0][:10])
    outcomes = reconstruct_stack(state.roots, t0s, values)

    kept = []
    for t0, v, outcome in zip(t0s, values, outcomes):
        try:
            alone = reconstruct(state.roots, t0, v)
        except (InsufficientSamples, RankDeficient) as refusal:
            assert type(outcome) is type(refusal) and str(outcome) == str(refusal)
            continue
        assert isinstance(outcome, ReconstructionResult)
        kept.append((t0, v, outcome))
        assert np.linalg.norm(outcome.a_hat - alone.a_hat) <= STACK_RTOL * np.linalg.norm(alone.a_hat)
        assert outcome.kappa == pytest.approx(alone.kappa, rel=STACK_RTOL)
        error = mode_distortion(state.roots, outcome.a_hat, true_k0)
        assert error == pytest.approx(mode_distortion(state.roots, alone.a_hat, true_k0), rel=STACK_RTOL)
    assert [type(o).__name__ for o in outcomes] == [
        "ReconstructionResult",
        "ReconstructionResult",
        "RankDeficient",
        "ReconstructionResult",
        "ReconstructionResult",
        "InsufficientSamples",
    ]
    t0s, values, before = zip(*kept)
    for outcome, result in zip(reconstruct_stack(state.roots, t0s, values), before):
        assert np.linalg.norm(outcome.a_hat - result.a_hat) <= STACK_RTOL * np.linalg.norm(result.a_hat)
        error = mode_distortion(state.roots, outcome.a_hat, true_k0)
        assert error == pytest.approx(mode_distortion(state.roots, result.a_hat, true_k0), rel=STACK_RTOL)


def test_reconstruct_is_the_one_member_stack():
    # reconstruct returns, or raises, exactly what reconstruct_stack gives
    # its one member: on a healthy path, at set1's collision horizon
    # T0* = 1.1028 and at fewer samples than the 14 columns.
    state = scenario_field("set1")
    path = draw_path(RenewalSpec(), 1024, path_streams(5))
    readings = sample_field(state, path, NoiseSpec("gaussian", 1e-4), np.random.default_rng(5))
    members = []
    for t0, values in ((path.T0[0], readings), (1.1028, readings), (1.0, readings[:10])):
        (member,) = reconstruct_stack(state.roots, [t0], [values])
        members.append(type(member).__name__)
        try:
            alone = reconstruct(state.roots, t0, values)
        except (InsufficientSamples, RankDeficient) as refusal:
            assert type(refusal) is type(member) and str(refusal) == str(member)
            continue
        assert np.array_equal(alone.a_hat, member.a_hat)
        assert alone.kappa == member.kappa
    assert members == ["ReconstructionResult", "RankDeficient", "InsufficientSamples"]


def test_horizons_are_checked(diffusion):
    # One finite horizon per grid, refused by name before any table is built,
    # also when every grid is too short to solve (3 < 7 columns).
    for values in (np.zeros(50), np.zeros(3)):
        for t0s, stack in (([0.9, 1.0, 1.1], [values]), ([1.0], [values] * 3)):
            message = f"horizon count {len(t0s)} differs from grid count {len(stack)}"
            with pytest.raises(ValueError, match=message):
                reconstruct_stack(diffusion.roots, t0s, stack)
        for t0 in (np.nan, np.inf):
            with pytest.raises(ValueError, match="horizons t0 must be finite"):
                reconstruct_stack(diffusion.roots, [t0], [values])
            with pytest.raises(ValueError, match="horizons t0 must be finite"):
                solve(diffusion.roots, t0, values)
    for t0 in (np.nan, np.inf):
        with pytest.raises(ValueError, match="horizons t0 must be finite"):
            condition_diagnostics(diffusion.roots, 50, t0)
        # Named before the count: 5 samples cannot determine 7 columns.
        with pytest.raises(ValueError, match="horizons t0 must be finite"):
            condition_diagnostics(diffusion.roots, 5, t0)


def test_horizons_follow_the_real_number_rule(diffusion):
    # A bool, a string, a complex or a list is no horizon: each is refused by
    # name, where float() or numpy would read 1.0 or fail on the way.
    values = np.zeros(50)
    for t0 in (True, "1.0", 1 + 0j, [1.0]):
        message = f"a horizon t0 must be a real number, got {re.escape(repr(t0))}"
        with pytest.raises(ValueError, match=message):
            reconstruct(diffusion.roots, t0, values)
        with pytest.raises(ValueError, match=message):
            reconstruct_stack(diffusion.roots, [t0], [values[:3]])
        with pytest.raises(ValueError, match=message):
            condition_diagnostics(diffusion.roots, 50, t0)
    # Python and numpy reals and ints are horizons, bit for bit the float's.
    expected = reconstruct(diffusion.roots, 1.0, np.linspace(0.0, 1.0, 50))
    for t0 in (1, np.float64(1.0), np.float32(1.0), np.int64(1)):
        result = reconstruct(diffusion.roots, t0, np.linspace(0.0, 1.0, 50))
        assert np.array_equal(result.a_hat, expected.a_hat) and result.kappa == expected.kappa
        assert condition_diagnostics(diffusion.roots, 50, t0) == condition_diagnostics(diffusion.roots, 50, 1.0)


def test_horizons_must_be_a_sequence(diffusion):
    # A string was read by its characters (b"1" ran at horizon 49.0), and a
    # bare number ended in Python's TypeError: each is refused by name.
    values = np.linspace(0.0, 1.0, 50)
    for t0s in ("1.0", b"1", bytearray(b"1"), 1.0, np.float64(1.0), np.array(1.0), np.ones((1, 1))):
        message = f"horizons t0s must be a sequence of real numbers, got {re.escape(repr(t0s))}"
        with pytest.raises(ValueError, match=message):
            reconstruct_stack(diffusion.roots, t0s, [values])
        with pytest.raises(ValueError, match=message):
            reconstruct_stack(diffusion.roots, t0s, [values[:3]])
        with pytest.raises(ValueError, match=message):
            grid_tables(diffusion.roots, [50], t0s)
    # Tuples, lists and 1-D arrays are horizons, bit for bit alike.
    (expected,) = reconstruct_stack(diffusion.roots, [1.0], [values])
    grid = grid_tables(diffusion.roots, [50], [1.0]).materialize()
    for t0s in ((1.0,), np.array([1.0]), np.array([1.0], dtype=np.float32)):
        (result,) = reconstruct_stack(diffusion.roots, t0s, [values])
        assert np.array_equal(result.a_hat, expected.a_hat) and result.kappa == expected.kappa
        assert np.array_equal(grid_tables(diffusion.roots, [50], t0s).materialize(), grid)


def test_insufficient_samples_counts_design_rows(diffusion):
    # M < c is refused, down to the empty grid; from M = c on, the reduced
    # system never has fewer rows than columns, so it cannot refuse.
    for m_count in (0, 6):
        with pytest.raises(InsufficientSamples, match=f"^{m_count} samples cannot determine 7"):
            solve(diffusion.roots, 1.0, np.zeros(m_count))
    for m_count in range(7, 200):
        assert grid_tables(diffusion.roots, [m_count], [1.0]).reduce([np.zeros(m_count)])[0].shape[0] >= 7


def test_grid_design_materializes_only_when_read(diffusion):
    design = build_design_matrix(diffusion.roots, 500, 0.8)
    assert "entries" not in vars(design)
    idx = np.arange(1, 501)
    expected = basis_matrix(diffusion.roots, idx / 500, idx * 0.8 / 500)
    assert np.max(np.abs(design.entries - expected)) < 1e-13
    assert not design.entries.flags.writeable
    assert design.entries is design.entries


@pytest.mark.parametrize(
    "call", [solve, lambda roots, t0, values: condition_diagnostics(roots, len(values), t0)]
)
def test_all_zero_design_is_rank_deficient(call):
    # sigma_max = 0: refused with a finite message, no 0/0 warning.  Every
    # root's real part is about -1e300, so every grid entry underflows to 0.
    spec = PdeSpec((1e300, 1.0), (0.0, 0.0, 0.01))
    roots = tuple(characteristic_roots(spec, k) for k in range(-3, 4))
    assert not np.any(build_design_matrix(roots, 10, 1.0).entries)
    with pytest.raises(RankDeficient, match="zero") as refusal:
        call(roots, 1.0, np.ones(10))
    assert "nan" not in str(refusal.value)
