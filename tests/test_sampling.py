import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldrecon.field import PdeSpec, field_from_mode_values
from fieldrecon.sampling import (
    NoiseSpec,
    PathBlock,
    RenewalSpec,
    _draw_increments,
    _draw_noise,
    _draw_prefix_sums,
    draw_path,
    draw_paths,
    grid_deviation,
    sample_field,
    sample_paths,
)
from fieldrecon.streams import cell_streams, substream


def streams(seed=0):
    return substream(seed, 0), substream(seed, 1)


def constant_state(value=0.5):
    return field_from_mode_values(PdeSpec((0.0, 1.0), (0.0, 1.0)), [value])


# ---------------------------------------------------------------- validation


def test_renewal_spec_validation():
    with pytest.raises(ValueError):
        draw_path(RenewalSpec(), 15, streams())  # lam = 2 > 15/10
    with pytest.raises(ValueError):
        draw_path(RenewalSpec(), 0, streams())
    for n in (128.9, 128.0, "128", True, np.True_, None):  # refused, never truncated
        with pytest.raises(ValueError, match="density n must be an integer"):
            draw_path(RenewalSpec(), n, streams())
    draw_path(RenewalSpec(), np.int64(128), streams())  # numpy integers are integers
    with pytest.raises(ValueError):
        RenewalSpec(family="uniform_scaled", lam=3.0, mu=3.0)
    with pytest.raises(ValueError):
        RenewalSpec(family="nope")
    with pytest.raises(ValueError):
        RenewalSpec(lam=0.5, mu=2.0, family="beta_scaled")
    for lam, mu in (("3", 3.0), (3.0, "3"), (True, 3.0), (3.0, None)):
        with pytest.raises(ValueError, match="must be a real number"):
            RenewalSpec("beta_scaled", lam, mu)
    RenewalSpec("beta_scaled", 3, np.float64(3.0))  # ints and numpy reals are numbers
    draw_path(RenewalSpec(family="beta_scaled", lam=5.0, mu=3.0), 100, streams())  # fine
    draw_path(RenewalSpec(family="deterministic"), 10, streams())  # zero-variance family is exempt


def test_renewal_spec_serves_every_density():
    spec = RenewalSpec(family="beta_scaled", lam=4.0, mu=4.0)
    for n in (40, 200):
        path = draw_path(spec, n, streams(n))
        assert np.all(np.diff(path.S[0, : path.M[0] + 1]) <= spec.lam / n + 1e-15)
    with pytest.raises(ValueError):
        draw_path(spec, 39, streams())  # lam = 4 > 39/10


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("none", 0.1)
    with pytest.raises(ValueError):
        NoiseSpec("gaussian", -1.0)
    with pytest.raises(ValueError):
        NoiseSpec("sometimes", 0.1)
    for variance in (True, False, "0.1", None):
        with pytest.raises(ValueError, match="must be a real number"):
            NoiseSpec("gaussian", variance)
    NoiseSpec("gaussian", np.float64(0.1))
    # Uniform noise draws on [-h, h] with h = sqrt(3 sigma^2); 3 * 6e307 overflows.
    NoiseSpec("uniform", 5.99e307)
    with pytest.raises(ValueError, match="overflows 3\\*variance"):
        NoiseSpec("uniform", 6e307)


# ------------------------------------------------------------- deterministic


def test_deterministic_path_exact_grid():
    path = draw_path(RenewalSpec(family="deterministic"), 10, streams())
    assert path.M.tolist() == [10]
    assert path.T0.tolist() == [1.0]
    assert np.array_equal(path.S, [np.arange(1, 12) / 10])
    assert np.array_equal(path.T, [np.arange(1, 12) / 10])
    assert grid_deviation(path) == (0.0, 0.0)


def test_deterministic_path_large_n_boundary():
    # i/n division must keep S_M == 1.0 exactly for the M rule to bind right.
    for n in (160, 8192, 1000):
        path = draw_path(RenewalSpec(family="deterministic"), n, streams())
        assert path.M[0] == n
        assert path.S[0, n - 1] == 1.0


# ----------------------------------------------------------------- increments


def test_uniform_increment_moments():
    rng = np.random.default_rng(42)
    n = 50
    draws = np.empty(10**6)
    _draw_increments("uniform_scaled", n, 2.0, [(rng, draws)], draws)
    assert draws.min() > 0
    assert draws.max() <= 2.0 / n
    se = (2.0 / n) / np.sqrt(12.0) / 1000.0
    assert abs(draws.mean() - 1.0 / n) < 3 * se


def test_beta_increment_moments():
    rng = np.random.default_rng(43)
    n, lam = 80, 4.0
    draws = np.empty(10**6)
    _draw_increments("beta_scaled", n, lam, [(rng, draws)], draws)
    assert draws.min() > 0
    assert draws.max() <= lam / n
    se = draws.std() / 1000.0
    assert abs(draws.mean() - 1.0 / n) < 3 * se


# ------------------------------------------------------------ path invariants


def check_path_invariants(path: PathBlock, spec: RenewalSpec, n: int):
    (m,), (t0,) = path.M, path.T0
    S, T = path.S[0, : m + 1], path.T[0, : m + 1]
    assert m > n / spec.lam - 1
    assert S[m - 1] <= 1.0 < S[m]
    assert t0 == T[m - 1]
    assert np.all(np.diff(S) > 0) and np.all(np.diff(T) > 0)
    assert np.all(np.diff(S) <= spec.lam / n + 1e-15)
    assert np.all(np.diff(T) <= spec.mu / n + 1e-15)


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from((50, 500, 5000)),
    family=st.sampled_from(("uniform_scaled", "beta_scaled")),
    seed=st.integers(0, 2**32 - 1),
)
def test_path_invariants_fuzz(n, family, seed):
    lam = 2.0 if family == "uniform_scaled" else 3.0
    spec = RenewalSpec(family=family, lam=lam, mu=lam)
    path = draw_path(spec, n, streams(seed))
    check_path_invariants(path, spec, n)


def test_temporal_seed_leaves_spatial_untouched():
    spec = RenewalSpec()
    base = np.random.SeedSequence(77).spawn(3)
    mk = lambda i, j: (
        np.random.Generator(np.random.PCG64(base[i])),
        np.random.Generator(np.random.PCG64(base[j])),
    )
    a = draw_path(spec, 300, mk(0, 1))
    b = draw_path(spec, 300, mk(0, 2))
    assert np.array_equal(a.S, b.S)
    assert not np.array_equal(a.T, b.T)


def test_wald_interval():
    spec, n = RenewalSpec(), 50
    counts = [draw_path(spec, n, streams(s)).M[0] for s in range(2000)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / np.sqrt(len(counts))
    assert n - 1 - 3 * se < mean <= n + spec.lam - 1 + 3 * se


def path_arrays():
    """S and T of a valid two-sample path with T0 = T_M = 0.5."""
    return np.array([0.3, 0.7, 1.2]), np.array([0.2, 0.5, 0.9])


def one_path(S, T, m):
    """The one-row block of a path's arrays."""
    return PathBlock(np.array([S], dtype=float), np.array([T], dtype=float), np.array([m]))


def test_path_block_stores_read_only_views():
    S, T = path_arrays()
    given = (S[None], T[None], np.array([2]))
    path = PathBlock(*given)
    for stored, array in zip((path.S, path.T, path.M), given):
        assert not stored.flags.writeable
        assert np.shares_memory(stored, array)
        assert array.flags.writeable
    assert path.T0.tolist() == [0.5] and not path.T0.flags.writeable
    with pytest.raises(TypeError):
        PathBlock(*given, np.array([0.5]))  # the horizon is derived, never given
    drawn = [draw_path(RenewalSpec(), 100, streams())]
    drawn += draw_paths(RenewalSpec("beta_scaled", 3.0, 3.0), 100, cell_streams([(1, 2)] * 3, 2))
    drawn += draw_paths(RenewalSpec("deterministic"), 10, cell_streams([(1, 2)] * 3, 2))
    for block in drawn:
        for stored in (block.S, block.T, block.M, block.T0):
            assert not stored.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 0


# ----------------------------------------------------------------- sampling


def test_sample_field_noiseless_exact():
    from fieldrecon.field import evaluate, scenario_field

    state = scenario_field("diffusion")
    path = draw_path(RenewalSpec(), 100, streams(5))
    values = sample_field(state, path, NoiseSpec())
    m = path.M[0]
    direct = np.array([evaluate(state, x, t).real for x, t in zip(path.S[0, :m], path.T[0, :m])])
    assert np.max(np.abs(values - direct)) < 1e-12


def test_sample_field_gaussian_clt():
    state = constant_state(0.5)
    path = draw_path(RenewalSpec(), 100, streams(1))
    rng = np.random.default_rng(99)
    values = np.concatenate(
        [sample_field(state, path, NoiseSpec("gaussian", 0.01), rng) for _ in range(1000)]
    )
    se = 0.1 / np.sqrt(len(values))
    assert abs(values.mean() - 0.5) < 3 * se


def test_uniform_noise_variance():
    rng = np.random.default_rng(12)
    draws = _draw_noise(NoiseSpec("uniform", 0.01), 10**6, rng)
    assert abs(draws.mean()) < 3 * draws.std() / 1000.0
    assert draws.var() == pytest.approx(0.01, rel=0.02)
    assert np.max(np.abs(draws)) <= np.sqrt(0.03)


def test_sample_field_real_guard():
    from fieldrecon.field import FieldState, scenario_field

    base = scenario_field("set1")
    path = draw_path(RenewalSpec(), 100, streams(6))
    coeffs = base.coeffs.copy()
    coeffs[base.b - 1] += 0.05 + 0.02j  # row -1 no longer the conjugate mirror of row 1
    with pytest.raises(ValueError):
        sample_field(FieldState(base.spec, coeffs), path, NoiseSpec())


def test_sample_field_returns_read_only_vector():
    state = constant_state()
    path = draw_path(RenewalSpec(), 100, streams(2))
    for noise, rng in ((NoiseSpec(), None), (NoiseSpec("gaussian", 0.01), np.random.default_rng(0))):
        values = sample_field(state, path, noise, rng)
        assert isinstance(values, np.ndarray)
        assert values.dtype == np.float64 and values.shape == (path.M[0],)
        assert not values.flags.writeable


def test_noise_requires_rng():
    state = constant_state()
    path = draw_path(RenewalSpec(), 50, streams())
    with pytest.raises(ValueError):
        sample_field(state, path, NoiseSpec("gaussian", 0.1), None)
    # Only noise that draws needs a generator (NoiseSpec.draws).
    quiet = (NoiseSpec(), NoiseSpec("gaussian", 0.0), NoiseSpec("uniform", 0.0))
    assert not any(spec.draws for spec in quiet) and NoiseSpec("uniform", 0.1).draws
    expected = sample_field(state, path, NoiseSpec())
    assert all(np.array_equal(sample_field(state, path, spec, None), expected) for spec in quiet)


def test_sample_paths_refuses_to_run_out_of_noise_generators():
    state = constant_state()
    gens = list(cell_streams([(9, 50, trial) for trial in range(2)], 3))
    blocks = draw_paths(RenewalSpec(), 50, [g[:2] for g in gens])
    read = sample_paths(state, blocks, NoiseSpec("gaussian", 0.1), [gens[0][2]])
    next(read)
    with pytest.raises(ValueError, match="a noise RNG is required"):
        next(read)


def test_one_path_readers_refuse_a_block_of_many():
    (block,) = draw_paths(RenewalSpec(), 50, cell_streams([(9, 50, 0), (9, 50, 1)], 2))
    with pytest.raises(ValueError, match="one path, got 2"):
        sample_field(constant_state(), block, NoiseSpec())
    with pytest.raises(ValueError, match="one path, got 2"):
        grid_deviation(block)


# ------------------------------------------------------------ grid deviation


def test_draws_and_grid_deviation_match_plain_formulas():
    # The in-place arithmetic of draw_path and grid_deviation must give the
    # same bits as the textbook expressions, evaluated on cloned generators.
    for family, lam, n in (("uniform_scaled", 2.0, 60), ("uniform_scaled", 2.0, 6400), ("beta_scaled", 3.0, 500)):
        for seed in range(5):
            path = draw_path(RenewalSpec(family, lam, lam), n, streams(seed))
            ref_spatial, ref_temporal = streams(seed)
            scale = lam / n

            def increments(gen, count):
                if family == "uniform_scaled":
                    return (1.0 - gen.random(count)) * scale
                return gen.beta(2.0, 2.0 * (lam - 1.0), size=count) * scale

            chunk = n + max(16, 4 * int(np.sqrt(n)))
            S = np.cumsum(increments(ref_spatial, chunk))
            assert S[-1] > 1.0  # one block suffices at these seeds
            M = int(np.searchsorted(S, 1.0, side="right"))
            T = np.cumsum(increments(ref_temporal, M + 1))
            assert path.M.tolist() == [M] and path.T0.tolist() == [T[M - 1]]
            assert np.array_equal(path.S[0, : M + 1], S[: M + 1]) and np.array_equal(path.T[0], T)
            idx = np.arange(1, M + 1)
            assert grid_deviation(path) == (
                float(np.mean((S[:M] - idx / M) ** 2)),
                float(np.mean((T[:M] - idx * path.T0[0] / M) ** 2)),
            )


def test_grid_deviation_bounded_by_one():
    for seed in range(20):
        path = draw_path(RenewalSpec(), 60, streams(seed))
        spatial, temporal = grid_deviation(path)
        assert 0.0 <= spatial <= 1.0
        assert temporal >= 0.0


# ------------------------------------------------------------- path blocks


@pytest.mark.parametrize("n", [50, 500, 6400])
@pytest.mark.parametrize("family, lam", [("uniform_scaled", 2.0), ("beta_scaled", 3.0)])
def test_draw_paths_match_draw_path_bit_for_bit(family, lam, n):
    spec = RenewalSpec(family, lam, lam)
    cells = [(11, n, trial) for trial in range(24)]
    singles = [draw_path(spec, n, streams) for streams in cell_streams(cells, 2)]
    blocks = list(draw_paths(spec, n, cell_streams(cells, 2)))
    assert sum(len(block.M) for block in blocks) == len(cells)
    assert any(len(set(block.M.tolist())) > 1 for block in blocks)  # ragged rows
    row = 0
    for block in blocks:
        for (S, T, m, t0, s_dev, t_dev) in zip(
            block.S, block.T, block.M.tolist(), block.T0, *block.grid_deviations()
        ):
            path = singles[row]
            assert [m, t0] == [path.M[0], path.T0[0]]
            assert np.array_equal(S[: m + 1], path.S[0, : m + 1])
            assert np.array_equal(T[: m + 1], path.T[0, : m + 1])
            assert (s_dev, t_dev) == grid_deviation(path)
            row += 1


@pytest.mark.parametrize("n", [50, 2000])
def test_sample_paths_read_as_sample_field_bit_for_bit(n):
    state = field_from_mode_values(PdeSpec((0.0, 1.0), (0.0, 0.0, 0.01)), [0.3, 0.1 + 0.2j, -0.05j])
    noise = NoiseSpec("gaussian", 1e-4)
    cells = [(5, n, trial) for trial in range(20)]
    paths = [draw_path(RenewalSpec(), n, gens[:2]) for gens in cell_streams(cells, 3)]
    singles = [sample_field(state, path, noise, gens[2]) for path, gens in zip(paths, cell_streams(cells, 3))]
    gens = list(cell_streams(cells, 3))
    blocks = draw_paths(RenewalSpec(), n, [g[:2] for g in gens])
    read = list(sample_paths(state, blocks, noise, [g[2] for g in gens]))
    assert len(read) == len(singles)
    for (t0, values), path, single in zip(read, paths, singles):
        assert t0 == path.T0[0] and np.array_equal(values, single)
        assert not values.flags.writeable


def test_draw_paths_checks_its_arguments_before_drawing():
    with pytest.raises(ValueError, match="density n must be an integer"):
        draw_paths(RenewalSpec(), 100.5, [])
    assert list(draw_paths(RenewalSpec(), 100, [])) == []


class ScriptedUniform:
    """Stands in for a Generator: each ``random(out=...)`` call fills ``out``
    with the next scripted value (a scalar or a row)."""

    def __init__(self, *fills):
        self.fills = list(fills)

    def random(self, out):
        out[:] = self.fills.pop(0)


def chunked_prefix_sums(n, *fills):
    """Prefix sums as the draw builds them: a cumsum per chunk, shifted by
    the total of the chunks before it."""
    chunk = n + max(16, 4 * int(np.sqrt(n)))
    parts, total = [], 0.0
    for fill in fills:
        part = np.cumsum((1.0 - np.broadcast_to(fill, chunk)) * (2.0 / n))
        parts.append(part + total if parts else part)
        total = parts[-1][-1]
    return np.concatenate(parts)


def test_prefix_sums_draw_more_chunks_until_they_pass_one():
    n, chunk = 50, 78
    # Increments of 0.004 or 0.002 leave a 78-step chunk well below 1.
    fills = ([0.0], [0.9, 0.5], [0.95, 0.95, 0.0])
    gens = [ScriptedUniform(*row) for row in fills]
    sums = _draw_prefix_sums("uniform_scaled", n, 2.0, gens)
    assert sums.shape == (3, 3 * chunk)
    assert all(not gen.fills for gen in gens)  # every scripted chunk drawn, no more
    for row, scripted in zip(sums, fills):
        expected = chunked_prefix_sums(n, *scripted)
        # Every chunk but the last ends at or below 1.
        assert expected[-1] > 1.0 and np.all(expected[chunk - 1 : -1 : chunk] <= 1.0)
        assert np.array_equal(row[: len(expected)], expected)
        assert np.all(row[len(expected) :] == np.inf)  # rows done early are padded
    # Through draw_path, the continued sums become the path's locations.
    temporal = np.random.default_rng(5)
    path = draw_path(RenewalSpec(), n, (ScriptedUniform(0.9, 0.5), temporal))
    expected = chunked_prefix_sums(n, 0.9, 0.5)
    m = path.M[0]
    assert m == int(np.searchsorted(expected, 1.0, side="right")) > chunk
    assert np.array_equal(path.S[0, : m + 1], expected[: m + 1])


def test_draw_paths_refuses_a_broken_row_as_sample_path_does():
    # u = 1 makes the first increment 0, so S_1 = 0.
    broken = np.zeros(78)
    broken[0] = 1.0
    streams = [next(cell_streams([(3,)], 2)), (ScriptedUniform(broken), np.random.default_rng(4))]
    with pytest.raises(ValueError) as expected:
        one_path([0.0, 0.5, 1.5], [0.1, 0.2, 0.3], 2)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        list(draw_paths(RenewalSpec(), 50, streams))


GOOD_S, GOOD_T = path_arrays()
LOCATED = "locations must be finite and strictly increasing from above 0"
TIMED = "times must be finite and strictly increasing from above 0"
# (S, T, M, the rule it breaks) of one broken path each.
BROKEN_PATHS = (
    ([0.0, 0.7, 1.2], GOOD_T, 2, LOCATED),  # S_1 not above 0
    ([0.3, 0.3, 1.2], GOOD_T, 2, LOCATED),  # S not strictly increasing
    (GOOD_S, [0.0, 0.5, 0.9], 2, TIMED),  # T_1 not above 0
    (GOOD_S, [0.2, 0.2, 0.9], 2, TIMED),  # T not strictly increasing
    ([0.3, 1.1, 1.2], GOOD_T, 2, "require S_M <= 1 < S_{M+1}"),  # S_M > 1
    ([0.3, 0.7, 1.0], GOOD_T, 2, "require S_M <= 1 < S_{M+1}"),  # S_{M+1} = 1
    ([0.1, np.nan, 0.9, 1.2], [0.1, 0.2, 0.3, 0.4], 3, LOCATED),  # NaN inside S
    ([0.1, 0.5, 0.9, 1.2], [0.1, np.nan, 0.3, 0.4], 3, TIMED),  # NaN inside T
    ([0.3, 0.7, np.inf], GOOD_T, 2, LOCATED),  # S_{M+1} overshoots to +inf
    (GOOD_S, [0.2, 0.4, np.inf], 2, TIMED),  # T_{M+1} overshoots to +inf
    (GOOD_S[2:], GOOD_T[2:], 0, "at least one in-support sample"),
)


def test_sample_path_validation():
    # A single path is a one-row block: it is kept or refused by the rule it
    # breaks, and its horizon is its last in-support timestamp.
    path = one_path(GOOD_S, GOOD_T, 2)
    assert path.M.tolist() == [2] and path.T0.tolist() == [0.5]
    for S, T, m, rule in BROKEN_PATHS:
        with pytest.raises(ValueError, match=re.escape(rule)):
            one_path(S, T, m)


def test_path_block_refuses_rows_with_sample_path_text():
    # Each broken path is refused in the second row of a block with the
    # text it is refused with alone.
    for S, T, m, rule in BROKEN_PATHS:
        # The block is wider than the good row; the padding, -1, would break
        # every inequality if it were read.
        rows = [(GOOD_S, GOOD_T, 2), (S, T, m)]
        width = max(len(S), 3) + 1
        block_S, block_T = np.full((2, width), -1.0), np.full((2, width), -1.0)
        for i, (s, t, _) in enumerate(rows):
            block_S[i, : len(s)], block_T[i, : len(t)] = s, t
        M = np.array([r[2] for r in rows])
        with pytest.raises(ValueError, match=re.escape(rule)):
            PathBlock(block_S, block_T, M)
        PathBlock(block_S[:1], block_T[:1], M[:1])  # the good row alone passes
    # Malformed arrays are refused by the rule they break: a one-row,
    # three-column block.
    S, T, M = GOOD_S[None], GOOD_T[None], np.array([2])
    for block, rule in (
        ((S, T, np.array([2.0])), "M must be an integer"),
        ((S, T, np.array([True])), "M must be an integer"),
        ((S[:, :2], T, M), "S and T must both hold M+1 entries"),
        ((S, T[:, :2], M), "S and T must both hold M+1 entries"),
        ((S, T, np.array([3])), "S and T must both hold M+1 entries"),
        ((S, T, np.array([2, 2])), "one row of S and T and one M each"),
        ((GOOD_S, T, M), "one row of S and T and one M each"),
        ((S[None], T[None], M), "one row of S and T and one M each"),
        ((S[:0], T[:0], M[:0]), "one or more paths"),
        ((S, T, [2]), "must be numpy arrays"),
        ((S.astype(complex), T, M), "S and T must be float arrays"),
    ):
        with pytest.raises(ValueError, match=re.escape(rule)):
            PathBlock(*block)
