import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldrecon.field import PdeSpec, field_from_mode_values
from fieldrecon.sampling import (
    NoiseSpec,
    RenewalSpec,
    SamplePath,
    _draw_increments,
    _draw_noise,
    draw_path,
    grid_deviation,
    sample_field,
)
from fieldrecon.streams import PathStreams


def streams(seed=0):
    return PathStreams.from_seed(seed)


def constant_state(value=0.5):
    return field_from_mode_values(0, PdeSpec((0.0, 1.0), (0.0, 1.0)), [value])


# ---------------------------------------------------------------- validation


def test_renewal_spec_validation():
    with pytest.raises(ValueError):
        draw_path(RenewalSpec(), 15, streams())  # lam = 2 > 15/10
    with pytest.raises(ValueError):
        draw_path(RenewalSpec(), 0, streams())
    with pytest.raises(ValueError):
        RenewalSpec(family="uniform_scaled", lam=3.0, mu=3.0)
    with pytest.raises(ValueError):
        RenewalSpec(family="nope")
    with pytest.raises(ValueError):
        RenewalSpec(lam=0.5, mu=2.0, family="beta_scaled")
    draw_path(RenewalSpec(family="beta_scaled", lam=5.0, mu=3.0), 100, streams())  # fine
    draw_path(RenewalSpec(family="deterministic"), 10, streams())  # zero-variance family is exempt


def test_renewal_spec_serves_every_density():
    spec = RenewalSpec(family="beta_scaled", lam=4.0, mu=4.0)
    for n in (40, 200):
        path = draw_path(spec, n, streams(n))
        assert np.all(np.diff(path.S) <= spec.lam / n + 1e-15)
    with pytest.raises(ValueError):
        draw_path(spec, 39, streams())  # lam = 4 > 39/10


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("none", 0.1)
    with pytest.raises(ValueError):
        NoiseSpec("gaussian", -1.0)
    with pytest.raises(ValueError):
        NoiseSpec("sometimes", 0.1)


# ------------------------------------------------------------- deterministic


def test_deterministic_path_exact_grid():
    path = draw_path(RenewalSpec(family="deterministic"), 10, streams())
    assert path.M == 10
    assert path.T0 == 1.0
    assert np.array_equal(path.S, np.arange(1, 12) / 10)
    assert np.array_equal(path.T, np.arange(1, 12) / 10)
    assert grid_deviation(path) == (0.0, 0.0)


def test_deterministic_path_large_n_boundary():
    # i/n division must keep S_M == 1.0 exactly for the M rule to bind right.
    for n in (160, 8192, 1000):
        path = draw_path(RenewalSpec(family="deterministic"), n, streams())
        assert path.M == n
        assert path.S[path.M - 1] == 1.0


# ----------------------------------------------------------------- increments


def test_uniform_increment_moments():
    rng = np.random.default_rng(42)
    n = 50
    draws = _draw_increments("uniform_scaled", n, 2.0, rng, 10**6)
    assert draws.min() > 0
    assert draws.max() <= 2.0 / n
    se = (2.0 / n) / np.sqrt(12.0) / 1000.0
    assert abs(draws.mean() - 1.0 / n) < 3 * se


def test_beta_increment_moments():
    rng = np.random.default_rng(43)
    n, lam = 80, 4.0
    draws = _draw_increments("beta_scaled", n, lam, rng, 10**6)
    assert draws.min() > 0
    assert draws.max() <= lam / n
    se = draws.std() / 1000.0
    assert abs(draws.mean() - 1.0 / n) < 3 * se


# ------------------------------------------------------------ path invariants


def check_path_invariants(path: SamplePath, spec: RenewalSpec, n: int):
    assert path.M > n / spec.lam - 1
    assert path.S[path.M - 1] <= 1.0 < path.S[path.M]
    assert path.T[path.M - 1] <= path.T0 < path.T[path.M]
    assert np.all(np.diff(path.S) > 0) and np.all(np.diff(path.T) > 0)
    assert np.all(np.diff(path.S) <= spec.lam / n + 1e-15)
    assert np.all(np.diff(path.T) <= spec.mu / n + 1e-15)
    assert 0.0 <= path.slack <= spec.mu / n + 1e-15


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from((50, 500, 5000)),
    family=st.sampled_from(("uniform_scaled", "beta_scaled")),
    policy=st.sampled_from(("last_sample", "jittered")),
    seed=st.integers(0, 2**32 - 1),
)
def test_path_invariants_fuzz(n, family, policy, seed):
    lam = 2.0 if family == "uniform_scaled" else 3.0
    spec = RenewalSpec(family=family, lam=lam, mu=lam)
    path = draw_path(spec, n, streams(seed), policy)
    check_path_invariants(path, spec, n)


def test_temporal_seed_leaves_spatial_untouched():
    spec = RenewalSpec()
    base = np.random.SeedSequence(77).spawn(3)
    mk = lambda i, j: PathStreams(
        spatial=np.random.Generator(np.random.PCG64(base[i])),
        temporal=np.random.Generator(np.random.PCG64(base[j])),
    )
    a = draw_path(spec, 300, mk(0, 1))
    b = draw_path(spec, 300, mk(0, 2))
    assert np.array_equal(a.S, b.S)
    assert not np.array_equal(a.T, b.T)


def test_wald_interval():
    spec, n = RenewalSpec(), 50
    counts = [draw_path(spec, n, streams(s)).M for s in range(2000)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / np.sqrt(len(counts))
    assert n - 1 - 3 * se < mean <= n + spec.lam - 1 + 3 * se


def test_jittered_t0_policy():
    spec = RenewalSpec()
    saw_positive_slack = False
    for seed in range(50):
        path = draw_path(spec, 200, streams(seed), "jittered")
        check_path_invariants(path, spec, 200)
        saw_positive_slack |= path.slack > 0
    assert saw_positive_slack


def test_unknown_policy():
    with pytest.raises(ValueError):
        draw_path(RenewalSpec(), 100, streams(), "whenever")


# ----------------------------------------------------------------- sampling


def test_sample_field_noiseless_exact():
    from fieldrecon.field import evaluate, scenario_field

    state = scenario_field("diffusion")
    path = draw_path(RenewalSpec(), 100, streams(5))
    samples = sample_field(state, path, NoiseSpec())
    direct = np.array(
        [evaluate(state, x, t).real for x, t in zip(path.S[: path.M], path.T[: path.M])]
    )
    assert np.max(np.abs(samples.values - direct)) < 1e-12


def test_sample_field_gaussian_clt():
    state = constant_state(0.5)
    path = draw_path(RenewalSpec(), 100, streams(1))
    rng = np.random.default_rng(99)
    values = np.concatenate(
        [sample_field(state, path, NoiseSpec("gaussian", 0.01), rng).values for _ in range(1000)]
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
        sample_field(FieldState(base.b, base.spec, coeffs, base.roots), path, NoiseSpec())


def test_noise_requires_rng():
    state = constant_state()
    path = draw_path(RenewalSpec(), 50, streams())
    with pytest.raises(ValueError):
        sample_field(state, path, NoiseSpec("gaussian", 0.1), None)


# ------------------------------------------------------------ grid deviation


def test_grid_deviation_bounded_by_one():
    for seed in range(20):
        path = draw_path(RenewalSpec(), 60, streams(seed))
        spatial, temporal = grid_deviation(path)
        assert 0.0 <= spatial <= 1.0
        assert temporal >= 0.0
