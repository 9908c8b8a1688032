"""Renewal-process sample paths and noisy field readings.

The sensor walks across [0, 1] with i.i.d. positive spatial increments X and
records at times accumulated from an independent i.i.d. stream N.  Increments
are supported on (0, lam/n] (resp. (0, mu/n]) with mean exactly 1/n, so the
realized locations hug a uniform grid ever tighter as the density n grows.
Neither the locations nor the timestamps are available downstream:
sample_field hands on the M reading values as a bare array, and the estimator
sees only those, the in-support count M and the horizon T0.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .field import FieldState, evaluate_at_points
from .pde_core import require_real
from .streams import PathStreams

FAMILIES = ("uniform_scaled", "beta_scaled", "deterministic")
T0_POLICIES = ("last_sample", "jittered")

# First Beta shape parameter; the second follows from the mean constraint
# E[X] = 1/n, i.e. a / (a + b) = 1/lam.
_BETA_SHAPE_A = 2.0


@dataclass(frozen=True)
class RenewalSpec:
    """Renewal-process parameters; the density n is supplied per draw."""

    family: str = "uniform_scaled"
    lam: float = 2.0
    mu: float = 2.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown renewal family {self.family!r}")
        require_real("lam", self.lam)
        require_real("mu", self.mu)
        lam, mu = self.lam, self.mu
        if not (np.isfinite(lam) and np.isfinite(mu) and lam > 1.0 and mu > 1.0):
            raise ValueError("support parameters lam and mu must be finite and > 1")
        if self.family == "uniform_scaled" and (lam != 2.0 or mu != 2.0):
            # A uniform increment on (0, lam/n] has mean lam/(2n); only lam = 2
            # meets the unit-mean constraint.  Other supports go via beta_scaled.
            raise ValueError("uniform_scaled requires lam = mu = 2")


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Realized locations S_1..S_{M+1} and times T_1..T_{M+1}.

    The single overshoot sample (index M+1) is retained so the defining
    inequalities can be asserted, but it never feeds the estimator.  S and T
    are stored as read-only views: a caller's float array is not copied.
    """

    S: np.ndarray
    T: np.ndarray
    M: int
    T0: float

    def __post_init__(self) -> None:
        if isinstance(self.M, bool) or not isinstance(self.M, numbers.Integral):
            raise ValueError(f"M must be an integer, got {self.M!r}")
        require_real("T0", self.T0)
        S = np.asarray(self.S, dtype=float).view()
        T = np.asarray(self.T, dtype=float).view()
        if self.M < 1:
            raise ValueError("at least one in-support sample is required")
        if S.shape != (self.M + 1,) or T.shape != (self.M + 1,):
            raise ValueError("S and T must both hold M+1 entries")
        # One fused pass per array; a NaN fails every comparison, and a
        # finite last entry bounds all the others.
        if not (S[0] > 0 and (S[1:] > S[:-1]).all() and S[-1] < np.inf):
            raise ValueError("locations must be finite and strictly increasing from above 0")
        if not (T[0] > 0 and (T[1:] > T[:-1]).all() and T[-1] < np.inf):
            raise ValueError("times must be finite and strictly increasing from above 0")
        if not (S[self.M - 1] <= 1.0 < S[self.M]):
            raise ValueError("require S_M <= 1 < S_{M+1}")
        if not (T[self.M - 1] <= self.T0 < T[self.M]):
            raise ValueError("require T_M <= T0 < T_{M+1}")
        S.flags.writeable = False
        T.flags.writeable = False
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "T", T)

    @property
    def slack(self) -> float:
        """J_M = T0 - T_M, the horizon slack past the last in-support sample."""
        return self.T0 - float(self.T[self.M - 1])


@dataclass(frozen=True)
class NoiseSpec:
    """Additive zero-mean measurement noise with variance sigma^2."""

    family: str = "none"
    variance: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("none", "gaussian", "uniform"):
            raise ValueError(f"unknown noise family {self.family!r}")
        require_real("variance", self.variance)
        if not np.isfinite(self.variance) or self.variance < 0:
            raise ValueError("variance must be finite and non-negative")
        if self.family == "none" and self.variance != 0.0:
            raise ValueError("noise family 'none' requires zero variance")


def _draw_increments(
    family: str, n: int, bound_param: float, gen: np.random.Generator, count: int
) -> np.ndarray:
    scale = bound_param / n
    if family == "uniform_scaled":
        u = gen.random(count)
        np.subtract(1.0, u, out=u)  # in (0, 1]
    elif family == "beta_scaled":
        u = gen.beta(_BETA_SHAPE_A, _BETA_SHAPE_A * (bound_param - 1.0), size=count)
    else:
        raise ValueError(f"family {family!r} has no stochastic increments")
    u *= scale
    return u


def _draw_prefix_sums(family: str, n: int, lam: float, gen: np.random.Generator) -> np.ndarray:
    """Prefix sums of increments, drawn in blocks until they pass 1."""
    chunk = n + max(16, 4 * int(np.sqrt(n)))
    parts: list[np.ndarray] = []
    total = 0.0
    while True:
        sums = _draw_increments(family, n, lam, gen, chunk)
        np.cumsum(sums, out=sums)
        if total:  # adding 0.0 to the first block would change no bit
            sums += total
        parts.append(sums)
        total = float(sums[-1])
        if total > 1.0:
            break
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def draw_path(
    spec: RenewalSpec, n: int, rng: PathStreams, t0_policy: str = "last_sample"
) -> SamplePath:
    """One realization of the sampling process at average density ``n``.

    M is fixed by S_M <= 1 < S_{M+1}.  The horizon follows ``t0_policy``:
    ``last_sample`` takes T0 = T_M (zero slack), ``jittered`` places T0
    uniformly inside [T_M, T_{M+1}).
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"density n must be a positive integer, got {n!r}")
    n = int(n)
    if spec.family != "deterministic" and max(spec.lam, spec.mu) > n / 10:
        # Support parameters must stay far below n for the grid argument
        # to bite; the zero-variance family is exempt.
        raise ValueError("lam and mu must not exceed n/10")
    if t0_policy not in T0_POLICIES:
        raise ValueError(f"unknown T0 policy {t0_policy!r}")
    if spec.family == "deterministic":
        m_count = n
        idx = np.arange(1, m_count + 2)
        S = idx / n
        T = idx / n
    else:
        S = _draw_prefix_sums(spec.family, n, spec.lam, rng.spatial)
        m_count = int(np.searchsorted(S, 1.0, side="right"))
        S = S[: m_count + 1]
        T = _draw_increments(spec.family, n, spec.mu, rng.temporal, m_count + 1)
        np.cumsum(T, out=T)
    if t0_policy == "last_sample":
        t0 = float(T[m_count - 1])
    else:
        u = rng.temporal.random()  # in [0, 1), so T0 < T_{M+1} strictly
        t0 = float(T[m_count - 1] + u * (T[m_count] - T[m_count - 1]))
    return SamplePath(S=S, T=T, M=m_count, T0=t0)


def _draw_noise(noise: NoiseSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    if noise.family == "none" or noise.variance == 0.0:
        return np.zeros(count)
    if noise.family == "gaussian":
        return rng.normal(0.0, np.sqrt(noise.variance), size=count)
    # Centered uniform with variance sigma^2 forces half-width sqrt(3 sigma^2).
    half = np.sqrt(3.0 * noise.variance)
    return rng.uniform(-half, half, size=count)


def sample_field(
    state: FieldState, path: SamplePath, noise: NoiseSpec, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Noisy readings g(S_i, T_i) + w_i at the path's M in-support samples,
    as a read-only float vector; the path itself stays behind.

    The noise generator must be a stream of its own; it is never the one that
    produced the path, so readings stay independent of the sampling process.
    """
    if noise.family != "none" and rng is None:
        raise ValueError("a noise RNG is required for stochastic noise")
    xs = path.S[: path.M]
    ts = path.T[: path.M]
    clean = evaluate_at_points(state, xs, ts)
    values = clean + _draw_noise(noise, path.M, rng)
    values.flags.writeable = False
    return values


def grid_deviation(path: SamplePath) -> tuple[float, float]:
    """Mean squared deviations of the path from the uniform grid it mimics:
    (1/M) sum |S_i - i/M|^2 and (1/M) sum |T_i - i T0/M|^2."""
    m_count = path.M
    idx = np.arange(1.0, m_count + 1.0)
    work = idx / m_count
    np.subtract(path.S[:m_count], work, out=work)
    np.square(work, out=work)
    spatial = float(work.sum()) / m_count
    np.multiply(idx, path.T0, out=work)
    work /= m_count
    np.subtract(path.T[:m_count], work, out=work)
    np.square(work, out=work)
    return spatial, float(work.sum()) / m_count
