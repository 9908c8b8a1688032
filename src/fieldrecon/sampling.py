"""Renewal-process sample paths and noisy field readings.

The sensor walks across [0, 1] with i.i.d. positive spatial increments X and
records at times accumulated from an independent i.i.d. stream N.  Increments
are supported on (0, lam/n] (resp. (0, mu/n]) with mean exactly 1/n, so the
realized locations hug a uniform grid ever tighter as the density n grows.
Neither the locations nor the timestamps are available downstream:
sample_field hands on the M reading values as a bare array, and the estimator
sees only those, the in-support count M and the horizon T0 = T_M, the
last in-support timestamp.

A PathBlock is the one path record: paths of one density, one per row,
padded to a common width.  draw_paths draws the paths of many cells as
PathBlocks.  Each path's generators make the same calls, in the same order,
whatever else is in the block; the scaling, prefix sums, in-support counts,
step checks, horizons and grid deviations are then 2-D passes over the
block.  draw_path, sample_field and grid_deviation are the one-path case of
draw_paths, sample_paths and PathBlock.grid_deviations: draw_path returns a
one-row block, and the other two refuse a block of more than one path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .field import FieldState, evaluate_at_points
from .pde_core import integer, real_number

if TYPE_CHECKING:
    from numpy.random import Generator

FAMILIES = ("uniform_scaled", "beta_scaled", "deterministic")

# First Beta shape parameter; the second follows from the mean constraint
# E[X] = 1/n, i.e. a / (a + b) = 1/lam.
_BETA_SHAPE_A = 2.0

# Float entries per array of a path block; draw_paths puts as many paths in
# one block as their increment chunks fit.
_BLOCK_ELEMENTS = 2**14


@dataclass(frozen=True)
class RenewalSpec:
    """Renewal-process parameters; the density n is supplied per draw."""

    family: str = "uniform_scaled"
    lam: float = 2.0
    mu: float = 2.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown renewal family {self.family!r}")
        lam = real_number("lambda", self.lam)
        mu = real_number("mu", self.mu)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        if not (np.isfinite(lam) and np.isfinite(mu) and lam > 1.0 and mu > 1.0):
            raise ValueError("support parameters lambda and mu must be finite and > 1")
        if self.family == "uniform_scaled" and (lam != 2.0 or mu != 2.0):
            # A uniform increment on (0, lam/n] has mean lam/(2n); only lam = 2
            # meets the unit-mean constraint.  Other supports go via beta_scaled.
            raise ValueError("uniform_scaled requires lambda = mu = 2")

    def check_density(self, n: int) -> None:
        """Refuse a density ``n`` whose increment supports (0, lam/n] and
        (0, mu/n] are not far below the unit span, as the grid argument
        needs; the zero-variance ``deterministic`` family is exempt."""
        widest = max(self.lam, self.mu)
        if self.family != "deterministic" and widest > n / 10:
            raise ValueError(
                f"density n={n} allows max(lambda, mu) up to n/10 = {n / 10!r}, got {widest!r}"
            )


def _check_rows(S: np.ndarray, T: np.ndarray, M: np.ndarray) -> None:
    """The rules of a PathBlock's arrays.

    The arrays come first: float S and T with one row per path, one integer
    M per row, and rows of at least M + 1 entries, all read from dtypes and
    shapes.  Then the defining inequalities: the steps are compared in one
    pass per array, and the few entries each row is bounded by are read one
    by one, which keeps a one-row block cheap."""
    if not all(isinstance(a, np.ndarray) for a in (S, T, M)):
        raise ValueError("a path block's S, T and M must be numpy arrays")
    if M.dtype.kind not in "iu":
        raise ValueError(f"M must be an integer, got {M.dtype} entries")
    if S.dtype.kind != "f" or T.dtype.kind != "f":
        raise ValueError("S and T must be float arrays")
    one_per_path = M.ndim == 1 and M.size > 0 and S.ndim == T.ndim == 2 and len(S) == len(T) == len(M)
    if not one_per_path:
        raise ValueError("a path block holds one or more paths: one row of S and T and one M each")
    counts = M.tolist()
    if min(counts) < 1:
        raise ValueError("at least one in-support sample is required")
    width = max(counts) + 1
    if min(S.shape[1], T.shape[1]) < width:
        raise ValueError("S and T must both hold M+1 entries")
    for name, X in (("locations", S), ("times", T)):
        # A NaN fails every comparison, and a finite last entry bounds all
        # the others.
        steps = X[:, 1:width] > X[:, : width - 1]
        if not steps.all():  # steps past a shorter row's end are not checked
            steps |= np.arange(width - 1) >= M[:, None]
        bounded = all(X[i, 0] > 0 and X[i, m] < np.inf for i, m in enumerate(counts))
        if not (steps.all() and bounded):
            raise ValueError(f"{name} must be finite and strictly increasing from above 0")
    if not all(S[i, m - 1] <= 1.0 < S[i, m] for i, m in enumerate(counts)):
        raise ValueError("require S_M <= 1 < S_{M+1}")


@dataclass(frozen=True, eq=False)
class PathBlock:
    """Paths of one density, one per row: row i holds the realized
    locations S_1..S_{M+1} and times T_1..T_{M+1} of the path with
    in-support count M = M[i] in its first M + 1 columns; later columns are
    padding and are not read.  Each row's horizon T0[i] is its last
    in-support timestamp T_M, derived from the rows.

    The single overshoot sample (index M+1) is retained so the defining
    inequalities can be checked, but it never feeds the estimator.  The three
    arrays are stored as read-only views: a caller's array is not copied,
    and a checked path cannot be edited through the block.  T0 is read-only
    too.
    """

    S: np.ndarray
    T: np.ndarray
    M: np.ndarray
    T0: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        _check_rows(self.S, self.T, self.M)
        for name in ("S", "T", "M"):
            view = getattr(self, name).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        T0 = self.T[np.arange(len(self.M)), self.M - 1]
        T0.flags.writeable = False
        object.__setattr__(self, "T0", T0)

    def grid_deviations(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean squared deviations of every row from the uniform grid it
        mimics, (1/M) sum |S_i - i/M|^2 and (1/M) sum |T_i - i T0/M|^2, as
        two arrays.  Each row is summed over exactly its M entries: numpy's
        pairwise sum depends on the length, so a padded row would change
        bits."""
        counts = self.M.tolist()
        idx = np.arange(1.0, max(counts) + 1.0)
        m_col = self.M[:, None]
        work = idx / m_col
        np.subtract(self.S[:, : len(idx)], work, out=work)
        np.square(work, out=work)
        spatial = np.array([row[:m].sum() for row, m in zip(work, counts)]) / self.M
        np.multiply(idx, self.T0[:, None], out=work)
        work /= m_col
        np.subtract(self.T[:, : len(idx)], work, out=work)
        np.square(work, out=work)
        return spatial, np.array([row[:m].sum() for row, m in zip(work, counts)]) / self.M


@dataclass(frozen=True)
class NoiseSpec:
    """Additive zero-mean measurement noise with variance sigma^2."""

    family: str = "none"
    variance: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("none", "gaussian", "uniform"):
            raise ValueError(f"unknown noise family {self.family!r}")
        object.__setattr__(self, "variance", real_number("variance", self.variance))
        if not np.isfinite(self.variance) or self.variance < 0:
            raise ValueError("variance must be finite and non-negative")
        if self.family == "none" and self.variance != 0.0:
            raise ValueError("noise family 'none' requires zero variance")
        if self.family == "uniform" and not np.isfinite(3.0 * self.variance):
            # _draw_noise draws on [-h, h] with h = sqrt(3 sigma^2).
            raise ValueError(f"uniform noise variance {self.variance!r} overflows 3*variance")

    @property
    def draws(self) -> bool:
        """Whether readings take random noise, and so need a generator."""
        return self.family != "none" and self.variance > 0.0


def _draw_increments(
    family: str,
    n: int,
    bound_param: float,
    rows: Iterable[tuple[Generator, np.ndarray]],
    block: np.ndarray,
) -> None:
    """Fill every (generator, row) pair's row, a view into ``block``, with
    its generator's raw draws, then scale the whole block into increments."""
    if family == "uniform_scaled":
        for gen, row in rows:
            gen.random(out=row)
        np.subtract(1.0, block, out=block)  # in (0, 1]
    elif family == "beta_scaled":
        shape_b = _BETA_SHAPE_A * (bound_param - 1.0)
        for gen, row in rows:
            row[:] = gen.beta(_BETA_SHAPE_A, shape_b, size=len(row))
    else:
        raise ValueError(f"family {family!r} has no stochastic increments")
    block *= bound_param / n


def _chunk(n: int) -> int:
    """Increments drawn at a time for one path's locations."""
    return n + max(16, 4 * int(math.sqrt(n)))


def _draw_prefix_sums(
    family: str, n: int, lam: float, gens: Sequence[Generator]
) -> np.ndarray:
    """Row i: prefix sums of gens[i]'s increments, drawn a chunk at a time
    until they pass 1."""
    chunk = _chunk(n)
    sums = np.empty((len(gens), chunk))
    _draw_increments(family, n, lam, zip(gens, sums), sums)
    sums.cumsum(axis=1, out=sums)
    while (short := (sums[:, -1] <= 1.0).nonzero()[0]).size:
        # Rows still at or below 1 draw another chunk; the others are
        # padded with +inf.
        part = np.empty((short.size, chunk))
        _draw_increments(family, n, lam, zip([gens[i] for i in short], part), part)
        part.cumsum(axis=1, out=part)
        part += sums[short, -1:]
        grown = np.full((len(gens), chunk), np.inf)
        grown[short] = part
        sums = np.concatenate((sums, grown), axis=1)
    return sums


def _draw_block(
    spec: RenewalSpec, n: int, gens: Sequence[tuple[Generator, Generator]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unchecked S, T and M of one path per (spatial, temporal) pair."""
    if spec.family == "deterministic":
        S = np.tile(np.arange(1, n + 2) / n, (len(gens), 1))
        T = S.copy()
        M = np.full(len(gens), n)
    else:
        S = _draw_prefix_sums(spec.family, n, spec.lam, [spatial for spatial, _ in gens])
        M = (S > 1.0).argmax(axis=1)  # the first sum past 1 is S_{M+1}
        counts = M.tolist()
        T = np.zeros((len(gens), max(counts) + 1))
        temporal = [(gen, row[: m + 1]) for (_, gen), row, m in zip(gens, T, counts)]
        _draw_increments(spec.family, n, spec.mu, temporal, T)
        T.cumsum(axis=1, out=T)
    return S, T, M


def draw_paths(
    spec: RenewalSpec, n: int, streams: Iterable[tuple[Generator, Generator]]
) -> Iterator[PathBlock]:
    """The paths of many cells at average density ``n``, a PathBlock at a
    time, in the order of ``streams``: each cell's (spatial, temporal)
    generators, as ``cell_streams(cells, 2)`` yields them.  The arguments
    are checked at the call; the blocks are drawn as they are reached.

    A path's locations use only its spatial and its timestamps only its
    temporal generator, so replacing the temporal generator cannot change
    the spatial path, bit for bit.  M is fixed by S_M <= 1 < S_{M+1}, and
    the horizon is T0 = T_M.
    """
    n = integer("density n", n)
    if n < 1:
        raise ValueError(f"density n must be a positive integer, got {n!r}")
    spec.check_density(n)
    rows = max(1, _BLOCK_ELEMENTS // _chunk(n))
    streams = iter(streams)
    return (
        PathBlock(*_draw_block(spec, n, gens))
        for gens in iter(lambda: list(islice(streams, rows)), [])
    )


def draw_path(spec: RenewalSpec, n: int, streams: tuple[Generator, Generator]) -> PathBlock:
    """One realization of the sampling process at average density ``n``
    from the (spatial, temporal) generator pair ``streams``: the one-row
    PathBlock that draw_paths draws from it."""
    return next(draw_paths(spec, n, [streams]))


def _draw_noise(noise: NoiseSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    if not noise.draws:
        return np.zeros(count)
    if noise.family == "gaussian":
        return rng.normal(0.0, np.sqrt(noise.variance), size=count)
    # Centered uniform with variance sigma^2 forces half-width sqrt(3 sigma^2).
    half = np.sqrt(3.0 * noise.variance)
    return rng.uniform(-half, half, size=count)


def _one_path(path: PathBlock) -> None:
    if len(path.M) != 1:
        raise ValueError(f"expected a block of one path, got {len(path.M)} paths")


def sample_field(
    state: FieldState, path: PathBlock, noise: NoiseSpec, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Noisy readings g(S_i, T_i) + w_i at the M in-support samples of the
    one path of ``path``, as a read-only float vector; the path itself stays
    behind.

    The noise generator must be a stream of its own; it is never the one that
    produced the path, so readings stay independent of the sampling process.
    """
    _one_path(path)
    ((_, values),) = sample_paths(state, [path], noise, [rng])
    return values


def sample_paths(
    state: FieldState,
    blocks: Iterable[PathBlock],
    noise: NoiseSpec,
    rngs: Iterable[np.random.Generator | None],
) -> Iterator[tuple[float, np.ndarray]]:
    """The horizon T0 and the readings of every path of ``blocks``, in order,
    each read with the next noise generator of ``rngs`` (None once they run
    out).  A path is read only when it is reached."""
    rngs = iter(rngs)
    for block in blocks:
        for xs, ts, m, t0 in zip(block.S, block.T, block.M.tolist(), block.T0.tolist()):
            rng = next(rngs, None)
            if noise.draws and rng is None:
                raise ValueError("a noise RNG is required for stochastic noise")
            values = evaluate_at_points(state, xs[:m], ts[:m]) + _draw_noise(noise, m, rng)
            values.flags.writeable = False
            yield t0, values


def grid_deviation(path: PathBlock) -> tuple[float, float]:
    """PathBlock.grid_deviations of the one path of ``path``, as two floats."""
    _one_path(path)
    spatial, temporal = path.grid_deviations()
    return float(spatial[0]), float(temporal[0])
