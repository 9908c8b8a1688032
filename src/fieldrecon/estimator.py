"""Least-squares recovery of modal coefficients from unaware samples.

The readings g_s arrive as a bare real vector (sampling.sample_field); the
estimator never sees where or when they were taken.  It pretends they lie on
the uniform grid (i/M, i*T0/M) and solves min_a ||g_s - Y0 a||^2 over the
stacked modal coefficients.  Y0 is known from (M, T0) alone.  The estimator
only solves: it returns the estimated field, the mode values a_k(0) for
k = -b..b that distortion scores by Parseval, beside the stacked
coefficients they come from and its design's kappa.  It never receives the
true field and leaves all scoring to the sweep harness (experiments).  It is
the one home of the map from its solution to mode values: each harmonic's
m coefficients summed, in root order.

It works in real arithmetic.  The readings are real, and the complex columns
of Y0 come in conjugate pairs, (k, r) and (-k, conj r) because p and q have
real coefficients, plus self-conjugate columns for the real roots at k = 0.
Replacing each pair (c, conj c) by (sqrt(2) Re c, sqrt(2) Im c) multiplies Y0
by a unitary matrix, so the real design (field.ConjugateLayout) has the same
singular values: kappa, the RANK_RTOL gate and the trace identities read the
same.  The unique complex minimiser is conjugate-symmetric, so it is the
image of the real one under the same map.

Y0 is never formed.  The grid's power tables reduce the problem to a
smaller system [K | d] (field.GridTables.reduce) with Y0 = P K and
d = P^T g_s for a matrix P with orthonormal columns.  So ||g_s - Y0 a||^2
and ||d - K a||^2 differ by the constant ||(I - P P^T) g_s||^2 and share
their minimiser, and Y0^T Y0 = K^T K gives both the same singular values
and Frobenius norm: the rest of the estimator reads K in place of Y0.

A sweep solves many such problems, each small enough that numpy's fixed
cost per call outweighs LAPACK's arithmetic, so the solve works on stacks
of them (reconstruct_stack; reconstruct is its one-member case), as
GridTables.reduce returns them.  Three stacked LAPACK calls finish every
member:
- a Householder QR of [K | d] (np.linalg.qr, mode "r"), whose triangular
  factor [R | e] holds R = Q^T K and e = (Q^T d)[:c];
- an SVD of the c x c factor R (values only).  Q is orthogonal, so these
  are K's singular values, read by the RANK_RTOL gate and kappa;
- a back-substitution R a = e (np.linalg.solve, whose partial pivoting
  never swaps the rows of a triangular matrix), which gives the minimiser.
Householder QR is backward stable: the solution is the exact minimiser for
a system within O(eps) of K, as with an SVD-based solver, and the SVD of R
is as accurate as one of K.  The solve never forms the normal equations:
the Gram matrix squares the condition number, and these designs (kappa up
to 1e10) are exactly the kind that punish that.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientSamples, RankDeficient
from .field import MAX_GRID_SIZE, check_horizons, conjugate_layout, grid_tables
from .pde_core import HarmonicRoots, integer

# Singular values at or below this fraction of the largest are treated as zero
# and the solve refuses with RankDeficient rather than returning garbage.  The
# second-order scenarios run at sigma_min/sigma_max near 1.2e-5 on healthy
# paths, so 4e-6 keeps a 3x margin while rejecting the near-singular path
# geometries (two harmonics colliding on the sampling diagonal) whose
# amplification would otherwise dominate every distortion average.
RANK_RTOL = 4e-6


@dataclass(frozen=True)
class DesignMatrix:
    """The uniform-grid design (i/M, i*t0/M), i = 1..M, of ``rows`` = M
    readings; its read-only M x c ``entries`` (field.ConjugateLayout columns)
    are materialized from the grid's power tables only when read.

    No estimator call takes it.  It and build_design_matrix stay only as the
    benchmark's hook target (perfbench/tracing.py HOOKS, RESULT_COUNTS), with
    their contract tests, and go together with those hooks.
    """

    roots: tuple[HarmonicRoots, ...]
    rows: int
    t0: float  # horizon of the grid's last row

    @functools.cached_property
    def entries(self) -> np.ndarray:
        entries = grid_tables(self.roots, [self.rows], [self.t0]).materialize()
        entries.flags.writeable = False
        return entries


def build_design_matrix(roots_per_k: Sequence[HarmonicRoots], m_count: int, t0: float) -> DesignMatrix:
    """The DesignMatrix of M = ``m_count`` readings, an integer in
    [0, MAX_GRID_SIZE], up to horizon ``t0``, whose finiteness is checked
    when the entries are read."""
    m_count = integer("the sample count M", m_count, 0, MAX_GRID_SIZE)
    return DesignMatrix(roots=tuple(roots_per_k), rows=m_count, t0=float(t0))


def _as_values(values) -> np.ndarray:
    values = np.asarray(values)
    if values.ndim != 1 or values.dtype.kind not in "iuf":
        raise ValueError("sample values must form a real vector")
    if not np.isfinite(values).all():
        raise ValueError("sample values must be finite")
    return values


def _insufficient(rows: int, cols: int) -> InsufficientSamples | None:
    if rows < cols:
        return InsufficientSamples(f"{rows} samples cannot determine {cols} coefficients")
    return None


def _solve(augmented: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[RankDeficient | None]]:
    """Least-squares solutions in the column layout and singular values of a
    stack of systems [K | d], each with at least as many rows as K has
    columns, and each member's refusal: RankDeficient when its sigma_min <=
    RANK_RTOL * sigma_max, else None.  A refused member's solution is
    meaningless.
    """
    cols = augmented.shape[2] - 1
    r = np.linalg.qr(augmented, mode="r")
    factor = r[:, :cols, :cols]
    singular = np.linalg.svd(factor, compute_uv=False)
    refusals = [_rank_refusal(s[0], s[-1]) for s in singular.tolist()]
    for member, refusal in enumerate(refusals):
        if refusal is not None:  # a singular factor would fail the whole solve
            factor[member] = np.eye(cols)
    return np.linalg.solve(factor, r[:, :cols, cols:])[..., 0], singular, refusals


def _rank_refusal(largest: float, smallest: float) -> RankDeficient | None:
    if largest == 0.0:
        return RankDeficient("the design matrix is zero")
    if smallest <= RANK_RTOL * largest:
        return RankDeficient(f"singular value ratio {smallest / largest:.3g} below the rank tolerance")
    return None


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Stacked complex coefficients, the mode values a_k(0) for k = -b..b
    they give (the field estimate), and the design's kappa."""

    a_hat: np.ndarray
    modes: np.ndarray
    kappa: float


def reconstruct(roots_per_k: Sequence[HarmonicRoots], t0: float, values) -> ReconstructionResult:
    """Full estimation pass on the uniform grid (i/M, i*t0/M) of M = len(values)
    readings: the rank-gated minimiser a_hat of ||values - Y0 a||^2 as stacked
    complex coefficients, its mode values at t = 0, and
    kappa = (sigma_max / sigma_min)^2.

    The one-member case of reconstruct_stack: its outcome, returned or raised.
    """
    (outcome,) = reconstruct_stack(roots_per_k, [t0], [values])
    if not isinstance(outcome, ReconstructionResult):
        raise outcome
    return outcome


def reconstruct_stack(
    roots_per_k: Sequence[HarmonicRoots], t0s: Sequence[float], values: Sequence[np.ndarray]
) -> list[ReconstructionResult | InsufficientSamples | RankDeficient]:
    """reconstruct on the uniform grid (i/M, i*t0/M) of every horizon t0 of
    ``t0s``, with the M = len(values[i]) readings ``values[i]`` on grid i,
    through one set of stacked numpy calls.

    Each member's outcome is its ReconstructionResult or the refusal that
    reconstruct raises for it alone (InsufficientSamples, RankDeficient);
    one member's refusal never touches another.  The grids share one block
    length (field.grid_tables), set by the longest, so a member's result
    depends on its stack at rounding level (about 1e-11 relative).

    ValueError unless there is one finite real vector of readings and one
    finite horizon per grid (field.check_horizons), whether or not any
    member is solvable.
    """
    roots = tuple(roots_per_k)
    values = [_as_values(v) for v in values]
    m_counts = [len(v) for v in values]
    cols = sum(hr.m for hr in roots)
    short = [_insufficient(m, cols) for m in m_counts]
    if all(short):  # no tables to check the horizons on the way
        check_horizons(t0s, len(values))
        return short
    solution, singular, refusals = _solve(grid_tables(roots, m_counts, t0s).reduce(values))
    a_hat = conjugate_layout(roots).to_complex(solution)
    modes = a_hat.reshape(len(a_hat), len(roots), -1).sum(axis=2)
    return [
        too_few or refusal or ReconstructionResult(a_hat=est, modes=mode, kappa=(s[0] / s[-1]) ** 2)
        for est, mode, s, too_few, refusal in zip(a_hat, modes, singular.tolist(), short, refusals)
    ]


@dataclass(frozen=True)
class ConditionReport:
    """Trace identities and the two inequality flags for a design matrix."""

    kappa: float
    trace: float
    trace_inverse: float
    polya_szego_ok: bool
    trace_lower_ok: bool


def _trace_floor_constant(roots: Sequence[HarmonicRoots], t0: float) -> float:
    """Closed-form constant under the uniform-grid trace: for each root,
    exp(2 Re r) * integral_0^T0 exp(2 Re r t) dt, summed over all roots."""
    total = 0.0
    for hr in roots:
        for r in hr.roots:
            rho = r.real
            integral = t0 if rho == 0.0 else np.expm1(2.0 * rho * t0) / (2.0 * rho)
            total += np.exp(2.0 * rho) * integral
    return total


def condition_diagnostics(roots: Sequence[HarmonicRoots], m_count: int, t0: float) -> ConditionReport:
    """Conditioning of Y0^H Y0 on the uniform grid (i/M, i*t0/M), i = 1..M,
    plus the two deterministic inequality checks.

    ``polya_szego_ok``: tr(G) tr(G^-1) <= (m(2b+1))^2/4 * (kappa + 1/kappa)^2.
    ``trace_lower_ok``: tr(G) >= M * C where C is the closed-form floor above.
    Both inequalities provably hold for full-rank uniform-grid matrices with a
    horizon at most about the unit span; a failure flags a numerical problem,
    not physics.  ValueError unless t0 is a finite horizon (field.check_horizons)
    and M is an integer in [0, MAX_GRID_SIZE], whether or not M can
    determine the design.
    """
    (t0,) = check_horizons([t0], 1).tolist()
    m_count = integer("the sample count M", m_count, 0, MAX_GRID_SIZE)
    cols = sum(hr.m for hr in roots)
    if refusal := _insufficient(m_count, cols):
        raise refusal
    # The reduced system K has the singular values and the Frobenius norm of Y0.
    augmented = grid_tables(roots, [m_count], [t0]).reduce([np.zeros(m_count)])
    _, singular, (refusal,) = _solve(augmented)
    if refusal is not None:
        raise refusal
    eigenvalues = singular[0] ** 2
    trace = float(np.sum(augmented[0, :, :-1] ** 2))
    trace_inverse = float(np.sum(1.0 / eigenvalues))
    kappa = float(eigenvalues[0] / eigenvalues[-1])
    ps_bound = cols**2 / 4.0 * (kappa + 1.0 / kappa) ** 2
    floor = m_count * _trace_floor_constant(roots, t0)
    return ConditionReport(
        kappa=kappa,
        trace=trace,
        trace_inverse=trace_inverse,
        polya_szego_ok=bool(trace * trace_inverse <= ps_bound * (1.0 + 1e-9)),
        trace_lower_ok=bool(trace >= floor * (1.0 - 1e-9)),
    )
