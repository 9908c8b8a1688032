"""Least-squares recovery of modal coefficients from unaware samples.

The readings g_s arrive as a bare real vector (sampling.sample_field); the
estimator never sees where or when they were taken.  It pretends they lie on
the uniform grid (i/M, i*T0/M) and solves min_a ||g_s - Y0 a||^2 over the
stacked modal coefficients.  Y0 is known from (M, T0) alone.

It works in real arithmetic.  The readings are real, and the complex columns
of Y0 come in conjugate pairs, (k, r) and (-k, conj r) because p and q have
real coefficients, plus self-conjugate columns for the real roots at k = 0.
Replacing each pair (c, conj c) by (sqrt(2) Re c, sqrt(2) Im c) multiplies Y0
by a unitary matrix, so the real design (field.ConjugateLayout) has the same
singular values: kappa, the RANK_RTOL gate and the trace identities read the
same.  The unique complex minimiser is conjugate-symmetric, so it is the
image of the real one under the same map.

Y0 is never formed.  On the grid every column is a geometric sequence, so
with i - 1 = B*h + l the block h of B rows is L E_h: one (B x c) power table
L = field.GridTables.low, with each column scaled by one number, which E_h
applies (a complex scalar per conjugate pair, a real one per self-conjugate
column).  One Householder QR, L = Q_L R_L, then turns the M x c problem into
an (H c + r) x c one: the stacked R_L E_h for the H full blocks, with data
Q_L^T g_h, over the r < B rows of the last, partial block as they are
(DesignMatrix.reduce).  Y0 is that system K times a matrix with orthonormal
columns, blockdiag(Q_L, .., Q_L, I_r), so both have the same minimiser, the
same singular values and the same Frobenius norm, and the rest of the
estimator reads K in place of Y0.  With B about sqrt(M c), K has about
2 sqrt(M c) rows, and the work falls from O(M c^2) to O(M c + sqrt(M c) c^2).

The solve is one LAPACK least-squares call (gelsd, behind np.linalg.lstsq)
on K: a Householder QR with Q^T applied to the data, then an SVD of the
small triangular factor.  Like the reduction, it stays backward stable and
still yields the singular values that the RANK_RTOL gate and kappa read.
It does not go through the normal equations: the Gram matrix squares the
condition number, and these design matrices (kappa up to 1e10) are exactly
the kind that punish that.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientSamples, RankDeficient
from .field import ConjugateLayout, GridTables, conjugate_layout, grid_tables
from .pde_core import HarmonicRoots

# Singular values at or below this fraction of the largest are treated as zero
# and the solve refuses with RankDeficient rather than returning garbage.  The
# second-order scenarios run at sigma_min/sigma_max near 1.2e-5 on healthy
# paths, so 4e-6 keeps a 3x margin while rejecting the near-singular path
# geometries (two harmonics colliding on the sampling diagonal) whose
# amplification would otherwise dominate every distortion average.
RANK_RTOL = 4e-6


class DesignMatrix:
    """Real basis values at the estimation points, one row per sample.

    Columns follow the conjugate layout of ``roots`` (field.ConjugateLayout):
    conjugate pair i of stacked complex columns (p, q) sits at columns 2i and
    2i+1 as sqrt(2) Re c_p and sqrt(2) Im c_p, and the self-conjugate columns
    (real roots at k = 0) follow all pairs.  ``layout`` maps a real solution
    back to the stacked complex coefficients of FieldState.

    A design holds either its ``entries`` (basis values at any points) or, on
    the uniform grid, the grid's power tables (``grid``); then ``entries`` is
    materialized only when read, and ``reduce`` works from the tables.
    Entries are stored as a read-only view: a caller's float array is not
    copied.
    """

    def __init__(
        self,
        *,
        roots: Sequence[HarmonicRoots],
        t0: float,  # horizon of the grid's last row
        entries: np.ndarray | None = None,
        grid: GridTables | None = None,
    ) -> None:
        self.roots = tuple(roots)
        self.t0 = t0
        self.grid = grid
        self.cols = sum(hr.m for hr in self.roots)
        if (entries is None) == (grid is None):
            raise ValueError("a design holds either entries or grid tables")
        if grid is not None:
            if grid.low.shape[1] != self.cols:
                raise ValueError("grid tables disagree with the root layout")
            self.rows = grid.m_count
            return
        if np.iscomplexobj(entries):
            raise ValueError("design entries must be real (see field.basis_matrix)")
        entries = np.asarray(entries, dtype=float).view()
        if entries.ndim != 2 or entries.shape[1] != self.cols:
            raise ValueError("entry matrix shape disagrees with the root layout")
        entries.flags.writeable = False
        # Seeds the cached property below, which then never runs.
        self.entries = entries
        self.rows = entries.shape[0]

    @functools.cached_property
    def entries(self) -> np.ndarray:
        entries = self.grid.materialize()
        entries.flags.writeable = False
        return entries

    @property
    def m(self) -> int:
        return self.roots[0].m

    @property
    def layout(self) -> ConjugateLayout:
        return conjugate_layout(self.roots)

    def reduce(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A system (K, d) with the least-squares minimiser, singular values and
        Frobenius norm of (entries, values).

        K = P^T entries and d = P^T values for a matrix P with orthonormal
        columns and entries = P K, so ||values - entries a||^2 differs from
        ||d - K a||^2 by a constant.  From grid tables, P is
        blockdiag(Q_L, .., Q_L, I_r) of the module docstring; explicit
        entries are their own reduction.
        """
        if self.grid is None:
            return self.entries, values
        grid = self.grid
        full, tail = divmod(self.rows, grid.block)
        q, r = np.linalg.qr(grid.low)
        k = len(r)  # min(B, c), which is c whenever a block is full
        system = np.empty((full * k + tail, self.cols))
        data = np.empty(len(system))
        grid.scale(r, slice(full), system[: full * k].reshape(full, k, self.cols))
        if tail:
            grid.scale(grid.low[:tail], slice(full, full + 1), system[full * k :][None])
        np.matmul(values[: full * grid.block].reshape(full, grid.block), q, out=data[: full * k].reshape(full, k))
        data[full * k :] = values[full * grid.block :]
        return system, data


def build_design_matrix(roots_per_k: Sequence[HarmonicRoots], m_count: int, t0: float) -> DesignMatrix:
    """Design matrix on the uniform grid (i/M, i*t0/M), i = 1..M.

    The sample count and the horizon are all the estimator knows of where
    and when the readings were taken.
    """
    roots = tuple(roots_per_k)
    return DesignMatrix(roots=roots, t0=float(t0), grid=grid_tables(roots, m_count, t0))


def _as_values(values) -> np.ndarray:
    values = np.asarray(values)
    if values.ndim != 1 or np.iscomplexobj(values):
        raise ValueError("sample values must form a real vector")
    return values


def _solve(design: DesignMatrix, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real least-squares solution in the design's column layout, the design's
    singular values and its reduced system K.

    InsufficientSamples when the design has fewer rows than columns,
    RankDeficient when its sigma_min <= RANK_RTOL * sigma_max.
    """
    if len(values) != design.rows:
        raise ValueError("one value per design-matrix row required")
    if design.rows < design.cols:
        raise InsufficientSamples(f"{design.rows} samples cannot determine {design.cols} coefficients")
    system, data = design.reduce(values)
    # rcond=None truncates below eps * max(rows, c) relative, far under
    # RANK_RTOL, so every solve the gate accepts is a full-rank one.
    solution, _, _, singular = np.linalg.lstsq(system, data, rcond=None)
    if singular[0] == 0.0:
        raise RankDeficient("the design matrix is zero")
    if singular[-1] <= RANK_RTOL * singular[0]:
        raise RankDeficient(
            f"singular value ratio {singular[-1] / singular[0]:.3g} below the rank tolerance"
        )
    return solution, singular, system


def distortion(estimated_k0: Sequence[complex], true_k0: Sequence[complex]) -> float:
    """Sum_k |est_k - true_k|^2; by Parseval, the integrated squared error at t = 0."""
    est = np.asarray(estimated_k0, dtype=complex)
    true = np.asarray(true_k0, dtype=complex)
    if est.shape != true.shape:
        raise ValueError("coefficient vectors must have equal length")
    return float(np.sum(np.abs(est - true) ** 2))


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Stacked estimate, its distortion at t = 0, and the design's kappa."""

    a_hat: np.ndarray
    distortion: float
    kappa: float


def reconstruct(design: DesignMatrix, values, true_k0: Sequence[complex]) -> ReconstructionResult:
    """Full estimation pass: the rank-gated minimiser a_hat of ||values - Y0 a||^2
    as stacked complex coefficients, scored per harmonic at t = 0."""
    solution, singular, _ = _solve(design, _as_values(values))
    a_hat = design.layout.to_complex(solution)
    a_hat_k0 = a_hat.reshape(len(design.roots), design.m).sum(axis=1)
    return ReconstructionResult(
        a_hat=a_hat,
        distortion=distortion(a_hat_k0, true_k0),
        kappa=float((singular[0] / singular[-1]) ** 2),
    )


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


def condition_diagnostics(design: DesignMatrix) -> ConditionReport:
    """Conditioning of Y0^H Y0 plus the two deterministic inequality checks.

    ``polya_szego_ok``: tr(G) tr(G^-1) <= (m(2b+1))^2/4 * (kappa + 1/kappa)^2.
    ``trace_lower_ok``: tr(G) >= M * C where C is the closed-form floor above.
    Both inequalities provably hold for full-rank uniform-grid matrices with a
    horizon at most about the unit span; a failure flags a numerical problem,
    not physics.
    """
    # The reduced system K has the singular values and the Frobenius norm of Y0.
    _, singular, system = _solve(design, np.zeros(design.rows))
    eigenvalues = singular**2
    trace = float(np.sum(system**2))
    trace_inverse = float(np.sum(1.0 / eigenvalues))
    kappa = float(eigenvalues[0] / eigenvalues[-1])
    cols = design.cols
    ps_bound = cols**2 / 4.0 * (kappa + 1.0 / kappa) ** 2
    floor = design.rows * _trace_floor_constant(design.roots, design.t0)
    return ConditionReport(
        kappa=kappa,
        trace=trace,
        trace_inverse=trace_inverse,
        polya_szego_ok=bool(trace * trace_inverse <= ps_bound * (1.0 + 1e-9)),
        trace_lower_ok=bool(trace >= floor * (1.0 - 1e-9)),
    )
