"""Least-squares recovery of modal coefficients from unaware samples.

The readings g_s arrive as a bare real vector (sampling.sample_field); the
estimator never sees where or when they were taken.  It pretends they lie on
the uniform grid (i/M, i*T0/M) and solves min_a ||g_s - Y0 a||^2 over the
stacked modal coefficients.  Y0 is built from (M, T0) alone: on the grid
every column is a geometric sequence s * z**i, so field.grid_basis_matrix
fills it from two power tables of about sqrt(M) exponentials per column, one
product per entry.

It works in real arithmetic.  The readings are real, and the complex columns
of Y0 come in conjugate pairs, (k, r) and (-k, conj r) because p and q have
real coefficients, plus self-conjugate columns for the real roots at k = 0.
Replacing each pair (c, conj c) by (sqrt(2) Re c, sqrt(2) Im c) multiplies Y0
by a unitary matrix, so the real design (field.ConjugateLayout) has the same
singular values: kappa, the RANK_RTOL gate and the trace identities read the
same, and each pair takes one exp(a + jb), which field._exp_in_layout forms
from a real exp and a tan.  The unique complex minimiser is
conjugate-symmetric, so it is the image of the real one under the same map.

The solve is one LAPACK least-squares call (gelsd, behind np.linalg.lstsq):
a Householder QR of the tall design with Q^T applied to the readings, then an
SVD of the small triangular factor R.  It never forms Q or the M x c left
singular vectors, yet stays backward stable and still yields the singular
values that the RANK_RTOL gate and kappa read.  It does not go through the
normal equations: the Gram matrix squares the condition number, and these
design matrices (kappa up to 1e10) are exactly the kind that punish that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientSamples, RankDeficient
from .field import ConjugateLayout, conjugate_layout, grid_basis_matrix
from .pde_core import HarmonicRoots

# Singular values at or below this fraction of the largest are treated as zero
# and the solve refuses with RankDeficient rather than returning garbage.  The
# second-order scenarios run at sigma_min/sigma_max near 1.2e-5 on healthy
# paths, so 4e-6 keeps a 3x margin while rejecting the near-singular path
# geometries (two harmonics colliding on the sampling diagonal) whose
# amplification would otherwise dominate every distortion average.
RANK_RTOL = 4e-6


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Real basis values at the estimation points, one row per sample.

    Columns follow the conjugate layout of ``roots`` (field.ConjugateLayout):
    conjugate pair i of stacked complex columns (p, q) sits at columns 2i and
    2i+1 as sqrt(2) Re c_p and sqrt(2) Im c_p, and the self-conjugate columns
    (real roots at k = 0) follow all pairs.  ``layout`` maps a real solution
    back to the stacked complex coefficients of FieldState.  ``entries`` is
    stored as a read-only view: a caller's float array is not copied.
    """

    entries: np.ndarray
    roots: tuple[HarmonicRoots, ...]
    t0: float  # horizon of the grid's last row

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.entries):
            raise ValueError("design entries must be real (see field.basis_matrix)")
        entries = np.asarray(self.entries, dtype=float).view()
        if entries.ndim != 2 or entries.shape[1] != sum(hr.m for hr in self.roots):
            raise ValueError("entry matrix shape disagrees with the root layout")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "roots", tuple(self.roots))

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def m(self) -> int:
        return self.roots[0].m

    @property
    def layout(self) -> ConjugateLayout:
        return conjugate_layout(self.roots)


def build_design_matrix(roots_per_k: Sequence[HarmonicRoots], m_count: int, t0: float) -> DesignMatrix:
    """Design matrix on the uniform grid (i/M, i*t0/M), i = 1..M.

    The sample count and the horizon are all the estimator knows of where
    and when the readings were taken.
    """
    roots = tuple(roots_per_k)
    return DesignMatrix(entries=grid_basis_matrix(roots, m_count, t0), roots=roots, t0=float(t0))


def _as_values(values) -> np.ndarray:
    values = np.asarray(values)
    if values.ndim != 1 or np.iscomplexobj(values):
        raise ValueError("sample values must form a real vector")
    return values


def _rank_gate(entries: np.ndarray, singular: np.ndarray) -> None:
    """InsufficientSamples when a real design has fewer rows than columns,
    RankDeficient when its sigma_min <= RANK_RTOL * sigma_max."""
    rows, cols = entries.shape
    if rows < cols:
        raise InsufficientSamples(f"{rows} samples cannot determine {cols} coefficients")
    if singular[-1] <= RANK_RTOL * singular[0]:
        raise RankDeficient(
            f"singular value ratio {singular[-1] / singular[0]:.3g} below the rank tolerance"
        )


def _svd_solve(entries: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real least-squares solution in the design's column layout, and the singular values."""
    if len(values) != entries.shape[0]:
        raise ValueError("one value per design-matrix row required")
    # rcond=None truncates below eps * max(M, c) relative, far under RANK_RTOL,
    # so every solve the gate accepts is a full-rank one.
    solution, _, _, singular = np.linalg.lstsq(entries, values, rcond=None)
    _rank_gate(entries, singular)
    return solution, singular


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
    solution, singular = _svd_solve(design.entries, _as_values(values))
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
    singular = np.linalg.svd(design.entries, compute_uv=False)
    _rank_gate(design.entries, singular)
    eigenvalues = singular**2
    trace = float(np.sum(design.entries**2))
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
