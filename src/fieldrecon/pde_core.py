"""Constant-coefficient linear PDEs as polynomial pairs.

A field obeying  sum_i p_i d^i/dt^i g = sum_i q_i d^i/dx^i g  decouples mode
by mode into ODEs whose characteristic roots solve p(r) = q(j*2*pi*k).  This
module finds those roots, gates physical feasibility (no growing modes), and
splits initial conditions across the roots; field.coefficients_at evolves the
result in closed form.

real_number and integer are the homes of the rules that make a
user-supplied number a float or an int; every number the package takes from
a caller is read through one of them.  integer also takes the input's
bounds, so a count, seed, density or band limit out of range is refused in
one form wherever it enters.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateRoots

# Reject repeated roots harder than this gap (relative to the root scale);
# the exp(r t) ansatz breaks down there and the t*exp(r t) branch is out of scope.
DISTINCTNESS_RTOL = 1e-6
# Admit Re(r) up to this, so exact oscillatory (Re = 0) roots survive rounding.
STABILITY_TOL = 1e-9
# Largest band limit b the field model serves: field.NORMALIZATION_GRID
# resolves fields up to it, and check_stability's work grows with every
# harmonic past it.
MAX_BAND_LIMIT = 1000


def real_number(what: str, value) -> float:
    """``value`` as a float; ValueError for anything but a real number
    (float() would read "0.01" as a number and True as 1, and numpy would
    fail later on a string) and for one beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} lies beyond the float range") from None


def integer(what: str, value, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int; ValueError for a bool or a non-integer, which
    int() would read as 0/1 or truncate (128.9 would run as 128), and for
    one below ``low`` or above ``high`` (both inclusive; None sets no bound)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{what} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{what} must be at most {high}, got {value}")
    return value


def eval_poly(coeffs: Sequence[float], z: complex) -> complex:
    """Evaluate sum_i coeffs[i] * z**i by Horner's recurrence."""
    acc = complex(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


@dataclass(frozen=True)
class PdeSpec:
    """Coefficient polynomials, ascending degree: p drives d/dt, q drives d/dx."""

    p_coeffs: tuple[float, ...]
    q_coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        p = tuple(real_number("a p_coeffs entry", c) for c in self.p_coeffs)
        q = tuple(real_number("a q_coeffs entry", c) for c in self.q_coeffs)
        object.__setattr__(self, "p_coeffs", p)
        object.__setattr__(self, "q_coeffs", q)
        if len(p) < 2:
            raise ValueError("p must have degree >= 1")
        if not all(np.isfinite(c) for c in p + q):
            raise ValueError("PDE coefficients must be finite")
        if p[-1] == 0.0:
            raise ValueError("leading p coefficient must be nonzero")
        if not q or q[-1] == 0.0:
            raise ValueError("leading q coefficient must be nonzero")

    @property
    def degree(self) -> int:
        """Temporal order m (number of characteristic roots per harmonic)."""
        return len(self.p_coeffs) - 1

    def q_at_harmonic(self, k: int) -> complex:
        """q evaluated at j*2*pi*k, the forcing constant of spatial mode k."""
        return eval_poly(self.q_coeffs, 2j * np.pi * k)


@dataclass(frozen=True)
class HarmonicRoots:
    """The m characteristic roots of one spatial harmonic, sorted by (Re, Im)."""

    k: int
    roots: tuple[complex, ...]

    @property
    def m(self) -> int:
        return len(self.roots)

    def worst_real_part(self) -> float:
        return max(r.real for r in self.roots)


def _require_distinct(roots: Sequence[complex], k: int) -> None:
    if len(roots) < 2:
        return
    scale = 1.0 + max(abs(r) for r in roots)
    tol = DISTINCTNESS_RTOL * scale
    for a, b in itertools.combinations(roots, 2):
        if abs(a - b) < tol:
            raise DegenerateRoots(
                f"harmonic k={k}: roots {a:.6g} and {b:.6g} closer than {tol:.3g}"
            )


def _order_key(r: complex) -> tuple[float, float]:
    # Quantize so eigenvalue noise around equal real parts (conjugate pairs)
    # cannot flip the ordering between the +k and -k harmonics.
    return (round(r.real, 9), round(r.imag, 9))


@functools.lru_cache(maxsize=1024, typed=True)
def characteristic_roots(spec: PdeSpec, k: int) -> HarmonicRoots:
    """All m roots of p(r) = q(j*2*pi*k) via companion-matrix eigenvalues.

    Roots are sorted by (Re, Im) so downstream coefficient layouts are
    reproducible.  Raises DegenerateRoots when two roots collide within
    tolerance (repeated-root dynamics are rejected, not approximated), and
    when the monic characteristic polynomial or its roots overflow.

    Memoized per (spec, k) and the type of k: both are hashable and the
    result is immutable, so a field's roots are derived once per process
    however often it is built or gated, and ``k`` is returned as given.  A
    refusal is not cached; it raises on every call, ValueError for a ``k``
    that is not an integer.
    """
    integer("a harmonic k", k)
    target = spec.q_at_harmonic(k)
    coeffs = np.array(spec.p_coeffs, dtype=complex)
    coeffs[0] -= target
    with np.errstate(over="ignore", invalid="ignore"):
        monic = coeffs / coeffs[-1]
    # np.roots eigendecomposes the companion matrix, whose top row is -monic.
    raw = np.roots(coeffs[::-1]) if np.isfinite(monic).all() else monic
    if not np.isfinite(raw).all():
        raise DegenerateRoots(f"harmonic k={k}: the characteristic polynomial overflows")
    roots = tuple(sorted((complex(r) for r in raw), key=_order_key))
    _require_distinct(roots, k)
    return HarmonicRoots(k=k, roots=roots)


@dataclass(frozen=True)
class StabilityReport:
    """Worst root real part per harmonic, and the harmonics whose modes can grow."""

    worst_real_parts: dict[int, float]
    offending: tuple[int, ...]

    @property
    def feasible(self) -> bool:
        """Whether no mode can grow."""
        return not self.offending


def check_stability(spec: PdeSpec, b: int) -> StabilityReport:
    """Feasibility gate: every root of every harmonic in [-b, b] must satisfy
    Re(r) <= STABILITY_TOL.  The band limit ``b`` is an integer in
    [0, MAX_BAND_LIMIT] (``integer``)."""
    b = integer("band limit b", b, 0, MAX_BAND_LIMIT)
    worst = {k: characteristic_roots(spec, k).worst_real_part() for k in range(-b, b + 1)}
    offending = tuple(sorted(k for k, w in worst.items() if w > STABILITY_TOL))
    return StabilityReport(worst_real_parts=worst, offending=offending)


def solve_initial_coefficients(
    roots: HarmonicRoots, derivative_conditions: Sequence[complex]
) -> np.ndarray:
    """Split a harmonic's initial value and temporal derivatives across roots.

    Solves V a = c where V[j, i] = r_i**j, c[j] = (d/dt)^j a_k(0).  The matrix
    is Vandermonde in the (distinct) roots, hence invertible; the solve uses
    LU with partial pivoting, which is ample at these orders.
    """
    m = roots.m
    conditions = np.asarray(derivative_conditions, dtype=complex)
    if conditions.shape != (m,):
        raise ValueError(f"expected {m} derivative conditions, got {conditions.shape}")
    _require_distinct(roots.roots, roots.k)
    r = np.array(roots.roots, dtype=complex)
    vander = r[None, :] ** np.arange(m)[:, None]
    try:
        return np.linalg.solve(vander, conditions)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - distinctness gate fires first
        raise DegenerateRoots(f"harmonic k={roots.k}: Vandermonde solve failed") from exc
