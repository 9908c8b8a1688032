"""Bandlimited spatial fields on [0, 1] evolving under a linear PDE.

A field with band limit b carries 2b+1 Fourier modes.  Each mode k splits
across the m characteristic roots of its ODE, so the full state at t = 0 is
a (2b+1) x m matrix of modal coefficients: row k holds a_k1(0) .. a_km(0)
and the mode evolves as a_k(t) = sum_i a_ki(0) exp(r_i(k) t).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasiblePde, UnknownScenario
from .pde_core import (
    DISTINCTNESS_RTOL,
    HarmonicRoots,
    PdeSpec,
    characteristic_roots,
    check_stability,
    solve_initial_coefficients,
)

# Grid used to rescale random fields to |g| <= 1; at least 2x Nyquist for b <= 1000.
NORMALIZATION_GRID = 4096
# Real fields must not stray further than this from conjugate symmetry (summed
# over their coefficients, see FieldState.real_coeffs).
REAL_GUARD_TOL = 1e-9
SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class CatalogEntry:
    """One reference simulation: PDE index, coefficient-set id, PDE, and the
    mode values a_k(0) for k = 0..3 (negative harmonics are conjugate mirrors
    so the field is real)."""

    index: int
    set_id: str
    spec: PdeSpec
    mode_values: tuple[complex, ...]


# Entry 1 is defined by the polynomial q1(z) = 0.01(z^2 - 0.0125 z^4); a variant
# weighting the fourth spatial derivative by 0.125 instead of 0.0125 is a
# different (still feasible) model and is NOT what this catalog encodes.
CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        1,
        "set1",
        PdeSpec((0.0, 3.0, 1.0), (0.0, 0.0, 0.01, 0.0, -0.000125)),
        (0.3002 + 0j, -0.0413 + 0.0216j, 0.0871 + 0.0343j, -0.1679 - 0.0586j),
    ),
    CatalogEntry(
        2,
        "set2",
        PdeSpec((0.0, 3.0, 1.0), (0.0, 0.0, 0.01)),
        (0.2445 + 0j, -0.0357 + 0.0478j, 0.0978 + 0.0729j, -0.1796 - 0.0756j),
    ),
    CatalogEntry(
        3,
        "diffusion",
        PdeSpec((0.0, 1.0), (0.0, 0.0, 0.01)),
        (0.11 + 0j, 0.023 - 0.076j, 0.0669 + 0.0551j, 0.2 + 0.0821j),
    ),
)


def catalog_entry(key: int | str) -> CatalogEntry:
    """The catalog row with PDE index or coefficient-set id ``key``."""
    # A bool compares equal to 0 or 1 but names no catalog row.
    if not isinstance(key, bool):
        for entry in CATALOG:
            if key in (entry.index, entry.set_id):
                return entry
    raise UnknownScenario(f"no catalog entry {key!r}")


@dataclass(frozen=True, eq=False)
class FieldState:
    """Immutable field snapshot: band limit, PDE, modal coefficients, cached roots."""

    b: int
    spec: PdeSpec
    coeffs: np.ndarray  # (2b+1, m) complex; row k+b holds a_k1(0) .. a_km(0)
    roots: tuple[HarmonicRoots, ...]

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=complex)
        expected = (2 * self.b + 1, self.spec.degree)
        if coeffs.shape != expected:
            raise ValueError(f"coefficient matrix must be {expected}, got {coeffs.shape}")
        if len(self.roots) != 2 * self.b + 1:
            raise ValueError("one HarmonicRoots entry required per harmonic")
        for offset, hr in enumerate(self.roots):
            if hr.k != offset - self.b:
                raise ValueError("roots must be ordered k = -b..b")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "roots", tuple(self.roots))

    @property
    def m(self) -> int:
        return self.spec.degree

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(-self.b, self.b + 1)

    def row(self, k: int) -> np.ndarray:
        return self.coeffs[k + self.b]

    def flat_coeffs(self) -> np.ndarray:
        """Stacked coefficient vector, k ascending, root order within each k."""
        return self.coeffs.reshape(-1)

    def root_matrix(self) -> np.ndarray:
        return np.array([hr.roots for hr in self.roots])

    @functools.cached_property
    def real_coeffs(self) -> np.ndarray:
        """The stacked coefficients in the real basis layout (ConjugateLayout.to_real).

        Every field here is real, so its coefficients must keep their conjugate
        symmetry: those of each conjugate pair (p, q) satisfy a_q = conj(a_p) and
        those of self-conjugate columns are real, to within REAL_GUARD_TOL summed.
        Stable roots bound every basis value by exp(STABILITY_TOL t), so this
        bounds the imaginary residue of g at every probe.
        """
        layout = conjugate_layout(self.roots)
        residue = layout.asymmetry(self.flat_coeffs())
        if residue > REAL_GUARD_TOL:
            raise ValueError(f"conjugate asymmetry {residue:.3g} exceeds the real-field guard")
        out = layout.to_real(self.flat_coeffs())
        out.flags.writeable = False
        return out


def coefficients_at(state: FieldState, t: float) -> np.ndarray:
    """Modal values a_k(t) for k = -b..b; the ground truth at t = 0."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return np.sum(state.coeffs * np.exp(state.root_matrix() * t), axis=1)


def evaluate(state: FieldState, x, t: float):
    """Field value g(x, t); x may be a scalar or an array of positions."""
    a_t = coefficients_at(state, t)
    x_arr = np.asarray(x, dtype=float)
    phases = np.exp(2j * np.pi * np.multiply.outer(x_arr, state.k_values))
    out = phases @ a_t
    if x_arr.ndim == 0:
        return complex(out)
    return out


def evaluate_at_points(state: FieldState, xs, ts) -> np.ndarray:
    """Real field values Re g(x_i, t_i) at paired points, via the real modal basis.

    Raises ValueError for a state whose coefficients lost their conjugate
    symmetry (see FieldState.real_coeffs).
    """
    return basis_matrix(state.roots, xs, ts) @ state.real_coeffs


@dataclass(frozen=True, eq=False)
class ConjugateLayout:
    """Conjugate pairing of the stacked modal columns of one root tuple.

    Column (k, r) and column (-k, conj r) take conjugate basis values at every
    real point, because p and q have real coefficients.  ``partner[i]`` is the
    flat index of column i's partner; ``pairs`` lists each pair once as
    (p, q), with p the member in harmonic k > 0 (at k = 0, the root with
    Im r > 0); ``selfconj`` lists the columns that are their own partner,
    the real roots at k = 0.

    The real layout puts pair i at columns 2i and 2i+1, holding sqrt(2) Re c_p
    and sqrt(2) Im c_p, and the self-conjugate columns after all pairs,
    holding Re c.  Each pair is a 2x2 unitary change of variables, so the
    real basis keeps the singular values, Frobenius norm and row norms of the
    complex one.
    """

    partner: np.ndarray
    pairs: np.ndarray  # (P, 2)
    selfconj: np.ndarray  # (S,)
    # (3, 2P + S): (t, x, 1) @ exponents gives log(sqrt(2) c_p) as (Re, Im) in
    # the pair columns and log(c) in the self-conjugate ones.
    exponents: np.ndarray

    @property
    def cols(self) -> int:
        return len(self.partner)

    def to_real(self, coeffs: np.ndarray) -> np.ndarray:
        """Real-layout vector x with basis @ x = Re(complex basis @ coeffs).

        Pair (p, q) carries w = a_p + conj(a_q) as (Re w, -Im w) / sqrt(2),
        which is exact for any coefficients, conjugate-symmetric or not.
        """
        p, q = self.pairs.T
        out = np.empty(self.cols)
        out[: 2 * len(p)].view(complex)[:] = (coeffs[p].conj() + coeffs[q]) / SQRT2
        out[2 * len(p) :] = coeffs[self.selfconj].real
        return out

    def to_complex(self, x: np.ndarray) -> np.ndarray:
        """Conjugate-symmetric stacked coefficients a with to_real(a) = x."""
        p, q = self.pairs.T
        pair = x[: 2 * len(p)].view(complex) / SQRT2
        out = np.empty(self.cols, dtype=complex)
        out[p] = pair.conj()
        out[q] = pair
        out[self.selfconj] = x[2 * len(p) :]
        return out

    def asymmetry(self, coeffs: np.ndarray) -> float:
        """Sum of |a_p - conj(a_q)| over pairs and |Im a| over self-conjugate columns."""
        p, q = self.pairs.T
        return float(
            np.sum(np.abs(coeffs[p] - coeffs[q].conj())) + np.sum(np.abs(coeffs[self.selfconj].imag))
        )


@functools.lru_cache(maxsize=64)
def conjugate_layout(roots_per_k: tuple[HarmonicRoots, ...]) -> ConjugateLayout:
    """The conjugate layout of ``roots_per_k``, matched by nearest conjugate root.

    Raises ValueError unless every root of harmonic k has a conjugate partner
    at -k closer than half the distinctness gap, one-to-one.
    """
    m = roots_per_k[0].m
    if any(hr.m != m for hr in roots_per_k):
        raise ValueError("all harmonics must carry the same number of roots")
    block = {hr.k: i for i, hr in enumerate(roots_per_k)}
    partner = []
    for hr in roots_per_k:
        if -hr.k not in block:
            raise ValueError(f"harmonic k={hr.k} has no mirror harmonic k={-hr.k}")
        mirror = roots_per_k[block[-hr.k]].roots
        for r in hr.roots:
            gaps = [abs(s - r.conjugate()) for s in mirror]
            j = int(np.argmin(gaps))
            if gaps[j] > 0.5 * DISTINCTNESS_RTOL * (1.0 + abs(r)):
                raise ValueError(f"harmonic k={hr.k}: root {r:.6g} has no conjugate at k={-hr.k}")
            partner.append(block[-hr.k] * m + j)
    partner_arr = np.array(partner, dtype=np.intp)
    idx = np.arange(len(partner))
    if np.any(partner_arr[partner_arr] != idx):
        raise ValueError("conjugate pairing is not one-to-one")
    roots = np.array([r for hr in roots_per_k for r in hr.roots], dtype=complex)
    ks = np.repeat([float(hr.k) for hr in roots_per_k], m)
    primary = np.flatnonzero(partner_arr < idx)
    selfconj = np.flatnonzero(partner_arr == idx)
    pair_exp = np.zeros((3, len(primary), 2))
    pair_exp[0] = np.column_stack((roots[primary].real, roots[primary].imag))
    pair_exp[1, :, 1] = 2.0 * np.pi * ks[primary]
    pair_exp[2, :, 0] = np.log(SQRT2)
    self_exp = np.zeros((3, len(selfconj)))
    self_exp[0] = roots[selfconj].real
    layout = ConjugateLayout(
        partner=partner_arr,
        pairs=np.column_stack((primary, partner_arr[primary])),
        selfconj=selfconj,
        exponents=np.hstack((pair_exp.reshape(3, -1), self_exp)),
    )
    for arr in vars(layout).values():
        arr.flags.writeable = False
    return layout


def basis_matrix(roots_per_k: Sequence[HarmonicRoots], xs, ts) -> np.ndarray:
    """Real modal basis values at paired points, in the conjugate layout.

    The complex column (k, r) at point i is c = exp(r t_i + j*2*pi*k x_i);
    the real row holds sqrt(2) (Re c_p, Im c_p) for each conjugate pair and
    Re c for each self-conjugate column (see ConjugateLayout), so that
    row . layout.to_real(a) reproduces Re g(x_i, t_i).
    """
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if xs.shape != ts.shape or xs.ndim != 1:
        raise ValueError("xs and ts must be 1-d arrays of equal length")
    layout = conjugate_layout(tuple(roots_per_k))
    out = np.column_stack((ts, xs, np.ones(len(ts)))) @ layout.exponents
    return _exp_in_layout(out, 2 * len(layout.pairs))


def grid_basis_matrix(roots_per_k: Sequence[HarmonicRoots], m_count: int, t0: float) -> np.ndarray:
    """basis_matrix on the uniform grid (i/M, i*t0/M), i = 1..M, from power tables.

    On the grid each column is a geometric sequence s * z**i, with the step
    log z = (t0, 1, 0) @ exponents / M and the scale log s = exponents[2]
    (s = sqrt(2) on pairs, 1 on self-conjugate columns).  Writing
    i = B*h + l with B = ceil(sqrt(M + 1)), entry i is (s * z**(B*h)) * z**l:
    one product per entry and 2B exponentials per column.  Every table entry
    is an exponential of its own argument, never a running product, so
    rounding does not grow with i.
    """
    layout = conjugate_layout(tuple(roots_per_k))
    n_pair = 2 * len(layout.pairs)
    side = math.isqrt(m_count) + 1  # ceil(sqrt(M + 1)): side**2 covers i = 0..M
    # max(M, 1): an empty grid (M = 0) takes no step.
    step = np.array([t0, 1.0, 0.0]) @ layout.exponents / max(m_count, 1)
    powers = np.arange(side, dtype=float)
    low = _exp_in_layout(np.multiply.outer(powers, step), n_pair)
    high = _exp_in_layout(np.multiply.outer(side * powers, step) + layout.exponents[2], n_pair)
    out = np.empty((side * side, layout.cols))
    # Write through a reshaped view of the whole buffer: reshaping a column
    # slice would copy, and the products would be lost.
    grid = out.reshape(side, side, layout.cols)
    pair = grid[..., :n_pair].view(complex)
    np.multiply(high[:, None, :n_pair].view(complex), low[None, :, :n_pair].view(complex), out=pair)
    np.multiply(high[:, None, n_pair:], low[None, :, n_pair:], out=grid[..., n_pair:])
    return out[1 : m_count + 1]


def _exp_in_layout(out: np.ndarray, n_pair: int) -> np.ndarray:
    """Exponentiate layout exponents in place along the last axis: one complex
    exponential per pair on its (Re, Im) columns, a real one per self-conjugate column."""
    pairs = out[..., :n_pair].view(complex)
    np.exp(pairs, out=pairs)
    selfconj = out[..., n_pair:]
    np.exp(selfconj, out=selfconj)
    return out


def field_from_mode_values(b: int, spec: PdeSpec, mode_values: Sequence[complex]) -> FieldState:
    """Assemble a real field from mode values a_k(0) for k = 0..b.

    Negative harmonics are conjugate mirrors.  Each mode starts at rest: its
    higher temporal derivatives vanish at t = 0, and the Vandermonde solve
    splits the value across the m roots.
    """
    values = np.asarray(mode_values, dtype=complex)
    if values.shape != (b + 1,):
        raise ValueError(f"expected {b + 1} mode values for k = 0..b")
    if abs(values[0].imag) > 0:
        raise ValueError("the k = 0 mode value must be real")
    m = spec.degree
    roots = tuple(characteristic_roots(spec, k) for k in range(-b, b + 1))
    coeffs = np.zeros((2 * b + 1, m), dtype=complex)
    for k in range(0, b + 1):
        conditions = np.zeros(m, dtype=complex)
        conditions[0] = values[k]
        coeffs[k + b] = solve_initial_coefficients(roots[k + b], conditions)
        if k > 0:
            coeffs[b - k] = solve_initial_coefficients(roots[b - k], conditions.conj())
    return FieldState(b=b, spec=spec, coeffs=coeffs, roots=roots)


def random_real_field(b: int, spec: PdeSpec, rng: np.random.Generator) -> FieldState:
    """Random bounded real field: mode values uniform on [-1, 1] per real and
    imaginary part, conjugate-mirrored, then rescaled so max |g(x, 0)| = 1."""
    report = check_stability(spec, b)
    if not report.feasible:
        raise InfeasiblePde(f"growing modes at k = {report.offending}")
    re = rng.uniform(-1.0, 1.0, size=b + 1)
    im = rng.uniform(-1.0, 1.0, size=b + 1)
    im[0] = 0.0
    state = field_from_mode_values(b, spec, re + 1j * im)
    xs = np.arange(NORMALIZATION_GRID) / NORMALIZATION_GRID
    peak = float(np.max(np.abs(evaluate(state, xs, 0.0))))
    if peak > 0.0:
        state = FieldState(b=b, spec=spec, coeffs=state.coeffs / peak, roots=state.roots)
    return state


def scenario_field(set_id: str, spec: PdeSpec | None = None) -> FieldState:
    """Catalog field built from the exact reference mode values of ``set_id``.

    ``spec`` is the governing PDE; by default the coefficient set pairs with
    its own catalog equation.
    """
    entry = catalog_entry(set_id)
    return field_from_mode_values(3, entry.spec if spec is None else spec, entry.mode_values)


def catalog_scenario(index: int) -> tuple[PdeSpec, FieldState]:
    """Catalog pairing: PDE ``index`` with its reference coefficient set."""
    entry = catalog_entry(index)
    return entry.spec, scenario_field(entry.set_id)
