"""Bandlimited spatial fields on [0, 1] evolving under a linear PDE.

A field with band limit b carries 2b+1 Fourier modes.  Each mode k splits
across the m characteristic roots of its ODE, so the full state at t = 0 is
a (2b+1) x m matrix of modal coefficients: row k holds a_k1(0) .. a_km(0)
and the mode evolves as a_k(t) = sum_i a_ki(0) exp(r_i(k) t).  A FieldState
is the PDE and that matrix; the band limit and the roots follow from them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InfeasiblePde, UnknownScenario
from .pde_core import (
    DISTINCTNESS_RTOL,
    HarmonicRoots,
    PdeSpec,
    characteristic_roots,
    check_stability,
    integer,
    real_number,
    solve_initial_coefficients,
)

# Grid used to rescale random fields to |g| <= 1; at least 2x Nyquist for
# b <= pde_core.MAX_BAND_LIMIT = 1000.
NORMALIZATION_GRID = 4096
# Real fields must not stray further than this from conjugate symmetry (summed
# over their coefficients, see FieldState.real_coeffs).
REAL_GUARD_TOL = 1e-9
# Rows of basis values evaluate_at_points builds at a time: 1024 x 14 floats
# (112 KiB) on the catalog's second-order fields, so a block and its
# temporaries fit in cache and stay under glibc's default 128 KiB mmap
# threshold, which keeps them on the heap instead of mapping fresh pages.
# random_real_field also evaluates its normalization grid in such blocks.
ROW_BLOCK = 1024
SQRT2 = np.sqrt(2.0)
# Largest grid size M (readings on one path) that grid_tables and the
# estimator take, the density ceiling of a sweep config.  Past it numpy
# cannot hold a size (2**63), or one grid's tables take hundreds of MB.
MAX_GRID_SIZE = 2**32 - 1


@dataclass(frozen=True)
class CatalogEntry:
    """One reference simulation: PDE index, coefficient-set id, PDE, and the
    mode values a_k(0) for k = 0..b (negative harmonics are conjugate mirrors
    so the field is real)."""

    index: int
    set_id: str
    spec: PdeSpec
    mode_values: tuple[complex, ...]

    @property
    def b(self) -> int:
        """The band limit: the highest harmonic with a mode value."""
        return len(self.mode_values) - 1


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
    """Field snapshot: the PDE and its (2b+1, m) modal coefficients at t = 0.

    The band limit ``b`` and the roots, ``characteristic_roots(spec, k)`` for
    k = -b..b, are derived once, when the state is built, and are pickled
    with it.  ValueError unless ``coeffs`` is 2-D with an odd number of rows
    and m columns.  ``coeffs`` is stored as a read-only view: a caller's
    complex array is not copied, so it must not be changed afterwards.  An
    unpickled state's arrays are read-only too.
    """

    spec: PdeSpec
    coeffs: np.ndarray  # row k+b holds a_k1(0) .. a_km(0)
    b: int = field(init=False)
    roots: tuple[HarmonicRoots, ...] = field(init=False)

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=complex).view()
        m = self.spec.degree
        if coeffs.ndim != 2 or len(coeffs) % 2 == 0 or coeffs.shape[1] != m:
            raise ValueError(f"coefficient matrix must be (2b+1, {m}), got {coeffs.shape}")
        b = len(coeffs) // 2
        roots = tuple(characteristic_roots(self.spec, k) for k in range(-b, b + 1))
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "roots", roots)

    def __setstate__(self, state: dict) -> None:
        # numpy unpickles arrays writeable: restore the guard, derive nothing.
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(state)

    @property
    def m(self) -> int:
        return self.spec.degree

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(-self.b, self.b + 1)

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


def coefficients_at(state: FieldState, t) -> np.ndarray:
    """Modal values a_k(t) for k = -b..b; the ground truth at t = 0.  An array
    of times gives one row of modal values per time."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise ValueError("t must be finite and non-negative")
    return np.sum(state.coeffs * np.exp(np.multiply.outer(t, state.root_matrix())), axis=-1)


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

    The basis is built ROW_BLOCK rows at a time and each block is multiplied
    by the real coefficients at once, so no M x c basis is ever held: a
    block's temporaries stay in cache, and the allocator reuses them rather
    than mapping and faulting in fresh pages for every path.

    Raises ValueError for a state whose coefficients lost their conjugate
    symmetry (see FieldState.real_coeffs).
    """
    coeffs = state.real_coeffs
    xs, ts = _paired_points(xs, ts)
    out = np.empty(len(xs))
    for start in range(0, len(xs), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        np.matmul(basis_matrix(state.roots, xs[rows], ts[rows]), coeffs, out=out[rows])
    return out


@dataclass(frozen=True, eq=False)
class ConjugateLayout:
    """Conjugate pairing of the stacked modal columns of one root tuple.

    Column (k, r) and column (-k, conj r) take conjugate basis values at every
    real point, because p and q have real coefficients.  ``pairs`` lists each
    pair of flat column indices once as (p, q), with p the member in harmonic
    k > 0 (at k = 0, the root with Im r > 0); ``selfconj`` lists the columns
    that are their own partner, the real roots at k = 0.

    The real layout puts pair i at columns 2i and 2i+1, holding sqrt(2) Re c_p
    and sqrt(2) Im c_p, and the self-conjugate columns after all pairs,
    holding Re c.  Each pair is a 2x2 unitary change of variables, so the
    real basis keeps the singular values, Frobenius norm and row norms of the
    complex one.
    """

    pairs: np.ndarray  # (P, 2)
    selfconj: np.ndarray  # (S,)
    # (3, 2P + S): (t, x, 1) @ exponents gives log(sqrt(2) c_p) as (Re, Im) in
    # the pair columns and log(c) in the self-conjugate ones.
    exponents: np.ndarray

    @property
    def cols(self) -> int:
        return 2 * len(self.pairs) + len(self.selfconj)

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
        """Conjugate-symmetric stacked coefficients a with to_real(a) = x, for
        every real-layout vector along the last axis of ``x``."""
        p, q = self.pairs.T
        pair = x[..., : 2 * len(p)].view(complex) / SQRT2
        out = np.empty(x.shape[:-1] + (self.cols,), dtype=complex)
        out[..., p] = pair.conj()
        out[..., q] = pair
        out[..., self.selfconj] = x[..., 2 * len(p) :]
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
    row . layout.to_real(a) reproduces Re g(x_i, t_i).  The matrix is the
    transpose of a column-per-row array (see _exp_in_layout), so each of its
    columns is contiguous.
    """
    xs, ts = _paired_points(xs, ts)
    layout = conjugate_layout(tuple(roots_per_k))
    out = layout.exponents.T @ np.array((ts, xs, np.ones(len(ts))))
    return _exp_in_layout(out, 2 * len(layout.pairs)).T


@dataclass(frozen=True, eq=False)
class GridTables:
    """The real basis on a stack of uniform grids (i/M, i*t0/M), i = 1..M, one
    per (M, t0) pair, as two power tables per grid.

    On a grid each layout column is a geometric sequence s * z**i (see
    grid_tables).  Writing i - 1 = B*h + l with 0 <= l < B, row i of grid g is
    ``low[g, l] * high[g, h]`` in layout arithmetic (see ``scale``): low[g, l]
    holds z**l and high[g, h] holds s * z**(1 + B*h).  So each block of B
    consecutive rows is the one (B x c) table ``low[g]`` with every column
    scaled by one number, which lets ``reduce`` shrink a least-squares problem
    on the grid through a single factorization of ``low[g]``.  Every grid of
    a stack shares the block length B and the number of ``high`` rows, which
    the longest grid sets.
    """

    low: np.ndarray  # (G, B, c)
    high: np.ndarray  # (G, ceil(max M / B), c)
    m_counts: np.ndarray  # (G,)
    n_pair: int  # the pair columns come first, two per conjugate pair

    @property
    def block(self) -> int:
        return self.low.shape[1]

    @property
    def cols(self) -> int:
        return self.low.shape[2]

    def scale(self, left: np.ndarray, high: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = left * high in layout arithmetic, broadcast over leading axes.

        Each pair's two columns are one complex column, multiplied by the pair's
        complex ``high`` entry, and each self-conjugate column by its real one:
        the map a row of z**l takes to the row of z**l * s * z**(1 + B*h).  It
        is linear in ``left``, so it commutes with any row operation on ``low``.
        """
        n = self.n_pair
        np.multiply(left[..., :n].view(complex), high[..., :n].view(complex), out=out[..., :n].view(complex))
        np.multiply(left[..., n:], high[..., n:], out=out[..., n:])
        return out

    def materialize(self, grid: int = 0) -> np.ndarray:
        """The (M x c) basis of grid ``grid``, one product per entry."""
        high, cols = self.high[grid], self.cols
        out = np.empty((len(high), self.block, cols))
        return self.scale(self.low[grid], high[:, None], out).reshape(-1, cols)[: self.m_counts[grid]]

    def reduce(self, values: Sequence[np.ndarray]) -> np.ndarray:
        """The least-squares systems [K | d] of every grid, with readings
        ``values[g]`` (one per row) on grid g, stacked.

        One Householder QR, low[g] = Q_L R_L, serves every block h of the
        grid's basis Y0, which is Q_L (R_L scaled by high[g, h]).  K stacks
        R_L scaled by high[g, h] for the H full blocks, with data Q_L^T times
        the block's readings, over the r < B rows of the partial block as they
        are.  So Y0 = P K and d = P^T values for P = blockdiag(Q_L, .., Q_L,
        I_r), whose columns are orthonormal.  K has about 2 sqrt(M c) rows,
        and the work falls from O(M c^2) to O(M c + sqrt(M c) c^2).

        Grid g's system is padded with zero blocks up to the most full blocks
        of any grid, and with zero rows up to the longest partial block; zero
        rows change neither a minimiser nor a singular value.  ValueError
        unless grid g has len(values[g]) rows.
        """
        if [len(v) for v in values] != self.m_counts.tolist():
            raise ValueError("one value per grid row required")
        count, block, cols = self.low.shape
        fulls = [len(v) // block for v in values]
        n_full = max(fulls)
        n_tail = max(len(v) - f * block for v, f in zip(values, fulls))
        q, r = np.linalg.qr(self.low)
        k = r.shape[1]  # min(B, c), which is c whenever a block is full
        split = n_full * k
        augmented = np.empty((count, split + n_tail, cols + 1))
        head = augmented[:, :split].reshape(count, n_full, k, cols + 1)
        self.scale(r[:, None], self.high[:, :n_full, None], head[..., :cols])
        # Each grid's full blocks of readings, zero past them.
        readings = np.zeros((count, n_full * block))
        if n_tail:
            # A grid's partial block h scales by high[h]; a grid without one
            # reads any row of ``high`` and zeroes the result below.
            last = self.high[range(count), [min(f, self.high.shape[1] - 1) for f in fulls]]
            self.scale(self.low[:, :n_tail], last[:, None], augmented[:, split:, :cols])
        for g, (v, f) in enumerate(zip(values, fulls)):
            readings[g, : f * block] = v[: f * block]
            tail = len(v) - f * block
            augmented[g, split : split + tail, cols] = v[f * block :]
            head[g, f:] = 0.0
            augmented[g, split + tail :] = 0.0
        np.matmul(readings.reshape(count, n_full, block), q, out=head[..., cols])
        return augmented


def _is_sequence(items) -> bool:
    """A list, tuple or 1-D array: not a string's characters, a mapping's
    keys or a bare number."""
    return isinstance(items, (list, tuple)) or (isinstance(items, np.ndarray) and items.ndim == 1)


def check_horizons(t0s: Sequence[float], grid_count: int) -> np.ndarray:
    """The horizons as floats; ValueError unless ``t0s`` is a list, tuple or
    1-D array holding one finite t0 for each of ``grid_count`` grids, each a
    real number by real_number's rule."""
    if not _is_sequence(t0s):
        raise ValueError(f"horizons t0s must be a sequence of real numbers, got {t0s!r}")
    t0s = np.array([real_number("a horizon t0", t0) for t0 in t0s])
    if t0s.shape != (grid_count,):
        raise ValueError(f"horizon count {t0s.size} differs from grid count {grid_count}: one t0 per grid")
    if not np.all(np.isfinite(t0s)):
        raise ValueError(f"grid horizons t0 must be finite, got {t0s.tolist()}")
    return t0s


def grid_tables(
    roots_per_k: Sequence[HarmonicRoots], m_counts: Sequence[int], t0s: Sequence[float]
) -> GridTables:
    """Power tables of basis_matrix on the uniform grids (i/M, i*t0/M),
    i = 1..M, of every pair (M, t0) of ``m_counts`` and ``t0s``.

    Each column is a geometric sequence s * z**i, with the step
    log z = (t0, 1, 0) @ exponents / M and the scale log s = exponents[2]
    (s = sqrt(2) on pairs, 1 on self-conjugate columns).  The block length is
    B = isqrt(M*c) + 1 for c columns and the largest M, about sqrt(M*c): it
    balances the B rows of ``low`` against the c rows GridTables.reduce keeps
    for each of the M/B blocks, and the two tables take B + M/B exponentials
    per column.  Every table entry is an exponential of its own argument,
    never a running product, so rounding does not grow with i.  All grids go
    through one exponentiation.

    ValueError unless ``m_counts`` is a list, tuple or 1-D array of one or
    more grid sizes, each an integer in [0, MAX_GRID_SIZE] (pde_core.integer),
    and there is one finite horizon per grid (check_horizons).
    """
    if not _is_sequence(m_counts) or len(m_counts) == 0:
        raise ValueError(f"grid sizes m_counts must be a non-empty sequence of integers, got {m_counts!r}")
    m_counts = np.array([integer("a grid size M", m, 0, MAX_GRID_SIZE) for m in m_counts], dtype=np.intp)
    layout = conjugate_layout(tuple(roots_per_k))
    n_pair = 2 * len(layout.pairs)
    t0s = check_horizons(t0s, len(m_counts))
    top = int(m_counts.max())
    block = math.isqrt(top * layout.cols) + 1
    blocks = -(-top // block)
    # One layout column per row, one grid per column: (c, G).  max(M, 1): an
    # empty grid (M = 0) takes no step.
    step = np.multiply.outer(layout.exponents[0], t0s)
    step += layout.exponents[1][:, None]
    step /= np.maximum(m_counts, 1)
    powers = np.concatenate((np.arange(block), 1 + block * np.arange(blocks))).astype(float)
    # Both tables of every grid in one kernel call, then transposed back to
    # one power per row.
    tables = np.multiply.outer(step, powers)
    tables[..., block:] += layout.exponents[2][:, None, None]
    tables = np.ascontiguousarray(_exp_in_layout(tables, n_pair).transpose(1, 2, 0))
    return GridTables(low=tables[:, :block], high=tables[:, block:], m_counts=m_counts, n_pair=n_pair)


def _paired_points(xs, ts) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if xs.shape != ts.shape or xs.ndim != 1:
        raise ValueError("xs and ts must be 1-d arrays of equal length")
    return xs, ts


def _exp_in_layout(out: np.ndarray, n_pair: int) -> np.ndarray:
    """Exponentiate layout exponents in place, one layout column per row.

    Rows 2i and 2i+1 of pair i hold (a, b) and become the real and imaginary
    parts of exp(a + jb) by the tangent half-angle formulas: with
    u = tan(b/2), exp(a + jb) = e^a ((1 - u^2) + 2ju) / (1 + u^2).  Real exp
    and tan run vectorised, where numpy's complex exp (like real sin and
    cos) goes through scalar libm at many times the cost, and whole rows
    keep every step on contiguous memory.  The error stays within about
    2 eps of |exp(a + jb)|; no b is singular, because tan of a double never
    exceeds about 1.6e16, so u^2 never overflows (b = +-pi gives -e^a and a
    residue of order eps e^a).  Self-conjugate rows, after the pairs, take a
    real exp.
    """
    re = out[0:n_pair:2]
    im = out[1:n_pair:2]
    u = np.multiply(im, 0.5)
    np.tan(u, out=u)
    u2 = np.multiply(u, u)
    scale = np.exp(re)
    scale /= u2 + 1.0  # e^a / (1 + u^2)
    np.subtract(1.0, u2, out=u2)
    np.multiply(u2, scale, out=re)
    np.multiply(u, scale, out=u)
    np.multiply(u, 2.0, out=im)
    selfconj = out[n_pair:]
    np.exp(selfconj, out=selfconj)
    return out


def field_from_mode_values(spec: PdeSpec, mode_values: Sequence[complex]) -> FieldState:
    """Assemble a real field from mode values a_k(0) for k = 0..b, so the
    band limit b is ``len(mode_values) - 1``.

    Negative harmonics are conjugate mirrors.  Each mode starts at rest: its
    higher temporal derivatives vanish at t = 0, and the Vandermonde solve
    splits the value across the m roots.
    """
    values = np.asarray(mode_values, dtype=complex)
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("expected one mode value for each k = 0..b")
    b = len(values) - 1
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
    return FieldState(spec, coeffs)


def random_real_field(b: int, spec: PdeSpec, rng: np.random.Generator) -> FieldState:
    """Random bounded real field: mode values uniform on [-1, 1] per real and
    imaginary part, conjugate-mirrored, then rescaled so max |g(x, 0)| = 1
    on the NORMALIZATION_GRID, evaluated ROW_BLOCK points at a time so that
    no grid-sized phase matrix is held.  check_stability reads the band
    limit ``b`` first: an integer in [0, MAX_BAND_LIMIT]."""
    report = check_stability(spec, b)
    if not report.feasible:
        raise InfeasiblePde(f"growing modes at k = {report.offending}")
    re = rng.uniform(-1.0, 1.0, size=b + 1)
    im = rng.uniform(-1.0, 1.0, size=b + 1)
    im[0] = 0.0
    state = field_from_mode_values(spec, re + 1j * im)
    xs = np.arange(NORMALIZATION_GRID) / NORMALIZATION_GRID
    peak = max(
        float(np.max(np.abs(evaluate(state, xs[start : start + ROW_BLOCK], 0.0))))
        for start in range(0, NORMALIZATION_GRID, ROW_BLOCK)
    )
    if peak > 0.0:
        state = FieldState(spec, state.coeffs / peak)
    return state


def scenario_field(set_id: str, spec: PdeSpec | None = None) -> FieldState:
    """Catalog field built from the exact reference mode values of ``set_id``.

    ``spec`` is the governing PDE; by default the coefficient set pairs with
    its own catalog equation.
    """
    entry = catalog_entry(set_id)
    return field_from_mode_values(entry.spec if spec is None else spec, entry.mode_values)
