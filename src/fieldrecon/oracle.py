"""Independent brute-force verifiers.

Nothing here reuses the closed-form evolution or the design-matrix path it
checks: modal dynamics are re-integrated numerically, bandlimitedness is
probed beyond the band edge, and the grid-deviation scaling is measured by
plain Monte Carlo.  The path fuzz draws paths of mixed densities and
families and counts breaches of the law bound M > n/lam - 1, the one
per-draw inequality a PathBlock does not check as it is built.  The suite
runners emit plain-text tables for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .field import CATALOG, FieldState, catalog_entry, coefficients_at, scenario_field
from .pde_core import MAX_BAND_LIMIT, HarmonicRoots, PdeSpec, integer, real_number, solve_initial_coefficients
from .sampling import PathBlock, RenewalSpec, draw_paths
from .streams import cell_streams, substream


def _companion_system(spec: PdeSpec, k: int) -> np.ndarray:
    """First-order system matrix for p(d/dt) a = q(j 2 pi k) a."""
    m = spec.degree
    lead = spec.p_coeffs[-1]  # nonzero: PdeSpec rejects a vanishing leading coefficient
    forcing = spec.q_at_harmonic(k)
    system = np.zeros((m, m), dtype=complex)
    system[:-1, 1:] = np.eye(m - 1)
    system[-1, 0] = (forcing - spec.p_coeffs[0]) / lead
    for j in range(1, m):
        system[-1, j] = -spec.p_coeffs[j] / lead
    return system


# An RK4 problem: a PDE, harmonics ks, and one row of initial conditions per k.
OdeProblem = tuple[PdeSpec, Sequence[int], Sequence[Sequence[complex]]]


def integrate_coefficient_ode(
    problems: Sequence[OdeProblem], t_end: float, dt: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Classical fixed-step RK4 on the modal ODEs of every problem's
    harmonics, all in one loop.  Row h of a problem's conditions holds
    harmonic ks[h]'s initial value and temporal derivatives; t_end is rounded
    to whole steps.  Returns the time grid, from 0 in steps of dt, and one
    array per problem whose column h is harmonic ks[h]'s trajectory a_k(t).

    The harmonics share nothing but the time grid: each stage applies the
    stacked companion matrices with one einsum.  A lower-degree harmonic is
    zero-padded; its padded state stays zero and adds only exact zeros, so a
    harmonic's trajectory is the one it gives alone, bit for bit, whatever
    else is in the stack.

    ValueError names the input at fault: no problem or no harmonic, a
    harmonic that is not an integer, conditions of the wrong shape, a dt
    that is not positive and finite or a t_end below one step or not finite.
    """
    dt, t_end = real_number("dt", dt), real_number("t_end", t_end)
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not dt <= t_end < np.inf:
        raise ValueError(f"t_end must be finite and at least one step, got {t_end!r}")
    if len(problems) == 0:
        raise ValueError("at least one problem is required")
    rows = []  # (spec, k, initial row) per harmonic
    for spec, ks, conditions in problems:
        if len(ks) == 0:
            raise ValueError("at least one harmonic is required")
        y = np.array(conditions, dtype=complex)
        if y.shape != (len(ks), spec.degree):
            raise ValueError(f"expected {len(ks)} x {spec.degree} initial conditions, got {y.shape}")
        rows += zip([spec] * len(ks), [integer("a harmonic k", k) for k in ks], y)
    width = max(spec.degree for spec, _, _ in rows)
    system = np.zeros((len(rows), width, width), dtype=complex)
    y = np.zeros((len(rows), width), dtype=complex)
    for h, (spec, k, initial) in enumerate(rows):
        system[h, : spec.degree, : spec.degree] = _companion_system(spec, k)
        y[h, : spec.degree] = initial
    steps = int(round(t_end / dt))
    values = np.empty((steps + 1, len(rows)), dtype=complex)
    values[0] = y[:, 0]
    for i in range(1, steps + 1):
        k1 = np.einsum("hij,hj->hi", system, y)
        k2 = np.einsum("hij,hj->hi", system, y + 0.5 * dt * k1)
        k3 = np.einsum("hij,hj->hi", system, y + 0.5 * dt * k2)
        k4 = np.einsum("hij,hj->hi", system, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[i] = y[:, 0]
    bounds = np.cumsum([len(ks) for _, ks, _ in problems])[:-1]
    return np.arange(steps + 1) * dt, np.split(values, bounds, axis=1)


# RK4 step and horizon of every oracle integration.
ORACLE_DT = 1e-3
ORACLE_T_END = 1.0


def _out_of_band(spec: PdeSpec, b: int, conditions: Mapping[int, Sequence[complex]]) -> OdeProblem:
    """The harmonics b < |k| <= 2b + 4, each at zero unless ``conditions``
    gives its initial value and temporal derivatives."""
    zero = np.zeros(spec.degree)
    ks = [signed for k in range(b + 1, 2 * b + 5) for signed in (k, -k)]
    return spec, ks, [np.asarray(conditions.get(k, zero), dtype=complex) for k in ks]


def bandlimit_preservation_check(spec: PdeSpec, b: int, conditions: Mapping[int, Sequence[complex]]) -> float:
    """Largest |a_k(t)| over [0, ORACLE_T_END] on any out-of-band harmonic
    b < |k| <= 2b + 4.

    With ``conditions`` empty this must be exactly zero: each harmonic
    evolves by a homogeneous linear ODE, so energy can never leak across
    harmonics.  Supplying a nonzero condition (the negative control) must
    surface as a positive return.  The band limit ``b`` is an integer in
    [0, MAX_BAND_LIMIT], as check_stability reads it.
    """
    b = integer("band limit b", b, 0, MAX_BAND_LIMIT)
    _, (values,) = integrate_coefficient_ode([_out_of_band(spec, b, conditions)], ORACLE_T_END, ORACLE_DT)
    return float(np.max(np.abs(values)))


# Fewest Monte Carlo trials per density that grid_deviation_scaling accepts.
MIN_SCALING_TRIALS = 100


@dataclass(frozen=True)
class ScalingRow:
    """One density's Monte Carlo means, scaled by n."""

    n: int
    scaled_spatial: float
    scaled_temporal: float


def grid_deviation_scaling(
    spec: RenewalSpec,
    n_list: Sequence[int],
    trials: int,
    seed: int,
) -> list[ScalingRow]:
    """Monte Carlo table of (n, n*E[spatial_dev], n*E[temporal_dev]).

    If the mean squared grid deviations really fall off like 1/n, both scaled
    columns sit in a flat band across densities.  ``trials`` is an integer
    from MIN_SCALING_TRIALS, for a stable mean, to 2**32, since trial
    indices are stream key entries.
    """
    trials = integer("trials", trials, MIN_SCALING_TRIALS, 2**32)
    rows = []
    for n in n_list:
        spatial_sum = temporal_sum = 0.0
        cells = ((seed, n, trial) for trial in range(trials))
        for block in draw_paths(spec, n, cell_streams(cells, 2)):
            # Path by path, in trial order, as the means were always summed.
            for s_dev, t_dev in zip(*(devs.tolist() for devs in block.grid_deviations())):
                spatial_sum += s_dev
                temporal_sum += t_dev
        rows.append(ScalingRow(n, n * spatial_sum / trials, n * temporal_sum / trials))
    return rows


def format_scaling_table(rows: Sequence[ScalingRow]) -> str:
    lines = [f"{'n':>8} {'n*E[spatial_dev]':>20} {'n*E[temporal_dev]':>20}"]
    for row in rows:
        lines.append(f"{row.n:>8} {row.scaled_spatial:>20.6e} {row.scaled_temporal:>20.6e}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Suite runners backing the CLI `verify` subcommand.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    passed: bool
    lines: tuple[str, ...]


def _report(checks: Sequence[tuple[str, bool]], head: Sequence[str]) -> SuiteReport:
    """The ``head`` lines, then one verdict line per (text, ok) check; the
    suite passes when every check does."""
    lines = [*head, *(f"{text} -> {'ok' if ok else 'FAIL'}" for text, ok in checks)]
    return SuiteReport(passed=all(ok for _, ok in checks), lines=tuple(lines))


def _at_rest(state: FieldState) -> OdeProblem:
    """Every harmonic of ``state`` starting at rest, as catalog modes do:
    value a_k(0), higher temporal derivatives zero."""
    conditions = np.zeros(state.coeffs.shape, dtype=complex)
    conditions[:, 0] = state.coeffs.sum(axis=1)
    return state.spec, [hr.k for hr in state.roots], conditions


def ode_equivalence_suite() -> SuiteReport:
    """Closed-form evolution (field.coefficients_at) against RK4 on every
    catalog harmonic, plus an order-of-convergence check on step halving."""
    dt, t_end = ORACLE_DT, ORACLE_T_END
    states = [scenario_field(entry.set_id) for entry in CATALOG]
    devs = {}  # step -> each scenario's max |closed-form - RK4|
    for step in (dt, dt / 2):
        times, runs = integrate_coefficient_ode([_at_rest(state) for state in states], t_end, step)
        devs[step] = [float(np.max(np.abs(coefficients_at(s, times) - v))) for s, v in zip(states, runs)]
    checks = []
    for entry, dev in zip(CATALOG, devs[dt]):
        text = f"scenario {entry.index}: max |closed-form - RK4| = {dev:.3e} over [0, {t_end}] at dt={dt:g}"
        checks.append((text, dev < 1e-6))
    worst = {step: max(column) for step, column in devs.items()}
    ratio = worst[dt] / worst[dt / 2] if worst[dt / 2] > 0 else float("inf")
    ratio_ok = 8.0 <= ratio <= 32.0
    checks.append((f"step halving error ratio = {ratio:.2f} (expect ~16, accept [8, 32])", ratio_ok))
    return _report(checks, head=())


# Random root sets on which bandlimit_suite checks the zero-condition solve.
ROOT_SET_COUNT = 100


def bandlimit_suite(seed: int) -> SuiteReport:
    """Out-of-band harmonics must stay exactly silent; the zero-condition
    Vandermonde solve must return exact zeros on ROOT_SET_COUNT random root
    sets drawn from ``seed``; a deliberate out-of-band injection must register."""
    control = catalog_entry(3)
    # The catalog's leak checks and the negative control share one RK4 run.
    problems = [_out_of_band(entry.spec, entry.b, {}) for entry in CATALOG]
    problems.append(_out_of_band(control.spec, control.b, {5: [1.0]}))
    _, runs = integrate_coefficient_ode(problems, ORACLE_T_END, ORACLE_DT)
    *leaks, injected = [float(np.max(np.abs(values))) for values in runs]
    checks = [
        (f"scenario {entry.index}: max out-of-band |a_k(t)| = {leak:.3e}", leak < 1e-12)
        for entry, leak in zip(CATALOG, leaks)
    ]
    rng = substream(seed, 0)
    worst = 0.0
    for _ in range(ROOT_SET_COUNT):
        m = int(rng.integers(2, 5))
        while True:
            roots = tuple(map(complex, -np.abs(rng.uniform(0.05, 5.0, m)), rng.uniform(-5.0, 5.0, m)))
            gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]]
            if min(gaps) > 1e-3:
                break
        solved = solve_initial_coefficients(HarmonicRoots(k=0, roots=roots), np.zeros(m, dtype=complex))
        worst = max(worst, float(np.max(np.abs(solved))))
    text = f"zero conditions -> zero coefficients on {ROOT_SET_COUNT} random root sets (max |a| = {worst:.3e})"
    checks.append((text, worst < 1e-14))
    checks.append((f"negative control (injected out-of-band energy) = {injected:.3e} > 0", injected > 0.0))
    return _report(checks, head=())


def _invariant_violations(spec: RenewalSpec, n: int, block: PathBlock) -> int:
    """Paths of ``block`` that break the law bound M > n/lam - 1, the one
    per-draw inequality PathBlock does not check itself."""
    return int(np.count_nonzero(~(block.M > n / spec.lam - 1)))


def _tally_invariants(spec: RenewalSpec, n: int, cells: Sequence[tuple[int, int, int]]) -> tuple[int, int]:
    """(paths checked, violations) over the paths of ``cells``; a path that
    breaks the S/T inequalities is one violation and is not checked."""
    checked = violations = 0
    try:
        for block in draw_paths(spec, n, cell_streams(cells, 2)):
            checked += len(block.M)
            violations += _invariant_violations(spec, n, block)
    except ValueError:
        if len(cells) == 1:
            return 0, 1
        # A block was refused: find its culprits path by path.
        tallies = [_tally_invariants(spec, n, [cell]) for cell in cells]
        return sum(c for c, _ in tallies), sum(v for _, v in tallies)
    return checked, violations


def _fuzz_path_invariants(seed: int, count: int) -> tuple[int, int]:
    """Draw ``count`` paths over mixed densities and families; count
    violations of the defining per-draw inequalities."""
    densities = (50, 500, 5000)
    checked = 0
    violations = 0
    # Trial t draws at density t mod 3 and family t mod 2, so the trials of
    # one residue mod 6 share a block routine call.
    for first in range(6):
        n = densities[first % len(densities)]
        family = ("uniform_scaled", "beta_scaled")[first % 2]
        lam = mu = 2.0 if family == "uniform_scaled" else 3.0
        cells = [(seed, n, trial) for trial in range(first, count, 6)]
        c, v = _tally_invariants(RenewalSpec(family, lam, mu), n, cells)
        checked += c
        violations += v
    return checked, violations


def grid_deviation_suite(seed: int, trials: int) -> SuiteReport:
    """Scaled grid deviations must sit in a flat band, and the per-draw
    inequalities must never fail; ``trials`` paths per density, and as many
    fuzzed paths."""
    spec = RenewalSpec("uniform_scaled", 2.0, 2.0)
    rows = grid_deviation_scaling(spec, (100, 400, 1600, 6400), trials, seed)
    checks = []
    for label, column in (
        ("spatial", [r.scaled_spatial for r in rows]),
        ("temporal", [r.scaled_temporal for r in rows]),
    ):
        ratio = max(column) / min(column)
        checks.append((f"{label} column max/min = {ratio:.3f} (< 3)", ratio < 3.0))
    checked, violations = _fuzz_path_invariants(seed + 1, trials)
    fuzz_ok = violations == 0 and checked == trials
    checks.append((f"per-draw invariants: {violations} violations over {checked} paths", fuzz_ok))
    return _report(checks, head=[format_scaling_table(rows)])
