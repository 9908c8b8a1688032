"""Independent brute-force verifiers.

Nothing here reuses the closed-form evolution or the design-matrix path it
checks: modal dynamics are re-integrated numerically, bandlimitedness is
probed beyond the band edge, and the grid-deviation scaling is measured by
plain Monte Carlo.  The suite runners emit plain-text tables for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .field import CATALOG, catalog_entry, coefficients_at, scenario_field
from .pde_core import HarmonicRoots, PdeSpec, eval_poly, integer, solve_initial_coefficients
from .sampling import PathBlock, RenewalSpec, draw_paths
from .streams import cell_streams, substream


@dataclass(frozen=True, eq=False)
class OdeTrajectory:
    """Numerically integrated modal coefficients a_k(t) of the harmonics
    ``ks`` on a uniform time grid; ``values[:, h]`` is harmonic ``ks[h]``."""

    ks: tuple[int, ...]
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if times.ndim != 1 or values.shape != (len(times), len(self.ks)):
            raise ValueError("values must hold one column per harmonic at every time")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("times must increase strictly from 0")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def _companion_system(spec: PdeSpec, k: int) -> np.ndarray:
    """First-order system matrix for p(d/dt) a = q(j 2 pi k) a."""
    m = spec.degree
    lead = spec.p_coeffs[-1]  # nonzero: PdeSpec rejects a vanishing leading coefficient
    forcing = eval_poly(spec.q_coeffs, 2j * np.pi * k)
    system = np.zeros((m, m), dtype=complex)
    system[:-1, 1:] = np.eye(m - 1)
    system[-1, 0] = (forcing - spec.p_coeffs[0]) / lead
    for j in range(1, m):
        system[-1, j] = -spec.p_coeffs[j] / lead
    return system


def integrate_coefficient_ode(
    spec: PdeSpec,
    ks: Sequence[int],
    conditions: Sequence[Sequence[complex]],
    t_end: float,
    dt: float,
) -> OdeTrajectory:
    """Classical fixed-step RK4 on the modal ODEs of the harmonics ``ks``, all
    at once.  Row h of ``conditions`` holds harmonic ks[h]'s initial value and
    temporal derivatives.  t_end is rounded to whole steps.

    The harmonics share nothing but the time grid: each stage applies the
    stacked companion matrices with one einsum, so a harmonic's trajectory
    is the same, bit for bit, whatever else is in the stack.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < dt:
        raise ValueError("t_end must be at least one step")
    ks = tuple(int(k) for k in ks)
    if not ks:
        raise ValueError("at least one harmonic is required")
    m = spec.degree
    y = np.array(conditions, dtype=complex)
    if y.shape != (len(ks), m):
        raise ValueError(f"expected {len(ks)} x {m} initial conditions, got {y.shape}")
    system = np.stack([_companion_system(spec, k) for k in ks])
    steps = int(round(t_end / dt))
    values = np.empty((steps + 1, len(ks)), dtype=complex)
    values[0] = y[:, 0]
    for i in range(1, steps + 1):
        k1 = np.einsum("hij,hj->hi", system, y)
        k2 = np.einsum("hij,hj->hi", system, y + 0.5 * dt * k1)
        k3 = np.einsum("hij,hj->hi", system, y + 0.5 * dt * k2)
        k4 = np.einsum("hij,hj->hi", system, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[i] = y[:, 0]
    times = np.arange(steps + 1) * dt
    return OdeTrajectory(ks=ks, times=times, values=values)


# RK4 step and horizon of every oracle integration.
ORACLE_DT = 1e-3
ORACLE_T_END = 1.0


def bandlimit_preservation_check(
    spec: PdeSpec, b: int, conditions: Mapping[int, Sequence[complex]] | None = None
) -> float:
    """Largest |a_k(t)| over [0, ORACLE_T_END] on any out-of-band harmonic
    b < |k| <= 2b + 4.

    With all out-of-band initial conditions zero this must be exactly zero:
    each harmonic evolves by a homogeneous linear ODE, so energy can never
    leak across harmonics.  Supplying a nonzero condition (the negative
    control) must surface as a positive return.
    """
    conditions = dict(conditions or {})
    zero = np.zeros(spec.degree)
    ks = [signed for k in range(b + 1, 2 * b + 5) for signed in (k, -k)]
    initial = [np.asarray(conditions.get(k, zero), dtype=complex) for k in ks]
    traj = integrate_coefficient_ode(spec, ks, initial, ORACLE_T_END, ORACLE_DT)
    return float(np.max(np.abs(traj.values)))


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
    columns sit in a flat band across densities.
    """
    if integer("trials", trials) < MIN_SCALING_TRIALS:
        raise ValueError(f"at least {MIN_SCALING_TRIALS} trials required for a stable mean")
    rows = []
    for n in n_list:
        spatial_sum = 0.0
        temporal_sum = 0.0
        cells = ((seed, n, trial) for trial in range(trials))
        for block in draw_paths(spec, n, cell_streams(cells, 2)):
            # Path by path, in trial order, as the means were always summed.
            for s_dev, t_dev in zip(*(devs.tolist() for devs in block.grid_deviations())):
                spatial_sum += s_dev
                temporal_sum += t_dev
        rows.append(
            ScalingRow(
                n=n,
                scaled_spatial=n * spatial_sum / trials,
                scaled_temporal=n * temporal_sum / trials,
            )
        )
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
    name: str
    passed: bool
    lines: tuple[str, ...]


def ode_equivalence_suite() -> SuiteReport:
    """Closed-form evolution (field.coefficients_at) against RK4 on every
    catalog harmonic, plus an order-of-convergence check on step halving."""
    lines = []
    passed = True
    dt, t_end = ORACLE_DT, ORACLE_T_END
    worst = {dt: 0.0, dt / 2: 0.0}
    for entry in CATALOG:
        state = scenario_field(entry.set_id)
        # Catalog modes start at rest: value a_k(0), higher derivatives zero.
        conditions = np.zeros(state.coeffs.shape, dtype=complex)
        conditions[:, 0] = state.coeffs.sum(axis=1)
        ks = [hr.k for hr in state.roots]
        devs = {}
        for step in worst:
            traj = integrate_coefficient_ode(state.spec, ks, conditions, t_end, step)
            # One closed-form call per time point serves every harmonic.
            closed = np.array([coefficients_at(state, t) for t in traj.times])
            devs[step] = float(np.max(np.abs(closed - traj.values)))
            worst[step] = max(worst[step], devs[step])
        ok = devs[dt] < 1e-6
        passed &= ok
        lines.append(
            f"scenario {entry.index}: max |closed-form - RK4| = {devs[dt]:.3e} over [0, {t_end}] "
            f"at dt={dt:g} -> {'ok' if ok else 'FAIL'}"
        )
    ratio = worst[dt] / worst[dt / 2] if worst[dt / 2] > 0 else float("inf")
    ratio_ok = 8.0 <= ratio <= 32.0
    passed &= ratio_ok
    lines.append(
        f"step halving error ratio = {ratio:.2f} (expect ~16, accept [8, 32]) "
        f"-> {'ok' if ratio_ok else 'FAIL'}"
    )
    return SuiteReport(name="ode", passed=bool(passed), lines=tuple(lines))


def bandlimit_suite(seed: int = 2024, instances: int = 100) -> SuiteReport:
    """Out-of-band harmonics must stay exactly silent; the zero-condition
    Vandermonde solve must return exact zeros; a deliberate out-of-band
    injection must register."""
    lines = []
    passed = True
    for entry in CATALOG:
        state = scenario_field(entry.set_id)
        leak = bandlimit_preservation_check(state.spec, b=state.b)
        ok = leak < 1e-12
        passed &= ok
        lines.append(
            f"scenario {entry.index}: max out-of-band |a_k(t)| = {leak:.3e} -> "
            f"{'ok' if ok else 'FAIL'}"
        )
    rng = substream(seed, 0)
    worst = 0.0
    for _ in range(instances):
        m = int(rng.integers(2, 5))
        while True:
            roots = tuple(
                complex(-abs(re), im)
                for re, im in zip(rng.uniform(0.05, 5.0, m), rng.uniform(-5.0, 5.0, m))
            )
            gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]]
            if min(gaps) > 1e-3:
                break
        solved = solve_initial_coefficients(
            HarmonicRoots(k=0, roots=roots), np.zeros(m, dtype=complex)
        )
        worst = max(worst, float(np.max(np.abs(solved))))
    zero_ok = worst < 1e-14
    passed &= zero_ok
    lines.append(
        f"zero conditions -> zero coefficients on {instances} random root sets "
        f"(max |a| = {worst:.3e}) -> {'ok' if zero_ok else 'FAIL'}"
    )
    entry = catalog_entry(3)
    injected = bandlimit_preservation_check(entry.spec, b=entry.b, conditions={5: [1.0]})
    control_ok = injected > 0.0
    passed &= control_ok
    lines.append(
        f"negative control (injected out-of-band energy) = {injected:.3e} > 0 -> "
        f"{'ok' if control_ok else 'FAIL'}"
    )
    return SuiteReport(name="appendix-a", passed=bool(passed), lines=tuple(lines))


def _invariant_violations(spec: RenewalSpec, n: int, block: PathBlock) -> int:
    """Failures of the per-draw inequalities PathBlock does not check itself."""
    rows = np.arange(len(block.M))
    slack = block.slack
    gap = block.T[rows, block.M] - block.T[rows, block.M - 1]
    return int(
        np.count_nonzero(~(block.M > n / spec.lam - 1))
        + np.count_nonzero(~((0.0 <= slack) & (slack <= spec.mu / n + 1e-15)))
        + np.count_nonzero(~(slack < gap))
    )


def _tally_invariants(
    spec: RenewalSpec, n: int, policy: str, cells: Sequence[tuple[int, int, int]]
) -> tuple[int, int]:
    """(paths checked, violations) over the paths of ``cells``; a path that
    breaks the S/T inequalities is one violation and is not checked."""
    checked = violations = 0
    try:
        for block in draw_paths(spec, n, cell_streams(cells, 2), policy):
            checked += len(block.M)
            violations += _invariant_violations(spec, n, block)
    except ValueError:
        if len(cells) == 1:
            return 0, 1
        # A block was refused: find its culprits path by path.
        tallies = [_tally_invariants(spec, n, policy, [cell]) for cell in cells]
        return sum(c for c, _ in tallies), sum(v for _, v in tallies)
    return checked, violations


def _fuzz_path_invariants(seed: int, count: int) -> tuple[int, int]:
    """Draw ``count`` paths over mixed densities/families/policies; count
    violations of the defining per-draw inequalities."""
    densities = (50, 500, 5000)
    checked = 0
    violations = 0
    # Trial t draws at density t mod 3, family t mod 2 and policy (t // 2)
    # mod 2, so the trials of one residue mod 12 share a block routine call.
    for first in range(12):
        n = densities[first % len(densities)]
        family = ("uniform_scaled", "beta_scaled")[first % 2]
        policy = ("last_sample", "jittered")[(first // 2) % 2]
        lam = mu = 2.0 if family == "uniform_scaled" else 3.0
        cells = [(seed, n, trial) for trial in range(first, count, 12)]
        c, v = _tally_invariants(RenewalSpec(family, lam, mu), n, policy, cells)
        checked += c
        violations += v
    return checked, violations


def grid_deviation_suite(seed: int = 2024, trials: int = 10_000) -> SuiteReport:
    """Scaled grid deviations must sit in a flat band, and the per-draw
    inequalities must never fail; ``trials`` paths per density, and as many
    fuzzed paths."""
    spec = RenewalSpec("uniform_scaled", 2.0, 2.0)
    rows = grid_deviation_scaling(spec, (100, 400, 1600, 6400), trials, seed)
    lines = [format_scaling_table(rows)]
    passed = True
    for label, column in (
        ("spatial", [r.scaled_spatial for r in rows]),
        ("temporal", [r.scaled_temporal for r in rows]),
    ):
        ratio = max(column) / min(column)
        ok = ratio < 3.0
        passed &= ok
        lines.append(f"{label} column max/min = {ratio:.3f} (< 3) -> {'ok' if ok else 'FAIL'}")
    checked, violations = _fuzz_path_invariants(seed + 1, trials)
    fuzz_ok = violations == 0 and checked == trials
    passed &= fuzz_ok
    lines.append(
        f"per-draw invariants: {violations} violations over {checked} paths -> "
        f"{'ok' if fuzz_ok else 'FAIL'}"
    )
    return SuiteReport(name="appendix-b", passed=bool(passed), lines=tuple(lines))
