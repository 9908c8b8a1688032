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

from .field import CATALOG, catalog_entry, catalog_scenario, coefficients_at
from .pde_core import HarmonicRoots, PdeSpec, eval_poly, solve_initial_coefficients
from .sampling import RenewalSpec, draw_path, grid_deviation
from .streams import substream, trial_streams


@dataclass(frozen=True, eq=False)
class OdeTrajectory:
    """Numerically integrated modal coefficient a_k(t) on a uniform time grid."""

    k: int
    times: np.ndarray
    values: np.ndarray
    step: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
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
    k: int,
    derivative_conditions: Sequence[complex],
    t_end: float,
    dt: float,
) -> OdeTrajectory:
    """Classical fixed-step RK4 on the modal ODE, from the given initial
    value and temporal derivatives.  t_end is rounded to whole steps."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < dt:
        raise ValueError("t_end must be at least one step")
    m = spec.degree
    state = np.asarray(derivative_conditions, dtype=complex)
    if state.shape != (m,):
        raise ValueError(f"expected {m} initial conditions, got {state.shape}")
    system = _companion_system(spec, k)
    steps = int(round(t_end / dt))
    values = np.empty(steps + 1, dtype=complex)
    values[0] = state[0]
    y = state.copy()
    for i in range(1, steps + 1):
        k1 = system @ y
        k2 = system @ (y + 0.5 * dt * k1)
        k3 = system @ (y + 0.5 * dt * k2)
        k4 = system @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[i] = y[0]
    times = np.arange(steps + 1) * dt
    return OdeTrajectory(k=k, times=times, values=values, step=dt)


def bandlimit_preservation_check(
    spec: PdeSpec,
    b: int,
    k_probe_max: int | None = None,
    t_grid: np.ndarray | None = None,
    conditions: Mapping[int, Sequence[complex]] | None = None,
) -> float:
    """Largest |a_k(t)| seen on any out-of-band harmonic b < |k| <= k_probe_max.

    With all out-of-band initial conditions zero this must be exactly zero:
    each harmonic evolves by a homogeneous linear ODE, so energy can never
    leak across harmonics.  Supplying a nonzero condition (the negative
    control) must surface as a positive return.
    """
    if k_probe_max is None:
        k_probe_max = 2 * b + 4
    if t_grid is None:
        t_grid = np.arange(0.0, 1.0 + 1e-3, 1e-3)
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2 or t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0 and hold at least two points")
    dt = float(t_grid[1] - t_grid[0])
    conditions = dict(conditions or {})
    m = spec.degree
    worst = 0.0
    for k in range(b + 1, k_probe_max + 1):
        for signed in (k, -k):
            initial = np.asarray(conditions.get(signed, np.zeros(m)), dtype=complex)
            traj = integrate_coefficient_ode(spec, signed, initial, float(t_grid[-1]), dt)
            worst = max(worst, float(np.max(np.abs(traj.values))))
    return worst


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
    t0_policy: str = "last_sample",
) -> list[ScalingRow]:
    """Monte Carlo table of (n, n*E[spatial_dev], n*E[temporal_dev]).

    If the mean squared grid deviations really fall off like 1/n, both scaled
    columns sit in a flat band across densities.
    """
    if trials < MIN_SCALING_TRIALS:
        raise ValueError(f"at least {MIN_SCALING_TRIALS} trials required for a stable mean")
    rows = []
    for n in n_list:
        spatial_sum = 0.0
        temporal_sum = 0.0
        for trial in range(trials):
            path = draw_path(spec, n, trial_streams(seed, n, trial), t0_policy)
            s_dev, t_dev = grid_deviation(path)
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


def ode_equivalence_suite(dt: float = 1e-3, t_end: float = 1.0) -> SuiteReport:
    """Closed-form evolution (field.coefficients_at) against RK4 on every
    catalog harmonic, plus an order-of-convergence check on step halving."""
    lines = []
    passed = True
    worst = {dt: 0.0, dt / 2: 0.0}
    for entry in CATALOG:
        spec, state = catalog_scenario(entry.index)
        # Catalog modes start at rest: value a_k(0), higher derivatives zero.
        conditions = np.zeros(state.coeffs.shape, dtype=complex)
        conditions[:, 0] = state.coeffs.sum(axis=1)
        devs = {}
        for step in worst:
            trajectories = [
                integrate_coefficient_ode(spec, hr.k, conditions[i], t_end, step)
                for i, hr in enumerate(state.roots)
            ]
            # One closed-form call per time point serves every harmonic.
            closed = np.array([coefficients_at(state, t) for t in trajectories[0].times])
            devs[step] = max(
                float(np.max(np.abs(closed[:, i] - traj.values)))
                for i, traj in enumerate(trajectories)
            )
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
        spec, state = catalog_scenario(entry.index)
        leak = bandlimit_preservation_check(spec, b=state.b)
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
    injected = bandlimit_preservation_check(catalog_entry(3).spec, b=3, conditions={5: [1.0]})
    control_ok = injected > 0.0
    passed &= control_ok
    lines.append(
        f"negative control (injected out-of-band energy) = {injected:.3e} > 0 -> "
        f"{'ok' if control_ok else 'FAIL'}"
    )
    return SuiteReport(name="appendix-a", passed=bool(passed), lines=tuple(lines))


def _fuzz_path_invariants(seed: int, count: int) -> tuple[int, int]:
    """Draw ``count`` paths over mixed densities/families/policies; count
    violations of the defining per-draw inequalities."""
    densities = (50, 500, 5000)
    checked = 0
    violations = 0
    for trial in range(count):
        n = densities[trial % len(densities)]
        family = ("uniform_scaled", "beta_scaled")[trial % 2]
        policy = ("last_sample", "jittered")[(trial // 2) % 2]
        lam = mu = 2.0 if family == "uniform_scaled" else 3.0
        spec = RenewalSpec(family, lam, mu)
        try:
            path = draw_path(spec, n, trial_streams(seed, n, trial), policy)
        except ValueError:
            violations += 1  # SamplePath constructor enforces the S/T inequalities
            continue
        checked += 1
        if not (path.M > n / spec.lam - 1):
            violations += 1
        if not (0.0 <= path.slack <= spec.mu / n + 1e-15):
            violations += 1
        if not (path.slack < path.T[path.M] - path.T[path.M - 1]):
            violations += 1
    return checked, violations


def grid_deviation_suite(seed: int = 2024, trials: int = 10_000) -> SuiteReport:
    """Scaled grid deviations must sit in a flat band, and the per-draw
    inequalities must never fail."""
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
    checked, violations = _fuzz_path_invariants(seed + 1, 10_000)
    fuzz_ok = violations == 0 and checked == 10_000
    passed &= fuzz_ok
    lines.append(
        f"per-draw invariants: {violations} violations over {checked} paths -> "
        f"{'ok' if fuzz_ok else 'FAIL'}"
    )
    return SuiteReport(name="appendix-b", passed=bool(passed), lines=tuple(lines))
