"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is budgeted to finish in well under five minutes.
"""

from pathlib import Path

import numpy as np
import pytest

import fieldrecon.cli as cli
from fieldrecon.estimator import (
    build_design_matrix,
    condition_diagnostics,
)
from fieldrecon.experiments import ExperimentConfig, load_config, run_sweep, sweep_csv_text
from fieldrecon.field import catalog_entry, coefficients_at, scenario_field
from fieldrecon.oracle import (
    _fuzz_path_invariants,
    bandlimit_preservation_check,
    format_scaling_table,
    grid_deviation_scaling,
    integrate_coefficient_ode,
)
from fieldrecon.pde_core import HarmonicRoots, PdeSpec, characteristic_roots, solve_initial_coefficients
from fieldrecon.sampling import NoiseSpec, RenewalSpec, draw_path, draw_paths
from fieldrecon.streams import cell_streams, substream

ACCEPTANCE_SEED = 20260808
SWEEP_GRID = (128, 256, 512, 1024, 2048, 4096, 8192)
SCENARIOS = ((1, "set1"), (2, "set2"), (3, "diffusion"))
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# Criterion 6's scaled-deviation table at the acceptance seed, byte for byte.
APPENDIX_B_TABLE = Path(__file__).resolve().parent / "golden" / "verify" / "appendix-b-table.txt"


def path_streams(seed):
    """The spatial and temporal generators of keys 0 and 1 under ``seed``."""
    return substream(seed, 0), substream(seed, 1)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def scenario_sweeps():
    """The committed acceptance sweeps, configs/<scenario>.json."""
    return {
        index: run_sweep(load_config(CONFIG_DIR / f"{scenario}.json"))
        for index, scenario in SCENARIOS
    }


def test_criterion_01_slope_reproduction(scenario_sweeps):
    slopes = {index: scenario_sweeps[index].slope for index, _ in SCENARIOS}
    ok = all(-1.15 <= slope <= -0.85 for slope in slopes.values())
    report(1, ok, "fitted log-log slopes " + ", ".join(f"{s:.4f}" for s in slopes.values()))
    assert ok, slopes


def test_acceptance_sweeps_print_no_warning(scenario_sweeps, monkeypatch, capsys):
    # The CLI's warnings read only the sweep's result, so the fixture's
    # sweeps of the same files stand in for the runs.
    for index, scenario in SCENARIOS:
        monkeypatch.setattr(cli, "run_sweep", lambda config, **kwargs: scenario_sweeps[index])
        assert cli.main(["sweep", "--config", str(CONFIG_DIR / f"{scenario}.json")]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""


def test_criterion_02_scaled_distortion_band(scenario_sweeps):
    ratios = {}
    for index, _ in SCENARIOS:
        scaled = [row.n * row.mean_distortion for row in scenario_sweeps[index].rows]
        ratios[index] = max(scaled) / min(scaled)
    ok = all(ratio < 5.0 for ratio in ratios.values())
    report(2, ok, "n*mean_distortion max/min " + ", ".join(f"{r:.2f}" for r in ratios.values()))
    assert ok, ratios


def test_criterion_03_exact_recovery():
    worst = 0.0
    for index, scenario in SCENARIOS:
        config = ExperimentConfig(
            scenario=scenario,
            pde=index,
            n_list=SWEEP_GRID,
            trials=2,
            renewal=RenewalSpec("deterministic", 2.0, 2.0),
            noise=NoiseSpec(),
            master_seed=ACCEPTANCE_SEED,
        )
        result = run_sweep(config)
        worst = max(worst, max(row.mean_distortion for row in result.rows))
        assert all(row.rank_failures == 0 for row in result.rows)
    ok = worst < 1e-14
    report(3, ok, f"worst noiseless uniform-grid mean distortion = {worst:.3e}")
    assert ok


def test_criterion_04_ode_oracle_equivalence():
    worst = {1e-3: 0.0, 5e-4: 0.0}
    for _, set_id in SCENARIOS:
        state = scenario_field(set_id)
        for dt in worst:
            times = np.arange(round(1.0 / dt) + 1) * dt
            closed = np.array([coefficients_at(state, t) for t in times])  # all harmonics
            for hr in state.roots:
                conditions = np.zeros(state.m, dtype=complex)
                conditions[0] = complex(np.sum(state.coeffs[hr.k + state.b]))
                rk4_times, (values,) = integrate_coefficient_ode([(state.spec, [hr.k], [conditions])], 1.0, dt)
                assert np.array_equal(rk4_times, times)
                dev = float(np.max(np.abs(closed[:, hr.k + state.b] - values[:, 0])))
                worst[dt] = max(worst[dt], dev)
    ratio = worst[1e-3] / worst[5e-4]
    ok = worst[1e-3] < 1e-6 and 8.0 <= ratio <= 32.0
    report(4, ok, f"max |closed - RK4| = {worst[1e-3]:.3e} at dt=1e-3; halving ratio = {ratio:.1f}")
    assert ok, (worst, ratio)


def test_criterion_05_bandlimit_preservation():
    leaks = [bandlimit_preservation_check(catalog_entry(i).spec, b=3) for i, _ in SCENARIOS]
    rng = substream(ACCEPTANCE_SEED, 5)
    worst_zero_map = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 5))
        while True:
            roots = rng.uniform(-4.0, -0.1, m) + 1j * rng.uniform(-4.0, 4.0, m)
            gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]]
            if min(gaps) > 1e-2:
                break
        hr = HarmonicRoots(
            k=0, roots=tuple(sorted(map(complex, roots), key=lambda r: (r.real, r.imag)))
        )
        solved = solve_initial_coefficients(hr, np.zeros(m, dtype=complex))
        worst_zero_map = max(worst_zero_map, float(np.max(np.abs(solved))))
    control = bandlimit_preservation_check(catalog_entry(3).spec, b=3, conditions={5: [1.0]})
    ok = max(leaks) < 1e-12 and worst_zero_map < 1e-14 and control > 0.0
    report(
        5,
        ok,
        f"out-of-band leak = {max(leaks):.1e}; zero-map residue = {worst_zero_map:.1e}; "
        f"negative control = {control:.2f}",
    )
    assert ok, (leaks, worst_zero_map, control)


def test_criterion_06_grid_deviation_scaling():
    spec = RenewalSpec("uniform_scaled", 2.0, 2.0)
    rows = grid_deviation_scaling(spec, (100, 400, 1600, 6400), 10_000, ACCEPTANCE_SEED)
    spatial = [r.scaled_spatial for r in rows]
    temporal = [r.scaled_temporal for r in rows]
    ratio_s = max(spatial) / min(spatial)
    ratio_t = max(temporal) / min(temporal)
    checked, violations = _fuzz_path_invariants(ACCEPTANCE_SEED + 6, 10_000)
    table_ok = (format_scaling_table(rows) + "\n").encode() == APPENDIX_B_TABLE.read_bytes()
    ok = ratio_s < 3.0 and ratio_t < 3.0 and checked == 10_000 and violations == 0 and table_ok
    report(
        6,
        ok,
        f"scaled deviation max/min spatial = {ratio_s:.2f}, temporal = {ratio_t:.2f}; "
        f"invariant violations = {violations}/{checked}; golden table "
        f"{'matches' if table_ok else 'DIFFERS'}",
    )
    assert ok, (spatial, temporal, violations, table_ok)


def test_criterion_07_expected_sample_count():
    details = []
    ok = True
    for n in (50, 500, 5000):
        spec = RenewalSpec()
        # One master seed per path; its streams are keys (0,) and (1,).
        cells = (((ACCEPTANCE_SEED << 16) + n * 100_003 + trial,) for trial in range(10_000))
        blocks = draw_paths(spec, n, cell_streams(cells, 2))
        counts = np.concatenate([block.M for block in blocks]).astype(float)
        mean = float(counts.mean())
        se = float(counts.std(ddof=1) / np.sqrt(len(counts)))
        ok &= (n - 1 - 3 * se) < mean <= (n + spec.lam - 1 + 3 * se)
        details.append(f"n={n}: E[M]={mean:.2f} (se {se:.3f})")
    report(7, ok, "; ".join(details))
    assert ok, details


def test_criterion_08_inequality_diagnostics(scenario_sweeps):
    rng = substream(ACCEPTANCE_SEED, 8)
    flags_ok = True
    for i in range(100):
        if i < 4:
            # Deterministic grids of the second-order catalog entries.
            state = scenario_field(("set1", "set2")[i % 2])
            path = draw_path(RenewalSpec(family="deterministic"), 256, path_streams(i))
            roots = state.roots
        else:
            c = float(rng.uniform(0.004, 0.05))
            b = int(rng.integers(1, 4))
            spec = PdeSpec((0.0, 1.0), (0.0, 0.0, c))
            roots = tuple(characteristic_roots(spec, k) for k in range(-b, b + 1))
            path = draw_path(
                RenewalSpec(),
                int(rng.integers(100, 900)),
                path_streams(int(rng.integers(2**31))),
            )
        design = build_design_matrix(roots, path.M[0], path.T0[0])
        diag = condition_diagnostics(design)
        flags_ok &= diag.polya_szego_ok and diag.trace_lower_ok
    chain_ok = True
    worst_margin = 0.0
    for index, _ in SCENARIOS:
        result = scenario_sweeps[index]
        state_cols = {1: 14, 2: 14, 3: 7}[index]
        for record in result.trial_records:
            if not record.ok:
                continue
            bound = state_cols * record.coeff_error_sq
            worst_margin = max(worst_margin, record.distortion / bound if bound else 0.0)
            chain_ok &= record.distortion <= bound * (1 + 1e-12)
    ok = flags_ok and chain_ok
    report(
        8,
        ok,
        f"inequality flags on 100 instances: {flags_ok}; "
        f"chain bound on every sweep reconstruction: {chain_ok} "
        f"(worst distortion/bound = {worst_margin:.3f})",
    )
    assert ok


def test_criterion_09_conditioning_report(scenario_sweeps):
    rows = scenario_sweeps[3].rows
    kappas = [row.mean_kappa for row in rows]
    ratio = max(kappas) / min(kappas)
    csv_text = sweep_csv_text(scenario_sweeps[3])
    ok = ratio < 10.0 and "mean_kappa" in csv_text.splitlines()[0]
    report(9, ok, f"diffusion mean_kappa range {min(kappas):.2f}..{max(kappas):.2f} (ratio {ratio:.2f})")
    assert ok, kappas


def test_criterion_10_byte_identical_outputs(tmp_path):
    config = ExperimentConfig(
        scenario="diffusion",
        pde=3,
        n_list=(128, 256, 512, 1024),
        trials=16,
        renewal=RenewalSpec("uniform_scaled", 2.0, 2.0),
        noise=NoiseSpec("gaussian", 1e-4),
        master_seed=ACCEPTANCE_SEED,
    )
    run_sweep(config, out_dir=tmp_path / "a")
    run_sweep(config, out_dir=tmp_path / "b")
    run_sweep(config, workers=2, out_dir=tmp_path / "c")
    first = (tmp_path / "a" / "sweep.csv").read_bytes()
    second = (tmp_path / "b" / "sweep.csv").read_bytes()
    parallel = (tmp_path / "c" / "sweep.csv").read_bytes()
    ok = first == second == parallel
    report(10, ok, f"sweep.csv identical across reruns and worker counts ({len(first)} bytes)")
    assert ok
