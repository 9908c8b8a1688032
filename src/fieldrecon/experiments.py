"""Density sweeps, slope fits, and result persistence.

A sweep runs ``trials`` independent reconstructions at every density in
``n_list`` and aggregates the distortion per density.  Every random draw is
keyed by (master_seed, n, trial, stream), so the same configuration produces
byte-identical outputs no matter how trials are scheduled or parallelized.
"""

from __future__ import annotations

import json
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .errors import ConfigInvalid, DegenerateFit, InfeasiblePde, InsufficientSamples, RankDeficient
from .field import CATALOG, FieldState, catalog_entry, coefficients_at, random_real_field, scenario_field
from .pde_core import PdeSpec, check_stability
from .estimator import build_design_matrix, reconstruct
from .sampling import NoiseSpec, RenewalSpec, draw_path, sample_field
from .streams import noise_stream, substream, trial_streams

RANDOM_SCENARIO_BAND = 3

_CONFIG_KEYS = {
    "scenario",
    "pde",
    "n_list",
    "trials",
    "renewal",
    "noise",
    "master_seed",
    "output_path",
}
_RENEWAL_KEYS = {"family", "lambda", "mu"}
_NOISE_KEYS = {"family", "variance"}
_PDE_KEYS = {"p_coeffs", "q_coeffs"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; pure data, safe to echo into result files."""

    scenario: str
    pde: PdeSpec | int
    n_list: tuple[int, ...]
    trials: int
    renewal: RenewalSpec = RenewalSpec()
    noise: NoiseSpec = NoiseSpec()
    master_seed: int = 0
    output_path: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_list", tuple(_integer(n, "n_list item") for n in self.n_list))
        object.__setattr__(self, "trials", _integer(self.trials, "trials"))
        object.__setattr__(self, "master_seed", _integer(self.master_seed, "master_seed"))
        if not self.n_list or any(n <= 0 for n in self.n_list):
            raise ConfigInvalid("n_list must be a non-empty sequence of positive integers")
        if self.trials < 1:
            raise ConfigInvalid("trials must be at least 1")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigInvalid("master_seed must fit an unsigned 64-bit integer")
        if isinstance(self.pde, numbers.Integral) and not isinstance(self.pde, bool):
            # A numpy integer is stored as an int, so resolve_field and the
            # summary echo see a catalog index.
            object.__setattr__(self, "pde", int(self.pde))
            if self.pde not in [entry.index for entry in CATALOG]:
                raise ConfigInvalid(f"unknown catalog PDE index {self.pde}")
        elif not isinstance(self.pde, PdeSpec):
            raise ConfigInvalid(f"pde must be a catalog index or a PdeSpec, got {self.pde!r}")
        _parse_scenario_tag(self.scenario)  # raises on malformed tags


def _integer(value, what: str) -> int:
    """``value`` as an int; a bool or a non-integer number is refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigInvalid(f"{what} must be an integer, got {value!r}")
    return int(value)


def _parse_scenario_tag(tag: str) -> int | None:
    """Return the field seed for 'random:<seed>' tags, None for catalog ids."""
    if tag in [entry.set_id for entry in CATALOG]:
        return None
    if tag.startswith("random:"):
        try:
            seed = int(tag.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigInvalid(f"malformed random scenario tag {tag!r}") from exc
        if seed < 0:
            raise ConfigInvalid("random scenario seed must be non-negative")
        return seed
    raise ConfigInvalid(f"unknown scenario {tag!r}")


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Ordinary least squares of log10(y) on log10(n)."""
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    n = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    if np.any(y <= 0) or np.any(n <= 0):
        raise ValueError("log-log fit requires positive coordinates")
    if np.all(n == n[0]):
        raise DegenerateFit("all abscissae coincide; slope undefined")
    slope, intercept = np.polyfit(np.log10(n), np.log10(y), 1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one reconstruction; failures stay visible, never imputed."""

    n: int
    trial: int
    ok: bool
    distortion: float
    coeff_error_sq: float
    kappa: float
    samples: int
    t0: float


@dataclass(frozen=True)
class SweepRow:
    n: int
    mean_distortion: float
    stderr: float
    mean_M: float
    mean_kappa: float
    rank_failures: int


@dataclass(frozen=True, eq=False)
class SweepResult:
    rows: tuple[SweepRow, ...]
    slope: float
    intercept: float
    trial_records: tuple[TrialRecord, ...]


@dataclass(frozen=True, eq=False)
class SweepPlan:
    """Picklable bundle of everything one trial needs."""

    state: FieldState
    renewal: RenewalSpec
    noise: NoiseSpec
    master_seed: int


def run_trial(plan: SweepPlan, n: int, trial: int) -> TrialRecord:
    """Draw a path, sample the field, reconstruct on the uniform grid, score."""
    path = draw_path(plan.renewal, n, trial_streams(plan.master_seed, n, trial))
    samples = sample_field(plan.state, path, plan.noise, noise_stream(plan.master_seed, n, trial))
    true_k0 = coefficients_at(plan.state, 0.0)
    try:
        design = build_design_matrix(plan.state.roots, path.M, path.T0)
        result = reconstruct(design, samples, true_k0)
    except (RankDeficient, InsufficientSamples):
        nan = float("nan")
        return TrialRecord(n, trial, False, nan, nan, nan, path.M, path.T0)
    coeff_error = float(np.sum(np.abs(result.a_hat - plan.state.flat_coeffs()) ** 2))
    return TrialRecord(
        n, trial, True, result.distortion, coeff_error, result.kappa, path.M, path.T0
    )


_WORKER_PLAN: SweepPlan | None = None


def _init_worker(plan: SweepPlan) -> None:
    global _WORKER_PLAN
    _WORKER_PLAN = plan


def _worker_trial(task: tuple[int, int]) -> TrialRecord:
    assert _WORKER_PLAN is not None
    return run_trial(_WORKER_PLAN, *task)


def resolve_field(config: ExperimentConfig) -> FieldState:
    pde = catalog_entry(config.pde).spec if isinstance(config.pde, int) else config.pde
    field_seed = _parse_scenario_tag(config.scenario)
    if field_seed is None:
        return scenario_field(config.scenario, pde)
    return random_real_field(RANDOM_SCENARIO_BAND, pde, substream(field_seed, 0))


def _validate_densities(config: ExperimentConfig, state: FieldState) -> None:
    cols = state.m * (2 * state.b + 1)
    floor = 10.0 * max(config.renewal.lam, config.renewal.mu)
    for n in config.n_list:
        if n <= cols:
            raise ConfigInvalid(f"density n={n} must exceed the {cols} unknowns")
        if n < floor:
            raise ConfigInvalid(f"density n={n} must be at least 10*max(lam, mu) = {floor:g}")


def run_sweep(
    config: ExperimentConfig, workers: int = 1, out_dir: str | Path | None = None
) -> SweepResult:
    """Full density sweep.

    Trials that raise RankDeficient (or InsufficientSamples) count as
    rank_failures for their density and are excluded from the means.  With
    ``workers > 1`` trials run in a process pool; results are identical to
    the sequential run because every trial owns seed-derived streams and the
    aggregation order is fixed.  ``workers`` below 1 raises ConfigInvalid.
    """
    if workers < 1:
        raise ConfigInvalid(f"workers must be at least 1, got {workers}")
    state = resolve_field(config)
    _validate_densities(config, state)
    stability = check_stability(state.spec, state.b)
    if not stability.feasible:
        raise InfeasiblePde(f"growing modes at k = {stability.offending}")

    plan = SweepPlan(
        state=state,
        renewal=config.renewal,
        noise=config.noise,
        master_seed=config.master_seed,
    )
    tasks = [(n, trial) for n in config.n_list for trial in range(config.trials)]
    if workers == 1:
        records = [run_trial(plan, n, trial) for n, trial in tasks]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(plan,)
        ) as pool:
            records = list(pool.map(_worker_trial, tasks, chunksize=8))

    records.sort(key=lambda r: (r.n, r.trial))
    rows = []
    for n in sorted(set(config.n_list)):
        cell = [r for r in records if r.n == n]
        good = [r for r in cell if r.ok]
        if good:
            dists = np.array([r.distortion for r in good])
            mean = float(np.mean(dists))
            stderr = float(np.std(dists, ddof=1) / np.sqrt(len(dists))) if len(dists) > 1 else 0.0
            mean_m = float(np.mean([r.samples for r in good]))
            mean_kappa = float(np.mean([r.kappa for r in good]))
        else:
            mean = stderr = mean_m = mean_kappa = float("nan")
        rows.append(
            SweepRow(
                n=n,
                mean_distortion=mean,
                stderr=stderr,
                mean_M=mean_m,
                mean_kappa=mean_kappa,
                rank_failures=len(cell) - len(good),
            )
        )

    fit_points = [(row.n, row.mean_distortion) for row in rows if row.mean_distortion > 0]
    if len(fit_points) >= 2:
        slope, intercept = fit_loglog_slope(fit_points)
    else:
        slope = intercept = float("nan")

    result = SweepResult(
        rows=tuple(rows), slope=slope, intercept=intercept, trial_records=tuple(records)
    )
    target = out_dir if out_dir is not None else config.output_path
    if target is not None:
        write_outputs(result, config, target)
    return result


def _fmt(x: float) -> str:
    """Shortest float text that round-trips; locale-free, '.' radix."""
    return repr(float(x))


def sweep_csv_text(result: SweepResult) -> str:
    lines = ["n,mean_distortion,stderr,mean_M,mean_kappa,rank_failures"]
    for row in result.rows:
        lines.append(
            f"{row.n},{_fmt(row.mean_distortion)},{_fmt(row.stderr)},"
            f"{_fmt(row.mean_M)},{_fmt(row.mean_kappa)},{row.rank_failures}"
        )
    return "\n".join(lines) + "\n"


def write_outputs(result: SweepResult, config: ExperimentConfig, out_dir: str | Path) -> None:
    """Write sweep.csv and a summary record next to it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text(sweep_csv_text(result))
    summary = {
        "slope": result.slope if np.isfinite(result.slope) else None,
        "intercept": result.intercept if np.isfinite(result.intercept) else None,
        "version": __version__,
        "config": config_to_record(config),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# Config file handling (JSON, keys exactly matching ExperimentConfig fields).
# --------------------------------------------------------------------------


def config_to_record(config: ExperimentConfig) -> dict:
    pde = config.pde
    pde_record = (
        pde if isinstance(pde, int) else {"p_coeffs": list(pde.p_coeffs), "q_coeffs": list(pde.q_coeffs)}
    )
    record = {
        "scenario": config.scenario,
        "pde": pde_record,
        "n_list": list(config.n_list),
        "trials": config.trials,
        "renewal": {
            "family": config.renewal.family,
            "lambda": config.renewal.lam,
            "mu": config.renewal.mu,
        },
        "noise": {"family": config.noise.family, "variance": config.noise.variance},
        "master_seed": config.master_seed,
    }
    if config.output_path is not None:
        record["output_path"] = config.output_path
    return record


def _check_keys(record: dict, allowed: set[str], required: set[str], label: str) -> None:
    unknown = record.keys() - allowed
    if unknown:
        raise ConfigInvalid(f"unknown {label} keys: {sorted(unknown)}")
    missing = required - record.keys()
    if missing:
        raise ConfigInvalid(f"missing {label} keys: {sorted(missing)}")


def _typed(record: dict, key: str, kind: type | tuple[type, ...], what: str):
    """``record[key]``, refused unless it has type ``kind``; a bool is never a number."""
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigInvalid(f"{key} must be {what}, got {value!r}")
    return value


def config_from_record(record: dict) -> ExperimentConfig:
    if not isinstance(record, dict):
        raise ConfigInvalid("configuration must be a JSON object")
    _check_keys(record, _CONFIG_KEYS, _CONFIG_KEYS - {"output_path"}, "config")
    pde = _typed(record, "pde", (int, dict), "a catalog index or a coefficient record")
    if isinstance(pde, dict):
        _check_keys(pde, _PDE_KEYS, _PDE_KEYS, "pde")
        try:
            pde = PdeSpec(tuple(pde["p_coeffs"]), tuple(pde["q_coeffs"]))
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"invalid PDE coefficients: {exc}") from exc
    renewal_rec = _typed(record, "renewal", dict, "a JSON object")
    _check_keys(renewal_rec, _RENEWAL_KEYS, _RENEWAL_KEYS, "renewal")
    noise_rec = _typed(record, "noise", dict, "a JSON object")
    _check_keys(noise_rec, _NOISE_KEYS, _NOISE_KEYS, "noise")
    lam = float(_typed(renewal_rec, "lambda", (int, float), "a number"))
    mu = float(_typed(renewal_rec, "mu", (int, float), "a number"))
    variance = float(_typed(noise_rec, "variance", (int, float), "a number"))
    try:
        renewal = RenewalSpec(family=renewal_rec["family"], lam=lam, mu=mu)
        noise = NoiseSpec(family=noise_rec["family"], variance=variance)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(str(exc)) from exc
    return ExperimentConfig(
        scenario=_typed(record, "scenario", str, "a string"),
        pde=pde,
        n_list=_typed(record, "n_list", list, "a list of integers"),
        trials=record["trials"],
        renewal=renewal,
        noise=noise,
        master_seed=record["master_seed"],
        output_path=_typed(record, "output_path", str, "a string") if "output_path" in record else None,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        record = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config file is not valid JSON: {exc}") from exc
    return config_from_record(record)
