"""Density sweeps, slope fits, and result persistence.

A sweep runs ``trials`` independent reconstructions at every density in
``n_list`` and aggregates the distortion per density.  Every random draw is
keyed by (master_seed, n, trial, stream), so the same configuration produces
byte-identical outputs no matter how trials are scheduled or parallelized.
Each trial reads its renewal and noise specs from the config; the rules on
them, the density a renewal spec serves among them, live in ``sampling``.
The JSON reader checks only the shape of a record (objects, their keys)
and hands its values unchanged to the specs, which refuse what they cannot
hold; numbers follow ``pde_core.real_number`` and ``pde_core.integer``.
Reading, writing and key checks follow one schema: ``_SECTIONS``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import numbers
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import __version__
from .errors import ConfigInvalid, DegenerateFit, InfeasiblePde
from .field import CATALOG, FieldState, catalog_entry, coefficients_at, random_real_field, scenario_field
from .pde_core import PdeSpec, check_stability, integer
from .estimator import ReconstructionResult, reconstruct_stack
from .sampling import NoiseSpec, RenewalSpec, draw_paths, sample_paths
from .streams import cell_streams, substream

RANDOM_SCENARIO_BAND = 3
# Trials per task of a sweep: the unit a pool worker takes, and the cells
# whose generators one hashing pass derives.
_TRIAL_BLOCK = 16
# Bound on a stack's readings times the field's unknowns (rows x c): the
# trials of a task share one stack until the next would pass it, unless one
# trial alone does (see _run_block).  It sets the stacks, not a matrix size.
_STACK_ELEMENTS = 2**16


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

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, str):
            raise ConfigInvalid(f"scenario must be a string, got {self.scenario!r}")
        n_list = self.n_list.tolist() if isinstance(self.n_list, np.ndarray) else self.n_list
        if not isinstance(n_list, (list, tuple)):  # not a string's characters or a mapping's keys
            raise ConfigInvalid(f"n_list must be a list of integers, got {self.n_list!r}")
        try:
            object.__setattr__(self, "n_list", tuple(integer("n_list item", n) for n in n_list))
            object.__setattr__(self, "trials", integer("trials", self.trials))
            object.__setattr__(self, "master_seed", integer("master_seed", self.master_seed))
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from None
        if not self.n_list or any(n <= 0 for n in self.n_list):
            raise ConfigInvalid("n_list must be a non-empty sequence of positive integers")
        if len(set(self.n_list)) != len(self.n_list):
            # A repeated density would rerun its trials on the same seeds and
            # pool both copies into one row, understating its stderr.
            repeated = sorted({n for n in self.n_list if self.n_list.count(n) > 1})
            raise ConfigInvalid(f"n_list repeats densities {repeated}")
        # Densities and trial indices are stream key entries, which lie below 2**32.
        if max(self.n_list) >= 2**32:
            raise ConfigInvalid(f"n_list densities must be below 2**32, got {max(self.n_list)}")
        if not 1 <= self.trials <= 2**32:
            raise ConfigInvalid(f"trials must lie in [1, 2**32], got {self.trials}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigInvalid("master_seed must fit an unsigned 64-bit integer")
        if isinstance(self.pde, numbers.Integral) and not isinstance(self.pde, bool):
            # A numpy integer is stored as an int, so resolve_field and the
            # summary echo see a catalog index.
            object.__setattr__(self, "pde", int(self.pde))
            if self.pde not in [entry.index for entry in CATALOG]:
                raise ConfigInvalid(f"unknown catalog PDE index {self.pde}")
        elif not isinstance(self.pde, PdeSpec):
            raise ConfigInvalid(
                f"pde must be a catalog index or an object with p_coeffs and q_coeffs, got {self.pde!r}"
            )
        if not isinstance(self.renewal, RenewalSpec):
            raise ConfigInvalid(f"renewal must be a RenewalSpec, got {self.renewal!r}")
        if not isinstance(self.noise, NoiseSpec):
            raise ConfigInvalid(f"noise must be a NoiseSpec, got {self.noise!r}")
        _parse_scenario_tag(self.scenario)  # raises on malformed tags


def _parse_scenario_tag(tag: str) -> int | None:
    """Return the field seed for 'random:<seed>' tags, None for catalog ids."""
    if tag in [entry.set_id for entry in CATALOG]:
        return None
    if tag.startswith("random:"):
        text = tag.split(":", 1)[1]
        try:
            seed = int(text)
        except ValueError as exc:
            raise ConfigInvalid(f"malformed random scenario tag {tag!r}") from exc
        if str(seed) != text:  # int() also reads " 7", "+7", "007", "1_0" and other digits
            raise ConfigInvalid(f"random scenario seed must be written in canonical decimal, got {tag!r}")
        if not 0 <= seed < 2**64:
            raise ConfigInvalid("random scenario seed must fit an unsigned 64-bit integer")
        return seed
    raise ConfigInvalid(f"unknown scenario {tag!r}")


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Ordinary least squares of log10(y) on log10(n), over two or more
    finite, positive points (ValueError otherwise)."""
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    n = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    if not np.all(np.isfinite(n) & np.isfinite(y)):
        raise ValueError("log-log fit requires finite coordinates")
    if np.any(y <= 0) or np.any(n <= 0):
        raise ValueError("log-log fit requires positive coordinates")
    if np.all(n == n[0]):
        raise DegenerateFit("all abscissae coincide; slope undefined")
    slope, intercept = np.polyfit(np.log10(n), np.log10(y), 1)
    return float(slope), float(intercept)


def distortion(
    estimated_k0: np.ndarray | Sequence[complex], true_k0: Sequence[complex]
) -> float | list[float]:
    """Sum_k |est_k - true_k|^2; by Parseval, the integrated squared error at t = 0.

    A float, or a list of floats, one per row, for a stack of estimates.
    """
    est = np.asarray(estimated_k0, dtype=complex)
    true = np.asarray(true_k0, dtype=complex)
    if est.shape[-1:] != true.shape:
        raise ValueError("coefficient vectors must have equal length")
    return np.sum(np.abs(est - true) ** 2, axis=-1).tolist()


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


def run_trial(config: ExperimentConfig, state: FieldState, n: int, trial: int) -> TrialRecord:
    """Draw a path with the config's renewal spec, sample ``state`` with its
    noise spec, reconstruct on the uniform grid, score: the one-trial case
    of a sweep task, on the generators of cell (master_seed, n, trial)."""
    (record,) = _run_block(config, state, n, range(trial, trial + 1))
    return record


def _run_block(config: ExperimentConfig, state: FieldState, n: int, trials: range) -> list[TrialRecord]:
    """One task of a sweep: the ``trials`` at density ``n``.

    The generators of the task's cells (master_seed, n, trial) are hashed
    in one pass: keys 0-2 of each cell, or 0-1 without noise to draw
    (NoiseSpec.draws).  The paths are drawn as blocks and read one at a
    time.  Consecutive trials are solved as one stack
    (estimator.reconstruct_stack) while their readings times the field's
    unknowns stay at most _STACK_ELEMENTS; a stack is solved as soon as the
    next trial would pass it, so only one stack's readings are held at a time.
    """
    cells = ((config.master_seed, n, trial) for trial in trials)
    streams = list(cell_streams(cells, 3 if config.noise.draws else 2))
    paths = draw_paths(config.renewal, n, [gens[:2] for gens in streams])
    rngs = [gens[2] if config.noise.draws else None for gens in streams]
    readings = sample_paths(state, paths, config.noise, rngs)
    true_k0 = coefficients_at(state, 0.0)
    records: list[TrialRecord] = []
    stack: list[tuple[int, float, np.ndarray]] = []
    rows = 0  # readings held in ``stack``
    for trial, (t0, values) in zip(trials, readings):
        if stack and (rows + len(values)) * state.coeffs.size > _STACK_ELEMENTS:
            records += _solve_stack(state, true_k0, n, stack)
            stack, rows = [], 0
        stack.append((trial, t0, values))
        rows += len(values)
    return records + _solve_stack(state, true_k0, n, stack)


def _solve_stack(
    state: FieldState, true_k0: np.ndarray, n: int, stack: Sequence[tuple[int, float, np.ndarray]]
) -> list[TrialRecord]:
    """Reconstruct one stack of (trial, T0, readings) and score its solved
    members in one pass: the mode values at t = 0 (each harmonic's
    coefficients summed) against ``true_k0``, and the coefficients against
    the state's.  A refused member's scores stay NaN."""
    trials, t0s, values = zip(*stack)
    outcomes = reconstruct_stack(state.roots, t0s, values)
    solved = [i for i, outcome in enumerate(outcomes) if isinstance(outcome, ReconstructionResult)]
    scores = np.full((len(outcomes), 3), np.nan)  # distortion, coeff_error_sq, kappa
    if solved:
        a_hat = np.array([outcomes[i].a_hat for i in solved])
        modes = a_hat.reshape(len(solved), len(state.roots), -1).sum(axis=2)
        scores[solved, 0] = distortion(modes, true_k0)
        scores[solved, 1] = distortion(a_hat, state.flat_coeffs())
        scores[solved, 2] = [outcomes[i].kappa for i in solved]
    return [
        TrialRecord(n, trial, isinstance(outcome, ReconstructionResult), *score, len(v), t0)
        for trial, t0, v, outcome, score in zip(trials, t0s, values, outcomes, scores.tolist())
    ]


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """Getter and setter of the thread count of numpy's bundled OpenBLAS, or
    None when numpy uses another BLAS.  Looked up on the first sweep."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for pattern in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            getter = getattr(lib, pattern.format("get"), None)
            setter = getattr(lib, pattern.format("set"), None)
            if getter is not None and setter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                setter.restype, setter.argtypes = None, [ctypes.c_int]
                return getter, setter
    return None


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body on one BLAS thread, then restore the previous count.

    Each trial ends in one small least-squares solve, which a multi-threaded
    BLAS only slows down: its threads spin for work that one core finishes,
    and pool workers would contend for cores.  Without a known BLAS this
    does nothing.
    """
    control = _openblas_threads()
    if control is None:
        yield
        return
    get, set_ = control
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _init_worker() -> None:
    # A pool worker lives for one sweep, so its count is never restored.
    control = _openblas_threads()
    if control is not None:
        control[1](1)


def resolve_field(config: ExperimentConfig) -> FieldState:
    pde = catalog_entry(config.pde).spec if isinstance(config.pde, int) else config.pde
    field_seed = _parse_scenario_tag(config.scenario)
    if field_seed is None:
        return scenario_field(config.scenario, pde)
    return random_real_field(RANDOM_SCENARIO_BAND, pde, substream(field_seed, 0))


def _validate_densities(config: ExperimentConfig, state: FieldState) -> None:
    """Every density exceeds the unknowns and passes the draws' own check."""
    cols = state.coeffs.size
    for n in config.n_list:
        if n <= cols:
            raise ConfigInvalid(f"density n={n} must exceed the {cols} unknowns")
        try:
            config.renewal.check_density(n)
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc


def run_sweep(
    config: ExperimentConfig, workers: int = 1, out_dir: str | Path | None = None
) -> SweepResult:
    """Full density sweep; with ``out_dir``, its sweep.csv and summary.json
    are written into that directory (made if missing), and without it nothing
    is written.

    Trials that raise RankDeficient (or InsufficientSamples) count as
    rank_failures for their density and are excluded from the means.  With
    ``workers > 1`` trials run in a process pool of at most ``workers``
    processes, and no more than there are blocks of trials or CPUs; results
    are identical to the sequential run because every trial owns
    seed-derived streams and the aggregation order is fixed.  A ``workers``
    that is not an integer of at least 1 raises ConfigInvalid, and so do,
    before any trial runs, an empty ``out_dir``, a density at or below the
    field's unknowns and one that ``RenewalSpec.check_density`` refuses.
    Trials run on one BLAS thread per process; the caller's thread count is
    restored when the sweep returns or raises.
    """
    try:
        workers = integer("workers", workers)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from None
    if workers < 1:
        raise ConfigInvalid(f"workers must be at least 1, got {workers}")
    if out_dir == "":  # Path("") is the working directory
        raise ConfigInvalid("output directory must not be empty; write '.' for the working directory")
    state = resolve_field(config)
    _validate_densities(config, state)
    stability = check_stability(state.spec, state.b)
    if not stability.feasible:
        raise InfeasiblePde(f"growing modes at k = {stability.offending}")

    tasks = [
        (n, range(start, min(start + _TRIAL_BLOCK, config.trials)))
        for n in config.n_list
        for start in range(0, config.trials, _TRIAL_BLOCK)
    ]
    if out_dir is not None:  # made before any trial runs, so a bad path costs none
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigInvalid(f"cannot create output directory {out_dir}: {exc}") from exc
    run_block = functools.partial(_run_block, config, state)
    with _one_blas_thread():
        if workers == 1:
            blocks = [run_block(n, trials) for n, trials in tasks]
        else:
            # Imported here: the pool machinery (multiprocessing and the
            # modules it loads) costs about 2 MB that no other run uses.
            from concurrent.futures import ProcessPoolExecutor

            # The pool starts all its processes at once, so it gets no more
            # than there are tasks to run or CPUs to run them.
            processes = min(workers, len(tasks), os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=processes, initializer=_init_worker) as pool:
                blocks = list(pool.map(run_block, *zip(*tasks)))
    records = [record for block in blocks for record in block]

    records.sort(key=lambda r: (r.n, r.trial))
    rows = []
    for n in sorted(config.n_list):
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

    fit_points = [(row.n, row.mean_distortion) for row in rows if 0 < row.mean_distortion < np.inf]
    if len(fit_points) >= 2:
        slope, intercept = fit_loglog_slope(fit_points)
    else:
        slope = intercept = float("nan")

    result = SweepResult(
        rows=tuple(rows), slope=slope, intercept=intercept, trial_records=tuple(records)
    )
    if out_dir is not None:
        write_outputs(result, config, out_dir)
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
    """Write sweep.csv and a summary record into the existing directory ``out_dir``."""
    out = Path(out_dir)
    summary = {
        "slope": result.slope if np.isfinite(result.slope) else None,
        "intercept": result.intercept if np.isfinite(result.intercept) else None,
        "version": __version__,
        "config": config_to_record(config),
    }
    try:
        (out / "sweep.csv").write_text(sweep_csv_text(result))
        (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise ConfigInvalid(f"cannot write the sweep outputs to {out}: {exc}") from exc


# --------------------------------------------------------------------------
# Config file handling.  A record has one key per ExperimentConfig field.
# A section is a JSON object read into a spec: its type, and its keys in the
# order the spec's constructor takes them.
# --------------------------------------------------------------------------
_SECTIONS = {
    "pde": (PdeSpec, ("p_coeffs", "q_coeffs")),
    "renewal": (RenewalSpec, ("family", "lambda", "mu")),
    "noise": (NoiseSpec, ("family", "variance")),
}


def _check_keys(record, keys: Sequence[str], label: str) -> None:
    if not isinstance(record, dict):
        raise ConfigInvalid(f"{label} must be a JSON object")
    unknown = record.keys() - set(keys)
    if unknown:
        raise ConfigInvalid(f"unknown {label} keys: {sorted(unknown)}")
    missing = set(keys) - record.keys()
    if missing:
        raise ConfigInvalid(f"missing {label} keys: {sorted(missing)}")


def _read_section(name: str, record):
    spec_type, keys = _SECTIONS[name]
    _check_keys(record, keys, name)
    try:
        return spec_type(*(record[key] for key in keys))
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"invalid {name}: {exc}") from exc


def _to_json(value):
    """A config value as its record holds it: a spec as its section's object."""
    for spec_type, keys in _SECTIONS.values():
        if isinstance(value, spec_type):
            return {key: _to_json(getattr(value, f.name)) for key, f in zip(keys, fields(spec_type))}
    return list(value) if isinstance(value, tuple) else value


def config_to_record(config: ExperimentConfig) -> dict:
    return {f.name: _to_json(getattr(config, f.name)) for f in fields(ExperimentConfig)}


def pde_from_record(record: dict) -> PdeSpec:
    """The PDE of a JSON object holding the p_coeffs and q_coeffs lists."""
    return _read_section("pde", record)


def config_from_record(record: dict) -> ExperimentConfig:
    _check_keys(record, [f.name for f in fields(ExperimentConfig)], "config")
    values = dict(record)
    for name in _SECTIONS:
        if name != "pde" or isinstance(record[name], dict):  # else a catalog index
            values[name] = _read_section(name, record[name])
    return ExperimentConfig(**values)


def read_json(path: str | Path):
    """The JSON value in the file at ``path``; ConfigInvalid when the file
    cannot be read, is not UTF-8 or is not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigInvalid(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ConfigInvalid(f"{path} is not a UTF-8 JSON file: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_record(read_json(path))
