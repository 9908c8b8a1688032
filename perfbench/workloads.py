"""Workload definitions shared by the benchmark parent, its children and the
reference generator.

Nothing here imports fieldrecon, so the parent process stays light and can
refuse to run before any child is started.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"

# The acceptance sweep of the paper: 7 densities x 128 trials per scenario.
BASE_SEED = 20260808
N_LIST = (128, 256, 512, 1024, 2048, 4096, 8192)
TRIALS = 128
CATALOG = ((1, "set1"), (2, "set2"), (3, "diffusion"))

# --seed n selects the (n mod REFERENCE_SEEDS)-th workload seed stored in
# reference.json, so every run is checked against exact rank-failure counts
# and mean sample counts.
REFERENCE_SEEDS = 64
# Acceptance band of the fitted log-log slope of mean distortion against n.
SLOPE_BAND = (-1.15, -0.85)

WORKLOADS = ("sweep-seq", "sweep-w2", "verify")

# Variables that would pin BLAS threads; removed so children see the default.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sweep_scenarios(workload: str) -> tuple[tuple[int, str], ...]:
    """Catalog entries a sweep workload runs; empty for ``verify``."""
    if workload == "sweep-seq":
        return CATALOG
    if workload == "sweep-w2":
        return CATALOG[:1]
    return ()


def sweep_workers(workload: str) -> int:
    return 2 if workload == "sweep-w2" else 1


def sweep_config_record(index: int, scenario: str, wseed: int) -> dict:
    """JSON record accepted by ``fieldrecon.experiments.load_config``."""
    return {
        "scenario": scenario,
        "pde": index,
        "n_list": list(N_LIST),
        "trials": TRIALS,
        "renewal": {"family": "uniform_scaled", "lambda": 2.0, "mu": 2.0},
        "noise": {"family": "gaussian", "variance": 1e-4},
        "master_seed": wseed + index,
    }
