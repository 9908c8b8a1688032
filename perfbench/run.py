#!/usr/bin/env python3
"""fieldrecon benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload sweep-seq --seed 0 --seconds 55 --trace 0

Each repetition is a fresh child process (child.py) with the BLAS thread
variables removed.  Repetitions start until the next one would overrun
--seconds (at least one); set-up-only children give the set-up samples.
With --trace 1 the run makes one untraced and one traced repetition and
reports the per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Lines above it give every
end-to-end metric by name with its unit, the output checks and provenance.
Exit codes: 0 outputs correct, 1 an output check failed, 2 the benchmark
could not run (no program to measure, a child failed or timed out).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    OUT_DIR,
    REFERENCE_FILE,
    SRC,
    SLOPE_BAND,
    THREAD_ENV,
    TRIALS,
    N_LIST,
    WORKLOADS,
    sweep_config_record,
    sweep_scenarios,
)

CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES = 8
RUN_BUDGET_S = 170.0  # a run must end well inside 180 s
# Float columns of sweep.csv may drift by reordered arithmetic (for instance
# a real-arithmetic estimator), never by a changed method.
SWEEP_RTOL = 1e-6
EXPECTED_SUITES = ("ode", "appendix-a", "appendix-b")

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}
END_TO_END = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed output check)."""


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("field.basis_evals", "estimator.rank_rejects"):
        return "count"
    if name == "estimator.design_bytes":
        return "B"
    if name.startswith("experiments.pool."):
        return "ratio"
    return "s"


class Runner:
    """Starts child processes for one workload run and collects their results."""

    def __init__(self, workload: str, wseed: int, run_dir: Path) -> None:
        self.workload = workload
        self.wseed = wseed
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
        self.count = 0

    def child(self, mode: str, out: Path | None = None) -> dict:
        self.count += 1
        result_file = self.run_dir / f"child{self.count}.json"
        cmd = [
            sys.executable, str(CHILD), "--workload", self.workload, "--wseed", str(self.wseed),
            "--mode", mode, "--configs", str(self.run_dir), "--out", str(out or self.run_dir),
            "--result", str(result_file),
        ]  # fmt: skip
        started = time.monotonic()
        # Own session, so a timeout can stop the child together with its pool.
        proc = subprocess.Popen(cmd, env=self.env, stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0 or not result_file.is_file():
            raise BenchError(f"{mode} child exited with code {code}")
        result = json.loads(result_file.read_text())
        result["setup_s"] = result["setup_end"] - started
        result["elapsed_s"] = time.monotonic() - started
        return result


def parse_sweep_csv(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()]


def _same_float(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    return (math.isnan(x) and math.isnan(y)) or math.isclose(x, y, rel_tol=SWEEP_RTOL)


def check_sweep(out: Path, scenario: str, reference: str, problems: list[str]) -> int:
    """Check one sweep's outputs against the stored reference; returns its
    rank-rejected trial count and appends every failed check to ``problems``."""
    label = f"{out.name}/{scenario}"
    try:
        text = (out / scenario / "sweep.csv").read_text()
        slope = json.loads((out / scenario / "summary.json").read_text())["slope"]
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"{label}: unreadable output ({exc})")
        return 0
    if slope is None or not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]:
        problems.append(f"{label}: slope {slope} outside {list(SLOPE_BAND)}")
    rows, ref_rows = parse_sweep_csv(text), parse_sweep_csv(reference)
    if rows[0] != ref_rows[0] or len(rows) != len(ref_rows):
        problems.append(f"{label}: sweep.csv layout differs from the reference")
        return 0
    header = rows[0]
    for row, ref in zip(rows[1:], ref_rows[1:]):
        for column, value, expected in zip(header, row, ref):
            exact = column in ("n", "rank_failures", "mean_M")
            if (value != expected) if exact else not _same_float(value, expected):
                problems.append(f"{label}: n={ref[0]} {column} = {value}, reference {expected}")
    return sum(int(row[header.index("rank_failures")]) for row in rows[1:])


def same_bytes(a: Path, b: Path) -> bool:
    try:
        return a.read_bytes() == b.read_bytes()
    except OSError:
        return False


def check_verify(out: Path, exit_code: int, problems: list[str]) -> int:
    """Count suites of one verify run that did not print [PASS]."""
    lines = (out / "verify.txt").read_text().splitlines()
    passed = {line.split()[-1] for line in lines if line.startswith("[PASS] suite ")}
    failed = [s for s in EXPECTED_SUITES if s not in passed]
    if exit_code != 0 or failed:
        problems.append(f"{out.name}: verify exit {exit_code}, suites not passed: {failed}")
    return len(EXPECTED_SUITES) if exit_code != 0 else len(failed)


def load_reference(seed: int) -> tuple[int, dict[str, str]]:
    """The workload seed --seed selects, with its stored sequential sweep.csv
    text per catalog scenario."""
    try:
        stored = json.loads(REFERENCE_FILE.read_text())["seeds"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"unreadable {REFERENCE_FILE}: {exc}")
    wseeds = sorted(stored, key=int)
    wseed = wseeds[seed % len(wseeds)]
    return int(wseed), stored[wseed]


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    if not (SRC / "fieldrecon" / "__init__.py").is_file():
        raise BenchError(f"no fieldrecon sources under {SRC}")
    wseed, reference = load_reference(seed)
    scenarios = sweep_scenarios(workload)
    run_dir = OUT_DIR / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    for index, scenario in scenarios:
        record = sweep_config_record(index, scenario, wseed)
        (run_dir / f"{scenario}.json").write_text(json.dumps(record))

    load_at_start = os.getloadavg()
    runner = Runner(workload, wseed, run_dir)
    probes = [runner.child("setup") for _ in range(SETUP_PROBES)]
    reps = []
    window_start = time.monotonic()
    while True:
        reps.append(runner.child("run", run_dir / f"rep{len(reps) + 1}"))
        elapsed = time.monotonic() - window_start
        if trace or elapsed + reps[-1]["elapsed_s"] > seconds:
            break
    traced = runner.child("trace", run_dir / "traced") if trace else None
    checked = [run_dir / f"rep{i + 1}" for i in range(len(reps))]
    checked += [run_dir / "traced"] if traced else []
    children = reps + ([traced] if traced else [])
    if workload == "sweep-w2" and not traced:
        runner.child("seq", run_dir / "seq")

    problems: list[str] = []
    attempted = failed = rejected = 0
    for out, child in zip(checked, children):
        before = len(problems)
        if scenarios:
            for _, scenario in scenarios:
                rejected += check_sweep(out, scenario, reference[scenario], problems)
            sequential = run_dir / "seq" / "set1" / "sweep.csv"
            if workload == "sweep-w2" and not same_bytes(out / "set1" / "sweep.csv", sequential):
                problems.append(f"{out.name}: pooled sweep.csv differs from the sequential one")
            items = len(scenarios) * len(N_LIST) * TRIALS
            attempted += items
            failed += items if len(problems) > before else 0
        else:
            attempted += len(EXPECTED_SUITES)
            failed += check_verify(out, child["exit_code"], problems)

    def median(key: str, samples: list[dict]) -> float:
        return statistics.median(sample[key] for sample in samples)

    metrics: dict[str, float | int | None] = {
        "wall_s": median("wall_s", reps),
        "setup_s": median("setup_s", probes),
        "cpu_s": median("cpu_s", reps),
        "peak_rss_mb": median("peak_rss_mb", reps),
        "failed_frac": (rejected + failed) / attempted,
    }
    per_layer: dict[str, float | int | None] = {}
    missing: list[str] = []
    if traced:
        per_layer = dict(traced["per_layer"])
        missing = traced["missing"]
        per_layer["trace.overhead_s"] = traced["wall_s"] - metrics["wall_s"]
        if "seq_trial_busy_s" in traced:
            per_layer["experiments.pool.efficiency"] = traced["seq_trial_busy_s"] / (2 * traced["wall_s"])
            per_layer["experiments.pool.cpu_per_wall"] = traced["cpu_s"] / traced["wall_s"]
    record = {
        "workload": workload,
        "seed": seed,
        "workload_seed": wseed,
        "seconds": seconds,
        "trace": trace,
        "provenance": {
            **probes[0]["provenance"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_at_start": load_at_start,
            "removed_env": [k for k in THREAD_ENV if k in os.environ],
        },
        "attempted": attempted,
        "failed": failed,
        "rank_rejected": rejected,
        "metrics": metrics,
        "per_layer": per_layer,
        "missing": missing,
        "problems": problems,
        "setups_s": [c["setup_s"] for c in probes],
        "reps": [{k: c[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")} for c in reps],
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return record, problems


def report(record: dict, problems: list[str]) -> dict:
    """Print the human-readable report; return the final JSON object."""
    prov = record["provenance"]
    blas = prov["blas"]
    print(
        f"perfbench {record['workload']}: seed {record['seed']} -> workload seed "
        f"{record['workload_seed']}, {len(record['reps'])} repetitions, "
        f"{len(record['setups_s'])} set-ups"
    )
    print(
        f"provenance: python {prov['python']}, numpy {prov['numpy']}, "
        f"blas {blas['name']} {blas['version']} ({blas['threads']} threads), "
        f"nproc {prov['nproc']}, load at start {' '.join(f'{x:.2f}' for x in prov['loadavg_at_start'])}"
    )
    for name, value in record["metrics"].items():
        print(f"  {name:<14} {value:.6g} {UNITS[name]}")
    print(
        f"  ({record['rank_rejected']} rank-rejected trials and {record['failed']} "
        f"failed items of {record['attempted']} attempted)"
    )
    for name in record["missing"]:
        print(f"  missing hook: {name}")
    for line in problems:
        print(f"  CHECK FAILED: {line}")
    print(f"checks: {'all passed' if not problems else f'{len(problems)} failed'}")
    if record["trace"]:
        metrics = {n: {"value": v, "unit": per_layer_unit(n)} for n, v in record["per_layer"].items()}
    else:
        metrics = {n: {"value": record["metrics"][n], "unit": UNITS[n]} for n in END_TO_END}
    return {
        "correct": not problems,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0, help="selects the workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, problems = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(record, problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
