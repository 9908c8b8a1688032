#!/usr/bin/env python3
"""One benchmark process: set up, make the workload's main call, report.

Started by run.py in a fresh interpreter for every repetition, so each one
pays and measures the full set-up (import, config load, field and roots,
stability gate).  Modes:

  setup  set up and exit (extra set-up samples)
  run    set up, then the timed main call
  trace  as ``run``, with spans recorded around every layer's functions
  seq    sweep-w2 only: the same sweep with one worker, for the byte check

The result is one JSON object written to --result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

from workloads import SRC, WORKLOADS, sweep_scenarios, sweep_workers


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _blas_provenance(numpy) -> dict:
    """BLAS name/version from numpy's build record, threads from OpenBLAS."""
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, ValueError):
        pass
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = int(getter())
                return info
    return info


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--wseed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "seq"), required=True)
    parser.add_argument("--configs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy

    import fieldrecon
    from fieldrecon import cli, experiments, pde_core

    if Path(fieldrecon.__file__).resolve().parent != SRC / "fieldrecon":
        print(f"imported fieldrecon from {fieldrecon.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    scenarios = sweep_scenarios(args.workload)
    configs = [experiments.load_config(args.configs / f"{s}.json") for _, s in scenarios]
    for config in configs:
        state = experiments.resolve_field(config)
        if not pde_core.check_stability(state.spec, state.b).feasible:
            print(f"catalog scenario {config.scenario} is infeasible", file=sys.stderr)
            return 2
    setup_end = time.monotonic()

    result: dict = {"setup_end": setup_end}
    if args.mode == "setup":
        result["provenance"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": _blas_provenance(numpy),
        }
    else:
        args.out.mkdir(parents=True, exist_ok=True)
        workers = 1 if args.mode == "seq" else sweep_workers(args.workload)
        if tracer is not None and workers > 1:
            # Worker spans are out of reach: time the same trials traced in
            # this process first, for the pool-efficiency numerator.
            for config in configs:
                experiments.run_sweep(config, workers=1, out_dir=args.out.parent / "seq" / config.scenario)
            result["seq_trial_busy_s"] = tracer.busy("experiments.run_trial")
            tracer.reset()
        cpu0 = _cpu_seconds()
        wall0 = time.perf_counter()
        if configs:
            for config in configs:
                experiments.run_sweep(config, workers=workers, out_dir=args.out / config.scenario)
        else:
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                result["exit_code"] = cli.main(["verify", "--suite", "all", "--seed", str(args.wseed)])
            (args.out / "verify.txt").write_text(captured.getvalue())
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = _cpu_seconds() - cpu0
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        largest_worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # Pool workers run side by side, so their peaks add (an upper bound).
        result["peak_rss_mb"] = (own + workers * largest_worker) / 1024.0
        if tracer is not None:
            result["per_layer"] = tracer.metrics()
            result["missing"] = sorted(tracer.missing)
            tracer.write_spans(args.out / "spans.csv")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
