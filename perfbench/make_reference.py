#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the sequential catalog sweep outputs
(sweep.csv text) for every workload seed the benchmark can select.

Run from the repository root:  python3 perfbench/make_reference.py

Workload seeds are tried upward from BASE_SEED.  A seed at which any of the
three sweeps fits a slope outside the acceptance band cannot serve as a
reference; it is recorded under "excluded" with its slopes, and the next
seed is tried until REFERENCE_SEEDS seeds are kept.  Regenerating changes
what the benchmark accepts; do it only when the program's intended outputs
change, and say why in the change log.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import (
    BASE_SEED,
    CATALOG,
    REFERENCE_FILE,
    REFERENCE_SEEDS,
    SLOPE_BAND,
    SRC,
    THREAD_ENV,
    sweep_config_record,
)


def main() -> None:
    for name in THREAD_ENV:
        if name in os.environ:
            sys.exit(f"unset {name}: references are made with the default BLAS threads")
    sys.path.insert(0, str(SRC))
    from fieldrecon.experiments import config_from_record, run_sweep, sweep_csv_text

    seeds: dict[str, dict[str, str]] = {}
    excluded: dict[str, dict[str, float]] = {}
    wseed = BASE_SEED
    while len(seeds) < REFERENCE_SEEDS:
        results = {
            scenario: run_sweep(config_from_record(sweep_config_record(index, scenario, wseed)))
            for index, scenario in CATALOG
        }
        if all(SLOPE_BAND[0] <= r.slope <= SLOPE_BAND[1] for r in results.values()):
            seeds[str(wseed)] = {s: sweep_csv_text(r) for s, r in results.items()}
        else:
            excluded[str(wseed)] = {s: r.slope for s, r in results.items()}
        print(f"workload seed {wseed}: {'excluded' if str(wseed) in excluded else 'kept'}", file=sys.stderr, flush=True)
        wseed += 1
    reference = {"seeds": seeds, "excluded": excluded}
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
