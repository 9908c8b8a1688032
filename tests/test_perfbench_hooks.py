"""The benchmark tracer reaches fieldrecon through module attributes.

A hook whose function was renamed or deleted is reported as missing, and
its metrics turn to null, so every hook must name a module-level callable
and every result count must measure what its hook returns.
"""

import importlib
import importlib.util
from pathlib import Path

from fieldrecon.estimator import build_design_matrix
from fieldrecon.field import basis_matrix, scenario_field

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_is_a_module_level_callable():
    tracing = load_tracing()
    for module_name, func_name in tracing.HOOKS:
        module = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


def test_result_counts_measure_ints():
    tracing = load_tracing()
    roots = scenario_field("diffusion").roots
    tiny_calls = {
        "field.basis_matrix": lambda: basis_matrix(roots, [0.25, 0.5], [0.1, 0.2]),
        "estimator.build_design_matrix": lambda: build_design_matrix(roots, 12, 0.5),
    }
    assert {hook for hook, _ in tracing.RESULT_COUNTS.values()} == set(tiny_calls)
    for metric, (hook, measure) in tracing.RESULT_COUNTS.items():
        count = measure(tiny_calls[hook]())
        assert isinstance(count, int) and count > 0, metric
