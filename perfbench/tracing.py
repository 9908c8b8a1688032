"""Spans around the public functions of each fieldrecon layer, recorded from
outside the program.

``Tracer.install`` rebinds every module attribute through which a hooked
function is reached (``fieldrecon.experiments.draw_path`` as well as
``fieldrecon.sampling.draw_path``), so calls between modules are seen too.
Spans stay in memory as (name, start, end, parent, raised) and are written
out once, at the end.  A hook whose target no longer exists is reported as
missing instead of failing the run, so a later reshaping of a layer keeps
the rest measurable.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

PACKAGE = "fieldrecon"

# Public functions timed as <module>.<function>.{calls,busy_s,self_s}.
HOOKS = (
    ("streams", "trial_streams"),
    ("streams", "substream"),
    ("sampling", "draw_path"),
    ("sampling", "sample_field"),
    ("sampling", "grid_deviation"),
    ("field", "scenario_field"),
    ("field", "basis_matrix"),
    ("estimator", "build_design_matrix"),
    ("estimator", "reconstruct"),
    ("pde_core", "characteristic_roots"),
    ("pde_core", "check_stability"),
    ("oracle", "integrate_coefficient_ode"),
    ("oracle", "grid_deviation_scaling"),
    ("oracle", "ode_equivalence_suite"),
    ("oracle", "bandlimit_suite"),
    ("oracle", "grid_deviation_suite"),
    ("experiments", "run_sweep"),
    ("experiments", "run_trial"),
    ("cli", "main"),
)

# Work counts computed from a hooked function's return value.
RESULT_COUNTS: dict[str, tuple[str, Callable]] = {
    # complex exponentials evaluated: rows x cols of every basis matrix
    "field.basis_evals": ("field.basis_matrix", lambda result: result.size),
    "estimator.design_bytes": (
        "estimator.build_design_matrix",
        lambda result: result.entries.nbytes,
    ),
}

# Calls of a hooked function that ended in the named exception.
RAISE_COUNTS = {"estimator.rank_rejects": ("estimator.reconstruct", "RankDeficient")}

SPAN_FIELDS = ("calls", "busy_s", "self_s")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, raised]
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.missing: set[str] = set()

    def install(self) -> None:
        """Wrap every hook; the package and all its modules must be imported."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, func_name in HOOKS:
            hook = f"{module_name}.{func_name}"
            target = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), func_name, None)
            if not callable(target):
                self.missing.add(hook)
                continue
            wrapper = self._wrap(hook, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, attr, wrapper)
        hooked = {f"{m}.{f}" for m, f in HOOKS} - self.missing
        for metric, (hook, _) in {**RESULT_COUNTS, **RAISE_COUNTS}.items():
            if hook not in hooked:
                self.missing.add(metric)

    def reset(self) -> None:
        """Drop recorded spans and counts; hooks stay installed."""
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, hook: str, func: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measures = [(metric, fn) for metric, (h, fn) in RESULT_COUNTS.items() if h == hook]

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [hook, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            for metric, measure in measures:
                self._count(metric, measure, result)
            return result

        return traced

    def _count(self, metric: str, measure: Callable, result) -> None:
        try:
            self.counts[metric] += int(measure(result))
        except (AttributeError, TypeError):
            self.missing.add(metric)  # the return value changed shape

    def busy(self, hook: str) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name == hook)

    def metrics(self) -> dict[str, float | int | None]:
        """Per-layer metrics; None marks a metric whose hook is missing.

        Self time is a span's duration minus the durations of its direct
        child spans; spans nest strictly, so children never overlap.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter[str] = Counter()
        busy: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        raised: Counter[tuple[str, str]] = Counter()
        for i, (name, start, end, _, exc) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - covered[i]
            if exc is not None:
                raised[name, exc] += 1
        out: dict[str, float | int | None] = {}
        for module_name, func_name in HOOKS:
            hook = f"{module_name}.{func_name}"
            values = (calls[hook], busy[hook], own[hook])
            for field, value in zip(SPAN_FIELDS, values):
                out[f"{hook}.{field}"] = None if hook in self.missing else value
        for metric in RESULT_COUNTS:
            out[metric] = None if metric in self.missing else self.counts[metric]
        for metric, key in RAISE_COUNTS.items():
            out[metric] = None if metric in self.missing else raised[key]
        return out

    def write_spans(self, path: Path) -> None:
        lines = ["id,parent,name,start,end,raised"]
        for i, (name, start, end, parent, exc) in enumerate(self.spans):
            lines.append(f"{i},{parent},{name},{start!r},{end!r},{exc or ''}")
        path.write_text("\n".join(lines) + "\n")
