"""The benchmark's own tests: tracer mechanics, output checks, repeatability.

    python3 -m pytest perfbench -q        (about 3.5 minutes on 2 cores)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import OUT_DIR, ROOT  # noqa: E402

EXACT_COUNTS = (
    "streams.substream.calls",
    "field.basis_evals",
    "estimator.design_bytes",
    "estimator.rank_rejects",
)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- tracer


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.inner.leaf is re-exported as fakepkg.outer.leaf."""
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    class Refused(Exception):
        pass

    def leaf(x):
        if x < 0:
            raise Refused("negative")
        return [x] * x

    def caller(x):
        return [outer.leaf(x), outer.leaf(x)]

    inner.leaf = leaf
    outer.leaf = leaf
    outer.caller = caller
    for name, module in (("fakepkg", types.ModuleType("fakepkg")), ("fakepkg.inner", inner), ("fakepkg.outer", outer)):
        monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(tracing, "PACKAGE", "fakepkg")
    monkeypatch.setattr(tracing, "HOOKS", (("inner", "leaf"), ("outer", "caller"), ("inner", "gone")))
    monkeypatch.setattr(tracing, "RESULT_COUNTS", {"inner.items": ("inner.leaf", len)})
    monkeypatch.setattr(tracing, "RAISE_COUNTS", {"inner.refusals": ("inner.leaf", "Refused")})
    return outer, Refused


def test_tracer_wraps_every_binding_and_splits_self_time(fake_package):
    outer, refused = fake_package
    tracer = tracing.Tracer()
    tracer.install()
    outer.caller(3)
    with pytest.raises(refused):
        outer.leaf(-1)
    metrics = tracer.metrics()
    assert metrics["inner.leaf.calls"] == 3  # two through caller, one direct
    assert metrics["outer.caller.calls"] == 1
    assert metrics["inner.items"] == 6
    assert metrics["inner.refusals"] == 1
    leaf_spans = [s for s in tracer.spans if s[0] == "inner.leaf"]
    assert [s[3] for s in leaf_spans] == [0, 0, -1]  # parent index: the caller span
    caller_busy = metrics["outer.caller.busy_s"]
    covered = sum(end - start for _, start, end, parent, _ in leaf_spans if parent == 0)
    assert metrics["outer.caller.self_s"] == pytest.approx(caller_busy - covered)
    assert 0.0 <= metrics["outer.caller.self_s"] <= caller_busy


def test_missing_hook_reports_none_and_keeps_the_rest(fake_package):
    tracer = tracing.Tracer()
    tracer.install()
    metrics = tracer.metrics()
    assert set(metrics) >= {f"inner.gone.{f}" for f in tracing.SPAN_FIELDS}
    assert all(metrics[f"inner.gone.{f}"] is None for f in tracing.SPAN_FIELDS)
    assert metrics["inner.leaf.calls"] == 0
    assert tracer.missing == {"inner.gone"}


# ---------------------------------------------------------------- output checks


REFERENCE_CSV = (
    "n,mean_distortion,stderr,mean_M,mean_kappa,rank_failures\n"
    "128,0.001,1e-05,127.5,40000.0,2\n"
    "256,0.0005,5e-06,255.25,41000.0,0\n"
)


def write_sweep(out: Path, text: str, slope: float = -1.0) -> None:
    (out / "set1").mkdir(parents=True)
    (out / "set1" / "sweep.csv").write_text(text)
    (out / "set1" / "summary.json").write_text(json.dumps({"slope": slope}))


def test_check_sweep_accepts_rounding_drift(tmp_path):
    write_sweep(tmp_path, REFERENCE_CSV.replace("0.001,", "0.0010000000001,"))
    problems: list[str] = []
    assert run.check_sweep(tmp_path, "set1", REFERENCE_CSV, problems) == 2
    assert problems == []


@pytest.mark.parametrize(
    "old, new, slope",
    [
        (",2\n", ",3\n", -1.0),  # rank failures must match exactly
        ("127.5", "127.75", -1.0),  # mean_M must match exactly
        ("0.0005,", "0.00051,", -1.0),  # distortion beyond the tolerance
        ("", "", -0.5),  # slope outside the band
    ],
)
def test_check_sweep_rejects_changed_outputs(tmp_path, old, new, slope):
    write_sweep(tmp_path, REFERENCE_CSV.replace(old, new) if old else REFERENCE_CSV, slope)
    problems: list[str] = []
    run.check_sweep(tmp_path, "set1", REFERENCE_CSV, problems)
    assert len(problems) == 1


# ---------------------------------------------------------------- whole runs


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, stdout = bench("--workload", "verify", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in stdout


@pytest.mark.parametrize("workload", ["sweep-seq", "verify"])
def test_traced_runs_repeat_counts_and_outputs(workload):
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    counts, outputs = [], []
    for _ in range(2):
        code, stdout = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1")
        result = last_json(stdout)
        assert code == 0 and result["correct"], stdout
        assert set(result["metrics"]) == per_layer
        counts.append({name: result["metrics"][name]["value"] for name in EXACT_COUNTS})
        run_dir = OUT_DIR / workload
        files = [*run_dir.rglob("sweep.csv"), *run_dir.rglob("verify.txt")]
        outputs.append({str(p.relative_to(run_dir)): p.read_text() for p in files})
    assert counts[0] == counts[1]
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == (6 if workload == "sweep-seq" else 2)  # untraced + traced


@pytest.mark.parametrize("workload", ["sweep-seq", "sweep-w2"])
def test_second_seed_passes_output_checks(workload):
    code, stdout = bench("--workload", workload, "--seed", "1", "--seconds", "1")
    result = last_json(stdout)
    assert code == 0 and result["correct"] and result["failed"] == 0, stdout
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in end_to_end}
