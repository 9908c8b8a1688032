"""Golden sweep and verify outputs pin behaviour across versions.

Each ``tests/golden/<scenario>/summary.json`` echoes the configuration that
produced it (the acceptance seeds at n = 128, 512, 2048 with 16 trials), so
the test reruns exactly that configuration on one worker and compares both
output files byte for byte.  ``trials.txt`` beside them pins every trial
record of that sweep (48 per scenario, one ``repr`` a line, sorted by
(n, trial)): each trial's distortion, coeff_error_sq, kappa, M, T0 and ok,
which the per-density means could hide.  ``tests/golden/verify/<name>.txt``
holds the stdout of ``fieldrecon verify`` with the arguments listed beside
it, at the default seed.  The appendix-b report is pinned whole at 500
trials; its 10 000-trial scaled-deviation table is left to acceptance
criterion 6, which byte-compares it with ``appendix-b-table.txt``.
``tests/test_oracle.py`` reads ``ode.txt`` and ``appendix-a.txt`` without
their ``[PASS] suite`` header and two-space indent as the report lines of
``ode_equivalence_suite()`` and ``bandlimit_suite(2024)``.  Any change to a
golden file must be explained in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from fieldrecon import cli
from fieldrecon.experiments import config_from_record, run_sweep

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("scenario", ["set1", "set2", "diffusion"])
def test_golden_sweep_outputs(scenario, tmp_path):
    expected = GOLDEN / scenario
    record = json.loads((expected / "summary.json").read_text())["config"]
    result = run_sweep(config_from_record(record), workers=1, out_dir=tmp_path)
    for name in ("sweep.csv", "summary.json"):
        assert (tmp_path / name).read_bytes() == (expected / name).read_bytes(), name
    trials = "".join(f"{r!r}\n" for r in result.trial_records)
    assert trials.encode() == (expected / "trials.txt").read_bytes()


@pytest.mark.parametrize(
    "name, args",
    [
        pytest.param("ode", ["--suite", "ode"], id="ode"),
        pytest.param("appendix-a", ["--suite", "appendix-a"], id="appendix-a"),
        pytest.param(
            "appendix-b-500", ["--suite", "appendix-b", "--trials", "500"], id="appendix-b-500"
        ),
    ],
)
def test_golden_verify_output(name, args, capsys):
    assert cli.main(["verify", *args]) == cli.EXIT_OK
    expected = (GOLDEN / "verify" / f"{name}.txt").read_bytes()
    assert capsys.readouterr().out.encode() == expected
