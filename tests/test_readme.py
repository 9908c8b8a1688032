"""The README's library example runs as written, and its sweep configuration
is a full config that the config writer gives back unchanged."""

import dataclasses
import json
import re
from pathlib import Path

from fieldrecon.experiments import ExperimentConfig, config_from_record, config_to_record

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    distortion, kappa = map(float, capsys.readouterr().out.split())
    assert 0.0 <= distortion < 1e-2
    assert kappa >= 1.0


def test_readme_sweep_configuration_is_a_full_config():
    section = README.read_text().split("### Sweep configuration", 1)[1]
    record = json.loads(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))
    config = config_from_record(record)
    assert list(record) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert config_to_record(config) == record
