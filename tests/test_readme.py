"""The README's library example runs as written, its sweep configuration
is a full config that the config writer gives back unchanged, every name
it writes in call form exists, and its CLI synopsis lists each subcommand's
flags as the parser defines them."""

import argparse
import builtins
import dataclasses
import functools
import importlib
import json
import pkgutil
import re
from pathlib import Path

import numpy as np

import fieldrecon
from fieldrecon import cli
from fieldrecon.experiments import ExperimentConfig, config_from_record, config_to_record

README = Path(__file__).resolve().parents[1] / "README.md"
# Model symbols the README writes in call form: the field g(x, t) and the
# polynomial p(d/dt).
MATH_SYMBOLS = {"g", "p"}


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


def test_readme_call_names_exist():
    # A backticked `name(` is a call: it must name an attribute of a
    # fieldrecon module or class, a numpy name, a builtin or a model symbol,
    # so a rename or a deletion cannot leave the README stale.
    names = [info.name for info in pkgutil.iter_modules(fieldrecon.__path__)]
    modules = [importlib.import_module(f"fieldrecon.{name}") for name in names]
    classes = [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__.startswith("fieldrecon")
    ]
    spaces = [*modules, *classes, np, np.random, builtins]

    def exists(name):
        for space in spaces:
            try:
                functools.reduce(getattr, name.split("."), space)
            except AttributeError:
                continue
            return True
        return False

    calls = set(re.findall(r"`([A-Za-z_][\w.]*)\(", README.read_text())) - MATH_SYMBOLS
    assert sorted(name for name in calls if not exists(name)) == []


def test_readme_cli_synopsis_lists_the_parser_flags():
    # A flag removed from the parser cannot stay documented, nor a new one
    # go undocumented.
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    documented = {}
    for line in block.splitlines():
        command, *words = line.split("#", 1)[0].split()
        assert command == "fieldrecon", line
        documented[words[0]] = set(re.findall(r"--[\w-]+", " ".join(words[1:])))
    (subcommands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {
        name: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, parser in subcommands.choices.items()
    }
    assert documented == defined
