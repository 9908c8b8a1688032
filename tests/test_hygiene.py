"""No stale imports or helpers: every imported name is used, every private
top-level function or class of the package is referenced, and the package
imports nothing beyond the standard library and its declared dependencies.

A plain ``ast`` scan, so it needs no linter.  The package's ``__init__``
imports only to re-export, and is left out of the import check.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "fieldrecon").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    """Each name an import binds, with the line of its import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def referenced_names(node):
    """Names read as variables or attributes anywhere under ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.ImportFrom):
            yield from (alias.name for alias in child.names)


def test_every_imported_name_is_used():
    stale = []
    for path in [p for p in PACKAGE if p.name != "__init__.py"] + TESTS:
        tree = parse(path)
        used = {child.id for child in ast.walk(tree) if isinstance(child, ast.Name)}
        stale += [f"{path.name}:{line} {name}" for name, line in imported_names(tree) if name not in used]
    assert stale == []


def test_every_private_helper_is_referenced():
    trees = {path.name: parse(path) for path in PACKAGE}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            # A helper's references to itself do not count.
            others = [other for tree in trees.values() for other in tree.body if other is not node]
            if not any(name in referenced_names(other) for other in others):
                unused.append(f"{module} {name}")
    assert unused == []


def test_package_imports_only_declared_dependencies():
    # Importing scipy.linalg alone costs about as long as importing the whole
    # CLI, so a solver shortcut through it would double every start-up.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_]+", dep).group() for dep in project["dependencies"]}
    assert declared == {"numpy"}
    foreign = []
    for path in PACKAGE:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in declared:
                    foreign.append(f"{path.name}:{node.lineno} {name}")
    assert foreign == []
