"""The declared package metadata matches what the code needs and provides."""

import ast
import importlib
import importlib.metadata
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())


def test_every_dependency_is_installed():
    for requirement in PYPROJECT["project"]["dependencies"]:
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
        importlib.metadata.version(name)  # raises PackageNotFoundError if absent


def test_every_script_target_resolves():
    for script, target in PYPROJECT["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {script!r} target {target!r} is not callable"


def _canonical(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def test_every_test_extra_is_imported_by_a_test():
    imported = set()
    for path in Path(__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    providers = importlib.metadata.packages_distributions()
    used = {_canonical(dist) for module in imported for dist in providers.get(module, [])}
    for requirement in PYPROJECT["project"]["optional-dependencies"]["test"]:
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
        assert _canonical(name) in used, f"test extra {name!r} is imported by no file under tests/"
