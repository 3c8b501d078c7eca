"""The declared package metadata matches what the code needs and provides."""

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
