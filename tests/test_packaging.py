"""Packaging: the console scripts pyproject.toml declares."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_console_script_imports_and_is_callable():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
