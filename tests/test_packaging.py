"""Packaging: the console scripts pyproject.toml declares, the names the benchmark
traces, and every module's __all__."""

import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
MODULES = ["pillarmix"] + sorted(
    f"pillarmix.{p.stem}" for p in (ROOT / "src" / "pillarmix").glob("*.py") if p.stem != "__init__"
)


def test_every_name_the_benchmark_traces_exists():
    """perfbench/tracing.py wraps pillarmix names by (module, attribute); a
    metric whose name is gone silently reads null, so a deletion fails here."""
    path = ROOT / "perfbench" / "tracing.py"
    tracing = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(), str(path), "exec"), tracing)  # read only: no bytecode cache written
    assert tracing["WRAPPED"]
    missing = [span for span, (module, attr) in tracing["WRAPPED"].items()
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_every_console_script_imports_and_is_callable():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_cover_every_public_function_and_class(name):
    module = importlib.import_module(name)
    public = {
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == name
    }
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    assert sorted(public - set(module.__all__)) == []
