"""Packaging: the console scripts pyproject.toml declares, the names the benchmark
traces, every module's __all__ and that the package or the benchmark reads each
function and class in it, which modules each module's import loads, and that
every imported name is used."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
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


def perfbench_module(name, monkeypatch):
    """A perfbench module, imported as perfbench/test_smoke.py imports it; no
    bytecode cache is written for it."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module(name)


# every metric that the kernels, the precision transforms and AP40 feed in a
# traced ptq_eval run, and that training feeds in a traced qat_finetune run
TRACED_BY_WORKLOAD = {
    "ptq_eval": [
        *(f"tensor_ops.{m}" for m in ("conv2d.self_ms", "linear.ms", "im2col.ms", "scatter_pillars.ms",
                                      "max_over_points.ms", "upsample2x.ms")),
        "quant.fake_quant.calls", "quant.fake_quant.weight_calls", "quant.fp16_roundtrip.calls",
        "metrics.ap40.calls",
        *(f"model.layer.{i}.{p}.ms" for i in range(1, 14) for p in ("fp32", "fp16", "int8")),
    ],
    "qat_finetune": ["model.forward.ms.taped", "qat.backward.ms_per_sample", "qat.detection_loss.ms_per_sample"],
}


@pytest.mark.parametrize("workload", sorted(TRACED_BY_WORKLOAD))
def test_the_benchmark_tracer_sees_every_kernel(workload, monkeypatch):
    """perfbench wraps the names the executor calls through its module
    globals; a call that bypassed one (a kernel bound at import, say) would
    make its metric read 0, not null, and the smoke test would still pass."""
    run = perfbench_module("run", monkeypatch)
    workloads = perfbench_module("workloads", monkeypatch)
    _, result = run.run_workload(workload, seed=3, seconds=0.05, trace=True, sizes=workloads.SMOKE)
    zero = [name for name in TRACED_BY_WORKLOAD[workload] if not result["metrics"][name]["value"] > 0]
    assert zero == []


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


# (module, name) exports that no file of the package or the benchmark reads, each with its reason
KEPT = {
    ("detector", "save_model"): "the model-file API waits for the shipped reference fixture and its CLI",
    ("detector", "load_model"): "the model-file API waits for the shipped reference fixture and its CLI",
    ("model", "dtype_boundaries"): "the per-layer precision search ranks its plans by dtype boundaries",
    ("scenes", "pillarize"): "detector imports it only for perfbench/tracing.py, which wraps detector.pillarize",
}


def test_every_exported_function_and_class_is_read_outside_the_tests():
    """Each function or class in a module's __all__ is read, as a Name or an
    Attribute, somewhere in src/pillarmix or the benchmark's non-test files
    other than its own definition; one that only tests reach is dead API
    unless KEPT says why it stays."""
    files = [*(ROOT / "src" / "pillarmix").glob("*.py"),
             *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))]
    read = set()
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
            read |= names - {getattr(stmt, "name", None)}  # a definition does not read itself
    unread = []
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for attr in module.__all__:
            obj = getattr(module, attr)
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and attr not in read:
                unread.append((name.removeprefix("pillarmix."), attr))
    assert sorted(unread) == sorted(KEPT)


# the script imports each module from a clean sys.modules and prints the
# pillarmix modules that import loaded, by module
IMPORT_GRAPH_SCRIPT = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
loaded = {}
for name in sys.argv[2:]:
    for mod in [m for m in sys.modules if m.split(".")[0] == "pillarmix"]:
        del sys.modules[mod]
    importlib.import_module(name)
    loaded[name] = sorted(m for m in sys.modules if m.startswith("pillarmix."))
print(json.dumps(loaded))
"""


def test_each_module_loads_only_what_it_uses():
    """The package root re-exports nothing, so a leaf module imports alone and
    the detector runs without the calibration module."""
    modules = MODULES[1:]
    out = subprocess.run([sys.executable, "-c", IMPORT_GRAPH_SCRIPT, str(ROOT / "src"), *modules],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    loaded = {name.removeprefix("pillarmix."): {m.removeprefix("pillarmix.") for m in mods}
              for name, mods in json.loads(out).items()}
    assert loaded["metrics"] == {"metrics"}
    assert loaded["quant"] == {"quant"}
    assert loaded["scenes"] == {"scenes", "tensor_ops"}
    assert loaded["tensor_ops"] == {"tensor_ops"}
    assert "calibration" not in loaded["detector"]


# (module or test file, name) imports that the file itself never uses, each with its reason
UNUSED_IMPORTS_ALLOWED = {
    ("qat", "im2col"): "perfbench/tracing.py wraps qat.im2col to count backward patch builds",
    ("detector", "fold_all_bn"): "perfbench/tracing.py counts calls to detector.fold_all_bn, now an identity",
    ("calibration", "fold_all_bn"): "perfbench/tracing.py counts calls to calibration.fold_all_bn, now an identity",
    ("detector", "pillarize"): "perfbench/tracing.py wraps detector.pillarize to time pillarization",
}


def test_every_imported_name_is_used():
    """A name a module or a test file imports is read somewhere in it (an
    annotation counts), so a deletion leaves no dead import behind."""
    unused = []
    for path in sorted([*(ROOT / "src" / "pillarmix").glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [(path.stem, name) for name in bound if name not in used]
    assert sorted(unused) == sorted(UNUSED_IMPORTS_ALLOWED)
