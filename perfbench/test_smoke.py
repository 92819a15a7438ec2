"""Smoke run of the benchmark at tiny sizes, checks and tracing on.

    python3 -m pytest -q perfbench/test_smoke.py

Runs in a few seconds and is not part of the package's own test suite.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct(name, trace):
    record, result = run.run_workload(name, seed=3, seconds=0.05, trace=trace, sizes=workloads.SMOKE)
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        assert set(result["metrics"]) == set(tracing.LAYER_METRICS)
        assert record["tracing"]["checks"]["self_le_wall"] and record["tracing"]["checks"]["nested"]
        assert record["tracing"]["untraced"] == []
    else:
        names = {"setup_s", "throughput_per_s", "peak_rss_mb", "success_rate",
                 "fp16_sqnr_db", "int8_sqnr_db", "mixed_sqnr_db"}
        assert set(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for wrapped, (module, attr) in tracing.WRAPPED.items():
        assert not getattr(importlib.import_module(module), attr).__name__ == "wrapped", wrapped


def test_missing_name_is_reported_untraced(monkeypatch):
    from pillarmix import qat

    monkeypatch.delattr(qat, "im2col")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.restore()
    derived = tracing.derive(tracer, n_ops=1, overhead_ratio=1.0)
    assert tracer.missing == ["qat.im2col"]
    assert derived["metrics"]["tensor_ops.im2col.calls.backward"][0] is None
    assert derived["metrics"]["tensor_ops.im2col.calls.forward"][0] == 0.0


def test_binary16_reference_matches_numpy_half():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(scale=s, size=20000) for s in (1e-6, 1e-3, 1.0, 1e3, 1e5)])
    x = x.astype(np.float32)
    expected = np.clip(x, -65504, 65504).astype(np.float16).astype(np.float64)
    assert np.array_equal(reference.binary16_round_trip(x), expected)


def test_reference_check_catches_a_wrong_precision():
    """The reference tolerance sits far below what a wrong precision costs."""
    from pillarmix import model

    wl = workloads.PtqEval()
    wl.setup(seed=3, sizes=workloads.SMOKE)
    sample = wl.samples[0]
    fp32 = model.forward(model.apply_plan(wl.graph, model.PrecisionPlan()), sample)
    for label in ("FP16", "INT8"):
        plan = model.parse_plan_label(label)
        ref, _ = reference.reference_forward(wl.base, sample, lambda i: plan.resolve(i).value, wl.stats)
        assert reference.rel_l2(fp32, ref) > 10 * reference.REFERENCE_REL_TOL
