"""Spans around pillarmix's public functions, recorded from outside the package.

The tracer replaces a name in the module that calls it (``pillarmix.detector.
forward`` is the ``forward`` that ``evaluate`` calls) with a wrapper that
appends a span, and puts the original back on ``restore``. Spans live in
parallel lists in memory and are written out once, at the end of the run.
Per-layer metrics are derived from the spans afterwards, never while timing.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = -1  # parent of a span opened outside every other span
SETUP_OP = -1  # operation id of spans recorded during set-up

LAYER_INDICES = tuple(range(1, 14))  # the default toy detector's 13 indexed layers
PRECISIONS = ("fp32", "fp16", "int8")
FORWARD_VARIANTS = ("fp32", "fp16", "int8", "mixed", "taped", "observed")

FORWARDS = ("detector.forward", "qat.forward", "calibration.forward")
TRANSFORMS = ("model.fake_quant", "model.fake_quant_per_channel", "model.fp16_roundtrip")
KERNELS = ("model.conv2d", "model.linear")


def _forward_attr(args, kwargs):
    graph = args[0]
    precisions = tuple(l.precision.value for l in graph.weight_layers)
    if kwargs.get("tape") is not None:
        variant = "taped"
    elif kwargs.get("observe_fn") is not None:
        variant = "observed"
    elif len(set(precisions)) == 1:
        variant = precisions[0]
    else:
        variant = "mixed"
    weight_ids = {id(l.weight) for l in graph.weight_layers}
    return variant, precisions, weight_ids


# span name -> (module, attribute); the span name is "<calling module>.<name>"
WRAPPED = {
    f"{mod}.{name}": (f"pillarmix.{mod}", name)
    for mod, names in (
        ("detector", ("forward", "decode_and_nms", "iou_matrix", "ap40", "fold_all_bn", "apply_plan", "pillarize")),
        ("model", ("conv2d", "linear", "fake_quant", "fake_quant_per_channel", "fp16_roundtrip",
                   "scatter_pillars", "max_over_points", "upsample2x", "relu")),
        ("tensor_ops", ("im2col",)),
        ("qat", ("forward", "backward", "detection_loss", "im2col", "apply_plan")),
        ("calibration", ("forward", "fold_all_bn", "apply_plan", "per_sample_ranges", "stats_from_ranges")),
    )
    for name in names
}


class Tracer:
    """In-memory span recorder; ``install`` wraps every name in WRAPPED."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.attr: dict[int, object] = {}
        self.current_op = SETUP_OP
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._weight_ids: list[set] = []
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else ROOT)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attr=None):
        """A span opened by the benchmark itself, around a call it makes."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)
            if attr is not None:
                self.attr[i] = attr

    def _wrapper(self, name: str, fn):
        tracer = self

        if name in FORWARDS:
            def wrapped(*args, **kwargs):
                attr = _forward_attr(args, kwargs)
                tracer._weight_ids.append(attr[2])
                i = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(i)
                    tracer._weight_ids.pop()
                    tracer.attr[i] = attr[:2]
        elif name == "model.fake_quant":
            def wrapped(*args, **kwargs):
                is_weight = bool(tracer._weight_ids) and id(args[0]) in tracer._weight_ids[-1]
                i = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(i)
                    tracer.attr[i] = is_weight
        elif name in ("detector.pillarize", "detector.decode_and_nms", "calibration.per_sample_ranges"):
            # attr: pillars per scene, detections per scene, samples per call
            def wrapped(*args, **kwargs):
                i = tracer._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(i)
                if name == "detector.pillarize":
                    tracer.attr[i] = int(out.features.shape[0])
                elif name == "detector.decode_and_nms":
                    tracer.attr[i] = len(out)
                else:
                    tracer.attr[i] = len(args[1])
                return out
        else:
            def wrapped(*args, **kwargs):
                i = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(i)
        return wrapped

    def install(self) -> None:
        self.missing = []
        for name, (module_name, attr) in WRAPPED.items():
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrapper(name, fn))

    def restore(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        """Save the spans as an .npz of parallel arrays plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            name_id=np.array(self.name_id, dtype=np.int32),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
        )


# per-layer metric -> (unit, wrapped names it is derived from)
def _layer_metric_specs() -> dict[str, tuple[str, tuple[str, ...]]]:
    fwd = FORWARDS
    specs = {
        "scenes.generate_dataset.ms_per_scene": ("ms/scene", ()),
        "scenes.pillarize.ms_per_scene": ("ms/scene", ("detector.pillarize",)),
        "scenes.pillars_per_scene": ("count/scene", ("detector.pillarize",)),
        "calibration.per_sample_ranges.ms_per_sample": ("ms/sample", ("calibration.per_sample_ranges",)),
        "calibration.stats_from_ranges.ms": ("ms/op", ("calibration.stats_from_ranges",)),
        "calibration.stats_from_ranges.calls": ("calls/op", ("calibration.stats_from_ranges",)),
    }
    for v in FORWARD_VARIANTS:
        specs[f"model.forward.ms.{v}"] = ("ms/call", fwd)
    specs["model.fold_all_bn.calls"] = ("calls/op", ("detector.fold_all_bn", "calibration.fold_all_bn"))
    specs["model.apply_plan.calls"] = (
        "calls/op", ("detector.apply_plan", "qat.apply_plan", "calibration.apply_plan"))
    for index in LAYER_INDICES:
        for p in PRECISIONS:
            specs[f"model.layer.{index}.{p}.ms"] = ("ms/call", fwd + TRANSFORMS + KERNELS + ("model.relu",))
    specs.update({
        "quant.fake_quant.calls": ("calls/op", ("model.fake_quant",)),
        "quant.fake_quant.weight_calls": ("calls/op", ("model.fake_quant",) + fwd),
        "quant.fake_quant.ms": ("ms/op", ("model.fake_quant",)),
        "quant.fp16_roundtrip.calls": ("calls/op", ("model.fp16_roundtrip",)),
        "quant.fp16_roundtrip.ms": ("ms/op", ("model.fp16_roundtrip",)),
        "tensor_ops.im2col.calls.forward": ("calls/op", ("tensor_ops.im2col",)),
        "tensor_ops.im2col.calls.backward": ("calls/op", ("qat.im2col",)),
        "tensor_ops.im2col.ms": ("ms/op", ("tensor_ops.im2col", "qat.im2col")),
        "tensor_ops.conv2d.self_ms": ("ms/op", ("model.conv2d", "tensor_ops.im2col")),
        "tensor_ops.linear.ms": ("ms/op", ("model.linear",)),
        "tensor_ops.scatter_pillars.ms": ("ms/op", ("model.scatter_pillars",)),
        "tensor_ops.max_over_points.ms": ("ms/op", ("model.max_over_points",)),
        "tensor_ops.upsample2x.ms": ("ms/op", ("model.upsample2x",)),
        "detector.decode_and_nms.ms_per_scene": ("ms/scene", ("detector.decode_and_nms",)),
        "detector.detections_per_scene": ("count/scene", ("detector.decode_and_nms",)),
        "detector.nms_iou_calls_per_scene": ("calls/scene", ("detector.decode_and_nms", "detector.iou_matrix")),
        "metrics.ap40.ms": ("ms/op", ("detector.ap40",)),
        "metrics.ap40.calls": ("calls/op", ("detector.ap40",)),
        "qat.backward.ms_per_sample": ("ms/sample", ("qat.backward",)),
        "qat.detection_loss.ms_per_sample": ("ms/sample", ("qat.detection_loss",)),
        "qat.sgd_step.ms": ("ms/op", ("qat.forward", "qat.detection_loss", "qat.backward")),
        "trace.overhead_ratio": ("ratio", ()),
    })
    return specs


LAYER_METRICS = _layer_metric_specs()


def derive(tracer: Tracer, n_ops: int, overhead_ratio: float) -> dict:
    """Per-layer metrics from the recorded spans.

    Spans of the timed operations (op id >= 0) give every per-operation,
    per-call, per-scene and per-sample figure; the ``scenes.*`` figures come
    from set-up spans, because only set-up generates and pillarizes scenes.
    A metric that needs a wrapped name the package no longer has is None.
    Returns {"metrics": {name: (value or None, unit)}, "untraced": [...],
    "missing_names": [...], "checks": {...}}.
    """
    nid = np.array(tracer.name_id, dtype=np.int64)
    start = np.array(tracer.start, dtype=np.int64)
    end = np.array(tracer.end, dtype=np.int64)
    parent = np.array(tracer.parent, dtype=np.int64)
    op = np.array(tracer.op, dtype=np.int64)
    span_name = np.array(tracer.names, dtype=object)[nid]
    dur = end - start
    has_parent = parent >= 0
    child_sum = np.zeros(len(dur), dtype=np.int64)
    np.add.at(child_sum, parent[has_parent], dur[has_parent])
    self_time = dur - child_sum

    # trace integrity: children nest inside parents, and per operation the
    # self times add up to no more than the operation's wall time
    nested = bool(np.all(start[has_parent] >= start[parent[has_parent]])
                  and np.all(end[has_parent] <= end[parent[has_parent]]))
    roots = np.nonzero((op >= 0) & ~has_parent)[0]
    self_by_op = np.zeros(op.max() + 1 if len(op) and op.max() >= 0 else 0, dtype=np.int64)
    timed = op >= 0
    np.add.at(self_by_op, op[timed], self_time[timed])
    wall_by_op = np.zeros_like(self_by_op)
    np.add.at(wall_by_op, op[roots], dur[roots])
    self_le_wall = bool(np.all(self_by_op <= wall_by_op))

    def sel(*wanted, timed_only=True):
        mask = np.isin(span_name, wanted)
        return mask & (op >= 0) if timed_only else mask & (op == SETUP_OP)

    ms = 1e-6
    per_op = 1.0 / max(1, n_ops)

    def total_ms(*wanted):
        return float(dur[sel(*wanted)].sum()) * ms

    def count(*wanted):
        return int(sel(*wanted).sum())

    def attr_sum(mask):
        return float(sum(tracer.attr[int(i)] for i in np.nonzero(mask)[0]))

    def ratio(a, b):
        return a / b if b else 0.0

    values: dict[str, float] = {}
    gen = sel("scenes.generate_dataset", timed_only=False)
    values["scenes.generate_dataset.ms_per_scene"] = ratio(float(dur[gen].sum()) * ms, attr_sum(gen))
    pil = sel("detector.pillarize", timed_only=False)
    values["scenes.pillarize.ms_per_scene"] = ratio(float(dur[pil].sum()) * ms, int(pil.sum()))
    values["scenes.pillars_per_scene"] = ratio(attr_sum(pil), int(pil.sum()))

    psr = sel("calibration.per_sample_ranges")
    values["calibration.per_sample_ranges.ms_per_sample"] = ratio(float(dur[psr].sum()) * ms, attr_sum(psr))
    values["calibration.stats_from_ranges.ms"] = total_ms("calibration.stats_from_ranges") * per_op
    values["calibration.stats_from_ranges.calls"] = count("calibration.stats_from_ranges") * per_op

    fwd_idx = np.nonzero(sel(*FORWARDS))[0]
    by_variant: dict[str, list[int]] = {v: [] for v in FORWARD_VARIANTS}
    for i in fwd_idx:
        by_variant[tracer.attr[int(i)][0]].append(int(dur[i]))
    for v in FORWARD_VARIANTS:
        values[f"model.forward.ms.{v}"] = ratio(sum(by_variant[v]) * ms, len(by_variant[v]))
    values["model.fold_all_bn.calls"] = count("detector.fold_all_bn", "calibration.fold_all_bn") * per_op
    values["model.apply_plan.calls"] = count(
        "detector.apply_plan", "qat.apply_plan", "calibration.apply_plan") * per_op

    # a layer's time is its kernel span plus the precision transforms just
    # before it and the ReLU just after it, in call order inside one forward
    layer_ns: dict[tuple[int, str], int] = {}
    layer_n: dict[tuple[int, str], int] = {}
    is_fwd = np.zeros(len(dur), dtype=bool)
    is_fwd[fwd_idx] = True
    per_forward: dict[int, list[int]] = {int(i): [0] * (len(tracer.attr[int(i)][1]) + 1) for i in fwd_idx}
    pending: dict[int, int] = {}
    position: dict[int, int] = {}
    for c in np.nonzero(has_parent & is_fwd[np.maximum(parent, 0)])[0]:
        p = int(parent[c])
        name = span_name[c]
        if name in TRANSFORMS:
            pending[p] = pending.get(p, 0) + int(dur[c])
        elif name in KERNELS:
            k = position.get(p, 0) + 1
            position[p] = k
            if k < len(per_forward[p]):
                per_forward[p][k] += pending.pop(p, 0) + int(dur[c])
        elif name == "model.relu" and position.get(p, 0) < len(per_forward[p]):
            per_forward[p][position.get(p, 0)] += int(dur[c])
    for p, acc in per_forward.items():
        for k, prec in enumerate(tracer.attr[p][1], start=1):
            layer_ns[(k, prec)] = layer_ns.get((k, prec), 0) + acc[k]
            layer_n[(k, prec)] = layer_n.get((k, prec), 0) + 1
    for index in LAYER_INDICES:
        for prec in PRECISIONS:
            key = (index, prec)
            values[f"model.layer.{index}.{prec}.ms"] = ratio(layer_ns.get(key, 0) * ms, layer_n.get(key, 0))

    fq = sel("model.fake_quant")
    values["quant.fake_quant.calls"] = int(fq.sum()) * per_op
    values["quant.fake_quant.weight_calls"] = sum(bool(tracer.attr[int(i)]) for i in np.nonzero(fq)[0]) * per_op
    values["quant.fake_quant.ms"] = total_ms("model.fake_quant") * per_op
    values["quant.fp16_roundtrip.calls"] = count("model.fp16_roundtrip") * per_op
    values["quant.fp16_roundtrip.ms"] = total_ms("model.fp16_roundtrip") * per_op

    values["tensor_ops.im2col.calls.forward"] = count("tensor_ops.im2col") * per_op
    values["tensor_ops.im2col.calls.backward"] = count("qat.im2col") * per_op
    values["tensor_ops.im2col.ms"] = total_ms("tensor_ops.im2col", "qat.im2col") * per_op
    values["tensor_ops.conv2d.self_ms"] = float(self_time[sel("model.conv2d")].sum()) * ms * per_op
    for kernel in ("linear", "scatter_pillars", "max_over_points", "upsample2x"):
        values[f"tensor_ops.{kernel}.ms"] = total_ms(f"model.{kernel}") * per_op

    dec = sel("detector.decode_and_nms")
    n_dec = int(dec.sum())
    values["detector.decode_and_nms.ms_per_scene"] = ratio(float(dur[dec].sum()) * ms, n_dec)
    values["detector.detections_per_scene"] = ratio(attr_sum(dec), n_dec)
    values["detector.nms_iou_calls_per_scene"] = ratio(count("detector.iou_matrix"), n_dec)
    values["metrics.ap40.ms"] = total_ms("detector.ap40") * per_op
    values["metrics.ap40.calls"] = count("detector.ap40") * per_op

    n_bwd = count("qat.backward")
    values["qat.backward.ms_per_sample"] = ratio(total_ms("qat.backward"), n_bwd)
    n_loss = count("qat.detection_loss")
    values["qat.detection_loss.ms_per_sample"] = ratio(total_ms("qat.detection_loss"), n_loss)
    train = sel("bench.train_qat")
    values["qat.sgd_step.ms"] = (
        float(dur[train].sum()) * ms - total_ms("qat.forward", "qat.detection_loss", "qat.backward")
    ) * per_op if train.any() else 0.0
    values["trace.overhead_ratio"] = overhead_ratio

    missing = set(tracer.missing)
    metrics = {
        name: (None if missing & set(needs) else float(values[name]), unit)
        for name, (unit, needs) in LAYER_METRICS.items()
    }
    return {
        "metrics": metrics,
        "untraced": sorted(n for n, (v, _) in metrics.items() if v is None),
        "missing_names": sorted(missing),
        "checks": {"spans": int(len(dur)), "nested": nested, "self_le_wall": self_le_wall},
    }
