"""Layer-chain model representation with per-layer precision tags.

A model is an ordered list of layers: weight layers (linear, conv2d) carry
1-based indices, an optional ReLU and optional BN statistics; glue layers
(scatter, maxpool, upsample2x) are precision-free. The chain may end in
several head layers that all consume the same trunk tensor. BN is folded
into the weights before execution (``fold_all_bn``); ``forward`` rejects a
layer that still carries it. Execution is precision-aware: INT8 layers
fake-quantize their input activation and weight, FP16 layers round both
through binary16, FP32 layers run untouched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .quant import (
    DType,
    PerChannelQuantParams,
    QuantParams,
    fake_quant,
    fake_quant_per_channel,
    fp16_roundtrip,
)
from .tensor_ops import ConvParams, PillarSample, conv2d, linear, max_over_points, relu, scatter_pillars, upsample2x

__all__ = [
    "BatchNorm",
    "EVAL_CHUNK",
    "LayerSpec",
    "ModelFormatError",
    "ModelGraph",
    "PrecisionPlan",
    "TapeEntry",
    "UnsupportedVersionError",
    "apply_plan",
    "dtype_boundaries",
    "fold_all_bn",
    "fold_bn",
    "forward",
    "graphs_equal",
    "load_model",
    "parse_plan_label",
    "save_model",
    "weights_digest",
]

# Scenes per stacked forward in detector.evaluate and calibration.per_sample_ranges.
# Each forward quantizes every weight once for the whole chunk, but the
# activations and the im2col patch matrices grow with it: over a 96-scene eval
# set (x86-64, numpy 2.4, OpenBLAS), one unchunked forward raised peak RSS by
# about 11 MB over per-scene forwards, chunks of 16 scenes by about 1 MB.
EVAL_CHUNK = 16

WEIGHT_KINDS = ("linear", "conv2d")
GLUE_KINDS = ("scatter", "maxpool", "upsample2x")

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Malformed or inconsistent model file."""


class UnsupportedVersionError(ModelFormatError):
    """Model file written with an unknown format version."""


@dataclass(frozen=True)
class BatchNorm:
    """Per-output-channel batch norm statistics attached to a weight layer."""

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str
    index: int | None = None
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    bn: BatchNorm | None = None
    relu: bool = False
    conv: ConvParams | None = None
    grid: tuple[int, int] | None = None
    is_head: bool = False
    precision: DType = DType.FP32

    @property
    def is_weight_layer(self) -> bool:
        return self.kind in WEIGHT_KINDS


@dataclass(frozen=True)
class ModelGraph:
    """Ordered layer chain; list order is the topological order."""

    layers: tuple[LayerSpec, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        _validate_layers(self.layers)

    @property
    def weight_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.layers if l.is_weight_layer)

    @property
    def num_indexed(self) -> int:
        return len(self.weight_layers)

    def layer_by_index(self, index: int) -> LayerSpec:
        for l in self.layers:
            if l.index == index:
                return l
        raise KeyError(f"no weight layer with index {index}")


def _validate_layers(layers: Sequence[LayerSpec]) -> None:
    expected = 1
    seen_head = False
    for l in layers:
        if l.kind not in WEIGHT_KINDS + GLUE_KINDS:
            raise ValueError(f"layer {l.name!r} has unknown kind {l.kind!r}")
        if l.is_weight_layer:
            if l.weight is None or l.bias is None:
                raise ValueError(f"weight layer {l.name!r} is missing weight or bias")
            if l.index != expected:
                raise ValueError(
                    f"weight layer {l.name!r} has index {l.index}, expected {expected} "
                    "(indices must be contiguous from 1 in chain order)"
                )
            expected += 1
            if l.kind == "conv2d" and l.conv is None:
                raise ValueError(f"conv layer {l.name!r} is missing conv params")
        else:
            if l.bn is not None:
                raise ValueError(f"non-weight layer {l.name!r} cannot carry batch norm")
            if l.index is not None:
                raise ValueError(f"glue layer {l.name!r} must not carry an index")
            if l.is_head:
                raise ValueError(f"glue layer {l.name!r} cannot be a head")
        if seen_head and not l.is_head:
            raise ValueError(f"layer {l.name!r} follows a head layer but is not a head")
        seen_head = seen_head or l.is_head


@dataclass(frozen=True)
class PrecisionPlan:
    """Default datatype plus per-layer-index overrides."""

    default: DType = DType.FP32
    overrides: dict[int, DType] = field(default_factory=dict)

    def resolve(self, index: int) -> DType:
        return self.overrides.get(index, self.default)

    def label(self) -> str:
        """Describe the plan using the FP16-override notation, e.g. 'FP16: 1,22'."""
        if not self.overrides:
            return self.default.value.upper()
        if self.default is DType.INT8 and all(d is DType.FP16 for d in self.overrides.values()):
            return "FP16: " + ",".join(str(i) for i in self.overrides)
        parts = ",".join(f"{i}={d.value}" for i, d in self.overrides.items())
        return f"{self.default.value.upper()} except {parts}"


def parse_plan_label(label: str) -> PrecisionPlan:
    """Parse any label that PrecisionPlan.label() emits back into its plan.

    'FP32' / 'FP16' / 'INT8'; 'FP16: 1,22,3' (INT8 with those layers in FP16);
    '<DEFAULT> except i=dtype,...', e.g. 'INT8 except 1=fp32'.
    """
    text = label.strip()
    try:
        if text.upper().startswith("FP16:"):
            indices = [int(tok) for tok in text.split(":", 1)[1].split(",") if tok.strip()]
            return PrecisionPlan(default=DType.INT8, overrides={i: DType.FP16 for i in indices})
        default, sep, rest = text.partition(" except ")
        overrides = {}
        for tok in rest.split(",") if sep else ():
            index, _, dtype = tok.partition("=")
            overrides[int(index)] = DType(dtype.strip().lower())
        return PrecisionPlan(default=DType(default.strip().lower()), overrides=overrides)
    except ValueError as exc:
        raise ValueError(f"unrecognized plan label {label!r}") from exc


def apply_plan(graph: ModelGraph, plan: PrecisionPlan) -> ModelGraph:
    """Retag every indexed layer from the plan; weights are shared untouched."""
    known = {l.index for l in graph.weight_layers}
    unknown = sorted(set(plan.overrides) - known)
    if unknown:
        raise ValueError(f"plan overrides unknown layer indices {unknown}")
    layers = [
        dataclasses.replace(l, precision=plan.resolve(l.index)) if l.is_weight_layer else l
        for l in graph.layers
    ]
    return ModelGraph(layers=tuple(layers), meta=graph.meta)


def dtype_boundaries(precisions: Sequence[DType]) -> int:
    """Count dtype transitions between consecutive indexed layers."""
    return sum(1 for a, b in zip(precisions, precisions[1:]) if a is not b)


# ---------------------------------------------------------------------------
# BN folding


def fold_bn(layer: LayerSpec) -> LayerSpec:
    """Fold batch norm into the layer's weight and bias.

    weight' = weight * gamma / sqrt(var + eps) per output channel,
    bias'   = (bias - mean) * gamma / sqrt(var + eps) + beta.
    """
    if layer.bn is None:
        raise ValueError(f"layer {layer.name!r} has no batch norm to fold")
    bn = layer.bn
    denom_sq = bn.var.astype(np.float64) + bn.eps
    if np.any(denom_sq <= 0):
        raise ValueError(f"layer {layer.name!r} has non-positive var + eps")
    factor = (bn.gamma.astype(np.float64) / np.sqrt(denom_sq)).astype(np.float32)
    shape = (-1,) + (1,) * (layer.weight.ndim - 1)
    weight = (layer.weight * factor.reshape(shape)).astype(np.float32)
    bias = ((layer.bias - bn.mean) * factor + bn.beta).astype(np.float32)
    return dataclasses.replace(layer, weight=weight, bias=bias, bn=None)


def fold_all_bn(graph: ModelGraph) -> ModelGraph:
    layers = [fold_bn(l) if l.bn is not None else l for l in graph.layers]
    return ModelGraph(layers=tuple(layers), meta=graph.meta)


# ---------------------------------------------------------------------------
# Forward execution


@dataclass
class TapeEntry:
    """One layer's forward record, enough to drive the training backward pass.

    Every layer keeps x_in, its input before any precision transform. Glue
    layers keep the sample (scatter coordinates, maxpool point mask; the
    maxpool winners are recomputed from x_in). Weight layers keep what the
    kernel consumed (x_used, w_used), the INT8 (act, weight) quant params
    (None at FP32 and FP16) and the output after the ReLU, whose positive
    cells are those of the pre-activation.
    """

    layer: LayerSpec
    x_in: np.ndarray
    sample: PillarSample | None = None
    x_used: np.ndarray | None = None
    w_used: np.ndarray | None = None
    quant: tuple[QuantParams, QuantParams | PerChannelQuantParams] | None = None
    out: np.ndarray | None = None


def _layer_quant(layer: LayerSpec, stats):
    if stats is None or layer.index not in stats:
        raise RuntimeError(
            f"layer {layer.index} ({layer.name!r}) is tagged int8 but calibration "
            "stats supply no quant params for it"
        )
    entry = stats[layer.index]
    if entry.name != layer.name:
        raise RuntimeError(
            f"layer {layer.index} ({layer.name!r}) is tagged int8 but its calibration "
            f"stats were recorded for layer {entry.name!r}; stats from another model?"
        )
    return entry.act_qp, entry.weight_qp


def _kernel_inputs(layer: LayerSpec, x: np.ndarray, stats):
    """The kernel's input and weight under the layer's precision, plus the
    INT8 (act, weight) quant params, None at FP32 and FP16."""
    try:
        if layer.precision is DType.INT8:
            act_qp, weight_qp = quant = _layer_quant(layer, stats)
            per_channel = isinstance(weight_qp, PerChannelQuantParams)
            quantize_weight = fake_quant_per_channel if per_channel else fake_quant
            return fake_quant(x, act_qp), quantize_weight(layer.weight, weight_qp), quant
        if layer.precision is DType.FP16:
            return fp16_roundtrip(x), fp16_roundtrip(layer.weight), None
        return x, layer.weight, None
    except ValueError as exc:  # NaN at the precision boundary
        raise ValueError(f"layer {layer.index} ({layer.name!r}): {exc}") from exc


def forward(
    graph: ModelGraph,
    x: np.ndarray | PillarSample,
    stats: Mapping | None = None,
    observe_fn: Callable[[LayerSpec, np.ndarray], None] | None = None,
    tape: list | None = None,
):
    """Run the chain on x; returns the final tensor, or a tuple per head.

    x is a plain tensor or a PillarSample. A PillarSample may stack B scenes
    (see ``tensor_ops.stack_samples``); every layer then runs once for the
    whole batch: the point layers on the [P_total, max_points, C] pillars of
    all scenes, the scatter into a [B, C, H, W] pseudo-image and the convs on
    that, so each head output is [B, F, H', W']. A single pillarized scene is
    a batch of one, with B = 1. Scene b's outputs equal those of a forward on
    that scene alone, bit for bit.

    Batch norm is folded before execution (``fold_all_bn``); a layer that
    still carries BN raises ValueError naming it. stats must cover every
    INT8-tagged layer under the layer's own name (see calibration).
    observe_fn, when given, receives each indexed layer's input activation
    before any precision transform. tape, when a list, gets one TapeEntry per
    layer. A NaN reaching an INT8 or FP16 layer's precision transform raises
    ValueError naming the layer.
    """
    sample = x if isinstance(x, PillarSample) else None
    current = sample.features if sample is not None else np.asarray(x, dtype=np.float32)

    head_outputs: list[np.ndarray] = []
    trunk: np.ndarray | None = None
    for layer in graph.layers:
        if layer.is_head:
            trunk = current if trunk is None else trunk
        source = trunk if layer.is_head else current
        if layer.is_weight_layer:
            if layer.bn is not None:
                raise ValueError(
                    f"layer {layer.index} ({layer.name!r}) still carries batch norm; "
                    "fold it before execution (fold_all_bn)"
                )
            if observe_fn is not None:
                observe_fn(layer, source)
            x_used, w_used, quant = _kernel_inputs(layer, source, stats)
            if layer.kind == "linear":
                out = linear(x_used, w_used, layer.bias)
            else:
                out = conv2d(x_used, w_used, layer.bias, layer.conv)
            if layer.relu:
                out = relu(out)
            if tape is not None:
                tape.append(TapeEntry(layer, source, x_used=x_used, w_used=w_used, quant=quant, out=out))
        else:
            if sample is None and layer.kind != "upsample2x":
                raise ValueError(f"{layer.kind} layer {layer.name!r} needs a PillarSample input")
            if layer.kind == "maxpool":
                out = max_over_points(source, sample.point_mask)
            elif layer.kind == "scatter":
                if layer.grid is not None and tuple(layer.grid) != tuple(sample.grid):
                    raise ValueError(
                        f"scatter grid {layer.grid} does not match sample grid {sample.grid}"
                    )
                out = scatter_pillars(
                    source, sample.coords, sample.grid, sample.scene_ids, sample.num_scenes
                )
            else:  # upsample2x
                out = upsample2x(source)
            if tape is not None:
                tape.append(TapeEntry(layer, source, sample=sample))
        if layer.is_head:
            head_outputs.append(out)
        else:
            current = out

    if head_outputs:
        return tuple(head_outputs)
    return current


# ---------------------------------------------------------------------------
# Serialization: <name>.mpq.json manifest + <name>.mpq.bin float32 blob


def _blob_paths(path) -> tuple[Path, Path]:
    p = Path(path)
    name = p.name
    for suffix in (".mpq.json", ".mpq.bin", ".mpq"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
            break
    stem = p.with_name(name)
    return stem.with_name(stem.name + ".mpq.json"), stem.with_name(stem.name + ".mpq.bin")


class _BlobWriter:
    def __init__(self):
        self.chunks: list[bytes] = []
        self.offset = 0

    def add(self, arr: np.ndarray) -> dict:
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        rec = {"shape": list(arr.shape), "offset": self.offset}
        self.chunks.append(data)
        self.offset += len(data)
        return rec


def _layer_manifest(layer: LayerSpec, blob: _BlobWriter) -> dict:
    rec = {
        "name": layer.name,
        "kind": layer.kind,
        "index": layer.index,
        "relu": layer.relu,
        "is_head": layer.is_head,
        "precision": layer.precision.value,
        "conv": None,
        "grid": list(layer.grid) if layer.grid is not None else None,
        "weight": blob.add(layer.weight) if layer.weight is not None else None,
        "bias": blob.add(layer.bias) if layer.bias is not None else None,
        "bn": None,
    }
    if layer.conv is not None:
        rec["conv"] = {"stride": list(layer.conv.stride), "padding": list(layer.conv.padding)}
    if layer.bn is not None:
        rec["bn"] = {
            "eps": layer.bn.eps,
            "gamma": blob.add(layer.bn.gamma),
            "beta": blob.add(layer.bn.beta),
            "mean": blob.add(layer.bn.mean),
            "var": blob.add(layer.bn.var),
        }
    return rec


def _encode(graph: ModelGraph) -> tuple[list[dict], bytes]:
    """Manifest records of the layers and the float32 blob of all their
    arrays, in layer order: weight, bias, then BN gamma, beta, mean, var."""
    blob = _BlobWriter()
    records = [_layer_manifest(l, blob) for l in graph.layers]
    return records, b"".join(blob.chunks)


def save_model(graph: ModelGraph, path) -> Path:
    """Write the graph as <path>.mpq.json + <path>.mpq.bin; returns the manifest path."""
    manifest_path, blob_path = _blob_paths(path)
    layers, data = _encode(graph)
    manifest = {
        "format_version": FORMAT_VERSION,
        "meta": graph.meta,
        "blob_size": len(data),
        "checksum_sha256": hashlib.sha256(data).hexdigest(),
        "layers": layers,
    }
    blob_path.write_bytes(data)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def _read_array(rec: dict | None, data: bytes, what: str) -> np.ndarray | None:
    """The array at rec's offset in the blob; what names it in errors."""
    if rec is None:
        return None
    shape = tuple(rec["shape"])
    count = int(np.prod(shape)) if shape else 1
    start = rec["offset"]
    end = start + 4 * count
    if end > len(data):
        raise ModelFormatError(
            f"weight blob truncated: need bytes [{start}, {end}) of {len(data)}"
        )
    arr = np.frombuffer(data[start:end], dtype="<f4").reshape(shape).astype(np.float32)
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"{what} holds NaN or inf")
    return arr


def load_model(path) -> ModelGraph:
    manifest_path, blob_path = _blob_paths(path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"malformed manifest {manifest_path}: {exc}") from exc
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"model format version {version!r} is not supported (expected {FORMAT_VERSION})"
        )
    if not blob_path.exists():
        raise ModelFormatError(f"manifest references missing weight blob {blob_path}")
    data = blob_path.read_bytes()
    if len(data) != manifest.get("blob_size"):
        raise ModelFormatError(
            f"weight blob size {len(data)} != manifest blob_size {manifest.get('blob_size')}"
        )
    digest = hashlib.sha256(data).hexdigest()
    if digest != manifest.get("checksum_sha256"):
        raise ModelFormatError("weight blob checksum mismatch")
    layers = [_read_layer(rec, data, f"{manifest_path}: layer {rec.get('name')!r}") for rec in manifest["layers"]]
    try:
        graph = ModelGraph(layers=tuple(layers), meta=manifest.get("meta", {}))
    except ValueError as exc:  # the layer chain itself is invalid, e.g. indices out of order
        raise ModelFormatError(f"{manifest_path}: {exc}") from exc
    if _encode(graph)[1] != data:  # e.g. two arrays' offsets swapped: the checksum still matches
        raise ModelFormatError(f"{manifest_path}: the layers' arrays do not re-encode to the weight blob")
    return graph


def _read_layer(rec: dict, data: bytes, where: str) -> LayerSpec:
    try:
        bn = None
        if rec.get("bn") is not None:
            b = rec["bn"]
            bn = BatchNorm(
                gamma=_read_array(b["gamma"], data, f"{where} BN gamma"),
                beta=_read_array(b["beta"], data, f"{where} BN beta"),
                mean=_read_array(b["mean"], data, f"{where} BN mean"),
                var=_read_array(b["var"], data, f"{where} BN var"),
                eps=float(b["eps"]),
            )
        conv = None
        if rec.get("conv") is not None:
            conv = ConvParams(
                stride=tuple(rec["conv"]["stride"]), padding=tuple(rec["conv"]["padding"])
            )
        return LayerSpec(
            name=rec["name"],
            kind=rec["kind"],
            index=rec["index"],
            weight=_read_array(rec.get("weight"), data, f"{where} weight"),
            bias=_read_array(rec.get("bias"), data, f"{where} bias"),
            bn=bn,
            relu=bool(rec["relu"]),
            conv=conv,
            grid=tuple(rec["grid"]) if rec.get("grid") else None,
            is_head=bool(rec["is_head"]),
            precision=DType(rec["precision"]),
        )
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ModelFormatError(f"{where}: {detail}") from exc


def graphs_equal(a: ModelGraph, b: ModelGraph) -> bool:
    """Bit-exact structural equality, weights included."""
    return a.meta == b.meta and _encode(a) == _encode(b)


def weights_digest(graph: ModelGraph) -> str:
    """sha256 over all parameter bytes, in layer order (the .mpq.bin blob)."""
    return hashlib.sha256(_encode(graph)[1]).hexdigest()
