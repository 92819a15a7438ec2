"""Layer-chain model representation with per-layer precision tags.

A model is an ordered list of layers: weight layers (linear, conv2d) carry
1-based indices, an optional ReLU and optional BN statistics; glue layers
(scatter, maxpool, upsample2x) are precision-free. The chain may end in
several head layers that all consume the same trunk tensor. BN is folded
into the weights before execution (``fold_all_bn``); ``forward`` rejects a
layer that still carries it. Execution is precision-aware: INT8 layers
fake-quantize their input activation and weight, FP16 layers round both
through binary16, FP32 layers run untouched.

A saved model is one ``<name>.npz``: a JSON ``manifest`` member and one
float32 member per parameter array, keyed by layer position and field
('3.weight', '0.bn.gamma'); see ``save_model``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import zipfile
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

FORMAT_VERSION = 2


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
    '<DEFAULT> except i=dtype,...', e.g. 'INT8 except 1=fp32'. Anything else,
    such as 'FP16:' with no indices or an empty one in 'FP16: 1,,3', raises
    ValueError naming the label.
    """
    text = label.strip()
    try:
        if text.upper().startswith("FP16:"):
            indices = [int(tok) for tok in text.split(":", 1)[1].split(",")]
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
# Serialization: one <name>.npz, a JSON manifest plus one float32 array per parameter

_BN_FIELDS = ("gamma", "beta", "mean", "var")


def _npz_path(path) -> Path:
    p = Path(path)
    return p if p.suffix == ".npz" else p.with_name(p.name + ".npz")


def _layer_record(layer: LayerSpec) -> dict:
    """A layer's manifest record: everything but its arrays, and BN's eps."""
    return {
        "name": layer.name,
        "kind": layer.kind,
        "index": layer.index,
        "relu": layer.relu,
        "is_head": layer.is_head,
        "precision": layer.precision.value,
        "conv": {"stride": list(layer.conv.stride), "padding": list(layer.conv.padding)} if layer.conv else None,
        "grid": list(layer.grid) if layer.grid is not None else None,
        "bn": {"eps": layer.bn.eps} if layer.bn is not None else None,
    }


def _arrays(graph: ModelGraph) -> dict[str, np.ndarray]:
    """Every parameter array as little-endian float32, keyed '<layer position>.<field>',
    in layer order: weight, bias, then BN gamma, beta, mean, var (e.g. '0.bn.gamma')."""
    fields = {}
    for pos, l in enumerate(graph.layers):
        fields.update({f"{pos}.weight": l.weight, f"{pos}.bias": l.bias})
        if l.bn is not None:
            fields.update({f"{pos}.bn.{f}": getattr(l.bn, f) for f in _BN_FIELDS})
    return {key: np.ascontiguousarray(a, dtype="<f4") for key, a in fields.items() if a is not None}


def save_model(graph: ModelGraph, path) -> Path:
    """Write the graph as one uncompressed <path>.npz; returns its path.

    Its 'manifest' member is a JSON string: "format_version", "meta", one record
    per layer (no arrays; BN keeps its "eps") and "weights_sha256", the graph's
    weights_digest. Each parameter array is a member such as '3.weight'.
    """
    path = _npz_path(path)
    manifest = {
        "format_version": FORMAT_VERSION,
        "meta": graph.meta,
        "layers": [_layer_record(l) for l in graph.layers],
        "weights_sha256": weights_digest(graph),
    }
    np.savez(path, manifest=np.array(json.dumps(manifest, sort_keys=True)), **_arrays(graph))
    return path


def load_model(path) -> ModelGraph:
    """Read a model written by save_model; never unpickles.

    An unreadable file (the zip's CRC-32 catches a flipped byte), a malformed
    manifest or layer record, an array that is not finite float32 or belongs to
    no layer, an invalid chain and arrays whose digest is not "weights_sha256"
    (e.g. two swapped) raise ModelFormatError naming the file, and the layer
    where there is one; an unknown version raises UnsupportedVersionError.
    """
    path = _npz_path(path)
    try:
        # np.load leaks a file it opens itself when the zip is unreadable
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as npz:
            arrays = {key: npz[key] for key in npz.files}
        manifest = json.loads(str(arrays.pop("manifest", "")))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: malformed manifest: {exc}") from exc
    except (OSError, ValueError, EOFError, TypeError, zipfile.BadZipFile) as exc:
        raise ModelFormatError(f"{path}: not a readable model file: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ModelFormatError(f"{path}: malformed manifest: not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: model format version {version!r} is not supported (expected {FORMAT_VERSION})"
        )
    meta, records = manifest.get("meta"), manifest.get("layers")
    if not isinstance(meta, dict) or not isinstance(records, list):
        raise ModelFormatError(f"{path}: malformed manifest: needs a 'meta' object and a 'layers' list")
    layers = [_read_layer(rec, pos, arrays, path) for pos, rec in enumerate(records)]
    if arrays:  # _read_layer took every array that belongs to a layer
        raise ModelFormatError(f"{path}: arrays {sorted(arrays)} belong to no layer")
    try:
        graph = ModelGraph(layers=tuple(layers), meta=meta)
    except ValueError as exc:  # the layer chain itself is invalid, e.g. indices out of order
        raise ModelFormatError(f"{path}: {exc}") from exc
    if weights_digest(graph) != manifest.get("weights_sha256"):  # e.g. two same-shape arrays swapped
        raise ModelFormatError(f"{path}: the arrays' digest is not the manifest's weights_sha256")
    return graph


def _read_layer(rec, pos: int, arrays: dict, path: Path) -> LayerSpec:
    """The layer at position pos; takes its arrays out of arrays."""
    if not isinstance(rec, dict):
        raise ModelFormatError(f"{path}: layer record {pos} is not an object")
    where = f"{path}: layer {rec.get('name')!r}"

    def take(field: str, required: bool) -> np.ndarray | None:
        key = f"{pos}.{field}"
        if not required and key not in arrays:
            return None
        arr = arrays.pop(key)  # a missing BN array is a KeyError
        dtype = getattr(arr, "dtype", None)
        if dtype != np.float32:
            raise ValueError(f"{field} is {dtype}, not float32")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{field} holds NaN or inf")
        return arr

    try:
        bn, conv = rec.get("bn"), rec.get("conv")
        bn = None if bn is None else BatchNorm(*(take(f"bn.{f}", True) for f in _BN_FIELDS), eps=float(bn["eps"]))
        conv = None if conv is None else ConvParams(tuple(conv["stride"]), tuple(conv["padding"]))
        return LayerSpec(
            name=rec["name"],
            kind=rec["kind"],
            index=rec["index"],
            weight=take("weight", False),
            bias=take("bias", False),
            bn=bn,
            relu=bool(rec["relu"]),
            conv=conv,
            grid=tuple(rec["grid"]) if rec.get("grid") else None,
            is_head=bool(rec["is_head"]),
            precision=DType(rec["precision"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ModelFormatError(f"{where}: {detail}") from exc


def graphs_equal(a: ModelGraph, b: ModelGraph) -> bool:
    """Bit-exact structural equality, weights included."""
    def parts(g: ModelGraph):
        arrays = [(key, arr.shape, arr.tobytes()) for key, arr in _arrays(g).items()]
        return g.meta, [_layer_record(l) for l in g.layers], arrays

    return parts(a) == parts(b)


def weights_digest(graph: ModelGraph) -> str:
    """sha256 over all parameter arrays' little-endian float32 bytes, in layer
    order: weight, bias, then BN gamma, beta, mean, var."""
    digest = hashlib.sha256()
    for arr in _arrays(graph).values():
        digest.update(arr.tobytes())
    return digest.hexdigest()
