"""Layer-chain model representation with per-layer precision tags.

A model is an ordered list of layers: weight layers (linear, conv2d) carry
an optional ReLU; glue layers (scatter, maxpool, upsample2x) are
precision-free. A weight layer's index, which plans, calibration stats and
gradients are keyed by, is its place among the weight layers: ``ModelGraph``
numbers them 1..L in chain order. A layer sets only the fields its kind reads
(``KIND_FIELDS``). The chain may end in several head layers that all consume
the same trunk tensor. A graph knows no batch norm: its weights are folded,
as TensorRT fuses a BN into the conv it follows, and
``detector.build_toy_detector`` folds each BN as it draws it. Execution is
precision-aware: INT8 layers fake-quantize their input activation and weight,
FP16 layers round both through binary16, and both transforms return float32;
FP32 layers run untouched, in the dtype of their input and weights.
``forward`` maps a batch of pillarized scenes to one output per head. Inside
it images are channels-last ``[B, H, W, C]``, the layout of the
``tensor_ops`` kernels; NCHW appears only at its edges: what ``observe_fn``
sees, and the head outputs. The point layers before the maxpool run on the
real points only, as rows, while ``observe_fn`` sees their inputs padded.
Every ValueError raised while a layer runs in ``forward`` names that layer.

A graph is its layers alone; this module knows no file format. A model file
(format 5) holds a detector config and its folded weights, and
``detector.load_model`` returns both, the layer chain rebuilt from the config.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .quant import DType, QuantParams, fake_quant, fp16_roundtrip
from .tensor_ops import (ConvParams, PillarSample, conv2d, int_at_least, int_pair_at_least, linear, max_over_points,
                         real_points, relu, scatter_pillars, stack_samples, upsample2x)

fake_quant_per_channel = fake_quant  # unused: perfbench/tracing.py wraps this name, as it wraps qat.im2col

__all__ = [
    "EVAL_CHUNK",
    "LayerSpec",
    "ModelGraph",
    "PrecisionPlan",
    "TapeEntry",
    "apply_plan",
    "dtype_boundaries",
    "eval_chunks",
    "fold_all_bn",
    "forward",
    "graphs_equal",
    "param_arrays",
    "parse_plan_label",
    "weights_digest",
]

# Scenes per stacked forward in detector.evaluate and calibration.per_sample_ranges.
# Each forward quantizes every weight once for the whole chunk, but the
# activations and the im2col patch matrices grow with it: over a 96-scene eval
# set (x86-64, numpy 2.4, OpenBLAS), one unchunked forward raised peak RSS by
# about 11 MB over per-scene forwards, chunks of 16 scenes by about 1 MB.
EVAL_CHUNK = 16


def _check_one_scene_each(samples: Sequence[PillarSample]) -> None:
    """ValueError naming the positions and scene counts of samples that do not hold one scene."""
    several = {i: s.num_scenes for i, s in enumerate(samples) if s.num_scenes != 1}
    if several:
        raise ValueError(f"samples at positions {list(several)} hold {list(several.values())} scenes; "
                         "each PillarSample must hold one")


def eval_chunks(samples: Sequence[PillarSample]) -> Iterator[tuple[int, PillarSample]]:
    """(start, batch) for each run of EVAL_CHUNK samples from position start,
    stacked. Each sample must hold one scene, so that scene b of a batch is
    sample start + b; else ValueError names the samples' positions."""
    _check_one_scene_each(samples)
    for start in range(0, len(samples), EVAL_CHUNK):
        yield start, stack_samples(samples[start : start + EVAL_CHUNK])


WEIGHT_KINDS = ("linear", "conv2d")
# The LayerSpec fields besides name and kind that each kind reads; a layer
# leaves the others at their defaults (see _validate_layers).
_WEIGHT_FIELDS = ("weight", "bias", "relu", "is_head", "precision")
KIND_FIELDS = {
    "linear": _WEIGHT_FIELDS,
    "conv2d": _WEIGHT_FIELDS + ("conv",),
    "scatter": ("grid",),
    "maxpool": (),
    "upsample2x": (),
}


@dataclass(frozen=True)
class LayerSpec:
    """One layer. index is derived: a ModelGraph numbers its weight layers, and
    a layer outside a graph or a glue layer has None. A weight layer's weight
    and bias are folded: a layer holds no batch norm."""

    name: str
    kind: str
    index: int | None = field(default=None, init=False)
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    relu: bool = False
    conv: ConvParams | None = None
    grid: tuple[int, int] | None = None
    is_head: bool = False
    precision: DType = DType.FP32
    # not a field, so LayerSpec(bn=...) raises TypeError; only perfbench/reference.py reads it
    bn = None

    @property
    def is_weight_layer(self) -> bool:
        return self.kind in WEIGHT_KINDS


@dataclass(frozen=True)
class ModelGraph:
    """Ordered layer chain; list order is the topological order. It numbers
    its weight layers 1..L in chain order, each on a copy of the layer given."""

    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        layers = tuple(copy.copy(l) if l.is_weight_layer else l for l in self.layers)
        _validate_layers(layers)
        for index, l in enumerate((l for l in layers if l.is_weight_layer), start=1):
            object.__setattr__(l, "index", index)
        object.__setattr__(self, "layers", layers)

    @property
    def weight_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.layers if l.is_weight_layer)

    @property
    def num_indexed(self) -> int:
        return len(self.weight_layers)


def _validate_layers(layers: Sequence[LayerSpec]) -> None:
    """Each layer sets only the fields its kind reads (KIND_FIELDS) and leaves
    the rest at their defaults; names are strings, weight layers have weight
    and bias, conv2d has conv, a scatter has a grid of two positive integers,
    and heads end the chain. The index is derived, so it is not checked."""
    seen_head = False
    for l in layers:
        if not isinstance(l.name, str):
            raise ValueError(f"layer name {l.name!r} is not a string")
        if l.kind not in KIND_FIELDS:
            raise ValueError(f"layer {l.name!r} has unknown kind {l.kind!r}")
        for f in dataclasses.fields(LayerSpec)[2:]:
            if not f.init:
                continue
            value = getattr(l, f.name)
            is_set = value is not None if f.default is None else value != f.default
            if is_set and f.name not in KIND_FIELDS[l.kind]:
                raise ValueError(f"{l.kind} layer {l.name!r} sets {f.name}, which its kind does not read")
        if l.is_weight_layer:
            if l.weight is None or l.bias is None:
                raise ValueError(f"weight layer {l.name!r} is missing weight or bias")
            if l.kind == "conv2d" and l.conv is None:
                raise ValueError(f"conv layer {l.name!r} is missing conv params")
        if l.kind == "scatter" and not int_pair_at_least(l.grid, 1):
            raise ValueError(f"{l.kind} layer {l.name!r} has grid {l.grid!r}, not two integers >= 1")
        if seen_head and not l.is_head:
            raise ValueError(f"layer {l.name!r} follows a head layer but is not a head")
        seen_head = seen_head or l.is_head


@dataclass(frozen=True)
class PrecisionPlan:
    """Default datatype plus read-only per-layer-index overrides, in the order given.

    Each datatype goes through DType(...), so 'int8' means DType.INT8 and an
    unknown name such as 'int4' raises ValueError, as does an override key
    that is not a layer index (an int >= 1; 1.0 and True are not).
    """

    default: DType = DType.FP32
    overrides: Mapping[int, DType] = field(default_factory=dict)

    def __post_init__(self):
        for index in self.overrides:
            if not int_at_least(index, 1):
                raise ValueError(f"plan override key {index!r} is not a layer index (an integer >= 1)")
        object.__setattr__(self, "default", DType(self.default))
        object.__setattr__(self, "overrides", MappingProxyType({i: DType(d) for i, d in self.overrides.items()}))

    def __reduce__(self):  # a mappingproxy neither pickles nor deep-copies
        return PrecisionPlan, (self.default, dict(self.overrides))

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
    ValueError naming the label, as does a repeated index ('FP16: 1,3,1').
    """
    text = label.strip()
    try:
        if text.upper().startswith("FP16:"):
            default, pairs = "int8", [(tok, "fp16") for tok in text.split(":", 1)[1].split(",")]
        else:
            default, sep, rest = text.partition(" except ")
            pairs = [tok.split("=", 1) for tok in rest.split(",")] if sep else []
        overrides = {int(index): dtype.strip().lower() for index, dtype in pairs}
        if len(overrides) < len(pairs):
            raise ValueError("a layer index repeats")
        return PrecisionPlan(default=default.strip().lower(), overrides=overrides)
    except ValueError as exc:
        raise ValueError(f"unrecognized plan label {label!r}") from exc


def apply_plan(graph: ModelGraph, plan: PrecisionPlan) -> ModelGraph:
    """Retag every indexed layer from the plan, sharing the weights."""
    unknown = sorted(i for i in plan.overrides if i > graph.num_indexed)
    if unknown:
        raise ValueError(f"plan overrides unknown layer indices {unknown}")
    layers = [
        dataclasses.replace(l, precision=plan.resolve(l.index)) if l.is_weight_layer else l
        for l in graph.layers
    ]
    return ModelGraph(layers=tuple(layers))


def dtype_boundaries(precisions: Sequence[DType]) -> int:
    """Count dtype transitions between consecutive indexed layers."""
    return sum(1 for a, b in zip(precisions, precisions[1:]) if a is not b)


def fold_all_bn(graph: ModelGraph) -> ModelGraph:
    """graph itself, whose weights are folded already. Only perfbench calls it,
    and perfbench/tracing.py counts the calls through detector and calibration."""
    return graph


# ---------------------------------------------------------------------------
# Forward execution


@dataclass
class TapeEntry:
    """One layer's forward record, enough to drive the training backward pass.

    Every layer keeps x_in, its input before any precision transform (an
    image channels-last; at a point layer and the maxpool the real point rows
    [N, C], not the padded points), the batch's sample (scatter coordinates,
    maxpool point mask; the maxpool winners are recomputed from x_in and out)
    and out, the array the next layer reads (after a weight layer's ReLU, so
    its positive cells are those of the pre-activation); none of them is a
    copy. Weight layers also keep what the kernel consumed (x_used, w_used)
    and the INT8 (act, weight) quant params (None at FP32 and FP16). A conv's
    x_used is the fresh patch matrix its GEMM consumed (``tensor_ops.im2col``).
    """

    layer: LayerSpec
    x_in: np.ndarray
    sample: PillarSample
    x_used: np.ndarray | None
    w_used: np.ndarray | None
    quant: tuple[QuantParams, QuantParams] | None
    out: np.ndarray


def _kernel_inputs(layer: LayerSpec, x: np.ndarray, stats):
    """The kernel's input and weight under the layer's precision, plus the
    INT8 (act, weight) quant params, None at FP32 and FP16. An INT8 layer's
    params come from stats, which must hold an entry for its index recorded
    under its name; else a ValueError, which forward prefixes with the layer."""
    if layer.precision is DType.FP32:
        return x, layer.weight, None
    if layer.precision is DType.FP16:
        return fp16_roundtrip(x), fp16_roundtrip(layer.weight), None
    if stats is None or layer.index not in stats:
        raise ValueError("is tagged int8 but calibration stats supply no quant params for it")
    entry = stats[layer.index]
    if entry.name != layer.name:
        raise ValueError(f"is tagged int8 but its calibration stats were recorded for layer {entry.name!r}; "
                         "stats from another model?")
    return fake_quant(x, entry.act_qp), fake_quant(layer.weight, entry.weight_qp), (entry.act_qp, entry.weight_qp)


def forward(
    graph: ModelGraph,
    sample: PillarSample,
    stats: Mapping | None = None,
    observe_fn: Callable[[LayerSpec, np.ndarray], None] | None = None,
    tape: list | None = None,
) -> tuple[np.ndarray, ...]:
    """Run the chain on a batch of pillarized scenes; returns a tuple of head outputs.

    sample stacks B scenes (``tensor_ops.stack_samples``); a single scene is
    a batch of one. Every layer runs once for the whole batch, so each head
    output is [B, F, H', W'], and scene b's outputs equal those of a forward
    on that scene alone, bit for bit. A sample that is not a PillarSample
    raises TypeError, and a chain with no head ValueError.
    Images run channels-last, [B, H, W, C], from the scatter to the heads;
    NCHW exists only at the edges: observe_fn sees a 4-D layer input as an
    NCHW view, and each head output is a C-contiguous [B, C, H, W] array.
    Points run as rows: the first layer to read the padded [P, M, C] point
    tensor reads its real slots, ``tensor_ops.real_points``, so it and every
    point layer up to the maxpool run on [N, C] rows, one per real point, and
    skip the padding (a linear head there returns [N, F]). observe_fn still
    sees a point layer's input padded: the sample's features themselves at
    the first, the rows put back into their slots, zeros elsewhere, after it.

    stats, the calibration dict[int, LayerCalibration] keyed by layer index
    (any Mapping indexed alike), must cover every INT8-tagged layer under its
    own name.
    observe_fn, when given, receives each indexed layer's input activation
    before any precision transform. tape, when a list, gets one TapeEntry
    per layer.

    Every ValueError raised while a layer runs, its kernels' checks included
    (an INT8 layer without its stats, a NaN at a precision transform, a bad
    width, mask, coord or grid; a point mask that does not fit the features
    is named at the first point layer), is re-raised
    prefixed "layer <index> ('<name>'): " or "<kind> layer '<name>': ". Other
    exceptions, such as observe_fn's RuntimeError, pass through unchanged.
    """
    if not isinstance(sample, PillarSample):
        raise TypeError(
            f"forward takes a PillarSample (a batch of pillarized scenes), got {type(sample).__name__}"
        )
    if not any(layer.is_head for layer in graph.layers):
        raise ValueError("the chain has no head layer; forward returns the head outputs")
    current = sample.features
    rows = False  # whether current holds point rows, from the first point layer to the maxpool
    head_outputs: list[np.ndarray] = []
    for layer in graph.layers:
        x_used = w_used = quant = None
        try:
            if layer.is_weight_layer:
                if observe_fn is not None:
                    observe_fn(layer, _observed(current, sample.point_mask, rows))
            if current.ndim == 3:  # the padded points: this layer and the point layers after it read the real ones
                current, rows = real_points(current, sample.point_mask), True
            if layer.is_weight_layer:
                x_used, w_used, quant = _kernel_inputs(layer, current, stats)
                if layer.kind == "linear":
                    out = linear(x_used, w_used, layer.bias)
                else:
                    out, x_used = conv2d(x_used, w_used, layer.bias, layer.conv)
                if layer.relu:
                    out = relu(out)
            elif layer.kind == "maxpool":
                out, rows = max_over_points(current, sample.point_mask), False
            elif layer.kind == "scatter":
                if layer.grid != tuple(sample.grid):
                    raise ValueError(f"has grid {layer.grid}, but the sample's grid is {sample.grid}")
                out = scatter_pillars(current, sample.coords, sample.grid, sample.scene_ids, sample.num_scenes)
            else:  # upsample2x
                out = upsample2x(current)
        except ValueError as exc:
            where = (f"layer {layer.index} ({layer.name!r})" if layer.is_weight_layer
                     else f"{layer.kind} layer {layer.name!r}")
            raise ValueError(f"{where}: {exc}") from exc
        if tape is not None:
            tape.append(TapeEntry(layer, current, sample, x_used, w_used, quant, out))
        if layer.is_head:  # never becomes current, so every head reads the trunk
            head_outputs.append(np.ascontiguousarray(_nchw(out)))
        else:
            current = out
    return tuple(head_outputs)


def _observed(x: np.ndarray, point_mask: np.ndarray, rows: bool) -> np.ndarray:
    """A layer input as observe_fn sees it: point rows back in the padded
    [P, M, C] slots they came from, zeros in the others; an image NCHW."""
    if not rows:
        return _nchw(x)
    padded = np.zeros(point_mask.shape + x.shape[1:], x.dtype)
    padded[point_mask] = x
    return padded


def _nchw(x: np.ndarray) -> np.ndarray:
    """An NCHW view of a channels-last image; any other tensor as it is."""
    return x.transpose(0, 3, 1, 2) if x.ndim == 4 else x


# ---------------------------------------------------------------------------
# Parameter arrays, equality and digest (detector.save_model writes the arrays as a file)

def param_arrays(graph: ModelGraph) -> dict[str, np.ndarray]:
    """Every weight layer's weight and bias as little-endian float32, keyed
    '<layer position>.weight' and '<layer position>.bias', in layer order."""
    return {f"{pos}.{name}": np.ascontiguousarray(getattr(l, name), dtype="<f4")
            for pos, l in enumerate(graph.layers) if l.is_weight_layer for name in ("weight", "bias")}


def graphs_equal(a: ModelGraph, b: ModelGraph) -> bool:
    """Bit-exact equality of structure and weights, each weight and bias of
    one dtype, shape and bytes in both; precision tags are not compared."""
    def parts(g: ModelGraph):
        return [(l.name, l.kind, l.relu, l.is_head, l.conv, l.grid,
                 [(arr.dtype, arr.shape, arr.tobytes()) for arr in (l.weight, l.bias) if arr is not None])
                for l in g.layers]

    return parts(a) == parts(b)


def weights_digest(graph: ModelGraph) -> str:
    """sha256 over param_arrays' little-endian float32 bytes, in layer order:
    each weight layer's weight, then its bias."""
    digest = hashlib.sha256()
    for arr in param_arrays(graph).values():
        digest.update(arr.tobytes())
    return digest.hexdigest()
