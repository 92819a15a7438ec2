"""Toy pillar detector: build, decode, and evaluate on synthetic scenes.

The network follows the usual five-stage pillar pipeline at miniature scale:
a per-point linear encoder with masked max over points, a scatter into a
pseudo-image, three conv blocks (the first two downsample by 2), a 2x
upsample + conv neck, and two 1x1 conv heads (per-class logits and 4 box
offsets per cell). ModelGraph numbers the weight layers 1..L for precision plans.

``detect`` and ``evaluate`` take the detector config and pillarized scenes.
``detect`` runs them through the network EVAL_CHUNK at a time and decodes
each chunk's head maps at once: local peaks, one sort by (scene, class,
score) and a greedy NMS over one padded IoU, vectorized across every (scene,
class) pair. The kept boxes are one ``metrics.DETECTION`` record array, whose
scene_id indexes the samples, and ``evaluate`` scores it with one ``ap40`` call.

``_layer_chain`` is the one description of the layers: ``build_toy_detector``
walks it drawing weights, and ``load_model`` walks it reading a model file
(format 5): a manifest whose "detector" entry is the config, plus the folded
weights. ``load_model`` returns (graph, cfg), the pair ``evaluate`` takes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import reprlib
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .metrics import DETECTION, EvalResult, _padded, _slots, ap40, iou_matrix
from .model import (LayerSpec, ModelGraph, PrecisionPlan, apply_plan, eval_chunks, fold_all_bn, forward, graphs_equal,
                    param_arrays, weights_digest)
from .qat import TrainExample
from .scenes import CLASS_NAMES, FIELD_SIZE, POINT_FEATURES, Scene, pillarize, pillarize_scenes
from .tensor_ops import ConvParams, PillarSample, int_at_least, int_pair_at_least, is_real, sigmoid

__all__ = [
    "DetectorConfig",
    "ModelFormatError",
    "build_toy_detector",
    "decode_and_nms",
    "detect",
    "encode_targets",
    "evaluate",
    "load_model",
    "make_evaluator",
    "make_train_examples",
    "pillarize_dataset",
    "save_model",
]


BASE_SIZE = 2.5  # box side that a zero size offset decodes to
FORMAT_VERSION = 5
MANIFEST_KEYS = {"format_version", "detector", "weights_sha256"}


class ModelFormatError(ValueError):
    """Malformed or inconsistent model file, another format version included."""


@dataclass(frozen=True)
class DetectorConfig:
    grid: tuple[int, int] = (16, 16)
    pfn_channels: int = 16
    block_channels: tuple[int, int, int] = (16, 24, 32)
    convs_per_block: int = 3
    block_strides: tuple[int, int, int] = (2, 2, 1)
    neck_channels: int = 24
    score_thresh: float = 0.1
    nms_iou: float = 0.5

    def __post_init__(self):
        for name in ("score_thresh", "nms_iou"):
            value = getattr(self, name)
            if not (is_real(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1] and be a number, not a bool; got {value!r}")
        for name in ("pfn_channels", "neck_channels"):
            if not int_at_least(getattr(self, name), 1):
                raise ValueError(f"{name} must be a positive integer, got {getattr(self, name)!r}")
        if not (isinstance(self.block_channels, tuple) and all(int_at_least(c, 1) for c in self.block_channels)):
            raise ValueError(f"block_channels must be positive integers, got {self.block_channels!r}")
        if not (isinstance(self.block_strides, tuple) and all(int_at_least(s, 1) for s in self.block_strides)):
            raise ValueError(f"block_strides must be positive integers, got {self.block_strides!r}")
        if len(self.block_channels) != len(self.block_strides):
            raise ValueError(
                f"block_channels {self.block_channels} and block_strides {self.block_strides} "
                "must have one entry per block"
            )
        if not int_at_least(self.convs_per_block, 1):
            raise ValueError(f"convs_per_block must be an integer of at least 1, got {self.convs_per_block!r}")
        # a stride-s conv (3x3, padding 1) rounds an odd side up, so the heads
        # land on out_grid only when the strides' product divides the grid
        down = math.prod(self.block_strides)
        if not (int_pair_at_least(self.grid, 1) and all(g % down == 0 for g in self.grid)):
            raise ValueError(
                f"grid must be two positive integers divisible by {down} (the product of block_strides), "
                f"got {self.grid!r}"
            )

    @property
    def out_grid(self) -> tuple[int, int]:
        down = math.prod(self.block_strides)
        return tuple(g // down * 2 for g in self.grid)

    def to_meta(self) -> dict:
        """Every field by name, tuples as lists: a format-5 manifest's "detector" entry."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(self).items()}

    @staticmethod
    def from_meta(det) -> "DetectorConfig":
        """The config from a format-5 manifest's "detector" entry, an object
        with exactly the config's fields; else ValueError names the missing
        and unknown keys (or shows an entry that is no object)."""
        if not isinstance(det, dict):
            raise ValueError(f"detector config must be an object, got {reprlib.repr(det)}")
        names = {f.name for f in dataclasses.fields(DetectorConfig)}
        if set(det) != names:
            raise ValueError(f"detector config lacks keys {sorted(names - set(det))} "
                             f"and has unknown keys {sorted(set(det) - names, key=str)}")
        return DetectorConfig(**{name: tuple(v) if isinstance(v, list) else v for name, v in det.items()})


def _layer_chain(cfg: DetectorConfig, make) -> ModelGraph:
    """The detector's layers in chain order. make(pos, name, shape, head, **init)
    gives each weight layer's folded (weight, bias) as the walk reaches it, pos
    being its place in the chain; init holds hints only a draw reads."""
    layers: list[LayerSpec] = []

    def weight_layer(name, shape, conv=None, head=False, **init):
        weight, bias = make(len(layers), name, shape, head, **init)
        layers.append(LayerSpec(name=name, kind="linear" if conv is None else "conv2d", weight=weight, bias=bias,
                                relu=not head, conv=conv, is_head=head))

    # balance the init against the very unequal raw feature ranges; the raw
    # inputs themselves stay unnormalized (that is the whole point of the task)
    feature_scale = np.array([FIELD_SIZE / 2, FIELD_SIZE / 2, 0.5, 0.5, 0.5], dtype=np.float32)
    weight_layer("voxel_encoder.pfn.linear", (cfg.pfn_channels, POINT_FEATURES), input_scale=feature_scale)
    layers.append(LayerSpec(name="voxel_encoder.maxpool", kind="maxpool"))
    layers.append(LayerSpec(name="middle_encoder.scatter", kind="scatter", grid=cfg.grid))
    cin = cfg.pfn_channels
    for b, (cout, stride) in enumerate(zip(cfg.block_channels, cfg.block_strides)):
        for c in range(cfg.convs_per_block):
            s = stride if c == 0 else 1
            weight_layer(f"backbone.block{b}.conv{c}", (cout, cin, 3, 3), ConvParams((s, s), (1, 1)))
            cin = cout
    layers.append(LayerSpec(name="neck.upsample", kind="upsample2x"))
    weight_layer("neck.conv", (cfg.neck_channels, cin, 3, 3), ConvParams(padding=(1, 1)))
    head_in = (cfg.neck_channels, 1, 1)
    # the class head's bias of -2 is a low-score prior
    weight_layer("bbox_head.conv_cls", (len(CLASS_NAMES), *head_in), ConvParams(), head=True, bias=-2.0)
    weight_layer("bbox_head.conv_reg", (4, *head_in), ConvParams(), head=True)
    return ModelGraph(layers=tuple(layers))


def build_toy_detector(cfg: DetectorConfig = DetectorConfig(), seed: int = 0) -> ModelGraph:
    """Fresh detector with He-initialized weights, plausible BN stats folded in.

    The layer chain asks for each weight layer in turn, and draw takes from
    the seeded generator: its weight (He, or std 0.1 for the two heads), then
    its BN gamma, beta, mean and var (the heads have no BN). That fixed draw
    order is what keeps a (cfg, seed) pair's weights, and so the pinned
    weights_digest values, the same. draw folds the BN at once, as TensorRT
    fuses it into the conv it follows: weight * f and (bias - mean) * f + beta,
    f = gamma / sqrt(var + 1e-5) per output channel, taken in float64 from the
    float32 stats and stored as float32, the products float32. ModelGraph
    numbers the weight layers 1..L.
    """
    rng = np.random.default_rng(seed)

    def draw(pos, name, shape, head, bias=0.0, input_scale=1.0):
        cout = shape[0]
        std = 0.1 if head else math.sqrt(2.0 / math.prod(shape[1:]))
        weight = rng.normal(scale=std, size=shape).astype(np.float32) / input_scale
        bias = np.full(cout, bias, np.float32)
        if head:
            return weight, bias
        gamma, beta, mean, var = (stat.astype(np.float32) for stat in (
            rng.uniform(0.8, 1.2, size=cout), rng.normal(scale=0.05, size=cout),
            rng.normal(scale=0.1, size=cout), rng.uniform(0.8, 1.4, size=cout)))
        factor = (gamma.astype(np.float64) / np.sqrt(var.astype(np.float64) + 1e-5)).astype(np.float32)
        return weight * factor.reshape((-1,) + (1,) * (weight.ndim - 1)), (bias - mean) * factor + beta

    return _layer_chain(cfg, draw)


# ---------------------------------------------------------------------------
# Model files: one <name>.npz, a JSON manifest plus each weight layer's weight and bias


def _from_arrays(cfg: DetectorConfig, arrays: Mapping[str, np.ndarray]) -> ModelGraph:
    """The folded detector cfg describes, holding arrays keyed as in
    param_arrays; nothing is drawn. The chain's walk checks each
    weight layer's arrays as it reaches them: one that is missing, not float32,
    not the layer's shape or not finite raises ValueError naming the layer, as
    does, after the walk, an array of no weight layer."""
    def read(pos, name, shape, head, **init):
        params = []
        for field, want in (("weight", shape), ("bias", shape[:1])):
            arr = arrays.get(f"{pos}.{field}")
            if arr is None:
                problem = f"is missing (member '{pos}.{field}')"
            elif arr.dtype != np.float32:
                problem = f"is {arr.dtype}, not float32"
            elif arr.shape != want:
                problem = f"has shape {arr.shape}, but the config builds {want}"
            elif not np.all(np.isfinite(arr)):
                problem = "holds NaN or inf"
            else:
                params.append(arr)
                continue
            raise ValueError(f"layer {name!r}: {field} {problem}")
        return params

    graph = _layer_chain(cfg, read)
    extra = sorted(set(arrays) - set(param_arrays(graph)))
    if extra:
        raise ValueError(f"arrays {extra} belong to no weight layer of the folded detector the config builds")
    return graph


def _npz_path(path) -> Path:
    p = Path(path)
    return p if p.suffix == ".npz" else p.with_name(p.name + ".npz")


def save_model(graph: ModelGraph, cfg: DetectorConfig, path) -> Path:
    """Write a folded detector and cfg as one uncompressed <path>.npz; returns its path.

    The 'manifest' member is a JSON string with exactly "format_version" (5),
    "detector" (cfg.to_meta()) and "weights_sha256" (weights_digest). The
    other members are param_arrays: '<pos>.weight' and '<pos>.bias' for the
    weight layer at position pos. A graph that is not the folded detector cfg
    describes, as load_model reads it, in float32, raises ValueError.
    Precision tags are not saved: a plan is applied at execution.
    """
    arrays = param_arrays(graph)
    if not graphs_equal(_from_arrays(cfg, arrays), graph):
        raise ValueError("the graph's layers are not those of the folded detector the config builds, in float32")
    path = _npz_path(path)
    manifest = {"format_version": FORMAT_VERSION, "detector": cfg.to_meta(), "weights_sha256": weights_digest(graph)}
    np.savez(path, manifest=np.array(json.dumps(manifest, sort_keys=True)), **arrays)
    return path


def load_model(path) -> tuple[ModelGraph, DetectorConfig]:
    """Read a model written by save_model as (graph, cfg); never unpickles.

    cfg is the manifest's "detector" entry (from_meta). The walk along its
    layer chain stops at the first array that disagrees with it, so the work
    is bounded by the file. An unreadable file (the zip's CRC-32 catches a
    flipped byte), a malformed manifest or config, a layer's array that is
    missing, not float32, not finite or not the config's shape, an array of
    no weight layer, and arrays whose digest is not "weights_sha256" (e.g.
    two swapped) raise ModelFormatError naming the file, and the layer where
    there is one, as does another format version, such as 4, which kept the
    config under "meta": ModelFormatError is the one error type of a bad
    model file. Every layer loads at FP32: apply a plan first.
    """
    path = _npz_path(path)
    try:
        # np.load leaks a file it opens itself when the zip is unreadable
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as npz:
            arrays = {key: npz[key] for key in npz.files}
        manifest = json.loads(str(arrays.pop("manifest", "")))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ModelFormatError(f"{path}: malformed manifest: {exc}") from exc
    except (OSError, ValueError, EOFError, TypeError, zipfile.BadZipFile) as exc:
        raise ModelFormatError(f"{path}: not a readable model file: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ModelFormatError(f"{path}: malformed manifest: not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: model format version {version!r} is not supported (expected {FORMAT_VERSION})")
    if set(manifest) != MANIFEST_KEYS:
        raise ModelFormatError(f"{path}: malformed manifest: keys {sorted(manifest)}, not {sorted(MANIFEST_KEYS)}")
    try:
        cfg = DetectorConfig.from_meta(manifest["detector"])
        graph = _from_arrays(cfg, arrays)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    if weights_digest(graph) != manifest["weights_sha256"]:  # e.g. two same-shape arrays swapped
        raise ModelFormatError(f"{path}: the arrays' digest is not the manifest's weights_sha256")
    return graph, cfg


def pillarize_dataset(scenes: Sequence[Scene], cfg: DetectorConfig) -> list[PillarSample]:
    """The scenes on the config's grid, one single-scene sample per scene in
    order, as ``detect`` and ``evaluate`` take them; one ``pillarize_scenes``
    call pillarizes the whole list."""
    return pillarize_scenes(scenes, cfg.grid)


def encode_targets(scene: Scene, cfg: DetectorConfig):
    """Center-cell targets: class one-hot map, box offsets, positive and ignore masks.

    The cell holding a box center is positive; other cells whose centers fall
    inside the box are excluded from the classification loss so the convs are
    not penalized for responding to off-center object parts.
    """
    oh, ow = cfg.out_grid
    cell_h = FIELD_SIZE / oh
    cell_w = FIELD_SIZE / ow
    cls_t = np.zeros((len(CLASS_NAMES), oh, ow), np.float32)
    reg_t = np.zeros((4, oh, ow), np.float32)
    pos = np.zeros((oh, ow), bool)
    ignore = np.zeros((oh, ow), bool)
    cell_cx = (np.arange(ow) + 0.5) * cell_w
    cell_cy = (np.arange(oh) + 0.5) * cell_h
    for box, cls in zip(scene.boxes, scene.classes):
        cx, cy, w, h = (float(v) for v in box)
        inside = (np.abs(cell_cy[:, None] - cy) <= h / 2) & (np.abs(cell_cx[None, :] - cx) <= w / 2)
        ignore |= inside
        i = min(oh - 1, max(0, int(cy / cell_h)))
        j = min(ow - 1, max(0, int(cx / cell_w)))
        if pos[i, j]:
            continue  # first box claims the cell
        pos[i, j] = True
        cls_t[int(cls), i, j] = 1.0
        reg_t[0, i, j] = cx / cell_w - (j + 0.5)
        reg_t[1, i, j] = cy / cell_h - (i + 0.5)
        reg_t[2, i, j] = math.log(w / BASE_SIZE)
        reg_t[3, i, j] = math.log(h / BASE_SIZE)
    ignore &= ~pos
    return cls_t, reg_t, pos, ignore


def _local_peaks(score_maps: np.ndarray) -> np.ndarray:
    """Cells of each [H, W] map in [..., H, W] that are the maximum of their 3x3
    neighborhood within that map (ties keep both)."""
    *lead, h, w = score_maps.shape
    padded = np.full((*lead, h + 2, w + 2), -np.inf)
    padded[..., 1:-1, 1:-1] = score_maps
    neighborhood = padded[..., :h, :w].copy()
    for di in range(3):
        for dj in range(3):
            np.maximum(neighborhood, padded[..., di : di + h, dj : dj + w], out=neighborhood)
    return score_maps >= neighborhood


def _decode_batch(cls_maps: np.ndarray, reg_maps: np.ndarray, cfg: DetectorConfig,
                  first: int = 0) -> np.recarray:
    """decode_and_nms of each scene of [B, C, H', W'] class and [B, 4, H', W']
    box maps, all scenes and classes at once.

    One stable sort orders the peaks by (scene, class, descending score), ties
    in row-major cell order; one padded IoU [B * C, K, K] over each (scene,
    class) group's K candidates serves a greedy pass over rank that runs for
    all groups together; the kept boxes are one DETECTION record array, scene
    after scene. Scene b is scene first + b of its dataset: the scene_id of
    its rows, and the scene a NaN or inf error names.
    """
    if cls_maps.shape[1] != len(CLASS_NAMES) or reg_maps.shape != (len(cls_maps), 4, *cls_maps.shape[2:]):
        raise ValueError(
            f"decode_and_nms needs {len(CLASS_NAMES)} class channels and 4 box channels on one grid; "
            f"got maps of shape {cls_maps.shape[1:]} and {reg_maps.shape[1:]}"
        )
    # a NaN logit never passes the score threshold and wipes out its neighbours'
    # peaks; a NaN or inf offset decodes to a box without a place or clips its size
    for what, bad in (("a NaN in the class", np.isnan(cls_maps)), ("a NaN or inf in the box", ~np.isfinite(reg_maps))):
        bad = bad.any(axis=(1, 2, 3))
        if bad.any():
            raise ValueError(f"decode_and_nms got {what} map of scene {first + int(np.argmax(bad))}")
    n_scenes, n_classes, oh, ow = cls_maps.shape
    cell_h = FIELD_SIZE / oh
    cell_w = FIELD_SIZE / ow
    scores = sigmoid(cls_maps.astype(np.float64))
    scene, cls, rows, cols = np.nonzero(_local_peaks(scores) & (scores >= cfg.score_thresh))
    peak_scores = scores[scene, cls, rows, cols]
    order = np.lexsort((-peak_scores, cls, scene))  # stable: ties keep row-major cell order
    scene, cls, rows, cols, peak_scores = scene[order], cls[order], rows[order], cols[order], peak_scores[order]
    dx, dy, dw, dh = reg_maps[scene, :, rows, cols].T.astype(np.float64)
    # math.exp (libm), not np.exp: the two differ in the last ulp for some
    # inputs, and the box sizes are libm's
    boxes = np.stack([
        (cols + 0.5 + dx) * cell_w,
        (rows + 0.5 + dy) * cell_h,
        *(BASE_SIZE * np.fromiter(map(math.exp, np.clip(d, -4.0, 4.0).tolist()), np.float64, len(d)) for d in (dw, dh)),
    ], axis=1).reshape(-1, 4)
    group = scene * n_classes + cls
    rank = _slots(group)
    n_groups = n_scenes * n_classes
    padded = _padded(boxes, group, rank, n_groups, 1.0)
    overlaps = iou_matrix(padded, padded) >= cfg.nms_iou
    kept = _padded(np.ones(len(group), bool), group, rank, n_groups, False)  # candidates, then survivors
    for k in range(1, kept.shape[1]):
        kept[:, k] &= ~(overlaps[:, k, :k] & kept[:, :k]).any(axis=1)
    keep = kept[group, rank]
    return np.rec.fromarrays([first + scene[keep], boxes[keep], cls[keep], peak_scores[keep]], dtype=DETECTION)


def decode_and_nms(cls_map: np.ndarray, reg_map: np.ndarray, cfg: DetectorConfig) -> np.recarray:
    """Local-peak box decoding followed by per-class greedy NMS, for one scene.

    cls_map [1, C, H', W'] and reg_map [1, 4, H', W'] are one scene's class
    logits and box offsets, as forward returns the heads of a batch of one.
    Per class, the peaks scoring at least cfg.score_thresh are visited by
    descending score (ties in row-major cell order), and each is kept unless
    its IoU with an already kept box of the class reaches cfg.nms_iou; the
    kept boxes are one DETECTION record array of scene_id 0, class by class.
    Maps of another shape (not one scene, or not len(CLASS_NAMES) class and 4
    box channels on one grid), a NaN in either map or an inf in the box map
    raise ValueError; an infinite logit is a legal score of 0 or 1. detect
    decodes a whole batch of scenes this way at once.
    """
    if cls_map.ndim != 4 or len(cls_map) != 1:
        raise ValueError(f"decode_and_nms takes one scene's [1, C, H', W'] maps; "
                         f"got {cls_map.shape} and {reg_map.shape}")
    return _decode_batch(cls_map, reg_map, cfg)


def detect(
    graph: ModelGraph,
    plan: PrecisionPlan,
    stats: Mapping | None,
    cfg: DetectorConfig,
    samples: Sequence[PillarSample],
) -> np.recarray:
    """The pillarized scenes' detections under the planned model, as one DETECTION array in sample order.

    graph runs as given (see ``model``). samples holds one single-scene sample
    per scene (pillarize_dataset); a sample holding several scenes raises
    ValueError naming its position. The scenes run through batched forwards of
    EVAL_CHUNK scenes each, and each chunk's head maps are decoded at once. A
    scene's rows, with scene_id its position in samples, are what decode_and_nms
    gives it, whatever the chunking. A NaN or inf that decode_and_nms rejects
    raises ValueError naming the scene's position in samples and the map.
    """
    planned = apply_plan(graph, plan)
    chunks = [_decode_batch(*forward(planned, batch, stats=stats), cfg, first=start)
              for start, batch in eval_chunks(samples)]  # per chunk: one decode of all scenes doubles peak RSS
    return np.concatenate([np.zeros(0, DETECTION), *chunks]).view(np.recarray)


def evaluate(
    graph: ModelGraph,
    plan: PrecisionPlan,
    stats: Mapping | None,
    dataset: Sequence[Scene],
    cfg: DetectorConfig,
    samples: Sequence[PillarSample],
) -> EvalResult:
    """Per-class x per-difficulty AP40 table, keyed (class name, difficulty),
    of the planned model on dataset, from one ap40 call on detect's array for
    samples, its pillarized scenes. Another sample count raises ValueError, as
    missing samples would score as scenes without detections.
    """
    if len(samples) != len(dataset):
        raise ValueError(f"{len(samples)} pillarized samples for {len(dataset)} scenes")
    ap = ap40(detect(graph, plan, stats, cfg, samples), dataset, len(CLASS_NAMES))
    return EvalResult(ap={(CLASS_NAMES[c], diff): value for (c, diff), value in ap.items()})


def make_train_examples(scenes: Sequence[Scene], cfg: DetectorConfig):
    """Pillarize scenes and attach center-cell targets for the detection loss,
    each scene a TrainExample of one."""
    examples = []
    for scene, sample in zip(scenes, pillarize_dataset(scenes, cfg)):
        examples.append(TrainExample(sample, *(t[None] for t in encode_targets(scene, cfg))))
    return examples


def make_evaluator(
    dataset: Sequence[Scene], cfg: DetectorConfig
) -> Callable[[ModelGraph, PrecisionPlan, Mapping | None], float]:
    """mAP evaluator closure with the eval set pillarized once up front."""
    samples = pillarize_dataset(dataset, cfg)

    def evaluator(graph, plan, stats):
        return evaluate(graph, plan, stats, dataset, cfg, samples=samples).map

    return evaluator
