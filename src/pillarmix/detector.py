"""Toy pillar detector: build, decode, and evaluate on synthetic scenes.

The network follows the usual five-stage pillar pipeline at miniature scale:
a per-point linear encoder with masked max over points, a scatter into a
pseudo-image, three conv blocks (the first two downsample by 2), a 2x
upsample + conv neck, and two 1x1 conv heads (per-class logits and 4 box
offsets per cell). All weight layers are indexed 1..L for precision plans.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .calibration import CalibrationStats
from .metrics import Detection, EvalResult, ap40, iou_matrix
from .model import EVAL_CHUNK, BatchNorm, LayerSpec, ModelGraph, PrecisionPlan, apply_plan, fold_all_bn, forward
from .qat import TrainExample
from .scenes import CLASS_NAMES, FIELD_SIZE, POINT_FEATURES, Scene, pillarize
from .tensor_ops import ConvParams, PillarSample, sigmoid, stack_samples

__all__ = [
    "DetectorConfig",
    "EVAL_CHUNK",
    "build_toy_detector",
    "decode_and_nms",
    "encode_targets",
    "evaluate",
    "make_evaluator",
    "pillarize_dataset",
]


BASE_SIZE = 2.5  # box side that a zero size offset decodes to
MAX_POINTS_PER_PILLAR = 8


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
        if not (0.0 <= self.score_thresh <= 1.0 and 0.0 <= self.nms_iou <= 1.0):
            raise ValueError(
                f"score_thresh and nms_iou must lie in [0, 1], got {self.score_thresh}, {self.nms_iou}"
            )

    @property
    def out_grid(self) -> tuple[int, int]:
        h, w = self.grid
        down = 1
        for s in self.block_strides:
            down *= s
        return (h // down) * 2, (w // down) * 2

    def to_meta(self) -> dict:
        """Every field by name, tuples as lists, as the JSON model manifest stores it."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(self).items()}

    @staticmethod
    def from_meta(meta: dict) -> "DetectorConfig":
        """The config from the fields a manifest holds; keys of removed fields are
        ignored, and a missing "detector" entry or field raises ValueError naming it."""
        try:
            det = meta["detector"]
            return DetectorConfig(**{
                f.name: tuple(det[f.name]) if isinstance(det[f.name], list) else det[f.name]
                for f in dataclasses.fields(DetectorConfig)
            })
        except KeyError as exc:
            raise ValueError(f"model meta has no detector config key {exc}; pass cfg") from exc


def _bn(channels: int, rng: np.random.Generator) -> BatchNorm:
    return BatchNorm(
        gamma=rng.uniform(0.8, 1.2, size=channels).astype(np.float32),
        beta=rng.normal(scale=0.05, size=channels).astype(np.float32),
        mean=rng.normal(scale=0.1, size=channels).astype(np.float32),
        var=rng.uniform(0.8, 1.4, size=channels).astype(np.float32),
        eps=1e-5,
    )


def build_toy_detector(cfg: DetectorConfig = DetectorConfig(), seed: int = 0) -> ModelGraph:
    """Fresh detector with He-initialized weights and plausible BN stats."""
    rng = np.random.default_rng(seed)
    layers: list[LayerSpec] = []
    index = 1

    def he_linear(dout, din):
        return rng.normal(scale=math.sqrt(2.0 / din), size=(dout, din)).astype(np.float32)

    def he_conv(cout, cin, k):
        return rng.normal(scale=math.sqrt(2.0 / (cin * k * k)), size=(cout, cin, k, k)).astype(np.float32)

    # balance the init against the very unequal raw feature ranges; the raw
    # inputs themselves stay unnormalized (that is the whole point of the task)
    feature_scale = np.array(
        [FIELD_SIZE / 2, FIELD_SIZE / 2, 0.5, 0.5, 0.5], dtype=np.float32
    )
    pfn_weight = he_linear(cfg.pfn_channels, POINT_FEATURES) / feature_scale[None, :]
    name = "voxel_encoder.pfn.linear"
    layers.append(
        LayerSpec(
            name=name,
            kind="linear",
            index=index,
            weight=pfn_weight.astype(np.float32),
            bias=np.zeros(cfg.pfn_channels, np.float32),
            bn=_bn(cfg.pfn_channels, rng),
            relu=True,
        )
    )
    index += 1
    layers.append(LayerSpec(name="voxel_encoder.maxpool", kind="maxpool"))
    layers.append(LayerSpec(name="middle_encoder.scatter", kind="scatter", grid=cfg.grid))

    cin = cfg.pfn_channels
    for b, (cout, stride) in enumerate(zip(cfg.block_channels, cfg.block_strides)):
        for c in range(cfg.convs_per_block):
            name = f"backbone.block{b}.conv{c}"
            layers.append(
                LayerSpec(
                    name=name,
                    kind="conv2d",
                    index=index,
                    weight=he_conv(cout, cin, 3),
                    bias=np.zeros(cout, np.float32),
                    bn=_bn(cout, rng),
                    relu=True,
                    conv=ConvParams(stride=(stride, stride) if c == 0 else (1, 1), padding=(1, 1)),
                )
            )
            index += 1
            cin = cout

    layers.append(LayerSpec(name="neck.upsample", kind="upsample2x"))
    name = "neck.conv"
    layers.append(
        LayerSpec(
            name=name,
            kind="conv2d",
            index=index,
            weight=he_conv(cfg.neck_channels, cin, 3),
            bias=np.zeros(cfg.neck_channels, np.float32),
            bn=_bn(cfg.neck_channels, rng),
            relu=True,
            conv=ConvParams(stride=(1, 1), padding=(1, 1)),
        )
    )
    index += 1
    cin = cfg.neck_channels

    cls_bias = np.full(len(CLASS_NAMES), -2.0, np.float32)  # low-score prior
    layers.append(
        LayerSpec(
            name="bbox_head.conv_cls",
            kind="conv2d",
            index=index,
            weight=(0.1 * rng.normal(size=(len(CLASS_NAMES), cin, 1, 1))).astype(np.float32),
            bias=cls_bias,
            conv=ConvParams(),
            is_head=True,
        )
    )
    index += 1
    layers.append(
        LayerSpec(
            name="bbox_head.conv_reg",
            kind="conv2d",
            index=index,
            weight=(0.1 * rng.normal(size=(4, cin, 1, 1))).astype(np.float32),
            bias=np.zeros(4, np.float32),
            conv=ConvParams(),
            is_head=True,
        )
    )

    return ModelGraph(layers=tuple(layers), meta={"detector": cfg.to_meta()})


def pillarize_dataset(scenes: Sequence[Scene], cfg: DetectorConfig) -> list[PillarSample]:
    return [pillarize(s, cfg.grid, MAX_POINTS_PER_PILLAR) for s in scenes]


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
    """Cells of each [H, W] map in [C, H, W] that are the maximum of their 3x3
    neighborhood within that map (ties keep both)."""
    c, h, w = score_maps.shape
    padded = np.full((c, h + 2, w + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = score_maps
    neighborhood = padded[:, :h, :w].copy()
    for di in range(3):
        for dj in range(3):
            np.maximum(neighborhood, padded[:, di : di + h, dj : dj + w], out=neighborhood)
    return score_maps >= neighborhood


def decode_and_nms(cls_map: np.ndarray, reg_map: np.ndarray, cfg: DetectorConfig) -> list[Detection]:
    """Local-peak box decoding followed by per-class greedy NMS.

    cls_map [C, H', W'] (or [1, C, H', W']) holds one scene's class logits,
    reg_map its 4 box offsets per cell. Per class, the peaks scoring at least
    cfg.score_thresh are visited by descending score (ties in row-major cell
    order), and each is kept unless its IoU with an already kept box of the
    class reaches cfg.nms_iou. One IoU matrix over the class's candidates
    serves the whole greedy pass. A 4-D map holding more than one scene, or
    maps with other than len(CLASS_NAMES) class or 4 box channels, raise
    ValueError.
    """
    if cls_map.ndim == 4:
        if cls_map.shape[0] != 1 or reg_map.shape[0] != 1:
            raise ValueError(
                f"decode_and_nms takes one scene; got maps of shape {cls_map.shape} and {reg_map.shape}"
            )
        cls_map, reg_map = cls_map[0], reg_map[0]
    if cls_map.shape[0] != len(CLASS_NAMES) or reg_map.shape[0] != 4:
        raise ValueError(
            f"decode_and_nms needs {len(CLASS_NAMES)} class channels and 4 box channels; "
            f"got maps of shape {cls_map.shape} and {reg_map.shape}"
        )
    n_classes, oh, ow = cls_map.shape
    cell_h = FIELD_SIZE / oh
    cell_w = FIELD_SIZE / ow
    scores = sigmoid(cls_map.astype(np.float64))
    candidates = _local_peaks(scores) & (scores >= cfg.score_thresh)
    detections: list[Detection] = []
    for cls in range(n_classes):
        rows, cols = np.nonzero(candidates[cls])
        if len(rows) == 0:
            continue
        order = np.argsort(-scores[cls, rows, cols], kind="stable")
        rows, cols = rows[order], cols[order]
        dx, dy, dw, dh = reg_map[:, rows, cols].astype(np.float64)
        # math.exp, not np.exp: the two differ in the last ulp for some inputs
        boxes = np.stack([
            (cols + 0.5 + dx) * cell_w,
            (rows + 0.5 + dy) * cell_h,
            [BASE_SIZE * math.exp(min(4.0, max(-4.0, float(v)))) for v in dw],
            [BASE_SIZE * math.exp(min(4.0, max(-4.0, float(v)))) for v in dh],
        ], axis=1)
        overlaps = iou_matrix(boxes, boxes) >= cfg.nms_iou
        kept: list[int] = []
        for k in range(len(boxes)):
            if not overlaps[k, kept].any():
                kept.append(k)
        detections.extend(
            Detection(box=boxes[k], class_id=cls, score=float(scores[cls, rows[k], cols[k]]))
            for k in kept
        )
    return detections


def evaluate(
    graph: ModelGraph,
    plan: PrecisionPlan,
    stats: CalibrationStats | None,
    dataset: Sequence[Scene],
    cfg: DetectorConfig | None = None,
    samples: Sequence[PillarSample] | None = None,
) -> EvalResult:
    """Full per-class x per-difficulty AP40 table for the planned model.

    The scenes run through batched forwards of EVAL_CHUNK scenes each; a
    scene's head outputs, and so the table, do not depend on the chunking.
    samples, when given, are the pillarized scenes of dataset, one per scene.
    """
    cfg = cfg or DetectorConfig.from_meta(graph.meta)
    planned = apply_plan(fold_all_bn(graph), plan)
    if samples is None:
        samples = pillarize_dataset(dataset, cfg)
    if len(samples) != len(dataset):
        raise ValueError(f"{len(samples)} pillarized samples for {len(dataset)} scenes")
    dets_per_scene = []
    for start in range(0, len(samples), EVAL_CHUNK):
        batch = stack_samples(samples[start : start + EVAL_CHUNK])
        cls_maps, reg_maps = forward(planned, batch, stats=stats)
        dets_per_scene.extend(decode_and_nms(c, r, cfg) for c, r in zip(cls_maps, reg_maps))
    ap = {}
    for cls_id, cls_name in enumerate(CLASS_NAMES):
        for diff, value in ap40(dets_per_scene, dataset, cls_id).items():
            ap[(cls_name, diff)] = value
    return EvalResult(ap=ap)


def make_train_examples(scenes: Sequence[Scene], cfg: DetectorConfig):
    """Pillarize scenes and attach center-cell targets for the detection loss."""
    examples = []
    for scene, sample in zip(scenes, pillarize_dataset(scenes, cfg)):
        cls_t, reg_t, pos, ignore = encode_targets(scene, cfg)
        examples.append(
            TrainExample(
                sample=sample,
                cls_target=cls_t,
                reg_target=reg_t,
                pos_mask=pos,
                ignore_mask=ignore,
            )
        )
    return examples


def make_evaluator(
    dataset: Sequence[Scene], cfg: DetectorConfig
) -> Callable[[ModelGraph, PrecisionPlan, CalibrationStats | None], float]:
    """mAP evaluator closure with the eval set pillarized once up front."""
    samples = pillarize_dataset(dataset, cfg)

    def evaluator(graph, plan, stats):
        return evaluate(graph, plan, stats, dataset, cfg, samples=samples).map

    return evaluator
