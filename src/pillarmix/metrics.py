"""Axis-aligned detection metrics: IoU, AP at 40 recall points, Pearson r.

AP follows the 40-point interpolated convention: detections are greedily
matched to ground truth by descending score (one match per box, IoU at or
above the threshold), precision/recall operating points are formed at every
distinct score threshold, and precision is interpolated as the running
maximum over recall. Detections that match a ground-truth box of the target
class but a different difficulty are ignored rather than counted as false
positives, so a perfect detector scores 1.0 at every difficulty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "DIFFICULTIES",
    "Detection",
    "EvalResult",
    "RECALL_POSITIONS",
    "ap40",
    "iou_matrix",
    "pearson",
]

DIFFICULTIES = ("easy", "moderate", "hard")

N_RECALL_POINTS = 40
RECALL_POSITIONS = np.arange(1, N_RECALL_POINTS + 1) / N_RECALL_POINTS


@dataclass(frozen=True)
class Detection:
    """One predicted box (cx, cy, w, h) with class id and confidence."""

    box: np.ndarray
    class_id: int
    score: float

    def __post_init__(self):
        box = np.asarray(self.box, dtype=np.float64)
        if box.shape != (4,) or box[2] <= 0 or box[3] <= 0:
            raise ValueError(f"detection box must be (cx, cy, w, h) with positive extents, got {box}")
        if not np.isfinite(self.score):
            raise ValueError(f"detection score must be finite, got {self.score}")
        object.__setattr__(self, "box", box)


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of axis-aligned (cx, cy, w, h) boxes: [len(a), len(b)]."""
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    ax1, ay1 = a[:, 0] - a[:, 2] / 2, a[:, 1] - a[:, 3] / 2
    ax2, ay2 = a[:, 0] + a[:, 2] / 2, a[:, 1] + a[:, 3] / 2
    bx1, by1 = b[:, 0] - b[:, 2] / 2, b[:, 1] - b[:, 3] / 2
    bx2, by2 = b[:, 0] + b[:, 2] / 2, b[:, 1] + b[:, 3] / 2
    iw = np.maximum(0.0, np.minimum(ax2[:, None], bx2[None, :]) - np.maximum(ax1[:, None], bx1[None, :]))
    ih = np.maximum(0.0, np.minimum(ay2[:, None], by2[None, :]) - np.maximum(ay1[:, None], by1[None, :]))
    inter = iw * ih
    area_a = (a[:, 2] * a[:, 3])[:, None]
    area_b = (b[:, 2] * b[:, 3])[None, :]
    union = area_a + area_b - inter
    return np.where(union > 0, inter / union, 0.0)


def _match_scene(detections, gt_boxes, gt_class_mask, iou_match):
    """Greedy per-scene matching; returns the matched GT index per detection (-1 = none).

    Detections are visited by descending score; each claims the unmatched
    ground-truth box of its class with the highest IoU >= iou_match.
    """
    matched_gt = np.full(len(detections), -1, dtype=np.int64)
    if len(gt_boxes) == 0 or not detections:
        return matched_gt
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    det_boxes = np.stack([d.box for d in detections])
    ious = iou_matrix(det_boxes, gt_boxes)
    taken = np.zeros(len(gt_boxes), dtype=bool)
    for di in order:
        cand = ious[di].copy()
        cand[taken | ~gt_class_mask] = -1.0
        gi = int(np.argmax(cand))
        if cand[gi] >= iou_match:
            matched_gt[di] = gi
            taken[gi] = True
    return matched_gt


def ap40(
    detections_per_scene: Sequence[Sequence[Detection]],
    gt_per_scene: Sequence,
    class_id: int,
    iou_match: float = 0.5,
) -> dict[str, float | None]:
    """AP over 40 recall positions for one class, at every difficulty.

    gt_per_scene holds objects with ``boxes`` [M, 4], ``classes`` [M], and
    ``difficulty`` [M] (string labels). The class's detections are matched to
    ground truth once; each difficulty then counts its own ground truth and
    ignores hits on boxes of the other difficulties. Returns {difficulty: AP}
    for every label in DIFFICULTIES, with None where the slice has no ground
    truth, so it can be excluded from means rather than counted as 0. Both
    sequences hold one entry per scene; differing lengths raise ValueError.
    """
    if not 0.0 < iou_match < 1.0:
        raise ValueError(f"iou_match must lie in (0, 1), got {iou_match}")
    if len(detections_per_scene) != len(gt_per_scene):
        raise ValueError(
            f"{len(detections_per_scene)} scenes of detections for {len(gt_per_scene)} scenes of ground truth"
        )
    scores: list[float] = []
    hit_diff: list[str] = []  # difficulty of the matched box; "" for a false positive
    n_gt = dict.fromkeys(DIFFICULTIES, 0)
    for dets, gt in zip(detections_per_scene, gt_per_scene):
        gt_boxes = np.asarray(gt.boxes, dtype=np.float64).reshape(-1, 4)
        gt_classes = np.asarray(gt.classes, dtype=np.int64)
        gt_diff = np.asarray(gt.difficulty)
        for diff in DIFFICULTIES:
            n_gt[diff] += int(np.sum((gt_classes == class_id) & (gt_diff == diff)))
        class_dets = [d for d in dets if d.class_id == class_id]
        matched = _match_scene(class_dets, gt_boxes, gt_classes == class_id, iou_match)
        scores.extend(d.score for d in class_dets)
        hit_diff.extend(str(gt_diff[gi]) if gi >= 0 else "" for gi in matched)
    # one stable sort by descending score serves every difficulty: dropping
    # the ignored detections afterwards keeps the order of the rest
    score_arr = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-score_arr, kind="stable")
    hits = np.asarray(hit_diff, dtype=str)[order]
    return {diff: _slice_ap(score_arr[order], hits, diff, n_gt[diff]) for diff in DIFFICULTIES}


def _slice_ap(
    scores: np.ndarray, hits: np.ndarray, difficulty: str, n_gt: int
) -> float | None:
    """AP40 of one difficulty slice.

    scores holds every detection of the class by descending score; hits[i]
    is the difficulty of the box detection i matched, "" for none. Matches
    of another difficulty are ignored, unmatched detections count as false
    positives.
    """
    if n_gt == 0:
        return None
    missed = hits == ""
    counted = missed | (hits == difficulty)
    if not counted.any():
        return 0.0
    scores = scores[counted]
    is_tp = ~missed[counted]
    tps = np.cumsum(is_tp)
    fps = np.cumsum(~is_tp)
    # operating points at distinct thresholds: last entry of each tie group
    boundary = np.nonzero(np.diff(scores) != 0)[0]
    ends = np.concatenate([boundary, [len(scores) - 1]])
    recall = tps[ends] / n_gt
    precision = tps[ends] / (tps[ends] + fps[ends])
    # recall never decreases along the operating points, so the best precision
    # at recall >= r is the running maximum from the first point reaching r
    best_from = np.maximum.accumulate(precision[::-1])[::-1]
    first = np.searchsorted(recall, RECALL_POSITIONS, side="left")
    ap = 0.0
    for i in first:  # summed in recall order, as a Python float
        ap += float(best_from[i]) if i < len(best_from) else 0.0
    return ap / N_RECALL_POINTS


@dataclass(frozen=True)
class EvalResult:
    """AP40 per (class name, difficulty) plus the moderate-difficulty mean."""

    ap: dict = field(default_factory=dict)  # (class_name, difficulty) -> float | None
    class_names: tuple[str, ...] = ()

    def map_at(self, difficulty: str) -> float | None:
        values = [self.ap[(c, difficulty)] for c in self.class_names]
        present = [v for v in values if v is not None]
        if not present:
            return None
        return float(np.mean(present))

    @property
    def map(self) -> float:
        value = self.map_at("moderate")
        return 0.0 if value is None else value

    def to_json_dict(self) -> dict:
        out = {}
        for (cls, diff), value in sorted(self.ap.items()):
            out[f"{cls}.{diff}.ap40"] = value
        out["map"] = self.map
        return out


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("pearson needs two equal-length 1D sequences of length >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt(np.sum(dx * dx))
    sy = np.sqrt(np.sum(dy * dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("pearson is undefined for constant input")
    return float(np.sum(dx * dy) / (sx * sy))
