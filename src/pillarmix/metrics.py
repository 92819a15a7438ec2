"""Axis-aligned detection metrics: IoU and AP at 40 recall points.

AP follows the 40-point interpolated convention: detections are greedily
matched to ground truth by descending score (one match per box, IoU at or
above MATCH_IOU), precision/recall operating points are formed at every
distinct score threshold, and precision is interpolated as the running
maximum over recall. Detections that match a ground-truth box of the target
class but a different difficulty are ignored rather than counted as false
positives, so a perfect detector scores 1.0 at every difficulty.

Each scene is matched on its own, but ``ap40`` matches all scenes in one
pass: the class's detections and the ground truth are laid out padded per
scene, one ``iou_matrix`` call takes every scene's IoU (it broadcasts over
leading dims), and a loop over detection rank claims boxes in every scene
at once. The detector's NMS shares that IoU.
"""

from __future__ import annotations

import math
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
]

DIFFICULTIES = ("easy", "moderate", "hard")
MATCH_IOU = 0.5  # a detection hits a ground-truth box at IoU >= MATCH_IOU

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
        values = box.tolist()
        if box.shape != (4,) or not all(map(math.isfinite, values)) or values[2] <= 0 or values[3] <= 0:
            raise ValueError(f"detection box must be finite (cx, cy, w, h) with positive extents, got {box}")
        if not math.isfinite(self.score):
            raise ValueError(f"detection score must be finite, got {self.score}")
        object.__setattr__(self, "box", box)


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of axis-aligned (cx, cy, w, h) boxes: [..., N, 4] x [..., M, 4] -> [..., N, M].

    Leading dims broadcast, and each slice holds the values a 2-D call on it
    gives, bit for bit: every entry comes from the same elementwise formula.
    """
    a = np.asarray(boxes_a, dtype=np.float64)[..., :, None, :]
    b = np.asarray(boxes_b, dtype=np.float64)[..., None, :, :]
    ax1, ay1 = a[..., 0] - a[..., 2] / 2, a[..., 1] - a[..., 3] / 2
    ax2, ay2 = a[..., 0] + a[..., 2] / 2, a[..., 1] + a[..., 3] / 2
    bx1, by1 = b[..., 0] - b[..., 2] / 2, b[..., 1] - b[..., 3] / 2
    bx2, by2 = b[..., 0] + b[..., 2] / 2, b[..., 1] + b[..., 3] / 2
    iw = np.maximum(0.0, np.minimum(ax2, bx2) - np.maximum(ax1, bx1))
    ih = np.maximum(0.0, np.minimum(ay2, by2) - np.maximum(ay1, by1))
    inter = iw * ih
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    return np.where(union > 0, inter / union, 0.0)


def _padded(values: np.ndarray, group: np.ndarray, slot: np.ndarray, n_groups: int, fill) -> np.ndarray:
    """values [N, ...] laid out as [n_groups, max slot + 1, ...]: value i at
    (group[i], slot[i]), fill elsewhere."""
    out = np.full((n_groups, int(slot.max(initial=-1)) + 1, *values.shape[1:]), fill, dtype=values.dtype)
    out[group, slot] = values
    return out


def _slots(group: np.ndarray) -> np.ndarray:
    """Each entry's place within its run of equal values of the sorted group."""
    return np.arange(len(group)) - np.searchsorted(group, group)


def ap40(
    detections_per_scene: Sequence[Sequence[Detection]],
    gt_per_scene: Sequence,
    class_id: int,
) -> dict[str, float | None]:
    """AP over 40 recall positions for one class, at every difficulty.

    gt_per_scene holds objects with ``boxes`` [M, 4], ``classes`` [M], and
    ``difficulty`` [M] (string labels). The class's detections are matched to
    their scene's ground truth once, all scenes together: one padded
    [scenes, detections, boxes] IoU, and a loop over detection rank in which
    each scene's detection of that rank, by descending score (ties in the
    order given), claims the unmatched box of the class with the highest IoU
    >= MATCH_IOU (ties: the first box). Each difficulty then counts its own
    ground truth and ignores hits on boxes of the other difficulties. Returns
    {difficulty: AP} for every label in DIFFICULTIES, with None where the
    slice has no ground truth, so it can be excluded from means rather than
    counted as 0. Both sequences hold one entry per scene; differing lengths
    raise ValueError.
    """
    n_scenes = len(gt_per_scene)
    if len(detections_per_scene) != n_scenes:
        raise ValueError(f"{len(detections_per_scene)} scenes of detections for {n_scenes} scenes of ground truth")
    # the class's detections and all ground truth, flattened scene after scene
    dets = [(s, d) for s, scene_dets in enumerate(detections_per_scene) for d in scene_dets if d.class_id == class_id]
    det_scene = np.array([s for s, _ in dets], dtype=np.int64)
    scores = np.array([d.score for _, d in dets], dtype=np.float64)
    gt_boxes = [np.asarray(gt.boxes, dtype=np.float64).reshape(-1, 4) for gt in gt_per_scene]
    gt_scene = np.repeat(np.arange(n_scenes), [len(b) for b in gt_boxes])
    gt_class = np.concatenate([np.asarray(gt.classes, dtype=np.int64).reshape(-1) for gt in gt_per_scene]
                              or [np.zeros(0, np.int64)])
    gt_diff = np.concatenate([np.asarray(gt.difficulty, dtype=str).reshape(-1) for gt in gt_per_scene]
                             or [np.zeros(0, str)])
    of_class = gt_class == class_id
    n_gt = {diff: int(np.sum(of_class & (gt_diff == diff))) for diff in DIFFICULTIES}
    hit_diff = np.full(len(dets), "", dtype=gt_diff.dtype)  # difficulty of the matched box; "" for none
    if dets and of_class.any():
        by_rank = np.lexsort((-scores, det_scene))  # within each scene, by descending score
        rank = _slots(det_scene)  # det_scene[by_rank] == det_scene: the sort stays inside each scene
        gt_slot = _slots(gt_scene)
        det_boxes = np.stack([dets[i][1].box for i in by_rank])
        ious = iou_matrix(_padded(det_boxes, det_scene, rank, n_scenes, 1.0),
                          _padded(np.concatenate(gt_boxes), gt_scene, gt_slot, n_scenes, 1.0))
        free = _padded(of_class, gt_scene, gt_slot, n_scenes, False)
        present = _padded(np.ones(len(dets), bool), det_scene, rank, n_scenes, False)
        claimed = np.full(present.shape, -1, dtype=np.int64)  # GT slot matched at (scene, rank)
        scene = np.arange(n_scenes)
        for r in range(present.shape[1]):
            cand = np.where(free, ious[:, r], -1.0)
            best = np.argmax(cand, axis=1)
            hit = present[:, r] & (cand[scene, best] >= MATCH_IOU)
            claimed[hit, r] = best[hit]
            free[scene[hit], best[hit]] = False
        slot = claimed[det_scene, rank]
        matched = slot >= 0
        first_gt = np.searchsorted(gt_scene, det_scene)
        hit_diff[by_rank[matched]] = gt_diff[first_gt[matched] + slot[matched]]
    # one stable sort by descending score serves every difficulty: dropping
    # the ignored detections afterwards keeps the order of the rest
    order = np.argsort(-scores, kind="stable")
    return {diff: _slice_ap(scores[order], hit_diff[order], diff, n_gt[diff]) for diff in DIFFICULTIES}


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
    """AP40 per (class name, difficulty), and means over the classes it holds, in their order."""

    ap: dict = field(default_factory=dict)  # (class_name, difficulty) -> float | None

    def map_at(self, difficulty: str) -> float | None:
        present = [v for (_, d), v in self.ap.items() if d == difficulty and v is not None]
        if not present:
            return None
        return float(np.mean(present))

    @property
    def map(self) -> float:
        value = self.map_at("moderate")
        return 0.0 if value is None else value
