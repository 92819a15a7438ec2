"""Axis-aligned detection metrics: IoU and AP at 40 recall points.

AP follows the 40-point interpolated convention: detections are greedily
matched to ground truth by descending score (one match per box, IoU at or
above MATCH_IOU), precision/recall operating points are formed at every
distinct score threshold, and precision is interpolated as the running
maximum over recall. Detections that match a ground-truth box of the target
class but a different difficulty are ignored rather than counted as false
positives, so a perfect detector scores 1.0 at every difficulty.

A scene's detections are one record array of DETECTION rows (box, class_id,
score). ``ap40`` matches all (scene, class) groups at once, padded per
``scene * n_classes + class``: one ``iou_matrix`` call takes every group's
IoU (it broadcasts over leading dims), and a loop over detection rank claims
boxes in every group at once. The detector's NMS shares that layout and IoU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "DETECTION",
    "DIFFICULTIES",
    "EvalResult",
    "RECALL_POSITIONS",
    "ap40",
    "iou_matrix",
]

DETECTION = np.dtype([("box", "<f8", (4,)), ("class_id", "<i8"), ("score", "<f8")])
DIFFICULTIES = ("easy", "moderate", "hard")
MATCH_IOU = 0.5  # a detection hits a ground-truth box at IoU >= MATCH_IOU

N_RECALL_POINTS = 40
RECALL_POSITIONS = np.arange(1, N_RECALL_POINTS + 1) / N_RECALL_POINTS


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
    detections_per_scene: Sequence[np.recarray],
    gt_per_scene: Sequence,
    n_classes: int,
) -> dict[tuple[int, str], float | None]:
    """AP over 40 recall positions of every class id in [0, n_classes), at every difficulty.

    detections_per_scene holds one DETECTION record array per scene, and
    gt_per_scene objects with ``boxes`` [M, 4], ``classes`` [M] and
    ``difficulty`` [M] (string labels). All (scene, class) groups are matched
    in one pass: one padded [groups, detections, boxes] IoU, and a loop over
    detection rank in which each group's detection of that rank, by
    descending score (ties in the order given), claims the group's unmatched
    box with the highest IoU >= MATCH_IOU (ties: the first box). Each
    difficulty then counts its own ground truth and ignores hits on boxes of
    the other difficulties. Returns {(class_id, difficulty): AP}, with None
    where the slice has no ground truth, so it can be excluded from means
    rather than counted as 0. Differing scene counts, a detection or
    ground-truth box that is not finite with positive extents, a non-finite
    score, a class id outside [0, n_classes) and a difficulty label not in
    DIFFICULTIES raise ValueError; all but the first name the scene.
    """
    n_scenes = len(gt_per_scene)
    if len(detections_per_scene) != n_scenes:
        raise ValueError(f"{len(detections_per_scene)} scenes of detections for {n_scenes} scenes of ground truth")
    # detections and ground truth, flattened scene after scene
    dets = np.concatenate([np.zeros(0, DETECTION), *detections_per_scene])
    boxes, det_class, scores = dets["box"], dets["class_id"], dets["score"]
    det_scene = np.repeat(np.arange(n_scenes), [len(d) for d in detections_per_scene])
    boxes_per_scene = [np.asarray(gt.boxes, dtype=np.float64).reshape(-1, 4) for gt in gt_per_scene]
    gt_scene = np.repeat(np.arange(n_scenes), [len(b) for b in boxes_per_scene])
    gt_boxes = np.concatenate([np.zeros((0, 4)), *boxes_per_scene])
    gt_class = np.concatenate([np.zeros(0, np.int64), *(np.asarray(gt.classes, dtype=np.int64).reshape(-1)
                                                        for gt in gt_per_scene)])
    gt_diff = np.concatenate([np.zeros(0, str), *(np.asarray(gt.difficulty, dtype=str).reshape(-1)
                                                  for gt in gt_per_scene)])
    # a class id outside [0, n_classes) would land in another (scene, class) group
    for rule, values, bad, scene in (
        *((f"{who} box must be finite (cx, cy, w, h) with positive extents", b,
           ~(np.isfinite(b).all(axis=1) & (b[:, 2:] > 0).all(axis=1)), where)
          for who, b, where in (("detection", boxes, det_scene), ("ground-truth", gt_boxes, gt_scene))),
        ("detection score must be finite", scores, ~np.isfinite(scores), det_scene),
        (f"detection class id must lie in [0, {n_classes})", det_class,
         (det_class < 0) | (det_class >= n_classes), det_scene),
        (f"ground-truth class id must lie in [0, {n_classes})", gt_class,
         (gt_class < 0) | (gt_class >= n_classes), gt_scene),
        # "" is also the no-match sentinel of hit_diff and claimed below
        (f"ground-truth difficulty must be one of {DIFFICULTIES}", gt_diff, ~np.isin(gt_diff, DIFFICULTIES), gt_scene),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{rule}, got {values[i].tolist()!r} in scene {scene[i]}")
    n_groups = n_scenes * n_classes
    hit_diff = np.full(len(dets), "", dtype=gt_diff.dtype)  # difficulty of the matched box; "" for none
    if len(gt_class):
        group = det_scene * n_classes + det_class
        by_rank = np.lexsort((-scores, group))  # within each group, by descending score
        group = group[by_rank]
        rank = _slots(group)
        gt_group = gt_scene * n_classes + gt_class
        gt_order = np.argsort(gt_group, kind="stable")  # ties keep the given order
        gt_group = gt_group[gt_order]
        gt_slot = _slots(gt_group)
        ious = iou_matrix(_padded(boxes[by_rank], group, rank, n_groups, 1.0),
                          _padded(gt_boxes[gt_order], gt_group, gt_slot, n_groups, 1.0))
        free = _padded(np.ones(len(gt_group), bool), gt_group, gt_slot, n_groups, False)
        gt_diffs = _padded(gt_diff[gt_order], gt_group, gt_slot, n_groups, "")
        present = _padded(np.ones(len(group), bool), group, rank, n_groups, False)
        claimed = np.full(present.shape, "", dtype=gt_diff.dtype)  # difficulty of the box hit at (group, rank)
        groups = np.arange(n_groups)
        for r in range(present.shape[1]):
            cand = np.where(free, ious[:, r], -1.0)
            best = np.argmax(cand, axis=1)
            hit = present[:, r] & (cand[groups, best] >= MATCH_IOU)
            claimed[hit, r] = gt_diffs[groups[hit], best[hit]]
            free[groups[hit], best[hit]] = False
        hit_diff[by_rank] = claimed[group, rank]
    n_gt = {diff: np.bincount(gt_class[gt_diff == diff], minlength=n_classes) for diff in DIFFICULTIES}
    # one stable sort by class and descending score serves every difficulty:
    # dropping the ignored detections afterwards keeps the order of the rest
    order = np.lexsort((-scores, det_class))
    by_class = np.split(order, np.searchsorted(det_class[order], np.arange(1, n_classes)))
    return {(c, diff): _slice_ap(scores[rows], hit_diff[rows], diff, int(n_gt[diff][c]))
            for c, rows in zip(range(n_classes), by_class) for diff in DIFFICULTIES}


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
