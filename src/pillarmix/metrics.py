"""Axis-aligned detection metrics: IoU and AP at 40 recall points.

All scenes' detections are one record array of DETECTION rows, each row's
scene_id its scene's position. AP is a match, then a reduction. ``_match``
matches detections to ground truth greedily by descending score (one match
per box, IoU at or above MATCH_IOU) in all (scene, class) groups at once,
padded per ``scene * n_classes + class``: one ``iou_matrix`` call takes every
group's IoU, and a loop over detection rank claims boxes in every group, as
the detector's NMS does. Detections that match a box of another difficulty
are ignored rather than counted as false positives, so a perfect detector
scores 1.0 at every difficulty. ``_slice_ap`` reduces one (class,
difficulty) slice with scene s counted weights[s] times: operating points at
every distinct score threshold, precision interpolated as the running
maximum over recall. A resample or a subset of the scenes is thus one set of
weights on one matching pass; ``ap40`` counts every scene once.
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

DETECTION = np.dtype([("scene_id", "<i8"), ("box", "<f8", (4,)), ("class_id", "<i8"), ("score", "<f8")])
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
    detections: np.ndarray,
    gt_per_scene: Sequence,
    n_classes: int,
) -> dict[tuple[int, str], float | None]:
    """AP over 40 recall positions of every class id in [0, n_classes), at every difficulty.

    detections is one DETECTION array whose scene_id indexes gt_per_scene:
    objects with ``boxes`` [M, 4], ``classes`` [M] and ``difficulty`` [M]
    (string labels). ``_match`` matches them once: in each (scene, class)
    group, each detection by descending score (ties in array order) claims
    the unmatched box with the highest IoU >= MATCH_IOU (ties: the first
    box). ``_slice_ap`` then reduces each (class, difficulty) slice with
    every scene counted once. Returns {(class_id, difficulty): AP}, with None
    where the slice has no ground truth, so it is left out of means rather
    than counted as 0. Anything but a 1-D DETECTION array (named by its
    dtype), a scene_id outside [0, len(gt_per_scene)), a scene whose boxes,
    classes and difficulty differ in length, a box that is not finite with
    positive extents, a non-finite score, a class id outside [0, n_classes)
    and a difficulty not in DIFFICULTIES raise ValueError naming the value
    and, from lengths on, the scene.
    """
    ones = np.ones(len(gt_per_scene), np.int64)
    return {key: _slice_ap(ones, *part) for key, part in _match(detections, gt_per_scene, n_classes).items()}


def _match(detections: np.ndarray, gt_per_scene: Sequence, n_classes: int) -> dict[tuple[int, str], tuple]:
    """ap40's checks and matching pass: per (class_id, difficulty), the counted detections' scene_ids and
    hit flags by descending score, each score tie's last row, and the slice's ground-truth scene_ids."""
    if not (isinstance(detections, np.ndarray) and detections.dtype == DETECTION and detections.ndim == 1):
        raise ValueError(f"detections must be one 1-D DETECTION array, got {type(detections).__name__} of dtype "
                         f"{getattr(detections, 'dtype', None)} and shape {getattr(detections, 'shape', None)}")
    n_scenes = len(gt_per_scene)
    det_scene, boxes, det_class, scores = (detections[name] for name in DETECTION.names)
    outside = (det_scene < 0) | (det_scene >= n_scenes)
    if outside.any():
        raise ValueError(f"detection scene_id must lie in [0, {n_scenes}), got {det_scene[np.argmax(outside)]}")
    per_scene = [(np.asarray(gt.boxes, np.float64).reshape(-1, 4), np.asarray(gt.classes, np.int64).reshape(-1),
                  np.asarray(gt.difficulty, str).reshape(-1)) for gt in gt_per_scene]
    for k, sizes in enumerate(tuple(map(len, arrays)) for arrays in per_scene):
        if len(set(sizes)) > 1:
            raise ValueError(f"ground-truth boxes, classes and difficulty differ in length, got {sizes} in scene {k}")
    gt_scene = np.repeat(np.arange(n_scenes), [len(b) for b, _, _ in per_scene])
    empty = (np.zeros((0, 4)), np.zeros(0, np.int64), np.zeros(0, str))
    gt_boxes, gt_class, gt_diff = map(np.concatenate, zip(empty, *per_scene))
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
        (f"ground-truth difficulty must be one of {DIFFICULTIES}", gt_diff, ~np.isin(gt_diff, DIFFICULTIES), gt_scene),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{rule}, got {values[i].tolist()!r} in scene {scene[i]}")
    gt_level = np.argmax(gt_diff[:, None] == np.array(DIFFICULTIES), axis=1)  # each box's DIFFICULTIES index
    n_groups = n_scenes * n_classes
    hit_level = np.full(len(detections), -1)  # DIFFICULTIES index of the matched box; -1 for none
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
        gt_levels = _padded(gt_level[gt_order], gt_group, gt_slot, n_groups, -1)
        present = _padded(np.ones(len(group), bool), group, rank, n_groups, False)
        claimed = np.full(present.shape, -1)  # level of the box hit at (group, rank); -1 for none
        groups = np.arange(n_groups)
        for r in range(present.shape[1]):
            cand = np.where(free, ious[:, r], -1.0)
            best = np.argmax(cand, axis=1)
            hit = present[:, r] & (cand[groups, best] >= MATCH_IOU)
            claimed[hit, r] = gt_levels[groups[hit], best[hit]]
            free[groups[hit], best[hit]] = False
        hit_level[by_rank] = claimed[group, rank]
    # one stable sort by class and descending score serves every difficulty:
    # dropping the ignored detections afterwards keeps the order of the rest
    order = np.lexsort((-scores, det_class))
    by_class = np.split(order, np.searchsorted(det_class[order], np.arange(1, n_classes)))
    slices = {}
    for c, rows in zip(range(n_classes), by_class):
        levels = hit_level[rows]
        for level, diff in enumerate(DIFFICULTIES):
            counted = rows[(levels < 0) | (levels == level)]
            slices[c, diff] = (det_scene[counted], hit_level[counted] == level,
                               np.flatnonzero(np.diff(scores[counted], append=-np.inf)),
                               gt_scene[(gt_class == c) & (gt_level == level)])
    return slices


def _slice_ap(weights: np.ndarray, scene: np.ndarray, is_tp: np.ndarray, ends: np.ndarray,
              gt_scene: np.ndarray) -> float | None:
    """AP40 of one of _match's slices with scene s counted weights[s] (int64) times.

    A leading run of zero-weight rows gives precision 0/0, taken as 0: that
    point sits at recall 0, which no recall position reads.
    """
    n_gt = weights[gt_scene].sum()
    if n_gt == 0:
        return None
    counts = weights[scene]
    tps = np.cumsum(counts * is_tp)[ends]
    fps = np.cumsum(counts * ~is_tp)[ends]
    recall = tps / n_gt
    precision = tps / np.maximum(tps + fps, 1)
    # recall never decreases along the operating points, so the best precision
    # at recall >= r is the running maximum from the first point reaching r
    best_from = np.maximum.accumulate(precision[::-1])[::-1]
    # positions no point reaches are a suffix, as first never decreases; the
    # reached ones are summed in recall order, as Python floats
    first = np.searchsorted(recall, RECALL_POSITIONS, side="left")
    return sum(best_from[first[first < len(best_from)]].tolist()) / N_RECALL_POINTS


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
