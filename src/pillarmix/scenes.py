"""Synthetic 2D point-cloud scenes with heavy-tailed intensity outliers.

Each scene is a square field, FIELD_SIZE units a side, of (x, y, intensity)
points plus axis-aligned ground-truth boxes in three size classes. Object
points carry a class-dependent intensity band; background points are dim.
With probability ``outlier_rate`` a scene contains one extreme intensity
spike (OUTLIER_MAGNITUDE times the base scale), so tiny calibration
samples rarely see a spike while large ones almost surely do. A box's
difficulty follows from its area and point count by the EASY_*/HARD_* rule.

``pillarize_scenes`` pillarizes a list of scenes with one stable sort of all
their points, read as float32, by (scene, cell). It puts each cell's first
MAX_POINTS_PER_PILLAR points into features (x, y, intensity, dx, dy), dx, dy the
offsets to the pillar's mean, and returns one sample per scene; a bad point
raises naming its scene. ``pillarize`` is that call on one scene. Coordinates
and offsets deliberately live on very different scales, which makes the first
weight layer fragile under per-tensor INT8 quantization.

Scenes are not stored: ``generate_dataset`` regenerates the same scenes from
a (DatasetConfig, seed) pair, so there is no dataset file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor_ops import PillarSample, int_at_least, int_pair_at_least, is_real

__all__ = [
    "DatasetConfig",
    "FIELD_SIZE",
    "MAX_POINTS_PER_PILLAR",
    "POINT_FEATURES",
    "Scene",
    "assign_difficulty",
    "generate_dataset",
    "pillarize",
    "pillarize_scenes",
]

POINT_FEATURES = 5  # x, y, intensity, dx-to-pillar-mean, dy-to-pillar-mean
FIELD_SIZE = 16.0  # side of the square scene; pillar grids and output maps tile it
MAX_POINTS_PER_PILLAR = 8  # the one pillar capacity; a crowded pillar keeps its first points

CLASS_NAMES = ("large", "medium", "small")
# per-class (min side, max side), intensity band (low, high), point density range
CLASS_SIZES = ((3.0, 4.5), (2.0, 3.0), (1.2, 2.0))
CLASS_INTENSITY = ((0.12, 0.32), (0.40, 0.62), (0.70, 0.95))
CLASS_DENSITY = ((2.0, 3.0), (3.0, 4.5), (5.0, 8.0))
BACKGROUND_INTENSITY = (0.0, 0.08)
BACKGROUND_POINTS = (12, 24)  # per-scene count range, both ends included
OUTLIER_MAGNITUDE = 50.0  # spike intensity, times uniform(0.8, 1.2)
# difficulty rule: easy = area >= EASY_AREA and points >= EASY_POINTS;
# hard = area < HARD_AREA or points < HARD_POINTS; moderate otherwise
EASY_AREA = 7.0
EASY_POINTS = 22
HARD_AREA = 2.5
HARD_POINTS = 8


@dataclass(frozen=True)
class DatasetConfig:
    """Scene-generation knobs; defaults give the heavy-tailed desk-scale task.
    A box that 20 draws cannot place 0.5 clear of the others is dropped, so a
    scene may hold fewer than ``boxes_per_scene[0]`` boxes."""

    size: int = 64
    outlier_rate: float = 0.02
    boxes_per_scene: tuple[int, int] = (2, 3)  # count range, both ends included

    def __post_init__(self):
        if not (is_real(self.outlier_rate) and 0.0 <= self.outlier_rate <= 1.0):
            raise ValueError(f"outlier_rate must be a number in [0, 1], got {self.outlier_rate!r}")
        if not int_at_least(self.size, 1):
            raise ValueError(f"size must be an integer >= 1, got {self.size!r}")
        boxes = self.boxes_per_scene
        if not (int_pair_at_least(boxes, 0) and boxes[0] <= boxes[1]):
            raise ValueError(f"boxes_per_scene must be two integers (lo, hi) with 0 <= lo <= hi, got {boxes!r}")


@dataclass(frozen=True)
class Scene:
    """Points [N, 3] as (x, y, intensity); boxes [M, 4] as (cx, cy, w, h)."""

    points: np.ndarray
    boxes: np.ndarray
    classes: np.ndarray
    difficulty: np.ndarray  # string labels from metrics.DIFFICULTIES


def assign_difficulty(area: float, n_points: int) -> str:
    if area < HARD_AREA or n_points < HARD_POINTS:
        return "hard"
    if area >= EASY_AREA and n_points >= EASY_POINTS:
        return "easy"
    return "moderate"


def _overlaps(cx, cy, w, h, boxes, margin=0.5) -> bool:
    for ox, oy, ow, oh in boxes:
        if abs(cx - ox) < (w + ow) / 2 + margin and abs(cy - oy) < (h + oh) / 2 + margin:
            return True
    return False


def _generate_scene(rng: np.random.Generator, cfg: DatasetConfig) -> Scene:
    """One scene; a box that 20 draws cannot place 0.5 clear of the others is
    dropped, so it may hold fewer than ``boxes_per_scene[0]`` boxes."""
    field = FIELD_SIZE
    n_boxes = int(rng.integers(cfg.boxes_per_scene[0], cfg.boxes_per_scene[1] + 1))
    boxes, classes, difficulties = [], [], []
    point_chunks = []
    for _ in range(n_boxes):
        cls = int(rng.integers(0, len(CLASS_NAMES)))
        lo, hi = CLASS_SIZES[cls]
        for _attempt in range(20):
            w = float(rng.uniform(lo, hi))
            h = float(rng.uniform(lo, hi))
            cx = float(rng.uniform(w / 2, field - w / 2))
            cy = float(rng.uniform(h / 2, field - h / 2))
            if not _overlaps(cx, cy, w, h, boxes):
                break
        else:
            continue  # field too crowded, drop this box
        density = float(rng.uniform(*CLASS_DENSITY[cls]))
        n_pts = max(3, int(round(density * w * h)))
        xs = rng.uniform(cx - w / 2, cx + w / 2, size=n_pts)
        ys = rng.uniform(cy - h / 2, cy + h / 2, size=n_pts)
        ilo, ihi = CLASS_INTENSITY[cls]
        intensity = rng.uniform(ilo, ihi, size=n_pts)
        point_chunks.append(np.stack([xs, ys, intensity], axis=1))
        boxes.append((cx, cy, w, h))
        classes.append(cls)
        difficulties.append(assign_difficulty(w * h, n_pts))
    n_bg = int(rng.integers(BACKGROUND_POINTS[0], BACKGROUND_POINTS[1] + 1))
    bg = np.stack(
        [
            rng.uniform(0, field, size=n_bg),
            rng.uniform(0, field, size=n_bg),
            rng.uniform(*BACKGROUND_INTENSITY, size=n_bg),
        ],
        axis=1,
    )
    point_chunks.append(bg)
    points = np.concatenate(point_chunks, axis=0)
    if rng.random() < cfg.outlier_rate:
        spike = int(rng.integers(0, len(points)))
        points[spike, 2] = OUTLIER_MAGNITUDE * float(rng.uniform(0.8, 1.2))
    return Scene(
        points=points.astype(np.float32),
        boxes=np.asarray(boxes, dtype=np.float32).reshape(-1, 4),
        classes=np.asarray(classes, dtype=np.int64),
        difficulty=np.asarray(difficulties, dtype=object),
    )


def generate_dataset(cfg: DatasetConfig, seed: int = 0) -> list[Scene]:
    """Deterministically generate ``cfg.size`` scenes from the seed."""
    rng = np.random.default_rng(seed)
    return [_generate_scene(rng, cfg) for _ in range(cfg.size)]


def _kept_points(scenes: Sequence[Scene], h: int, w: int):
    """The points pillarize_scenes keeps, as float32 rows sorted by (scene, cell)
    and scene order, with each row's pillar and slot, and each pillar's point
    count and key (scene * h + row) * w + col. The sort's index arrays die here,
    before the features are allocated."""
    counts = [len(s.points) for s in scenes]
    pts = np.concatenate([s.points for s in scenes], dtype=np.float32)
    x, y = pts[:, 0], pts[:, 1]
    if not (np.isfinite(pts).all()
            and all(c.min(initial=0.0) >= 0 and c.max(initial=0.0) <= FIELD_SIZE for c in (x, y))):
        i = int(np.argmax(~np.isfinite(pts).all(axis=1) | (pts[:, :2] < 0).any(axis=1)
                          | (pts[:, :2] > FIELD_SIZE).any(axis=1)))
        s = int(np.searchsorted(np.cumsum(counts), i, side="right"))
        raise ValueError(f"scene {s}: point {i - sum(counts[:s])} {pts[i].tolist()} is not finite "
                         f"or lies outside the field [0, {FIELD_SIZE}]")
    key = ((np.repeat(np.arange(len(scenes)), counts) * h
            + np.minimum((y / (FIELD_SIZE / h)).astype(np.int64), h - 1)) * w
           + np.minimum((x / (FIELD_SIZE / w)).astype(np.int64), w - 1))
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1) != 0)  # each pillar's first point
    count = np.minimum(np.diff(first, append=len(key)), MAX_POINTS_PER_PILLAR)
    pillar = np.repeat(np.arange(len(first)), count)
    slot = np.arange(len(pillar)) - np.repeat(np.cumsum(count) - count, count)
    return pts[order[first[pillar] + slot]], pillar, slot, count, key[first]


def pillarize_scenes(scenes: Sequence[Scene], grid: tuple[int, int]) -> list[PillarSample]:
    """Pad every scene's points into pillars, one per occupied cell of the grid
    over the field; returns one single-scene sample per scene, in list order.

    Every scene's points are read as float32, the dtype the features hold, and
    concatenated once, so a scene's pillars never depend on the other scenes of
    the list. One stable sort by (scene, cell) orders each scene's pillars by
    (row, col) and the points by scene order within each; a point at slot
    MAX_POINTS_PER_PILLAR or later of its cell's run is dropped. The centre is
    the float32 sum over the zero-padded slots over the float32 count. Each
    sample's arrays are disjoint slices of the batch's arrays. A far-edge point
    goes into the last cell; a non-finite or out-of-field point raises
    ValueError naming its scene's position in the list and its index in that
    scene. No scenes give no samples."""
    if not int_pair_at_least(grid, 1):
        raise ValueError(f"grid must be two integers >= 1, got {grid!r}")
    if not scenes:
        return []
    h, w = grid
    chunk, pillar, slot, count, pillar_key = _kept_points(scenes, h, w)
    features = np.zeros((len(count), MAX_POINTS_PER_PILLAR, POINT_FEATURES), np.float32)
    features[pillar, slot, :3] = chunk
    center = features[:, :, :2].sum(axis=1) / count.astype(np.float32)[:, None]
    features[pillar, slot, 3:5] = chunk[:, :2] - center[pillar]
    cell = pillar_key % (h * w)
    coords = np.stack([cell // w, cell % w], axis=1)
    bounds = np.searchsorted(pillar_key, np.arange(len(scenes) + 1) * (h * w)).tolist()
    mask = np.arange(MAX_POINTS_PER_PILLAR) < count[:, None]
    return [PillarSample(features=features[a:b], point_mask=mask[a:b], coords=coords[a:b], grid=grid)
            for a, b in zip(bounds[:-1], bounds[1:])]


def pillarize(scene: Scene, grid: tuple[int, int]) -> PillarSample:
    """One scene's pillars: ``pillarize_scenes([scene], grid)[0]``, the one code path."""
    return pillarize_scenes([scene], grid)[0]
