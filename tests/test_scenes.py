"""Scenes: pillarize invariants against per-point cell membership, and seeded generation."""

import hashlib
import re

import numpy as np
import pytest

from pillarmix.scenes import (
    FIELD_SIZE,
    POINT_FEATURES,
    DatasetConfig,
    Scene,
    assign_difficulty,
    generate_dataset,
    pillarize,
)


def point_cells(points, grid):
    """(row, col) of each point's grid cell over the field, edges clamped into the grid."""
    h, w = grid
    rows = np.minimum(np.floor(points[:, 1].astype(np.float64) / (FIELD_SIZE / h)), h - 1).astype(np.int64)
    cols = np.minimum(np.floor(points[:, 0].astype(np.float64) / (FIELD_SIZE / w)), w - 1).astype(np.int64)
    return rows, cols


@pytest.mark.parametrize("grid, cap", [((16, 16), 8), ((4, 4), 3), ((8, 4), 1)])
def test_pillars_partition_the_points_up_to_the_cap(grid, cap):
    for scene in generate_dataset(DatasetConfig(size=6), seed=21):
        sample = pillarize(scene, grid, cap)
        rows, cols = point_cells(scene.points, grid)
        coords = [tuple(c) for c in sample.coords.tolist()]
        assert coords == sorted(set(zip(rows.tolist(), cols.tolist())))  # unique, (row, col) order
        assert sample.features.shape == (len(coords), cap, POINT_FEATURES)
        for p, (r, c) in enumerate(coords):
            members = np.nonzero((rows == r) & (cols == c))[0][:cap]  # first come, scene order
            k = len(members)
            np.testing.assert_array_equal(sample.point_mask[p], np.arange(cap) < k)
            np.testing.assert_array_equal(sample.features[p, :k, :3], scene.points[members])
            np.testing.assert_allclose(sample.features[p, :k, 3:].sum(axis=0), 0.0, atol=1e-5)
            assert not sample.features[p, k:].any()


def scene_of(points):
    return Scene(points=np.array(points, np.float32).reshape(-1, 3), boxes=np.zeros((0, 4), np.float32),
                 classes=np.zeros(0, np.int64), difficulty=np.zeros(0, dtype=object))


def test_truncation_keeps_the_first_points_of_a_crowded_pillar():
    points = np.array([[1.0, 1.0, 0.1], [9.0, 9.0, 0.9], [1.5, 1.2, 0.2], [1.2, 1.8, 0.3]], np.float32)
    sample = pillarize(scene_of(points), (4, 4), 2)
    assert sample.coords.tolist() == [[0, 0], [2, 2]]
    np.testing.assert_array_equal(sample.features[0, :, :3], points[[0, 2]])
    np.testing.assert_allclose(sample.features[0, :, 3:], [[-0.25, -0.1], [0.25, 0.1]], atol=1e-6)


def test_empty_scene_gives_no_pillars():
    sample = pillarize(scene_of([]), (16, 16), 8)
    assert (sample.features.shape, sample.features.dtype) == ((0, 8, POINT_FEATURES), np.float32)
    assert (sample.point_mask.shape, sample.point_mask.dtype) == ((0, 8), bool)
    assert (sample.coords.shape, sample.coords.dtype) == ((0, 2), np.int64)
    assert sample.grid == (16, 16) and sample.scene_ids.shape == (0,)


def test_generation_is_deterministic_per_seed():
    cfg = DatasetConfig(size=5)
    a, b, other = generate_dataset(cfg, seed=3), generate_dataset(cfg, seed=3), generate_dataset(cfg, seed=4)
    for sa, sb in zip(a, b):
        for field in ("points", "boxes", "classes", "difficulty"):
            np.testing.assert_array_equal(getattr(sa, field), getattr(sb, field))
    assert not all(np.array_equal(sa.points, so.points) for sa, so in zip(a, other))
    assert all(((s.points[:, :2] >= 0) & (s.points[:, :2] <= FIELD_SIZE)).all() for s in a)


@pytest.mark.parametrize("bad", [[np.nan, 1.0, 0.1], [1.0, np.inf, 0.1], [1.0, 1.0, np.nan],
                                 [40.0, 1.0, 0.1], [-5.0, 1.0, 0.1], [1.0, FIELD_SIZE + 0.01, 0.1]])
def test_pillarize_rejects_non_finite_and_out_of_field_points(bad):
    edge = [FIELD_SIZE, FIELD_SIZE, 0.5]  # the far edge belongs to the last cell
    assert pillarize(scene_of([edge]), (4, 16), 8).coords.tolist() == [[3, 15]]
    with pytest.raises(ValueError, match=re.escape(f"point 1 {np.float32(bad).tolist()} ")):
        pillarize(scene_of([edge, bad]), (4, 16), 8)


@pytest.mark.parametrize("grid, cap, match", [
    ((2.5, 4), 8, r"grid must be two integers >= 1, got \(2\.5, 4\)"),
    ((True, 4), 8, r"grid must be two integers >= 1, got \(True, 4\)"),
    ((4,), 8, r"grid must be two integers >= 1, got \(4,\)"),
    ((4, 4), 0, r"max_points_per_pillar must be an integer >= 1, got 0"),
    ((4, 4), 2.0, r"max_points_per_pillar must be an integer >= 1, got 2\.0"),
])
def test_pillarize_rejects_a_grid_or_cap_that_is_not_positive_integers(grid, cap, match):
    with pytest.raises(ValueError, match=match):
        pillarize(scene_of([[1.0, 1.0, 0.1]]), grid, cap)


@pytest.mark.parametrize("boxes", [(3, 2), (-1, 2), (1.5, 3), (2,), (True, 2)])
def test_dataset_config_rejects_bad_box_counts(boxes):
    with pytest.raises(ValueError, match=rf"boxes_per_scene .* got {re.escape(str(boxes))}"):
        DatasetConfig(boxes_per_scene=boxes)


@pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan"), True, "0.02", None])
def test_dataset_config_rejects_an_outlier_rate_that_is_not_a_number_in_the_unit_interval(rate):
    with pytest.raises(ValueError, match=rf"outlier_rate must be a number in \[0, 1\], got {re.escape(repr(rate))}"):
        DatasetConfig(outlier_rate=rate)


@pytest.mark.parametrize("size", [2.5, True])
def test_dataset_config_rejects_a_size_that_is_not_a_positive_integer(size):
    with pytest.raises(ValueError, match=rf"size must be an integer >= 1, got {size!r}"):
        DatasetConfig(size=size)


@pytest.mark.parametrize("area, n_points, want", [
    (7.0, 22, "easy"), (7.0, 21, "moderate"), (6.99, 99, "moderate"),
    (2.5, 8, "moderate"), (2.49, 99, "hard"), (99.0, 7, "hard"),
])
def test_difficulty_thresholds_are_pinned(area, n_points, want):
    assert assign_difficulty(area, n_points) == want


def test_a_crowded_field_drops_boxes_and_keeps_the_rest_apart():
    """40 boxes do not fit the field: after 20 placements that overlap those
    already placed, a box is dropped. The kept boxes keep a gap of 0.5 on at
    least one axis, and each keeps its class, difficulty and points."""
    scenes = generate_dataset(DatasetConfig(size=4, boxes_per_scene=(40, 40)), seed=5)
    for scene in scenes:
        m = len(scene.boxes)
        assert 0 < m < 40 and len(scene.classes) == len(scene.difficulty) == m
        cx, cy, w, h = scene.boxes.T
        apart = ((np.abs(cx[:, None] - cx) >= (w[:, None] + w) / 2 + 0.5)
                 | (np.abs(cy[:, None] - cy) >= (h[:, None] + h) / 2 + 0.5))
        assert (apart | np.eye(m, dtype=bool)).all()
        for x, y, bw, bh in scene.boxes:
            inside = (np.abs(scene.points[:, 0] - x) <= bw / 2) & (np.abs(scene.points[:, 1] - y) <= bh / 2)
            assert inside.sum() >= 3


def test_generated_dataset_is_pinned():
    """The spike and difficulty constants, on a set with all three difficulties and spikes."""
    digest = hashlib.sha256()
    for scene in generate_dataset(DatasetConfig(size=32, outlier_rate=0.5), seed=0):
        for arr in (scene.points, scene.boxes, scene.classes):
            digest.update(arr.tobytes())
        digest.update("|".join(scene.difficulty).encode())
    assert digest.hexdigest() == "25853512048512dec62a6cd2c6f8d3fcafd4c7fe09444de860518c3b8d1ca5cc"
