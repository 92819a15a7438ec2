"""Scenes: pillarize invariants against per-point cell membership, and seeded generation."""

import numpy as np
import pytest

from pillarmix.scenes import FIELD_SIZE, POINT_FEATURES, DatasetConfig, Scene, generate_dataset, pillarize


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


def test_truncation_keeps_the_first_points_of_a_crowded_pillar():
    points = np.array([[1.0, 1.0, 0.1], [9.0, 9.0, 0.9], [1.5, 1.2, 0.2], [1.2, 1.8, 0.3]], np.float32)
    scene = Scene(points=points, boxes=np.zeros((0, 4), np.float32), classes=np.zeros(0, np.int64),
                  difficulty=np.zeros(0, dtype=object))
    sample = pillarize(scene, (4, 4), 2)
    assert sample.coords.tolist() == [[0, 0], [2, 2]]
    np.testing.assert_array_equal(sample.features[0, :, :3], points[[0, 2]])
    np.testing.assert_allclose(sample.features[0, :, 3:], [[-0.25, -0.1], [0.25, 0.1]], atol=1e-6)


def test_empty_scene_gives_no_pillars():
    scene = Scene(points=np.zeros((0, 3), np.float32), boxes=np.zeros((0, 4), np.float32),
                  classes=np.zeros(0, np.int64), difficulty=np.zeros(0, dtype=object))
    sample = pillarize(scene, (16, 16), 8)
    assert sample.features.shape == (0, 8, POINT_FEATURES)
    assert sample.point_mask.shape == (0, 8) and sample.coords.shape == (0, 2)


def test_generation_is_deterministic_per_seed():
    cfg = DatasetConfig(size=5)
    a, b, other = generate_dataset(cfg, seed=3), generate_dataset(cfg, seed=3), generate_dataset(cfg, seed=4)
    for sa, sb in zip(a, b):
        for field in ("points", "boxes", "classes", "difficulty"):
            np.testing.assert_array_equal(getattr(sa, field), getattr(sb, field))
    assert not all(np.array_equal(sa.points, so.points) for sa, so in zip(a, other))
    assert all(((s.points[:, :2] >= 0) & (s.points[:, :2] <= FIELD_SIZE)).all() for s in a)
