"""Scenes: pillarize and the batched pillarize_scenes against the per-pillar scan
they replaced and per-point cell membership, and seeded generation."""

import hashlib
import re

import numpy as np
import pytest

from pillarmix.scenes import (
    FIELD_SIZE,
    MAX_POINTS_PER_PILLAR,
    POINT_FEATURES,
    DatasetConfig,
    Scene,
    assign_difficulty,
    generate_dataset,
    pillarize,
    pillarize_scenes,
)

CAP = MAX_POINTS_PER_PILLAR


def point_cells(points, grid):
    """(row, col) of each point's grid cell over the field, edges clamped into the grid."""
    h, w = grid
    rows = np.minimum(np.floor(points[:, 1].astype(np.float64) / (FIELD_SIZE / h)), h - 1).astype(np.int64)
    cols = np.minimum(np.floor(points[:, 0].astype(np.float64) / (FIELD_SIZE / w)), w - 1).astype(np.int64)
    return rows, cols


def reference_pillarize(scene, grid):
    """The per-pillar scan that pillarize replaced: one np.nonzero over the
    cells per pillar, first-come truncation, the centre as the float32 mean."""
    h, w = grid
    pts = scene.points
    rows = np.minimum((pts[:, 1] / (FIELD_SIZE / h)).astype(np.int64), h - 1)
    cols = np.minimum((pts[:, 0] / (FIELD_SIZE / w)).astype(np.int64), w - 1)
    flat = rows * w + cols
    pillar_ids = np.unique(flat)
    features = np.zeros((len(pillar_ids), CAP, POINT_FEATURES), np.float32)
    mask = np.zeros((len(pillar_ids), CAP), bool)
    coords = np.stack([pillar_ids // w, pillar_ids % w], axis=1)
    for p, pid in enumerate(pillar_ids):
        members = np.nonzero(flat == pid)[0][:CAP]
        chunk = pts[members]
        k = len(members)
        features[p, :k, 0:3] = chunk
        features[p, :k, 3:5] = chunk[:, :2] - chunk[:, :2].mean(axis=0)
        mask[p, :k] = True
    return features, mask, coords


def assert_same_arrays(got, want):
    """Equal arrays, bit for bit in dtype, shape and bytes, named by position."""
    for i, (a, b) in enumerate(zip(got, want, strict=True)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), i
        assert a.tobytes() == b.tobytes(), i


def assert_matches_the_scan(scene, grid, sample=None):
    """Features (both offset columns included), mask and coords equal the scan's,
    bit for bit and dtype; sample defaults to pillarize(scene, grid)."""
    sample = pillarize(scene, grid) if sample is None else sample
    assert_same_arrays((sample.features, sample.point_mask, sample.coords), reference_pillarize(scene, grid))
    return sample


@pytest.mark.parametrize("rate", [0.02, 0.5])
@pytest.mark.parametrize("grid", [(16, 16), (8, 8), (32, 32), (5, 7)])
def test_pillarize_equals_the_per_pillar_scan_bit_for_bit(grid, rate):
    sizes = []
    for scene in generate_dataset(DatasetConfig(size=24, outlier_rate=rate), seed=31):
        sizes += assert_matches_the_scan(scene, grid).point_mask.sum(axis=1).tolist()
    if grid in ((8, 8), (5, 7)):
        assert CAP in sizes  # some pillars are full
    assert max(sizes) <= CAP


@pytest.mark.parametrize("grid", [(16, 16), (4, 4), (8, 4)])
def test_pillars_partition_the_points_up_to_the_cap(grid):
    for scene in generate_dataset(DatasetConfig(size=6), seed=21):
        sample = pillarize(scene, grid)
        rows, cols = point_cells(scene.points, grid)
        coords = [tuple(c) for c in sample.coords.tolist()]
        assert coords == sorted(set(zip(rows.tolist(), cols.tolist())))  # unique, (row, col) order
        assert sample.features.shape == (len(coords), CAP, POINT_FEATURES)
        for p, (r, c) in enumerate(coords):
            members = np.nonzero((rows == r) & (cols == c))[0][:CAP]  # first come, scene order
            k = len(members)
            np.testing.assert_array_equal(sample.point_mask[p], np.arange(CAP) < k)
            np.testing.assert_array_equal(sample.features[p, :k, :3], scene.points[members])
            xy = scene.points[members, :2].astype(np.float64)
            np.testing.assert_allclose(sample.features[p, :k, 3:], xy - xy.mean(axis=0), rtol=0, atol=1e-5)
            assert not sample.features[p, k:].any()


def scene_of(points):
    return Scene(points=np.array(points, np.float32).reshape(-1, 3), boxes=np.zeros((0, 4), np.float32),
                 classes=np.zeros(0, np.int64), difficulty=np.zeros(0, dtype=object))


@pytest.mark.parametrize("n_crowded", [CAP, CAP + 3])
def test_a_full_pillar_keeps_its_first_points_in_scene_order(n_crowded):
    """n_crowded points in cell (0, 0) of a 4x4 grid, interleaved with points
    of cell (2, 2): the pillar holds the first CAP of them, centred on their mean."""
    rng = np.random.default_rng(n_crowded)
    crowded = np.column_stack([rng.uniform(0.0, 4.0, (n_crowded, 2)), rng.uniform(0, 1, n_crowded)])
    other = np.column_stack([rng.uniform(8.0, 12.0, (n_crowded, 2)), rng.uniform(0, 1, n_crowded)])
    points = np.stack([crowded, other], axis=1).reshape(-1, 3).astype(np.float32)
    sample = assert_matches_the_scan(scene_of(points), (4, 4))
    assert sample.coords.tolist() == [[0, 0], [2, 2]]
    assert sample.point_mask.all()
    kept = points[0::2][:CAP]
    np.testing.assert_array_equal(sample.features[0, :, :3], kept)
    np.testing.assert_allclose(sample.features[0, :, 3:], kept[:, :2] - kept[:, :2].mean(axis=0), atol=1e-6)


def crowded_scene():
    """CAP + 3 points in the first cell of any grid, in scene order."""
    return scene_of(np.column_stack([np.linspace(0.01, 0.5, CAP + 3), np.full(CAP + 3, 0.2), np.arange(CAP + 3) / 10]))


@pytest.mark.parametrize("rate", [0.02, 0.5])
@pytest.mark.parametrize("grid", [(16, 16), (8, 8), (5, 7), (1, 1)])
def test_pillarize_scenes_gives_each_scene_the_scan_of_that_scene_alone(grid, rate):
    """One batch with an empty scene and a crowded one mid-list: every sample is
    the scan of its scene, a single scene on the grid."""
    scenes = generate_dataset(DatasetConfig(size=16, outlier_rate=rate), seed=41)
    scenes[5:5] = [scene_of([]), crowded_scene()]
    samples = pillarize_scenes(scenes, grid)
    assert len(samples) == len(scenes)
    for scene, sample in zip(scenes, samples):
        assert_matches_the_scan(scene, grid, sample)
        assert (sample.grid, sample.num_scenes) == (grid, 1)
        assert_same_arrays([sample.scene_ids], [np.zeros(len(sample.features), np.int64)])
    assert len(samples[5].features) == 0 and samples[6].point_mask[0].all()


def test_pillarize_scenes_samples_do_not_share_memory():
    scenes = generate_dataset(DatasetConfig(size=3), seed=2)
    samples = pillarize_scenes(scenes, (16, 16))
    before = [s.features.copy() for s in samples]
    samples[1].features[:] = -1.0
    assert_same_arrays([samples[0].features, samples[2].features], [before[0], before[2]])


def test_pillarize_scenes_reads_every_scene_as_float32():
    """A float64 scene among float32 ones gets the pillars of its float32 copy."""
    scenes = generate_dataset(DatasetConfig(size=4), seed=6)
    wide = np.clip(scenes[2].points.astype(np.float64) + 1e-9, 0.0, FIELD_SIZE)  # not float32 values
    narrow = scene_of(wide.astype(np.float32))
    scenes[2] = Scene(points=wide, boxes=narrow.boxes, classes=narrow.classes, difficulty=narrow.difficulty)
    samples = pillarize_scenes(scenes, (8, 8))
    for scene, sample in zip([*scenes[:2], narrow, scenes[3]], samples, strict=True):
        assert_matches_the_scan(scene, (8, 8), sample)


def test_pillarize_scenes_of_no_scenes_is_empty():
    assert pillarize_scenes([], (16, 16)) == []


def test_empty_scene_gives_no_pillars():
    sample = assert_matches_the_scan(scene_of([]), (16, 16))
    assert (sample.features.shape, sample.features.dtype) == ((0, CAP, POINT_FEATURES), np.float32)
    assert (sample.point_mask.shape, sample.point_mask.dtype) == ((0, CAP), bool)
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
    assert pillarize(scene_of([edge]), (4, 16)).coords.tolist() == [[3, 15]]
    with pytest.raises(ValueError, match=re.escape(f"point 1 {np.float32(bad).tolist()} ")):
        pillarize(scene_of([edge, bad]), (4, 16))


@pytest.mark.parametrize("at", [0, 2])
@pytest.mark.parametrize("bad", [[np.nan, 1.0, 0.1], [1.0, 1.0, -np.inf], [-5.0, 1.0, 0.1]])
def test_pillarize_scenes_names_the_scene_and_the_point_of_the_first_bad_point(bad, at):
    good = [1.0, 2.0, 0.5]
    points = [good, good, good]
    points.insert(at, bad)
    scenes = [scene_of([good]), scene_of([]), scene_of(points), scene_of([bad])]
    want = f"scene 2: point {at} {np.float32(bad).tolist()} is not finite or lies outside the field [0, {FIELD_SIZE}]"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        pillarize_scenes(scenes, (4, 4))


@pytest.mark.parametrize("grid, match", [
    ((2.5, 4), r"grid must be two integers >= 1, got \(2\.5, 4\)"),
    ((True, 4), r"grid must be two integers >= 1, got \(True, 4\)"),
    ((4,), r"grid must be two integers >= 1, got \(4,\)"),
])
def test_pillarize_rejects_a_grid_that_is_not_positive_integers(grid, match):
    with pytest.raises(ValueError, match=match):
        pillarize(scene_of([[1.0, 1.0, 0.1]]), grid)


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
