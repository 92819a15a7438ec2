"""AP40: the one-pass ap40 against a per-scene, per-slice reference; its input checks; IoU;
EvalResult's means."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from pillar_helpers import scene_detections
from pillarmix.metrics import DIFFICULTIES, MATCH_IOU, RECALL_POSITIONS, EvalResult, ap40, iou_matrix

N_CLASSES = 3


def reference_iou(a, b):
    """IoU of two (cx, cy, w, h) boxes in Python floats, the formula of iou_matrix."""
    ax, ay, aw, ah = (float(v) for v in a)
    bx, by, bw, bh = (float(v) for v in b)
    iw = max(0.0, min(ax + aw / 2, bx + bw / 2) - max(ax - aw / 2, bx - bw / 2))
    ih = max(0.0, min(ay + ah / 2, by + bh / 2) - max(ay - ah / 2, by - bh / 2))
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def reference_ap40(detections_per_scene, gt_per_scene, class_id, difficulty):
    """One (class, difficulty) slice: match each scene on its own, drop the
    detections that hit boxes of other difficulties, sort by score,
    interpolate at 40 recall points.

    The matching visits a scene's detections of the class by descending score
    (ties in row order), reading each row by attribute; each claims the
    unmatched box of the class with the highest IoU >= MATCH_IOU, the first
    of equal ones.
    """
    flags = []
    n_gt = 0
    for dets, gt in zip(detections_per_scene, gt_per_scene):
        gt_boxes = np.asarray(gt.boxes, dtype=np.float64).reshape(-1, 4)
        gt_classes = np.asarray(gt.classes, dtype=np.int64)
        gt_diff = np.asarray(gt.difficulty)
        n_gt += int(np.sum((gt_classes == class_id) & (gt_diff == difficulty)))
        class_dets = [d for d in dets if d.class_id == class_id]
        taken = set()
        for i in sorted(range(len(class_dets)), key=lambda i: (-class_dets[i].score, i)):
            best, best_iou = -1, -1.0
            for j, box in enumerate(gt_boxes):
                if gt_classes[j] == class_id and j not in taken:
                    iou = reference_iou(class_dets[i].box, box)
                    if iou > best_iou:
                        best, best_iou = j, iou
            gi = best if best_iou >= MATCH_IOU else -1
            if gi >= 0:
                taken.add(gi)
            class_dets[i] = (class_dets[i], gi)
        for d, gi in class_dets:
            if gi >= 0 and gt_diff[gi] != difficulty:
                continue
            flags.append((d.score, gi >= 0))
    if n_gt == 0:
        return None
    if not flags:
        return 0.0
    flags.sort(key=lambda t: -t[0])
    scores = np.array([f[0] for f in flags])
    tps = np.cumsum([1 if f[1] else 0 for f in flags])
    fps = np.cumsum([0 if f[1] else 1 for f in flags])
    boundary = np.nonzero(np.diff(scores) != 0)[0]
    ends = np.concatenate([boundary, [len(flags) - 1]])
    recall = tps[ends] / n_gt
    precision = tps[ends] / (tps[ends] + fps[ends])
    ap = 0.0
    for r in RECALL_POSITIONS:
        reachable = precision[recall >= r]
        ap += float(reachable.max()) if reachable.size else 0.0
    return ap / len(RECALL_POSITIONS)


def reference_table(detections_per_scene, gt_per_scene, n_classes=N_CLASSES):
    """reference_ap40 of every (class, difficulty), keyed and ordered as ap40 returns them."""
    return {(c, diff): reference_ap40(detections_per_scene, gt_per_scene, c, diff)
            for c in range(n_classes) for diff in DIFFICULTIES}


def random_scenes(rng, n_scenes, n_classes=N_CLASSES):
    """GT scenes plus noisy detections: jittered hits, misses, false positives,
    duplicates, and scores drawn from a coarse grid so that ties occur."""
    gts, dets = [], []
    for _ in range(n_scenes):
        m = int(rng.integers(0, 5))
        boxes = np.column_stack([rng.uniform(2, 14, size=(m, 2)), rng.uniform(1, 4, size=(m, 2))])
        classes = rng.integers(0, n_classes, size=m)
        diffs = rng.choice(DIFFICULTIES, size=m).astype(object)
        gts.append(SimpleNamespace(boxes=boxes, classes=classes, difficulty=diffs))
        rows = []
        for box, cls in zip(boxes, classes):
            for _ in range(int(rng.integers(0, 3))):  # 0 = missed, 2 = a duplicate
                jitter = box + rng.normal(scale=0.3, size=4) * [1, 1, 0.2, 0.2]
                jitter[2:] = np.maximum(jitter[2:], 0.2)
                rows.append((jitter, cls, rng.integers(1, 8) / 8))
        for _ in range(int(rng.integers(0, 4))):
            box = [*rng.uniform(1, 15, size=2), *rng.uniform(1, 4, size=2)]
            rows.append((box, rng.integers(0, n_classes), rng.integers(1, 8) / 8))
        dets.append(scene_detections(rows))
    return dets, gts


class TestAp40:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_slice_reference(self, seed):
        rng = np.random.default_rng(seed)
        dets, gts = random_scenes(rng, n_scenes=int(rng.integers(1, 25)))
        got = ap40(dets, gts, N_CLASSES)
        want = reference_table(dets, gts)
        assert list(got) == list(want)
        for key in want:
            assert got[key] == want[key], key

    @pytest.mark.parametrize("seed", range(4))
    def test_classes_are_matched_apart_in_one_pass(self, seed):
        """Class 2 has detections but no ground truth: a decoy on every box of
        the other classes, first in its scene and, in every other scene, at
        the score that all the scene's classes share. Class 1 has ground truth
        but no detections, and some scenes have no detections at all."""
        dets, gts = random_scenes(np.random.default_rng(50 + seed), n_scenes=16)
        for k, (scene, gt) in enumerate(zip(dets, gts)):
            keep = gt.classes != 2
            gts[k] = SimpleNamespace(boxes=gt.boxes[keep], classes=gt.classes[keep], difficulty=gt.difficulty[keep])
            rows = [(box, 2, 1.0) for box in gts[k].boxes] + [(d.box, 0, d.score) for d in scene if d.class_id == 0]
            dets[k] = scene_detections([] if k % 5 == 3 else rows)
            if k % 2:
                dets[k].score = 0.5
        got = ap40(dets, gts, N_CLASSES)
        assert got == reference_table(dets, gts)
        assert {got[(2, diff)] for diff in DIFFICULTIES} == {None}
        assert {got[(1, diff)] for diff in DIFFICULTIES} <= {0.0, None}
        assert any(got[(0, diff)] for diff in DIFFICULTIES)

    def test_perfect_detector_scores_one(self):
        _, gts = random_scenes(np.random.default_rng(10), n_scenes=20)
        perfect = [scene_detections((b, c, 0.9) for b, c in zip(gt.boxes, gt.classes)) for gt in gts]
        for (cls, diff), value in ap40(perfect, gts, N_CLASSES).items():
            has_gt = any(np.any((gt.classes == cls) & (gt.difficulty == diff)) for gt in gts)
            assert value == (1.0 if has_gt else None)

    def test_slice_without_ground_truth_is_none(self):
        gts = [SimpleNamespace(boxes=np.array([[5.0, 5.0, 2.0, 2.0]]), classes=np.array([1]),
                               difficulty=np.array(["easy"], dtype=object))]
        dets = [scene_detections([([5.0, 5.0, 2.0, 2.0], 0, 0.5)])]
        assert ap40(dets, gts, 2) == {(0, "easy"): None, (0, "moderate"): None, (0, "hard"): None,
                                      (1, "easy"): 0.0, (1, "moderate"): None, (1, "hard"): None}

    @pytest.mark.parametrize("width, want", [(4.0, 1.0), (4.1, 0.0)])
    def test_a_hit_needs_iou_of_one_half(self, width, want):
        """A box twice as wide as the ground truth and centred on it has IoU 0.5, a wider one less."""
        gts = [SimpleNamespace(boxes=np.array([[5.0, 5.0, 2.0, 2.0]]), classes=np.array([0]),
                               difficulty=np.array(["easy"], dtype=object))]
        dets = [scene_detections([([5.0, 5.0, width, 2.0], 0, 0.5)])]
        assert ap40(dets, gts, 1)[(0, "easy")] == want

    def test_rejects_mismatched_scene_counts(self):
        dets, gts = random_scenes(np.random.default_rng(11), n_scenes=6)
        with pytest.raises(ValueError, match="4 scenes of detections for 6"):
            ap40(dets[:4], gts, N_CLASSES)
        with pytest.raises(ValueError, match="6 scenes of detections for 4"):
            ap40(dets, gts[:4], N_CLASSES)

    @pytest.mark.parametrize("seed", range(4))
    def test_scenes_without_ground_truth_count_their_detections_as_false_positives(self, seed):
        """Interleaved scenes with detections but no ground truth at all."""
        dets, gts = random_scenes(np.random.default_rng(20 + seed), n_scenes=12)
        empty = SimpleNamespace(boxes=np.zeros((0, 4)), classes=np.zeros(0, np.int64),
                                difficulty=np.zeros(0, dtype=object))
        extra = random_scenes(np.random.default_rng(40 + seed), n_scenes=6)[0]
        dets = [d for pair in zip(dets[:6], extra) for d in pair] + dets[6:]
        gts = [g for pair in zip(gts[:6], [empty] * 6) for g in pair] + gts[6:]
        assert ap40(dets, gts, N_CLASSES) == reference_table(dets, gts)
        assert ap40(extra, [empty] * 6, N_CLASSES) == dict.fromkeys(reference_table([], []))

    def test_scenes_without_detections_miss_their_ground_truth(self):
        dets, gts = random_scenes(np.random.default_rng(30), n_scenes=10)
        dets[3:7] = [scene_detections() for _ in range(4)]
        assert ap40(dets, gts, N_CLASSES) == reference_table(dets, gts)
        none = ap40([scene_detections() for _ in gts], gts, N_CLASSES)
        assert none == reference_table([scene_detections()] * len(gts), gts)
        assert set(none.values()) <= {0.0, None}
        assert ap40([], [], N_CLASSES) == dict.fromkeys(reference_table([], []))


class TestAp40Inputs:
    """Outside input is checked once, for every scene: a bad row raises
    ValueError naming its scene."""

    def scenes(self):
        gts = [SimpleNamespace(boxes=np.array([[5.0, 5.0, 2.0, 2.0]] * k), classes=np.arange(k),
                               difficulty=np.array(["easy"] * k, dtype=object)) for k in (2, 3)]
        dets = [scene_detections(((5.0, 5.0, 2.0, 2.0), c, 0.5) for c in range(k)) for k in (2, 3)]
        assert ap40(dets, gts, N_CLASSES)[(0, "easy")] == 1.0
        return dets, gts

    @pytest.mark.parametrize("box", [[np.nan, 1.0, 1.0, 1.0], [1.0, np.inf, 1.0, 1.0], [1.0, 1.0, np.inf, 1.0],
                                     [1.0, 1.0, 1.0, np.nan], [1.0, 1.0, -np.inf, 1.0], [1.0, 1.0, 0.0, 1.0],
                                     [1.0, 1.0, 1.0, -2.0]])
    def test_rejects_a_non_finite_or_degenerate_box(self, box):
        dets, gts = self.scenes()
        dets[1].box[2] = box
        with pytest.raises(ValueError, match=r"detection box must be finite \(cx, cy, w, h\) with positive "
                                             r"extents, got .* in scene 1$"):
            ap40(dets, gts, N_CLASSES)

    @pytest.mark.parametrize("box", [[5.0, 5.0, np.nan, 2.0], [5.0, 5.0, 0.0, 2.0], [np.inf, 5.0, 2.0, 2.0],
                                     [5.0, 5.0, 2.0, -1.0]])
    def test_rejects_a_non_finite_or_degenerate_ground_truth_box(self, box):
        """Beside perfectly detected boxes, a [5, 5, nan, 2] box would count as
        one missed object instead of failing."""
        dets, gts = self.scenes()
        gts[1].boxes[2] = box
        with pytest.raises(ValueError, match=r"^ground-truth box must be finite \(cx, cy, w, h\) with positive "
                                             r"extents, got .* in scene 1$"):
            ap40(dets, gts, N_CLASSES)

    @pytest.mark.parametrize("score", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_score(self, score):
        dets, gts = self.scenes()
        dets[1].score[0] = score
        with pytest.raises(ValueError, match=rf"detection score must be finite, got {score} in scene 1$"):
            ap40(dets, gts, N_CLASSES)

    @pytest.mark.parametrize("who", ["detection", "ground-truth"])
    @pytest.mark.parametrize("class_id", [-1, N_CLASSES])
    def test_rejects_a_class_id_outside_the_classes(self, who, class_id):
        """An id of -1 or n_classes would land in the previous or the next scene's group."""
        dets, gts = self.scenes()
        (dets[1].class_id if who == "detection" else gts[1].classes)[1] = class_id
        with pytest.raises(ValueError, match=rf"^{who} class id must lie in \[0, 3\), got {class_id} in scene 1$"):
            ap40(dets, gts, N_CLASSES)

    @pytest.mark.parametrize("label", ["medum", ""])
    def test_rejects_a_difficulty_label_outside_the_difficulties(self, label):
        """Beside perfectly detected boxes, a "medum" box and its hit would
        vanish from every slice; "" is the mark of a detection that matched
        nothing."""
        dets, gts = self.scenes()
        gts[1].difficulty[2] = label
        want = f"ground-truth difficulty must be one of ('easy', 'moderate', 'hard'), got {label!r} in scene 1"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            ap40(dets, gts, N_CLASSES)


def random_boxes(rng, shape):
    return np.concatenate([rng.uniform(0, 8, size=(*shape, 2)), rng.uniform(0.5, 4, size=(*shape, 2))], axis=-1)


class TestIouMatrix:
    def test_equals_the_scalar_formula(self):
        rng = np.random.default_rng(0)
        a, b = random_boxes(rng, (7,)), random_boxes(rng, (5,))
        b[0] = a[0]
        b[1] = [20.0, 20.0, 1.0, 1.0]  # disjoint from every box of a
        got = iou_matrix(a, b)
        assert got.shape == (7, 5) and got[0, 0] > 0.999 and not got[:, 1].any()
        assert got.tolist() == [[reference_iou(x, y) for y in b] for x in a]

    @pytest.mark.parametrize("shape_a, shape_b", [((4, 6), (4, 3)), ((2, 3, 5), (1, 3, 2)), ((3, 0), (3, 4))],
                             ids=["one_lead_dim", "broadcast", "empty"])
    def test_batched_equals_each_slice(self, shape_a, shape_b):
        """Leading dims broadcast, and each slice is the 2-D call on it, bit for bit."""
        rng = np.random.default_rng(1)
        a, b = random_boxes(rng, shape_a), random_boxes(rng, shape_b)
        got = iou_matrix(a, b)
        lead = np.broadcast_shapes(shape_a[:-1], shape_b[:-1])
        assert got.shape == (*lead, shape_a[-1], shape_b[-1])
        for idx in np.ndindex(*lead):
            ia = tuple(i if n > 1 else 0 for i, n in zip(idx, shape_a[:-1]))
            ib = tuple(i if n > 1 else 0 for i, n in zip(idx, shape_b[:-1]))
            np.testing.assert_array_equal(got[idx], iou_matrix(a[ia], b[ib]))


class TestEvalResult:
    def test_means_skip_classes_without_ground_truth(self):
        """None marks a slice without ground truth; 0.0 is a class that was missed and counts."""
        ap = {("large", "easy"): 0.5, ("medium", "easy"): None, ("small", "easy"): 1.0,
              ("large", "moderate"): 0.25, ("medium", "moderate"): 0.0, ("small", "moderate"): None,
              ("large", "hard"): None, ("medium", "hard"): None, ("small", "hard"): None}
        result = EvalResult(ap=ap)
        assert (result.map_at("easy"), result.map_at("moderate"), result.map_at("hard")) == (0.75, 0.125, None)
        assert result.map == 0.125
        no_moderate = EvalResult(ap={**ap, ("large", "moderate"): None, ("medium", "moderate"): None})
        assert no_moderate.map_at("moderate") is None
        assert no_moderate.map == 0.0
