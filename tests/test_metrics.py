"""AP40: the one-pass-per-class ap40 against a per-slice reference; EvalResult's means."""

from types import SimpleNamespace

import numpy as np
import pytest

from pillarmix.metrics import DIFFICULTIES, RECALL_POSITIONS, Detection, EvalResult, _match_scene, ap40


def reference_ap40(detections_per_scene, gt_per_scene, class_id, difficulty):
    """One (class, difficulty) slice: match, drop the detections that hit boxes
    of other difficulties, sort by score, interpolate at 40 recall points."""
    flags = []
    n_gt = 0
    for dets, gt in zip(detections_per_scene, gt_per_scene):
        gt_boxes = np.asarray(gt.boxes, dtype=np.float64).reshape(-1, 4)
        gt_classes = np.asarray(gt.classes, dtype=np.int64)
        gt_diff = np.asarray(gt.difficulty)
        n_gt += int(np.sum((gt_classes == class_id) & (gt_diff == difficulty)))
        class_dets = [d for d in dets if d.class_id == class_id]
        matched = _match_scene(class_dets, gt_boxes, gt_classes == class_id)
        for d, gi in zip(class_dets, matched):
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


def random_scenes(rng, n_scenes, n_classes=3):
    """GT scenes plus noisy detections: jittered hits, misses, false positives,
    duplicates, and scores drawn from a coarse grid so that ties occur."""
    gts, dets = [], []
    for _ in range(n_scenes):
        m = int(rng.integers(0, 5))
        boxes = np.column_stack([rng.uniform(2, 14, size=(m, 2)), rng.uniform(1, 4, size=(m, 2))])
        classes = rng.integers(0, n_classes, size=m)
        diffs = rng.choice(DIFFICULTIES, size=m).astype(object)
        gts.append(SimpleNamespace(boxes=boxes, classes=classes, difficulty=diffs))
        scene_dets = []
        for box, cls in zip(boxes, classes):
            for _ in range(int(rng.integers(0, 3))):  # 0 = missed, 2 = a duplicate
                jitter = box + rng.normal(scale=0.3, size=4) * [1, 1, 0.2, 0.2]
                jitter[2:] = np.maximum(jitter[2:], 0.2)
                scene_dets.append(Detection(box=jitter, class_id=int(cls), score=float(rng.integers(1, 8)) / 8))
        for _ in range(int(rng.integers(0, 4))):
            box = [*rng.uniform(1, 15, size=2), *rng.uniform(1, 4, size=2)]
            scene_dets.append(Detection(box=np.array(box), class_id=int(rng.integers(0, n_classes)),
                                        score=float(rng.integers(1, 8)) / 8))
        dets.append(scene_dets)
    return dets, gts


class TestAp40:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_slice_reference(self, seed):
        rng = np.random.default_rng(seed)
        dets, gts = random_scenes(rng, n_scenes=int(rng.integers(1, 25)))
        for cls in range(3):
            got = ap40(dets, gts, cls)
            assert list(got) == list(DIFFICULTIES)
            for diff in DIFFICULTIES:
                assert got[diff] == reference_ap40(dets, gts, cls, diff), (cls, diff)

    def test_perfect_detector_scores_one(self):
        dets, gts = random_scenes(np.random.default_rng(10), n_scenes=20)
        perfect = [
            [Detection(box=b, class_id=int(c), score=0.9) for b, c in zip(gt.boxes, gt.classes)]
            for gt in gts
        ]
        for cls in range(3):
            for diff, value in ap40(perfect, gts, cls).items():
                has_gt = any(np.any((gt.classes == cls) & (gt.difficulty == diff)) for gt in gts)
                assert value == (1.0 if has_gt else None)

    def test_slice_without_ground_truth_is_none(self):
        gts = [SimpleNamespace(boxes=np.array([[5.0, 5.0, 2.0, 2.0]]), classes=np.array([1]),
                               difficulty=np.array(["easy"], dtype=object))]
        dets = [[Detection(box=np.array([5.0, 5.0, 2.0, 2.0]), class_id=0, score=0.5)]]
        assert ap40(dets, gts, 0) == {"easy": None, "moderate": None, "hard": None}
        assert ap40(dets, gts, 1) == {"easy": 0.0, "moderate": None, "hard": None}

    @pytest.mark.parametrize("width, want", [(4.0, 1.0), (4.1, 0.0)])
    def test_a_hit_needs_iou_of_one_half(self, width, want):
        """A box twice as wide as the ground truth and centred on it has IoU 0.5, a wider one less."""
        gts = [SimpleNamespace(boxes=np.array([[5.0, 5.0, 2.0, 2.0]]), classes=np.array([0]),
                               difficulty=np.array(["easy"], dtype=object))]
        dets = [[Detection(box=np.array([5.0, 5.0, width, 2.0]), class_id=0, score=0.5)]]
        assert ap40(dets, gts, 0)["easy"] == want

    def test_rejects_mismatched_scene_counts(self):
        dets, gts = random_scenes(np.random.default_rng(11), n_scenes=6)
        with pytest.raises(ValueError, match="4 scenes of detections for 6"):
            ap40(dets[:4], gts, 0)
        with pytest.raises(ValueError, match="6 scenes of detections for 4"):
            ap40(dets, gts[:4], 0)


class TestDetection:
    @pytest.mark.parametrize("box", [[np.nan, 1.0, 1.0, 1.0], [1.0, np.inf, 1.0, 1.0], [1.0, 1.0, np.inf, 1.0],
                                     [1.0, 1.0, 1.0, np.nan], [1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    def test_rejects_non_finite_or_degenerate_box(self, box):
        with pytest.raises(ValueError, match="detection box"):
            Detection(box=box, class_id=0, score=0.5)


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
