"""Detector: batched forward, decode and evaluate against per-scene runs of a greedy
reference decode and the per-slice reference AP, the config checks, and the model file,
which hands back the graph and its config."""

import dataclasses
import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarmix import detector
from pillarmix.calibration import run_calibration
from pillarmix.detector import (
    DetectorConfig,
    ModelFormatError,
    build_toy_detector,
    decode_and_nms,
    detect,
    encode_targets,
    evaluate,
    load_model,
    make_evaluator,
    pillarize_dataset,
    save_model,
)
from pillarmix.metrics import DETECTION, DIFFICULTIES, ap40, iou_matrix
from pillarmix.model import (
    EVAL_CHUNK,
    ModelGraph,
    PrecisionPlan,
    apply_plan,
    eval_chunks,
    forward,
    graphs_equal,
    parse_plan_label,
    weights_digest,
)
from pillarmix.quant import DType
from pillarmix.scenes import CLASS_NAMES, FIELD_SIZE, DatasetConfig, Scene, generate_dataset
from pillarmix.tensor_ops import linear, max_over_points, real_points, relu, sigmoid, stack_samples
from pillar_helpers import TINY, joined_detections, scene_detections
from test_metrics import reference_table

PLAN_LABELS = ("FP32", "FP16", "INT8", "FP16: 1")


def reference_decode_and_nms(cls_map, reg_map, score_thresh, iou_thresh):
    """Per-candidate decoding (a zero size offset is a side of 2.5) and greedy
    NMS with one 1x1 IoU per pair."""
    n_classes, oh, ow = cls_map.shape
    cell_h = FIELD_SIZE / oh
    cell_w = FIELD_SIZE / ow
    scores = sigmoid(cls_map.astype(np.float64))
    rows = []
    for cls in range(n_classes):
        padded = np.pad(scores[cls], 1, constant_values=-np.inf)
        neighborhood = np.max(
            [padded[1 + di : oh + 1 + di, 1 + dj : ow + 1 + dj] for di in (-1, 0, 1) for dj in (-1, 0, 1)],
            axis=0,
        )
        cand = []
        for i, j in np.argwhere(scores[cls] >= neighborhood):
            s = float(scores[cls, i, j])
            if s < score_thresh:
                continue
            dx, dy, dw, dh = (float(v) for v in reg_map[:, i, j])
            box = np.array([
                (j + 0.5 + dx) * cell_w,
                (i + 0.5 + dy) * cell_h,
                2.5 * math.exp(min(4.0, max(-4.0, dw))),
                2.5 * math.exp(min(4.0, max(-4.0, dh))),
            ])
            cand.append((box, cls, s))
        cand.sort(key=lambda row: -row[2])
        kept = []
        for row in cand:
            if any(iou_matrix(row[0][None, :], k[0][None, :])[0, 0] >= iou_thresh for k in kept):
                continue
            kept.append(row)
        rows.extend(kept)
    return scene_detections(rows)


def assert_same_detections(got, want):
    """got is a DETECTION record array whose rows read by attribute, and holds
    want's boxes, classes and scores, row by row."""
    assert isinstance(got, np.recarray) and got.dtype == DETECTION
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.class_id, g.score) == (w.class_id, w.score)
        np.testing.assert_array_equal(g.box, w.box)


class TestDecodeAndNms:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_greedy_reference(self, seed):
        rng = np.random.default_rng(seed)
        oh, ow = [(8, 8), (4, 6), (16, 16), (1, 1)][seed % 4]
        base = DetectorConfig()
        # logits on a coarse grid give tied scores, both between neighbouring
        # peaks and across the sort
        cls_map = (rng.integers(-12, 4, size=(3, oh, ow)) / 4.0).astype(np.float32)
        reg_map = rng.normal(scale=0.6, size=(4, oh, ow)).astype(np.float32)
        reg_map[2:, 0, 0] = [9.0, -9.0]  # box sizes clipped at exp(+-4)
        for score_thresh, iou_thresh in ((0.1, 0.5), (0.0, 0.0), (0.3, 1.0), (0.05, 0.2)):
            cfg = dataclasses.replace(base, score_thresh=score_thresh, nms_iou=iou_thresh)
            want = reference_decode_and_nms(cls_map, reg_map, score_thresh, iou_thresh)
            got = decode_and_nms(cls_map[None], reg_map[None], cfg)
            assert_same_detections(got, want)
            assert got.scene_id.tolist() == [0] * len(got)

    def test_rejects_a_batch_of_several_scenes(self):
        cls_map = np.zeros((3, 3, 8, 8), np.float32)
        reg_map = np.zeros((3, 4, 8, 8), np.float32)
        with pytest.raises(ValueError, match=r"one scene's \[1, C, H', W'\] maps; got \(3, 3, 8, 8\) and \(3, 4, "):
            decode_and_nms(cls_map, reg_map, DetectorConfig())

    def test_rejects_maps_without_the_batch_axis(self):
        """forward returns a scene's heads as a batch of one; 3-D maps are not that."""
        cls_map = np.zeros((3, 8, 8), np.float32)
        reg_map = np.zeros((4, 8, 8), np.float32)
        with pytest.raises(ValueError, match=r"one scene's \[1, C, H', W'\] maps; got \(3, 8, 8\) and \(4, 8, 8\)"):
            decode_and_nms(cls_map, reg_map, DetectorConfig())

    @pytest.mark.parametrize("reg_grid", [(16, 16), (4, 4)])
    def test_rejects_a_box_map_on_another_grid(self, reg_grid):
        """A box map must cover the class map's cells, or boxes decode from the wrong cell."""
        cls_map = np.full((3, 8, 8), 4.0, np.float32)
        reg_map = np.zeros((4, *reg_grid), np.float32)
        shapes = f"(3, 8, 8) and (4, {reg_grid[0]}, {reg_grid[1]})"
        with pytest.raises(ValueError, match=re.escape(f"on one grid; got maps of shape {shapes}")):
            decode_and_nms(cls_map[None], reg_map[None], DetectorConfig())

    @pytest.mark.parametrize("head, cell, value", [
        ("class", (1, 4, 4), np.nan), ("box", (0, 4, 4), np.nan), ("box", (3, 4, 5), np.nan),
        ("box", (0, 4, 4), np.inf), ("box", (2, 4, 5), -np.inf), ("box", (3, 7, 7), np.inf),
    ])
    def test_rejects_a_nan_in_either_map_or_an_inf_in_the_box_map(self, head, cell, value):
        """A NaN logit would drop its own peak and its neighbours', an infinite
        centre offset would decode to a box at infinity and a NaN or infinite
        size offset to a clipped size; all fail instead."""
        cls_map = np.full((3, 8, 8), -4.0, np.float32)
        cls_map[1, 4, 4:6] = 4.0  # two tied neighbouring peaks
        cls_map[0, 0, 0] = np.inf  # an infinite logit is a score of 1
        reg_map = np.zeros((4, 8, 8), np.float32)
        assert len(decode_and_nms(cls_map[None], reg_map[None], DetectorConfig())) == 3
        (cls_map if head == "class" else reg_map)[cell] = value
        what = "a NaN in the class" if head == "class" else "a NaN or inf in the box"
        with pytest.raises(ValueError, match=f"^decode_and_nms got {what} map of scene 0$"):
            decode_and_nms(cls_map[None], reg_map[None], DetectorConfig())

    @pytest.mark.parametrize("block_strides", [(2, 2, 1), (2, 1, 1)])
    def test_perfect_maps_score_one_in_every_slice(self, block_strides):
        """encode_targets as +-8 logits through decode_and_nms and ap40: target
        encoding, decoding, NMS and the metric lose no box."""
        cfg = DetectorConfig(block_strides=block_strides)
        scenes = generate_dataset(DatasetConfig(size=64), seed=11)
        dets = []
        for scene in scenes:
            cls_t, reg_t, _, _ = encode_targets(scene, cfg)
            dets.append(decode_and_nms(np.where(cls_t > 0, 8.0, -8.0).astype(np.float32)[None], reg_t[None], cfg))
        assert {v for v in ap40(joined_detections(dets), scenes, len(CLASS_NAMES)).values() if v is not None} == {1.0}

    @pytest.mark.parametrize("score_thresh, nms_iou", [(0.0, 0.0), (0.3, 1.0), (0.1, 0.5)])
    def test_a_batch_decodes_as_its_scenes_do_one_by_one(self, score_thresh, nms_iou):
        """All scenes and classes of a chunk at once, against the greedy reference
        per scene: scene b's rows, scene after scene, with scene_id first + b."""
        rng = np.random.default_rng(5)
        cfg = dataclasses.replace(DetectorConfig(), score_thresh=score_thresh, nms_iou=nms_iou)
        cls_maps = (rng.integers(-12, 4, size=(7, 3, 8, 8)) / 4.0).astype(np.float32)
        reg_maps = rng.normal(scale=0.6, size=(7, 4, 8, 8)).astype(np.float32)
        # a scene without pillars: the heads emit their biases, so every cell is a tied peak
        cls_maps[1], reg_maps[1] = -2.0, 0.0
        cls_maps[2] = -6.0  # no score reaches 0.1
        cls_maps[3], reg_maps[3] = cls_maps[0], reg_maps[0]  # tied scores across scenes
        cls_maps[4, 2] = cls_maps[4, 0]  # and across classes
        reg_maps[5, 2:, 0, 0] = [9.0, -9.0]  # box sizes clipped at exp(+-4)
        cls_maps[6, 1] = -np.inf  # scores of exactly 0, peaks at a threshold of 0
        first = 5
        chunk = detector._decode_batch(cls_maps, reg_maps, cfg, first=first)
        want = [reference_decode_and_nms(cls_maps[k], reg_maps[k], score_thresh, nms_iou) for k in range(len(cls_maps))]
        assert chunk.scene_id.tolist() == [first + k for k, dets in enumerate(want) for _ in dets]
        got = [chunk[chunk.scene_id == first + k] for k in range(len(cls_maps))]
        for dets, ref in zip(got, want):
            assert_same_detections(dets, ref)
        assert (len(got[1]) > 0, len(got[2]) > 0) == (score_thresh <= 0.1, score_thresh == 0.0)  # sigmoid(-2) = 0.12
        assert_same_detections(got[3], got[0])

    @pytest.mark.parametrize("spacing, tied", [(2, False), (1, True)], ids=["descending", "tied"])
    def test_a_suppression_chain_keeps_every_other_box(self, spacing, tied):
        """13 peaks of one class in a row, each box overlapping only its two
        neighbours (IoU 0.9 / 2.9 against nms_iou 0.3): greedy keeps ranks 0, 2,
        ..., 12, and rank r is settled only once rank r - 1 is. With tied scores
        every cell of the row is a peak, ranked in cell order."""
        n_links, ow = 13, 32
        cfg = dataclasses.replace(DetectorConfig(), nms_iou=0.3)
        cls_map = np.full((3, 1, ow), -8.0, np.float32)
        reg_map = np.zeros((4, 1, ow), np.float32)
        cols = np.arange(n_links) * spacing
        cls_map[0, 0, cols] = 3.0 if tied else 3.0 - 0.1 * np.arange(n_links)
        reg_map[2, 0, cols] = math.log(1.9 * spacing * FIELD_SIZE / ow / detector.BASE_SIZE)  # side 1.9 centre gaps
        got = decode_and_nms(cls_map[None], reg_map[None], cfg)
        assert_same_detections(got, reference_decode_and_nms(cls_map, reg_map, cfg.score_thresh, cfg.nms_iou))
        np.testing.assert_array_equal(got.box[:, 0], (cols[::2] + 0.5) * FIELD_SIZE / ow)

    def test_box_sides_are_libm_exp_of_the_clipped_size_offsets(self):
        """Each side is BASE_SIZE * math.exp of its offset clipped to [-4, 4], bit
        for bit, for offsets inside, on and beyond the clip; a chunk without a
        peak decodes to an empty record array."""
        rng = np.random.default_rng(6)
        cfg = dataclasses.replace(DetectorConfig(), score_thresh=0.0, nms_iou=1.0)
        cls_maps = np.zeros((2, 3, 8, 8), np.float32)  # every cell a tied peak of every class
        reg_maps = np.zeros((2, 4, 8, 8), np.float32)  # centre offsets 0: a box's centre names its cell
        reg_maps[:, 2:] = rng.uniform(-6.0, 6.0, size=(2, 2, 8, 8))
        reg_maps[:, 2:, 0, :4] = [4.0, -4.0, np.nextafter(np.float32(4.0), np.float32(0)), -0.0]
        chunk = detector._decode_batch(cls_maps, reg_maps, cfg, first=3)
        assert chunk.scene_id.tolist() == [3] * 3 * 64 + [4] * 3 * 64
        for scene in range(2):
            dets = chunk[chunk.scene_id == 3 + scene]
            rows = np.rint(dets.box[:, 1] * 8 / FIELD_SIZE - 0.5).astype(int)
            cols = np.rint(dets.box[:, 0] * 8 / FIELD_SIZE - 0.5).astype(int)
            for side, channel in ((2, 2), (3, 3)):
                offsets = reg_maps[scene, channel, rows, cols].tolist()
                want = [detector.BASE_SIZE * math.exp(min(4.0, max(-4.0, v))) for v in offsets]
                assert dets.box[:, side].tolist() == want
        empty = detector._decode_batch(np.full((2, 3, 8, 8), -9.0, np.float32), reg_maps, DetectorConfig())
        assert isinstance(empty, np.recarray) and (len(empty), empty.dtype) == (0, DETECTION)

    @pytest.mark.parametrize("field, value", [("score_thresh", -0.1), ("score_thresh", 1.5), ("nms_iou", 2.0)])
    def test_config_rejects_thresholds_outside_unit_interval(self, field, value):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            dataclasses.replace(DetectorConfig(), **{field: value})

    @pytest.mark.parametrize("fields, match", [
        # zip would build two blocks while out_grid divides by all three strides
        ({"block_channels": (8, 8), "block_strides": (2, 2, 2)},
         r"block_channels \(8, 8\) and block_strides \(2, 2, 2\)"),
        # the stride-2 convs round 10 -> 5 -> 3, so the heads would be 6x6 against out_grid's 4x4
        ({"grid": (10, 10)}, r"grid must be two positive integers divisible by 4 .*got \(10, 10\)"),
        ({"grid": (16, 18)}, r"grid .*got \(16, 18\)"),
        ({"grid": (16, 0)}, r"grid .*got \(16, 0\)"),
        # manifest values that from_meta passes through
        ({"grid": "16"}, r"grid .*got '16'"),
        ({"grid": (16, 16, 16)}, r"grid .*got \(16, 16, 16\)"),
        ({"block_strides": (2, 0, 1)}, r"block_strides must be positive integers, got \(2, 0, 1\)"),
        ({"block_strides": (2, 2.0, 1)}, r"block_strides .*got \(2, 2.0, 1\)"),
        # no conv would downsample, so the heads would be 32x32 against out_grid's 8x8
        ({"convs_per_block": 0}, r"convs_per_block must be an integer of at least 1, got 0"),
        # a layer without channels: He init divides by a fan-in of 0, or the heads reshape an empty map
        ({"pfn_channels": 0}, r"pfn_channels must be a positive integer, got 0"),
        ({"neck_channels": 0}, r"neck_channels must be a positive integer, got 0"),
        ({"neck_channels": 8.0}, r"neck_channels .*got 8.0"),
        ({"pfn_channels": True}, r"pfn_channels .*got True"),
        ({"block_channels": (16, 0, 32)}, r"block_channels must be positive integers, got \(16, 0, 32\)"),
        ({"block_channels": (16, "24", 32)}, r"block_channels .*got \(16, '24', 32\)"),
        # thresholds that only compare as numbers by accident, or not at all
        ({"score_thresh": "0.1"}, r"score_thresh must lie in \[0, 1\] and be a number, not a bool; got '0.1'"),
        ({"nms_iou": True}, r"nms_iou .*got True"),
        ({"nms_iou": None}, r"nms_iou .*got None"),
    ], ids=["lengths", "grid_10", "grid_16x18", "grid_zero", "grid_str", "grid_3d", "stride_0", "stride_float",
            "no_convs", "pfn_0", "neck_0", "neck_float", "pfn_bool", "block_0", "block_str", "score_str",
            "iou_bool", "iou_none"])
    def test_config_rejects_an_architecture_its_layers_contradict(self, fields, match):
        with pytest.raises(ValueError, match=match):
            DetectorConfig(**fields)
        with pytest.raises(ValueError, match=match):  # the same values read back from a model manifest
            DetectorConfig.from_meta({**DetectorConfig().to_meta(), **fields})


def test_encode_targets_gives_a_shared_centre_cell_to_the_first_box():
    """Two centres in output cell (2, 2): the cell's class and offsets are
    the first box's alone, whichever box comes first."""
    cfg = DetectorConfig()
    boxes = np.array([[5.0, 5.0, 3.0, 3.0], [5.5, 4.5, 1.5, 1.5]])
    classes = np.array([0, 2])

    def targets(order):
        scene = Scene(points=np.zeros((0, 3)), boxes=boxes[order], classes=classes[order],
                      difficulty=np.array(["easy"] * len(order)))
        return encode_targets(scene, cfg)

    for first, second in ((0, 1), (1, 0)):
        cls_t, reg_t, pos, _ = targets([first, second])
        assert np.argwhere(pos).tolist() == [[2, 2]]
        assert cls_t[:, 2, 2].tolist() == [float(c == classes[first]) for c in range(len(CLASS_NAMES))]
        assert cls_t[classes[second]].sum() == 0
        alone = targets([first])
        for got, want in zip((cls_t, reg_t, pos), alone[:3]):
            np.testing.assert_array_equal(got, want)


@pytest.fixture(scope="module")
def batch_setup():
    """Default detector, calibration, and EVAL_CHUNK + 3 scenes, one of them empty."""
    cfg = DetectorConfig()
    graph = build_toy_detector(cfg, seed=0)
    stats = run_calibration(graph, pillarize_dataset(generate_dataset(DatasetConfig(size=4), seed=7), cfg))
    scenes = generate_dataset(DatasetConfig(size=EVAL_CHUNK + 2), seed=8)
    empty = Scene(points=np.zeros((0, 3), np.float32), boxes=np.zeros((0, 4), np.float32),
                  classes=np.zeros(0, np.int64), difficulty=np.zeros(0, dtype=object))
    scenes.insert(EVAL_CHUNK - 1, empty)
    samples = pillarize_dataset(scenes, cfg)
    assert samples[EVAL_CHUNK - 1].features.shape[0] == 0
    assert {s.features.shape[1] for s in samples} == {8}  # points per pillar
    return cfg, graph, stats, samples


@pytest.mark.parametrize("label", PLAN_LABELS)
def test_stacked_forward_equals_per_sample_forward(batch_setup, label):
    cfg, graph, stats, samples = batch_setup
    planned = apply_plan(graph, parse_plan_label(label))
    batched = forward(planned, stack_samples(samples), stats=stats)
    assert [h.shape[0] for h in batched] == [len(samples)] * 2
    for i, sample in enumerate(samples):
        for head, single in zip(batched, forward(planned, sample, stats=stats)):
            np.testing.assert_array_equal(head[i : i + 1], single)


@pytest.mark.parametrize("label", PLAN_LABELS)
def test_layer_1_gives_each_scene_the_rows_of_a_forward_on_it_alone(batch_setup, label):
    """Layer 1 runs one GEMM over the real points of all EVAL_CHUNK scenes, whose
    counts differ; each scene's rows, pillars and head outputs equal those of a
    forward on that scene alone, bit for bit. Should a BLAS round a row by the
    rows around it, this fails, and layer 1 needs one GEMM per scene."""
    cfg, graph, stats, samples = batch_setup
    samples = samples[:EVAL_CHUNK]
    assert len({int(s.point_mask.sum()) for s in samples}) > EVAL_CHUNK // 2
    planned = apply_plan(graph, parse_plan_label(label))
    batch, tape = stack_samples(samples), []
    heads = forward(planned, batch, stats=stats, tape=tape)
    rows, pillars = tape[0].out, tape[1].out
    assert rows.shape == (batch.point_mask.sum(), cfg.pfn_channels)
    row_scene = np.repeat(batch.scene_ids, batch.point_mask.sum(axis=1))
    for b, sample in enumerate(samples):
        alone = []
        single = forward(planned, sample, stats=stats, tape=alone)
        assert rows[row_scene == b].tobytes() == alone[0].out.tobytes()
        assert pillars[batch.scene_ids == b].tobytes() == alone[1].out.tobytes()
        assert all(head[b : b + 1].tobytes() == one.tobytes() for head, one in zip(heads, single))


def test_images_are_nchw_at_the_edges_of_forward(batch_setup):
    """observe_fn sees every conv input as [B, C, H, W], with each pillar at its
    scene and cell, and the heads come back as C-contiguous [B, F, H', W']."""
    cfg, graph, _, samples = batch_setup
    batch = stack_samples(samples[:3])
    observed = {}
    heads = forward(graph, batch, observe_fn=lambda layer, x: observed.__setitem__(layer.index, x))
    for layer in graph.weight_layers[1:]:
        assert observed[layer.index].shape[:2] == (3, layer.weight.shape[1])
    image = observed[2]
    assert image.shape == (3, cfg.pfn_channels, *cfg.grid)
    pfn = graph.layers[0]
    points = real_points(batch.features, batch.point_mask)
    pillars = max_over_points(relu(linear(points, pfn.weight, pfn.bias)), batch.point_mask)
    np.testing.assert_array_equal(image[batch.scene_ids, :, batch.coords[:, 0], batch.coords[:, 1]], pillars)
    for head, channels in zip(heads, (len(CLASS_NAMES), 4)):
        assert head.flags.c_contiguous and head.shape == (3, channels, *cfg.out_grid)


@pytest.mark.parametrize("label", PLAN_LABELS)
def test_chunked_evaluate_equals_per_scene_evaluation(batch_setup, label):
    """detect and evaluate against one forward per scene, the greedy reference
    decode and the per-slice reference AP. detect's one array holds each
    scene's rows in sample order, with scene_id the sample's position, also
    across the chunk boundary."""
    cfg, graph, stats, samples = batch_setup
    plan = parse_plan_label(label)

    def reference_detect(planned):
        return [reference_decode_and_nms(*(head[0] for head in forward(planned, s, stats=stats)),
                                         cfg.score_thresh, cfg.nms_iou) for s in samples]

    per_scene = reference_detect(apply_plan(graph, plan))
    # ground truth: each scene's FP32 detections, so that FP32 scores 1.0 and
    # a scene paired with another scene's detections shows
    gts = []
    for k, dets in enumerate(reference_detect(apply_plan(graph, parse_plan_label("FP32")))):
        gts.append(SimpleNamespace(
            boxes=np.array([d.box for d in dets]).reshape(-1, 4),
            classes=np.array([d.class_id for d in dets], dtype=np.int64),
            difficulty=np.array([DIFFICULTIES[(k + j) % 3] for j in range(len(dets))], dtype=object),
        ))
    assert len(samples) > EVAL_CHUNK
    detected = detect(graph, plan, stats, cfg, samples)
    assert detected.scene_id.tolist() == [k for k, dets in enumerate(per_scene) for _ in dets]
    for k, want in enumerate(per_scene):
        assert_same_detections(detected[detected.scene_id == k], want)
    result = evaluate(graph, plan, stats, gts, cfg, samples=samples)
    want = {(CLASS_NAMES[c], diff): v for (c, diff), v in reference_table(per_scene, gts, len(CLASS_NAMES)).items()}
    assert list(result.ap.items()) == list(want.items())  # class by class, in CLASS_NAMES order
    if label == "FP32":
        assert set(want.values()) == {1.0}


@pytest.mark.parametrize("label", PLAN_LABELS)
def test_detect_decodes_chunk_by_chunk_as_one_decode_of_every_chunk_would(batch_setup, label, monkeypatch):
    """More than EVAL_CHUNK scenes: detect decodes each chunk once, from its
    start, and the joined rows are one _decode_batch over every chunk's head
    maps, byte for byte; no scenes give no rows."""
    cfg, graph, stats, samples = batch_setup
    plan = parse_plan_label(label)
    planned = apply_plan(graph, plan)
    heads = [forward(planned, batch, stats=stats) for _, batch in eval_chunks(samples)]
    want = detector._decode_batch(*map(np.concatenate, zip(*heads)), cfg)
    assert len(heads) == 2 and len(samples) > EVAL_CHUNK
    calls = []
    real_decode = detector._decode_batch
    monkeypatch.setattr(detector, "_decode_batch",
                        lambda *args, first: calls.append((len(args[0]), first)) or real_decode(*args, first=first))
    got = detect(graph, plan, stats, cfg, samples)
    assert calls == [(EVAL_CHUNK, 0), (len(samples) - EVAL_CHUNK, EVAL_CHUNK)]
    assert isinstance(got, np.recarray) and got.tobytes() == want.tobytes()
    none = detect(graph, plan, stats, cfg, [])
    assert isinstance(none, np.recarray) and none.dtype == DETECTION and len(none) == 0


@pytest.mark.parametrize("head, value, what", [
    (0, np.nan, "a NaN in the class"), (1, np.nan, "a NaN or inf in the box"), (1, np.inf, "a NaN or inf in the box"),
], ids=["class", "box", "box_inf"])
def test_a_nan_in_a_chunk_names_the_scene_and_the_map(batch_setup, head, value, what, monkeypatch):
    """A NaN in one scene's head map of the second chunk, or an inf centre offset
    in its box map, names that scene's place in the samples."""
    cfg, graph, stats, samples = batch_setup
    real_forward = detector.forward
    chunks = []

    def poisoned(*args, **kwargs):
        heads = real_forward(*args, **kwargs)
        chunks.append(len(heads[0]))
        if len(chunks) == 2:
            heads[head][1, head, 2, 3] = value
        return heads

    monkeypatch.setattr(detector, "forward", poisoned)
    with pytest.raises(ValueError, match=f"decode_and_nms got {what} map of scene {EVAL_CHUNK + 1}$"):
        detect(graph, parse_plan_label("FP32"), stats, cfg, samples)
    assert chunks == [EVAL_CHUNK, 3]


def test_make_evaluator_pillarizes_once_and_returns_the_map(batch_setup, monkeypatch):
    """Ground truth: each scene's own FP32 detections, all moderate, so FP32 reads 1.0."""
    cfg, graph, stats, _ = batch_setup
    fp32 = apply_plan(graph, parse_plan_label("FP32"))
    scenes = []
    for scene in generate_dataset(DatasetConfig(size=6), seed=12):
        dets = decode_and_nms(*forward(fp32, pillarize_dataset([scene], cfg)[0]), cfg)
        scenes.append(dataclasses.replace(
            scene, boxes=np.array([d.box for d in dets]).reshape(-1, 4),
            classes=np.array([d.class_id for d in dets], dtype=np.int64),
            difficulty=np.full(len(dets), "moderate", dtype=object),
        ))
    calls = []
    real_pillarize_scenes = detector.pillarize_scenes
    monkeypatch.setattr(detector, "pillarize_scenes", lambda *args: calls.append(args) or real_pillarize_scenes(*args))
    evaluator = make_evaluator(scenes, cfg)
    assert [(s is scenes, grid) for s, grid in calls] == [(True, cfg.grid)]  # the whole list in one call
    got = {label: evaluator(graph, parse_plan_label(label), stats) for label in ("FP32", "INT8")}
    assert len(calls) == 1  # the evaluator's calls pillarize nothing
    monkeypatch.undo()
    samples = pillarize_dataset(scenes, cfg)
    assert got == {label: evaluate(graph, parse_plan_label(label), stats, scenes, cfg, samples).map for label in got}
    assert got["FP32"] == 1.0 > got["INT8"]


def test_evaluate_rejects_samples_of_another_length(batch_setup):
    cfg, graph, stats, samples = batch_setup
    scenes = generate_dataset(DatasetConfig(size=12), seed=9)
    plan = parse_plan_label("FP32")
    with pytest.raises(ValueError, match="4 pillarized samples for 12 scenes"):
        evaluate(graph, plan, stats, scenes, cfg, samples=pillarize_dataset(scenes, cfg)[:4])
    with pytest.raises(ValueError, match="12 pillarized samples for 4 scenes"):
        evaluate(graph, plan, stats, scenes[:4], cfg, samples=pillarize_dataset(scenes, cfg))


def test_detect_rejects_a_sample_of_several_scenes(batch_setup):
    """Scene b of a chunk is sample b only if each sample holds one scene; a
    sample of several would shift every later scene's detections."""
    cfg, graph, stats, samples = batch_setup
    several = [stack_samples(samples[:2]), *samples[2:4], stack_samples(samples[4:7])]
    with pytest.raises(ValueError, match=r"positions \[0, 3\] hold \[2, 3\] scenes; each PillarSample must hold one"):
        detect(graph, parse_plan_label("FP32"), stats, cfg, several)


WIDE_HEADS = [
    ("bbox_head.conv_cls", "(4, 8, 8) and (4, 8, 8)"),
    ("bbox_head.conv_reg", "(3, 8, 8) and (5, 8, 8)"),
]


def widen(graph, head):
    """The graph with a fifth output channel on the named head."""
    layers = [
        dataclasses.replace(l, weight=np.concatenate([l.weight, l.weight[:1]]),
                            bias=np.concatenate([l.bias, [5.0]]).astype(np.float32))
        if l.name == head else l
        for l in graph.layers
    ]
    return dataclasses.replace(graph, layers=tuple(layers))


@pytest.mark.parametrize("head, shapes", WIDE_HEADS)
def test_evaluate_rejects_a_head_of_the_wrong_width(head, shapes):
    """A fifth channel on either head fails loudly instead of going unscored."""
    cfg = DetectorConfig()
    wide = widen(build_toy_detector(cfg, seed=0), head)
    scenes = generate_dataset(DatasetConfig(size=2), seed=1)
    with pytest.raises(ValueError, match=re.escape(f"got maps of shape {shapes}")):
        evaluate(wide, parse_plan_label("FP32"), None, scenes, cfg, pillarize_dataset(scenes, cfg))


@pytest.mark.parametrize("cfg", [DetectorConfig(), TINY], ids=["cfg0", "cfg1"])
def test_a_loaded_model_evaluates_as_the_one_saved(cfg, tmp_path):
    """load_model hands back the config with the graph, and the pair goes
    straight into calibration, detect and evaluate: the detections (bit for
    bit) and the AP tables equal the original's under FP32 and INT8. The
    untrained toy's AP is 0, so the detections carry the comparison."""
    assert DetectorConfig.from_meta(cfg.to_meta()) == cfg
    graph = build_toy_detector(cfg, seed=0)
    loaded, loaded_cfg = load_model(save_model(graph, cfg, tmp_path / "toy"))
    assert loaded_cfg == cfg and graphs_equal(loaded, graph)
    scenes = generate_dataset(DatasetConfig(size=8), seed=2)
    runs = []
    for g, c in ((graph, cfg), (loaded, loaded_cfg)):
        samples = pillarize_dataset(scenes, c)
        stats = run_calibration(g, samples[:4])
        plans = [parse_plan_label(label) for label in ("FP32", "INT8")]
        runs.append(([detect(g, plan, stats, c, samples) for plan in plans],
                     [evaluate(g, plan, stats, scenes, c, samples).ap for plan in plans]))
    (dets, tables), (loaded_dets, loaded_tables) = runs
    assert len(set(dets[1].scene_id)) >= 4 and dets[1].tobytes() != dets[0].tobytes()  # INT8 moves some detections
    assert [d.tobytes() for d in loaded_dets] == [d.tobytes() for d in dets] and loaded_tables == tables


@pytest.mark.parametrize("extra_keys", [
    # the keys of fields that became constants, as no format-4 file holds them
    {"n_classes": 3, "base_size": 2.5, "match_iou": 0.5, "max_points_per_pillar": 8},
    {"n_classes": 4},
], ids=["pre_constants_meta", "n_classes"])
def test_a_key_that_is_no_config_field_is_rejected(extra_keys, tmp_path):
    """A key the config does not read would ride along in the file, unchecked."""
    det = {**DetectorConfig().to_meta(), **extra_keys}
    names = re.escape(str(sorted(extra_keys)))
    want = rf"detector config lacks keys \[\] and has unknown keys {names}$"
    with pytest.raises(ValueError, match=want):
        DetectorConfig.from_meta(det)
    path = save_model(build_toy_detector(), DetectorConfig(), tmp_path / "toy")
    rewrite(path, lambda doc, arrays: doc["detector"].update(extra_keys))
    with pytest.raises(ModelFormatError, match=rf"toy\.npz: {want}"):
        load_model(path)


def test_a_config_entry_names_its_missing_and_unknown_keys():
    """Or shows the entry that is not an object."""
    det = DetectorConfig().to_meta()
    del det["grid"]
    with pytest.raises(ValueError, match=r"^detector config lacks keys \['grid'\] and has unknown keys \[\]$"):
        DetectorConfig.from_meta(det)
    with pytest.raises(ValueError, match=r"lacks keys \['grid'\] and has unknown keys \['n_classes'\]$"):
        DetectorConfig.from_meta({**det, "n_classes": 3})
    for entry, shown in [(["grid"], r"\['grid'\]"), (None, "None"), ("{}", "'{}'"),
                         ([det], r"\[\{'block_channels': \[16, 24, 32\], .*\}\]")]:
        with pytest.raises(ValueError, match="^detector config must be an object, got " + shown + "$"):
            DetectorConfig.from_meta(entry)


def test_default_detector_weights_are_pinned():
    """The built, folded weights' digests of the default and the tiny config; a
    change in the builder's draw order, its fold or the layer numbering changes them."""
    pins = [
        (DetectorConfig(), 0, "f7ea26e53f3f12f7407203a7913d71811f0c74120ab5b3713298d5763ac2d8ad"),
        (TINY, 0, "a0697501599173af163af45b21fc0e0522573c760d2718d0b75d6f3d77cb41ac"),
        (TINY, 3, "dcbed2eb359260c65e7676a9bde97c99b9ec7421d2ff6eda0030ce4ed9000d16"),
    ]
    for cfg, seed, digest in pins:
        assert weights_digest(build_toy_detector(cfg, seed=seed)) == digest, (cfg, seed)


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("cfg", [DetectorConfig(), DetectorConfig(block_strides=(2, 1, 1)), TINY],
                         ids=["default", "strides_211", "tiny"])
def test_the_builder_folds_each_bn_as_it_draws_it(cfg, seed):
    """Re-drawn in the documented order, each weight layer's weight and, but at
    the heads, its BN gamma, beta, mean and var, folded with a per-channel
    factor gamma / sqrt(var + 1e-5) taken in float64 and stored as float32,
    give the built weight and bias bit for bit."""
    rng = np.random.default_rng(seed)
    feature_scale = np.array([FIELD_SIZE / 2, FIELD_SIZE / 2, 0.5, 0.5, 0.5], np.float32)
    for layer in build_toy_detector(cfg, seed=seed).weight_layers:
        shape, cout = layer.weight.shape, len(layer.weight)
        std = 0.1 if layer.is_head else math.sqrt(2.0 / math.prod(shape[1:]))
        weight = rng.normal(scale=std, size=shape).astype(np.float32) / (feature_scale if layer.index == 1 else 1.0)
        bias = np.full(cout, -2.0 if layer.name == "bbox_head.conv_cls" else 0.0, np.float32)
        if not layer.is_head:
            stats = (rng.uniform(0.8, 1.2, cout), rng.normal(0.0, 0.05, cout),
                     rng.normal(0.0, 0.1, cout), rng.uniform(0.8, 1.4, cout))
            gamma, beta, mean, var = (s.astype(np.float32).astype(np.float64) for s in stats)
            factor = (gamma / np.sqrt(var + 1e-5)).astype(np.float32).astype(np.float64)
            # the float64 product of two float32 values (and 0 - mean) is exact: rounded once, it is float32's
            weight = (weight * factor.reshape((-1,) + (1,) * (len(shape) - 1))).astype(np.float32)
            bias = ((bias - mean).astype(np.float32) * factor).astype(np.float32) + beta.astype(np.float32)
        for got, want in ((layer.weight, weight), (layer.bias, bias)):
            assert (got.dtype, got.shape, got.tobytes()) == (np.float32, want.shape, want.tobytes()), layer.name


def test_tiny_detector_layer_table_is_pinned():
    """Weight layers numbered in chain order, glue layers unnumbered, ReLU on all but the heads."""
    table = [
        (l.name, l.kind, l.index, l.relu, l.is_head, l.conv.stride if l.conv else None)
        for l in build_toy_detector(TINY).layers
    ]
    assert table == [
        ("voxel_encoder.pfn.linear", "linear", 1, True, False, None),
        ("voxel_encoder.maxpool", "maxpool", None, False, False, None),
        ("middle_encoder.scatter", "scatter", None, False, False, None),
        ("backbone.block0.conv0", "conv2d", 2, True, False, (2, 2)),
        ("backbone.block1.conv0", "conv2d", 3, True, False, (2, 2)),
        ("backbone.block2.conv0", "conv2d", 4, True, False, (1, 1)),
        ("neck.upsample", "upsample2x", None, False, False, None),
        ("neck.conv", "conv2d", 5, True, False, (1, 1)),
        ("bbox_head.conv_cls", "conv2d", 6, False, True, (1, 1)),
        ("bbox_head.conv_reg", "conv2d", 7, False, True, (1, 1)),
    ]
    # with three convs a block, only each block's first conv takes the block's stride
    strides = [l.conv.stride[0] for l in build_toy_detector().layers if l.conv]
    assert strides == [2, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("cfg", [DetectorConfig(), TINY], ids=["default", "tiny"])
def test_weight_layers_are_numbered_by_their_place_in_the_chain(cfg):
    """Weight layers read 1..L in chain order and glue layers None, in the
    built graph and in a graph of its layers from the scatter on."""
    graph = build_toy_detector(cfg)
    for g in (graph, ModelGraph(layers=graph.layers[3:])):
        assert [l.index for l in g.weight_layers] == list(range(1, g.num_indexed + 1))
        assert all(l.index is None for l in g.layers if not l.is_weight_layer)
    assert graph.num_indexed == 3 * cfg.convs_per_block + 4


def rewrite(path, edit=None, text=None):
    """Re-save the model file at path after edit(manifest, arrays) changed its
    members in place; text, when given, replaces the manifest's JSON text."""
    with np.load(path) as npz:
        arrays = {key: npz[key] for key in npz.files}
    doc = json.loads(str(arrays.pop("manifest")))
    if edit is not None:
        edit(doc, arrays)
    np.savez(path, manifest=np.array(json.dumps(doc) if text is None else text), **arrays)


class TestSerialization:
    """The model file (format 5): a detector config and its folded weights, the layers rebuilt from the config."""

    def graph(self):
        return build_toy_detector(TINY, seed=0)

    def save(self, path):
        return save_model(self.graph(), TINY, path)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("cfg", [DetectorConfig(), TINY, DetectorConfig(block_strides=(2, 1, 1))],
                             ids=["default", "tiny", "strides_211"])
    def test_a_folded_detector_round_trips_through_one_file(self, tmp_path, cfg, seed):
        graph = build_toy_detector(cfg, seed=seed)
        path = save_model(graph, cfg, tmp_path / "toy")
        assert list(tmp_path.iterdir()) == [path] and path.name == "toy.npz"
        loaded, loaded_cfg = load_model(path)
        assert graphs_equal(loaded, graph) and loaded_cfg == cfg

    def test_one_file_holds_the_manifest_and_each_weight_layers_weight_and_bias(self, tmp_path):
        g = self.graph()
        path = save_model(g, TINY, tmp_path / "toy")
        positions = [pos for pos, l in enumerate(g.layers) if l.is_weight_layer]
        assert positions == [0, 3, 4, 5, 7, 8, 9]
        with np.load(path, allow_pickle=False) as npz:
            assert sorted(npz.files) == sorted(["manifest"] + [f"{p}.{f}" for p in positions for f in ("weight", "bias")])
            np.testing.assert_array_equal(npz["3.weight"], g.layers[3].weight)
            doc = json.loads(str(npz["manifest"]))
        assert doc == {"format_version": 5, "detector": TINY.to_meta(), "weights_sha256": weights_digest(g)}

    def test_missing_blob(self, tmp_path):
        """No model file at the path."""
        with pytest.raises(ModelFormatError, match=r"toy\.npz: not a readable model file: .*No such file"):
            load_model(tmp_path / "toy")

    def test_truncated_blob(self, tmp_path):
        """A model file cut short."""
        path = self.save(tmp_path / "toy")
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ModelFormatError, match=r"toy\.npz: not a readable model file"):
            load_model(path)

    def test_npy_file_is_not_a_model(self, tmp_path):
        np.save(tmp_path / "toy.npy", np.ones(3, np.float32))
        (tmp_path / "toy.npy").rename(tmp_path / "toy.npz")
        with pytest.raises(ModelFormatError, match=r"toy\.npz: not a readable model file"):
            load_model(tmp_path / "toy.npz")

    def test_checksum_mismatch(self, tmp_path):
        """A flipped byte inside an array fails the zip member's CRC-32."""
        g = self.graph()
        path = save_model(g, TINY, tmp_path / "toy")
        data = bytearray(path.read_bytes())
        data[data.index(g.layers[3].weight.tobytes()) + 5] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match=r"toy\.npz: .*CRC-32 for file '3\.weight\.npy'"):
            load_model(path)

    @pytest.mark.parametrize("version", [2, 3, 99])
    def test_unknown_version(self, tmp_path, version):
        """Format 2 stored a precision tag per layer, format 3 a record per
        layer; format 5 stores neither (format 4: see the next test)."""
        path = self.save(tmp_path / "toy")
        rewrite(path, lambda doc, arrays: doc.update(format_version=version))
        with pytest.raises(ModelFormatError, match=rf"toy\.npz: model format version {version} is not supported "):
            load_model(path)

    def test_a_format_4_file_is_not_supported(self, tmp_path):
        """A manifest in format 4's layout, {"format_version": 4, "meta":
        {"detector": ...}, "weights_sha256": ...}, is rejected by its version."""
        path = self.save(tmp_path / "toy")

        def to_format_4(doc, arrays):
            doc.update(format_version=4, meta={"detector": doc.pop("detector")})

        rewrite(path, to_format_4)
        want = r"toy\.npz: model format version 4 is not supported \(expected 5\)$"
        with pytest.raises(ModelFormatError, match=want):
            load_model(path)

    def test_malformed_manifest(self, tmp_path):
        path = self.save(tmp_path / "toy")
        rewrite(path, text="{not json")
        with pytest.raises(ModelFormatError, match=r"toy\.npz: malformed manifest"):
            load_model(path)

    @pytest.mark.parametrize("edit, text, message", [
        (None, "[]", "malformed manifest: not a JSON object"),
        (None, "[" * 100000 + "]" * 100000, "malformed manifest: maximum recursion depth exceeded"),
        (lambda doc, arrays: doc.update(detector=["lin1"]), None,
         r"detector config must be an object, got \['lin1'\]$"),
        (lambda doc, arrays: doc.update(detector=None), None, "detector config must be an object, got None$"),
        (lambda doc, arrays: doc["detector"].pop("grid"), None,
         r"detector config lacks keys \['grid'\] and has unknown keys \[\]$"),
        (lambda doc, arrays: doc["detector"].update(convs_per_block=0), None,
         "convs_per_block must be an integer of at least 1, got 0"),
        (lambda doc, arrays: doc.update(layers=[]), None,
         r"malformed manifest: keys \['detector', 'format_version', 'layers', 'weights_sha256'\], not "),
        (lambda doc, arrays: doc.update(n_classes=4), None,
         r"malformed manifest: keys \['detector', 'format_version', 'n_classes', 'weights_sha256'\], not "),
        (lambda doc, arrays: doc.pop("weights_sha256"), None,
         r"malformed manifest: keys \['detector', 'format_version'\]"),
        (lambda doc, arrays: doc.pop("detector"), None,
         r"malformed manifest: keys \['format_version', 'weights_sha256'\]"),
    ], ids=["not_an_object", "nested_too_deeply", "detector_a_list", "detector_null", "config_key_missing",
            "bad_config", "extra_key", "n_classes_key", "no_digest", "no_config"])
    def test_manifest_of_the_wrong_shape_names_the_file(self, tmp_path, edit, text, message):
        path = self.save(tmp_path / "toy")
        rewrite(path, edit, text)
        with pytest.raises(ModelFormatError, match=rf"toy\.npz: {message}"):
            load_model(path)

    def test_file_without_manifest_names_the_file(self, tmp_path):
        np.savez(tmp_path / "toy.npz", **{"0.weight": np.ones(2, np.float32)})
        with pytest.raises(ModelFormatError, match=r"toy\.npz: malformed manifest"):
            load_model(tmp_path / "toy.npz")

    @pytest.mark.parametrize("pos, field, value", [(3, "weight", np.nan), (0, "bias", -np.inf)])
    def test_non_finite_array_rejected_naming_file_and_layer(self, tmp_path, pos, field, value):
        g = self.graph()
        path = save_model(g, TINY, tmp_path / "toy")

        def poison(doc, arrays):
            arrays[f"{pos}.{field}"].flat[1] = value

        rewrite(path, poison)
        want = rf"layer '{g.layers[pos].name}': {field} holds NaN or inf"
        with pytest.raises(ModelFormatError, match=rf"toy\.npz: {want}"):
            load_model(path)
        getattr(g.layers[pos], field).flat[1] = value
        with pytest.raises(ValueError, match=want):  # and no such file is written
            save_model(g, TINY, tmp_path / "poisoned")

    @pytest.mark.parametrize("corrupt, message", [
        (lambda arrays: arrays.update({"3.bias": arrays["4.bias"], "4.bias": arrays["3.bias"]}),
         r"the arrays' digest is not the manifest's weights_sha256"),
        (lambda arrays: arrays.update({"3.weight": arrays["3.weight"].astype(np.float64)}),
         r"layer 'backbone\.block0\.conv0': weight is float64, not float32"),
        (lambda arrays: arrays.update({"3.weight": arrays["3.weight"].reshape(8, 4, 6, 3)}),
         r"layer 'backbone\.block0\.conv0': weight has shape \(8, 4, 6, 3\), but the config builds \(8, 8, 3, 3\)"),
        (lambda arrays: arrays.pop("5.bias"), r"layer 'backbone\.block2\.conv0': bias is missing \(member '5\.bias'\)"),
        (lambda arrays: arrays.update({"1.weight": arrays.pop("3.weight")}),
         r"layer 'backbone\.block0\.conv0': weight is missing \(member '3\.weight'\)"),
        (lambda arrays: arrays.update({"10.weight": arrays.pop("9.weight")}),
         r"layer 'bbox_head\.conv_reg': weight is missing \(member '9\.weight'\)"),
        (lambda arrays: arrays.update({"1.weight": arrays["3.weight"]}),
         r"arrays \['1\.weight'\] belong to no weight layer"),
        (lambda arrays: arrays.update({"3.bias": np.array([None, 1.0])}),
         r"not a readable model file: Object arrays cannot be loaded"),
    ], ids=["swapped_arrays", "float64_array", "misshapen_array", "missing_array", "glue_layer_array",
            "array_past_the_chain", "extra_array", "pickled_array"])
    def test_corrupt_array_names_the_file(self, tmp_path, corrupt, message):
        path = self.save(tmp_path / "toy")
        rewrite(path, lambda doc, arrays: corrupt(arrays))
        with pytest.raises(ModelFormatError, match=rf"toy\.npz: {message}"):
            load_model(path)

    def test_a_config_of_another_layer_count_fails_before_the_build(self, tmp_path, monkeypatch):
        """The walk along the config's chain stops at the first layer the file
        does not hold as the config describes it; no network is built."""
        path = save_model(build_toy_detector(), DetectorConfig(), tmp_path / "toy")
        rewrite(path, lambda doc, arrays: doc["detector"].update(convs_per_block=100))
        monkeypatch.setattr(detector, "build_toy_detector", lambda *args: pytest.fail("built the network"))
        with pytest.raises(ModelFormatError, match=r"toy\.npz: layer 'backbone\.block0\.conv3': weight has shape "
                                                   r"\(24, 16, 3, 3\), but the config builds \(16, 16, 3, 3\)"):
            load_model(path)

    @pytest.mark.parametrize("field, value, layer, shapes", [
        ("pfn_channels", 16000, "voxel_encoder.pfn.linear", r"\(16, 5\), but the config builds \(16000, 5\)"),
        ("neck_channels", 20000, "neck.conv", r"\(24, 32, 3, 3\), but the config builds \(20000, 32, 3, 3\)"),
    ], ids=["pfn_16000", "neck_20000"])
    def test_a_failing_load_costs_what_the_file_holds(self, tmp_path, field, value, layer, shapes):
        """A config edited to a huge width fails at the first layer it changes,
        without allocating that width (building it peaks at about 30 and 70 MB)."""
        path = save_model(build_toy_detector(), DetectorConfig(), tmp_path / "toy")
        rewrite(path, lambda doc, arrays: doc["detector"].update({field: value}))
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match=rf"layer '{re.escape(layer)}': weight has shape {shapes}"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_a_load_draws_builds_and_folds_nothing(self, tmp_path, monkeypatch):
        graph = build_toy_detector()
        path = save_model(graph, DetectorConfig(), tmp_path / "toy")
        for module, name in ((detector, "build_toy_detector"), (np.random, "default_rng")):
            monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: pytest.fail(f"called {name}"))
        assert graphs_equal(load_model(path)[0], graph)
        save_model(graph, DetectorConfig(), tmp_path / "again")  # nor does the save's check

    def test_the_config_is_the_only_description_of_the_layers(self, tmp_path):
        """A config edited to another width no longer matches the arrays and fails
        on load; one edited to other strides loads as the network it describes."""
        path = save_model(build_toy_detector(), DetectorConfig(), tmp_path / "toy")
        rewrite(path, lambda doc, arrays: doc["detector"].update(pfn_channels=8, block_strides=[2, 1, 1]))
        with pytest.raises(ModelFormatError, match=r"toy\.npz: layer 'voxel_encoder\.pfn\.linear': weight has shape "
                                                   r"\(16, 5\), but the config builds \(8, 5\)"):
            load_model(path)
        graph = build_toy_detector()
        path = save_model(graph, DetectorConfig(), tmp_path / "toy")
        rewrite(path, lambda doc, arrays: doc["detector"].update(block_strides=[2, 1, 1]))
        loaded, cfg = load_model(path)
        assert cfg == DetectorConfig(block_strides=(2, 1, 1))
        strided = build_toy_detector(cfg)
        assert [l.conv for l in loaded.layers] == [l.conv for l in strided.layers] != [l.conv for l in graph.layers]
        assert weights_digest(loaded) == weights_digest(graph)

    @pytest.mark.parametrize("graph, cfg, match", [
        (ModelGraph(layers=tuple(dataclasses.replace(l, weight=l.weight.astype(np.float64)) if l.is_weight_layer
                                 else l for l in build_toy_detector().layers)), DetectorConfig(),
         "the graph's layers are not those of the folded detector the config builds, in float32"),
        (build_toy_detector(), DetectorConfig(block_strides=(2, 1, 1)),
         "the graph's layers are not those of the folded detector the config builds"),
        (widen(build_toy_detector(), WIDE_HEADS[0][0]), DetectorConfig(),
         r"layer 'bbox_head\.conv_cls': weight has shape \(4, 24, 1, 1\), but the config builds \(3, 24, 1, 1\)"),
        (widen(build_toy_detector(), WIDE_HEADS[1][0]), DetectorConfig(),
         r"layer 'bbox_head\.conv_reg': weight has shape \(5, 24, 1, 1\), but the config builds \(4, 24, 1, 1\)"),
        (build_toy_detector(), TINY,
         r"layer 'voxel_encoder\.pfn\.linear': weight has shape \(16, 5\), but the config builds \(8, 5\)"),
        (ModelGraph(layers=build_toy_detector().layers[:-1]), DetectorConfig(),
         r"layer 'bbox_head\.conv_reg': weight is missing \(member '15\.weight'\)"),
    ], ids=["float64", "config_of_other_strides", "wide_cls_head", "wide_reg_head", "config_of_other_widths",
            "no_box_head"])
    def test_save_rejects_a_graph_its_config_does_not_build(self, tmp_path, graph, cfg, match):
        with pytest.raises(ValueError, match=match):
            save_model(graph, cfg, tmp_path / "toy")
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_small_config_round_trips_and_a_width_edit_fails_at_its_first_layer(self, tmp_path_factory, data):
        """The file loads to the graph and config it was saved from; a config
        edited to another width fails naming the first layer whose weight it
        reshapes, or loads unchanged when the width is the same."""
        n_blocks = data.draw(st.integers(1, 3))
        width = st.integers(1, 8)
        strides = data.draw(st.tuples(*[st.integers(1, 2)] * n_blocks))
        cfg = DetectorConfig(
            grid=tuple(math.prod(strides) * data.draw(st.integers(1, 2)) for _ in range(2)),
            pfn_channels=data.draw(width), block_channels=data.draw(st.tuples(*[width] * n_blocks)),
            convs_per_block=data.draw(st.integers(1, 2)), block_strides=strides, neck_channels=data.draw(width),
        )
        graph = build_toy_detector(cfg, seed=data.draw(st.integers(0, 3)))
        path = save_model(graph, cfg, tmp_path_factory.mktemp("model") / "toy")
        loaded, loaded_cfg = load_model(path)
        assert graphs_equal(loaded, graph) and weights_digest(loaded) == weights_digest(graph) and loaded_cfg == cfg

        # a width's first weight layer: the PFN, a block's first conv, the neck
        first = {"pfn_channels": "voxel_encoder.pfn.linear", "neck_channels": "neck.conv",
                 **{b: f"backbone.block{b}.conv0" for b in range(n_blocks)}}
        field, value = data.draw(st.sampled_from(sorted(first, key=str))), data.draw(width)
        if isinstance(field, str):
            edited, old = dataclasses.replace(cfg, **{field: value}), getattr(cfg, field)
        else:
            channels = list(cfg.block_channels)
            old, channels[field] = channels[field], value
            edited = dataclasses.replace(cfg, block_channels=tuple(channels))
        rewrite(path, lambda doc, arrays: doc.update(detector=edited.to_meta()))
        if value == old:
            assert graphs_equal(load_model(path)[0], graph)
            return
        with pytest.raises(ModelFormatError, match=rf"toy\.npz: layer '{re.escape(first[field])}': weight has shape"):
            load_model(path)

    def test_a_plan_is_not_saved(self, tmp_path):
        """The file keeps weights, not the plan a graph was last tagged with."""
        g = apply_plan(self.graph(), PrecisionPlan(default=DType.INT8))
        loaded, _ = load_model(save_model(g, TINY, tmp_path / "tagged"))
        assert graphs_equal(loaded, g)
        assert {l.precision for l in loaded.weight_layers} == {DType.FP32}
