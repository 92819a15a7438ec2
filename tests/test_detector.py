"""Detector: batched forward and evaluate against per-scene runs, NMS against a greedy loop,
the config through the model meta."""

import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from pillarmix import detector
from pillarmix.calibration import run_calibration
from pillarmix.detector import (
    DetectorConfig,
    build_toy_detector,
    decode_and_nms,
    encode_targets,
    evaluate,
    make_evaluator,
    pillarize_dataset,
)
from pillarmix.metrics import DIFFICULTIES, Detection, ap40, iou_matrix
from pillarmix.model import (
    EVAL_CHUNK,
    ModelGraph,
    apply_plan,
    fold_all_bn,
    forward,
    graphs_equal,
    load_model,
    parse_plan_label,
    save_model,
    weights_digest,
)
from pillarmix.scenes import CLASS_NAMES, FIELD_SIZE, DatasetConfig, Scene, generate_dataset
from pillarmix.tensor_ops import linear, max_over_points, relu, sigmoid, stack_samples

PLAN_LABELS = ("FP32", "FP16", "INT8", "FP16: 1")
TINY = DetectorConfig(grid=(8, 8), block_channels=(8, 8, 8), convs_per_block=1, pfn_channels=8, neck_channels=8)


def reference_decode_and_nms(cls_map, reg_map, score_thresh, iou_thresh):
    """Per-candidate decoding (a zero size offset is a side of 2.5) and greedy
    NMS with one 1x1 IoU per pair."""
    n_classes, oh, ow = cls_map.shape
    cell_h = FIELD_SIZE / oh
    cell_w = FIELD_SIZE / ow
    scores = sigmoid(cls_map.astype(np.float64))
    detections = []
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
            cand.append(Detection(box=box, class_id=cls, score=s))
        cand.sort(key=lambda d: -d.score)
        kept = []
        for det in cand:
            if any(iou_matrix(det.box[None, :], k.box[None, :])[0, 0] >= iou_thresh for k in kept):
                continue
            kept.append(det)
        detections.extend(kept)
    return detections


def assert_same_detections(got, want):
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

    def test_rejects_a_batch_of_several_scenes(self):
        cls_map = np.zeros((3, 3, 8, 8), np.float32)
        reg_map = np.zeros((3, 4, 8, 8), np.float32)
        with pytest.raises(ValueError, match=r"one scene; got maps of shape \(3, 3, 8, 8\)"):
            decode_and_nms(cls_map, reg_map, DetectorConfig())

    @pytest.mark.parametrize("reg_grid", [(16, 16), (4, 4)])
    def test_rejects_a_box_map_on_another_grid(self, reg_grid):
        """A box map must cover the class map's cells, or boxes decode from the wrong cell."""
        cls_map = np.full((3, 8, 8), 4.0, np.float32)
        reg_map = np.zeros((4, *reg_grid), np.float32)
        shapes = f"(3, 8, 8) and (4, {reg_grid[0]}, {reg_grid[1]})"
        with pytest.raises(ValueError, match=re.escape(f"on one grid; got maps of shape {shapes}")):
            decode_and_nms(cls_map, reg_map, DetectorConfig())

    @pytest.mark.parametrize("head, cell", [("class", (1, 4, 4)), ("box", (0, 4, 4)), ("box", (3, 4, 5))])
    def test_rejects_a_nan_in_either_map(self, head, cell):
        """A NaN logit would drop its own peak and its neighbours', a NaN size
        offset would decode to the smallest box; both fail instead."""
        cls_map = np.full((3, 8, 8), -4.0, np.float32)
        cls_map[1, 4, 4:6] = 4.0  # two tied neighbouring peaks
        cls_map[0, 0, 0] = np.inf  # an infinite logit is a score of 1
        reg_map = np.zeros((4, 8, 8), np.float32)
        assert len(decode_and_nms(cls_map, reg_map, DetectorConfig())) == 3
        (cls_map if head == "class" else reg_map)[cell] = np.nan
        with pytest.raises(ValueError, match=f"NaN in the {head} map"):
            decode_and_nms(cls_map, reg_map, DetectorConfig())

    @pytest.mark.parametrize("block_strides", [(2, 2, 1), (2, 1, 1)])
    def test_perfect_maps_score_one_in_every_slice(self, block_strides):
        """encode_targets as +-8 logits through decode_and_nms and ap40: target
        encoding, decoding, NMS and the metric lose no box."""
        cfg = DetectorConfig(block_strides=block_strides)
        scenes = generate_dataset(DatasetConfig(size=64), seed=11)
        dets = []
        for scene in scenes:
            cls_t, reg_t, _, _ = encode_targets(scene, cfg)
            dets.append(decode_and_nms(np.where(cls_t > 0, 8.0, -8.0).astype(np.float32), reg_t, cfg))
        aps = [ap40(dets, scenes, c) for c in range(len(CLASS_NAMES))]
        assert {v for ap in aps for v in ap.values() if v is not None} == {1.0}

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
        # manifest meta values that from_meta passes through
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
            DetectorConfig.from_meta({"detector": {**DetectorConfig().to_meta(), **fields}})


@pytest.fixture(scope="module")
def batch_setup():
    """Default detector, calibration, and EVAL_CHUNK + 3 scenes, one of them empty."""
    cfg = DetectorConfig()
    graph = fold_all_bn(build_toy_detector(cfg, seed=0))
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


def test_images_are_nchw_at_the_edges_of_forward(batch_setup):
    """observe_fn sees every conv input as [B, C, H, W], with each pillar at its
    scene and cell, and the heads come back as C-contiguous [B, F, H', W'];
    the convs run from the first one's observed input, given as a plain 4-D
    input, reproduce the heads."""
    cfg, graph, _, samples = batch_setup
    batch = stack_samples(samples[:3])
    observed = {}
    heads = forward(graph, batch, observe_fn=lambda layer, x: observed.__setitem__(layer.index, x))
    for layer in graph.weight_layers[1:]:
        assert observed[layer.index].shape[:2] == (3, layer.weight.shape[1])
    image = observed[2]
    assert image.shape == (3, cfg.pfn_channels, *cfg.grid)
    pfn = graph.layers[0]
    pillars = max_over_points(relu(linear(batch.features, pfn.weight, pfn.bias)), batch.point_mask)
    np.testing.assert_array_equal(image[batch.scene_ids, :, batch.coords[:, 0], batch.coords[:, 1]], pillars)
    for head, channels in zip(heads, (len(CLASS_NAMES), 4)):
        assert head.flags.c_contiguous and head.shape == (3, channels, *cfg.out_grid)
    for head, again in zip(heads, forward(ModelGraph(layers=graph.layers[3:]), image.copy())):
        np.testing.assert_array_equal(again, head)


@pytest.mark.parametrize("label", PLAN_LABELS)
def test_chunked_evaluate_equals_per_scene_evaluation(batch_setup, label):
    cfg, graph, stats, samples = batch_setup
    plan = parse_plan_label(label)
    planned = apply_plan(graph, plan)
    per_scene = [decode_and_nms(*forward(planned, s, stats=stats), cfg) for s in samples]
    # ground truth: each scene's FP32 detections, so that FP32 scores 1.0 and
    # a scene paired with another scene's detections shows
    fp32 = apply_plan(graph, parse_plan_label("FP32"))
    gts = []
    for k, sample in enumerate(samples):
        dets = decode_and_nms(*forward(fp32, sample), cfg)
        gts.append(SimpleNamespace(
            boxes=np.array([d.box for d in dets]).reshape(-1, 4),
            classes=np.array([d.class_id for d in dets], dtype=np.int64),
            difficulty=np.array([DIFFICULTIES[(k + j) % 3] for j in range(len(dets))], dtype=object),
        ))
    result = evaluate(graph, plan, stats, gts, cfg, samples=samples)
    want = {}
    for cls_id, cls_name in enumerate(CLASS_NAMES):
        for diff, value in ap40(per_scene, gts, cls_id).items():
            want[(cls_name, diff)] = value
    assert result.ap == want
    if label == "FP32":
        assert set(want.values()) == {1.0}


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
    real_pillarize = detector.pillarize
    monkeypatch.setattr(detector, "pillarize", lambda *args: calls.append(args) or real_pillarize(*args))
    evaluator = make_evaluator(scenes, cfg)
    got = {label: evaluator(graph, parse_plan_label(label), stats) for label in ("FP32", "INT8")}
    assert len(calls) == len(scenes)
    monkeypatch.undo()
    assert got == {label: evaluate(graph, parse_plan_label(label), stats, scenes, cfg).map for label in got}
    assert got["FP32"] == 1.0 > got["INT8"]


def test_evaluate_rejects_samples_of_another_length(batch_setup):
    cfg, graph, stats, samples = batch_setup
    scenes = generate_dataset(DatasetConfig(size=12), seed=9)
    plan = parse_plan_label("FP32")
    with pytest.raises(ValueError, match="4 pillarized samples for 12 scenes"):
        evaluate(graph, plan, stats, scenes, cfg, samples=pillarize_dataset(scenes, cfg)[:4])
    with pytest.raises(ValueError, match="12 pillarized samples for 4 scenes"):
        evaluate(graph, plan, stats, scenes[:4], cfg, samples=pillarize_dataset(scenes, cfg))


@pytest.mark.parametrize("head, shapes", [
    ("bbox_head.conv_cls", "(4, 8, 8) and (4, 8, 8)"),
    ("bbox_head.conv_reg", "(3, 8, 8) and (5, 8, 8)"),
])
def test_evaluate_rejects_a_head_of_the_wrong_width(head, shapes):
    """A fifth channel on either head fails loudly instead of going unscored."""
    cfg = DetectorConfig()
    graph = build_toy_detector(cfg, seed=0)
    layers = [
        dataclasses.replace(l, weight=np.concatenate([l.weight, l.weight[:1]]),
                            bias=np.concatenate([l.bias, [5.0]]).astype(np.float32))
        if l.name == head else l
        for l in graph.layers
    ]
    wide = dataclasses.replace(graph, layers=tuple(layers))
    with pytest.raises(ValueError, match=re.escape(f"got maps of shape {shapes}")):
        evaluate(wide, parse_plan_label("FP32"), None, generate_dataset(DatasetConfig(size=2), seed=1), cfg)


# the keys of fields that became constants, as manifests written before then hold them
REMOVED_KEYS = {"n_classes": 3, "base_size": 2.5, "match_iou": 0.5, "max_points_per_pillar": 8}


@pytest.mark.parametrize("cfg, old_keys", [
    (DetectorConfig(), {}),
    (TINY, {}),
    (DetectorConfig(), REMOVED_KEYS),
], ids=["cfg0", "cfg1", "pre_constants_meta"])
def test_detector_config_survives_the_model_meta(cfg, old_keys, tmp_path):
    meta = {"detector": {**cfg.to_meta(), **old_keys}}
    assert DetectorConfig.from_meta(meta) == cfg
    graph = dataclasses.replace(build_toy_detector(cfg, seed=0), meta=meta)
    loaded = load_model(save_model(graph, tmp_path / "toy"))
    assert graphs_equal(loaded, graph)
    assert DetectorConfig.from_meta(loaded.meta) == cfg


def test_meta_without_the_config_names_the_missing_key():
    graph = dataclasses.replace(build_toy_detector(), meta={})
    scenes = generate_dataset(DatasetConfig(size=2), seed=1)
    with pytest.raises(ValueError, match="no detector config key 'detector'; pass cfg"):
        evaluate(graph, parse_plan_label("FP32"), None, scenes)
    evaluate(graph, parse_plan_label("FP32"), None, scenes, DetectorConfig())
    det = DetectorConfig().to_meta()
    del det["grid"]
    with pytest.raises(ValueError, match="no detector config key 'grid'; pass cfg"):
        DetectorConfig.from_meta({"detector": det})


@pytest.mark.parametrize("fold", [False, True], ids=["raw", "folded"])
def test_default_detector_round_trips_through_one_file(fold, tmp_path):
    graph = build_toy_detector()
    graph = fold_all_bn(graph) if fold else graph
    path = save_model(graph, tmp_path / "toy")
    assert list(tmp_path.iterdir()) == [path]
    assert graphs_equal(load_model(path), graph)


def test_default_detector_weights_are_pinned():
    """Raw and folded digests of the default and the tiny config; a change in
    the builder's draw order or layer numbering changes them."""
    pins = [
        (DetectorConfig(), 0, "9bae18fa093b8e8f75da3144c96ab125d47497be9ff8aa712a9fac24773bbe05",
         "f7ea26e53f3f12f7407203a7913d71811f0c74120ab5b3713298d5763ac2d8ad"),
        (TINY, 0, "62398272897ad181a87e593b29379ef4bd9745f22a290a34290651107e069204",
         "a0697501599173af163af45b21fc0e0522573c760d2718d0b75d6f3d77cb41ac"),
        (TINY, 3, "81cbd3fa4246c2d2bed1763be55729f503c796071920c8febdd3e40ae6cd37fd",
         "dcbed2eb359260c65e7676a9bde97c99b9ec7421d2ff6eda0030ce4ed9000d16"),
    ]
    for cfg, seed, raw, folded in pins:
        graph = build_toy_detector(cfg, seed=seed)
        assert (weights_digest(graph), weights_digest(fold_all_bn(graph))) == (raw, folded), (cfg, seed)


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
