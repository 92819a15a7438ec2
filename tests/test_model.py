"""Model graph: BN folding and the rule that no entry point folds, precision plans, forward execution,
structure checks, equality."""

import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest

from pillarmix import calibration, detector, model
from pillarmix.calibration import calib_size_sweep, per_sample_ranges, run_calibration, stats_from_ranges
from pillarmix.detector import (DetectorConfig, build_toy_detector, detect, evaluate, make_evaluator,
                                make_train_examples, pillarize_dataset)
from pillarmix.model import (
    BatchNorm,
    LayerSpec,
    ModelGraph,
    PrecisionPlan,
    apply_plan,
    dtype_boundaries,
    fold_all_bn,
    fold_bn,
    forward,
    graphs_equal,
    parse_plan_label,
    weights_digest,
)
from pillarmix.qat import TrainConfig, train_qat
from pillarmix.quant import DType, fake_quant, fp16_roundtrip
from pillarmix.scenes import DatasetConfig, generate_dataset, pillarize
from pillarmix.tensor_ops import ConvParams, PillarSample, conv2d, im2col, linear, real_points, relu, stack_samples

from pillar_helpers import TINY, one_scene


def linear_layer(index, din, dout, rng, name=None, relu_flag=False, bn=None, head=False):
    return LayerSpec(
        name=name or f"lin{index}",
        kind="linear",
        weight=rng.normal(scale=0.5, size=(dout, din)).astype(np.float32),
        bias=rng.normal(scale=0.1, size=dout).astype(np.float32),
        relu=relu_flag,
        bn=bn,
        is_head=head,
    )


def conv_layer(index, cin, cout, k, rng, stride=(1, 1), padding=(0, 0), relu_flag=False, bn=None):
    return LayerSpec(
        name=f"conv{index}",
        kind="conv2d",
        weight=rng.normal(scale=0.3, size=(cout, cin, k, k)).astype(np.float32),
        bias=rng.normal(scale=0.1, size=cout).astype(np.float32),
        conv=ConvParams(stride=stride, padding=padding),
        relu=relu_flag,
        bn=bn,
    )


def random_bn(channels, rng, eps=1e-5):
    return BatchNorm(
        gamma=rng.uniform(0.5, 1.5, size=channels).astype(np.float32),
        beta=rng.normal(scale=0.2, size=channels).astype(np.float32),
        mean=rng.normal(scale=0.3, size=channels).astype(np.float32),
        var=rng.uniform(0.5, 2.0, size=channels).astype(np.float32),
        eps=eps,
    )


class TestFoldBn:
    def test_identity_bn_is_noop(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm(
            gamma=np.ones(3, np.float32),
            beta=np.zeros(3, np.float32),
            mean=np.zeros(3, np.float32),
            var=np.ones(3, np.float32),
            eps=0.0,
        )
        layer = linear_layer(1, 4, 3, rng, bn=bn)
        folded = fold_bn(layer)
        np.testing.assert_array_equal(folded.weight, layer.weight)
        np.testing.assert_array_equal(folded.bias, layer.bias)
        assert folded.bn is None

    def test_scale_shift_bn(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(2, 4)).astype(np.float32)
        bn = BatchNorm(
            gamma=np.full(2, 2.0, np.float32),
            beta=np.full(2, 3.0, np.float32),
            mean=np.zeros(2, np.float32),
            var=np.ones(2, np.float32),
            eps=0.0,
        )
        layer = LayerSpec(
            name="l", kind="linear", weight=w, bias=np.zeros(2, np.float32), bn=bn
        )
        folded = fold_bn(layer)
        np.testing.assert_allclose(folded.weight, 2.0 * w, rtol=1e-7)
        np.testing.assert_allclose(folded.bias, [3.0, 3.0], rtol=1e-7)

    @pytest.mark.parametrize("kind", ["linear", "conv2d"])
    def test_folded_matches_two_step_oracle(self, kind):
        rng = np.random.default_rng(2)
        for case in range(20):
            bn = random_bn(3, rng)
            if kind == "linear":
                layer = linear_layer(1, 5, 3, rng, bn=bn)
                x = rng.normal(size=(4, 5)).astype(np.float32)
                raw = linear(x, layer.weight, layer.bias)
                shape = (1, -1)
            else:
                layer = conv_layer(1, 2, 3, 3, rng, padding=(1, 1), bn=bn)
                x = rng.normal(size=(1, 6, 6, 2)).astype(np.float32)  # channels-last
                raw, _ = conv2d(x, layer.weight, layer.bias, layer.conv)
                shape = (1, 1, 1, -1)
            two_step = (raw - bn.mean.reshape(shape)) * (
                bn.gamma.reshape(shape) / np.sqrt(bn.var.reshape(shape) + bn.eps)
            ) + bn.beta.reshape(shape)
            folded = fold_bn(layer)
            if kind == "linear":
                got = linear(x, folded.weight, folded.bias)
            else:
                got, _ = conv2d(x, folded.weight, folded.bias, folded.conv)
            assert np.max(np.abs(got - two_step)) < 1e-5

    @pytest.mark.parametrize("bad_var", [-1.0, np.nan])
    def test_rejects_bad_variance(self, bad_var):
        rng = np.random.default_rng(3)
        bn = random_bn(3, rng, eps=0.0)
        bn = dataclasses.replace(bn, var=np.array([bad_var, 1.0, 1.0], np.float32))
        layer = linear_layer(1, 4, 3, rng, bn=bn)
        with pytest.raises(ValueError, match=f"layer {layer.name!r} has non-positive"):
            fold_bn(layer)

    def test_rejects_missing_bn(self):
        layer = linear_layer(1, 4, 3, np.random.default_rng(4))
        with pytest.raises(ValueError, match="no batch norm"):
            fold_bn(layer)


# each entry point that takes a graph, called as (graph, scenes, their samples, the ranges of their samples)
ENTRY_POINTS = {
    "detect": lambda g, scenes, samples, ranges: detect(g, PrecisionPlan(), None, TINY, samples),
    "evaluate": lambda g, scenes, samples, ranges: evaluate(g, PrecisionPlan(), None, scenes, TINY, samples),
    "make_evaluator": lambda g, scenes, samples, ranges: make_evaluator(scenes, TINY)(g, PrecisionPlan(), None),
    "per_sample_ranges": lambda g, scenes, samples, ranges: per_sample_ranges(g, samples),
    "run_calibration": lambda g, scenes, samples, ranges: run_calibration(g, samples),
    "calib_size_sweep": lambda g, scenes, samples, ranges: calib_size_sweep(g, samples, [1], [0], lambda stats: 0.0),
    "stats_from_ranges": lambda g, scenes, samples, ranges: stats_from_ranges(g, ranges),
    "train_qat": lambda g, scenes, samples, ranges: train_qat(g, PrecisionPlan(), None,
                                                              make_train_examples(scenes, TINY), TrainConfig(epochs=1)),
}


# the entry points that plan the graph (apply_plan) before any sample runs
PLANNING_ENTRY_POINTS = ("detect", "evaluate", "make_evaluator", "per_sample_ranges", "run_calibration")


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_runs_the_graph_it_is_given(entry, monkeypatch):
    """None folds BN: an unfolded graph raises naming its first BN layer, even
    with no samples where the entry point plans it, and a folded one runs
    without another fold."""
    raw = build_toy_detector(TINY, seed=0)
    scenes = generate_dataset(DatasetConfig(size=2), seed=4)
    samples = pillarize_dataset(scenes, TINY)
    inputs = scenes, samples, per_sample_ranges(fold_all_bn(raw), samples)
    names_bn = r"^layer 1 \('voxel_encoder\.pfn\.linear'\): still carries batch norm"
    with pytest.raises(ValueError, match=names_bn):
        ENTRY_POINTS[entry](raw, *inputs)
    if entry in PLANNING_ENTRY_POINTS:
        with pytest.raises(ValueError, match=names_bn):
            ENTRY_POINTS[entry](raw, [], [], [])
    folded = fold_all_bn(raw)
    for module in (detector, calibration):
        monkeypatch.setattr(module, "fold_all_bn", lambda graph: pytest.fail("folded a graph"))
    ENTRY_POINTS[entry](folded, *inputs)


def two_layer_graph(rng):
    return ModelGraph(
        layers=(
            linear_layer(1, 6, 6, rng, relu_flag=True),
            linear_layer(2, 6, 4, rng, head=True),
        )
    )


class TestLayerIndex:
    """A weight layer's index is its place among the graph's weight layers."""

    def test_one_layer_object_carries_the_index_of_its_place_in_each_graph(self):
        rng = np.random.default_rng(30)
        shared, other = linear_layer(1, 4, 4, rng), linear_layer(2, 4, 4, rng)
        first, second = ModelGraph(layers=(shared, other)), ModelGraph(layers=(other, shared))
        assert [(l.name, l.index) for l in first.layers] == [("lin1", 1), ("lin2", 2)]
        assert [(l.name, l.index) for l in second.layers] == [("lin2", 1), ("lin1", 2)]
        assert second.layers[1].weight is shared.weight  # a copy of the layer, not of its arrays
        assert shared.index is None and other.index is None

    def test_the_index_is_not_settable(self):
        rng = np.random.default_rng(31)
        layer = linear_layer(1, 4, 4, rng, bn=random_bn(4, rng))
        with pytest.raises(TypeError, match="index"):
            LayerSpec(name="l", kind="linear", index=1, weight=layer.weight, bias=layer.bias)
        with pytest.raises(ValueError, match="index"):
            dataclasses.replace(layer, index=1)
        assert fold_bn(ModelGraph(layers=(layer,)).layers[0]).index is None  # outside a graph


class TestPrecisionPlan:
    def test_apply_default_fp32(self):
        g = two_layer_graph(np.random.default_rng(5))
        out = apply_plan(g, PrecisionPlan())
        assert all(l.precision is DType.FP32 for l in out.weight_layers)

    def test_apply_paper_notation(self):
        rng = np.random.default_rng(6)
        layers = [linear_layer(i, 4, 4, rng) for i in range(1, 24)]
        g = ModelGraph(layers=tuple(layers))
        plan = parse_plan_label("FP16: 1,22")
        out = apply_plan(g, plan)
        tags = {l.index: l.precision for l in out.weight_layers}
        assert tags[1] is DType.FP16 and tags[22] is DType.FP16
        assert all(tags[i] is DType.INT8 for i in tags if i not in (1, 22))
        assert plan.label() == "FP16: 1,22"

    def test_label_round_trip_preserves_rank_order(self):
        plan = parse_plan_label("FP16: 1,22,3")
        assert list(plan.overrides) == [1, 22, 3]
        assert plan.label() == "FP16: 1,22,3"

    @pytest.mark.parametrize(
        "plan",
        [
            PrecisionPlan(DType.FP32),
            PrecisionPlan(DType.FP16),
            PrecisionPlan(DType.INT8),
            PrecisionPlan(DType.INT8, {1: DType.FP16, 22: DType.FP16, 3: DType.FP16}),
            PrecisionPlan(DType.INT8, {1: DType.FP32}),
            PrecisionPlan(DType.FP16, {3: DType.INT8}),
        ],
        ids=lambda plan: plan.label(),
    )
    def test_parse_reads_back_every_label(self, plan):
        assert parse_plan_label(plan.label()) == plan

    @pytest.mark.parametrize("label", ["FP16:", "FP16: ", "FP16: 1,,3", "FP16: 1,"])
    def test_parse_rejects_an_empty_index(self, label):
        with pytest.raises(ValueError, match=f"unrecognized plan label {label!r}"):
            parse_plan_label(label)

    @pytest.mark.parametrize("label", ["FP16: 1,13,3,13", "INT8 except 1=fp16,1=fp32"])
    def test_parse_rejects_a_repeated_index(self, label):
        with pytest.raises(ValueError, match=f"unrecognized plan label {label!r}"):
            parse_plan_label(label)

    @pytest.mark.parametrize("key", [1.0, True, 0, -2, "1"])
    def test_override_keys_must_be_layer_indices(self, key):
        with pytest.raises(ValueError, match=rf"plan override key {re.escape(repr(key))} is not a layer index"):
            PrecisionPlan(overrides={key: DType.FP16})

    def test_overrides_are_read_only_and_plans_copy_and_pickle(self):
        """An override set after construction would skip the key and DType
        checks: index 0 would pass apply_plan, and the string 'fp16' would
        reach LayerSpec.precision and run FP32."""
        plan = parse_plan_label("FP16: 1,22,3")
        for key, value in ((0, DType.FP16), (1, "fp16")):
            with pytest.raises(TypeError):
                plan.overrides[key] = value
        with pytest.raises(TypeError):
            del plan.overrides[1]
        for again in (copy.deepcopy(plan), pickle.loads(pickle.dumps(plan))):
            assert again == plan and list(again.overrides) == [1, 22, 3] and again.label() == "FP16: 1,22,3"
            with pytest.raises(TypeError):
                again.overrides[1] = DType.FP32

    def test_apply_idempotent(self):
        g = two_layer_graph(np.random.default_rng(7))
        plan = PrecisionPlan(default=DType.INT8, overrides={1: DType.FP16})
        once = apply_plan(g, plan)
        twice = apply_plan(once, plan)
        assert graphs_equal(once, twice)
        assert [l.precision for l in once.layers] == [l.precision for l in twice.layers]

    def test_dtype_names_mean_their_dtype(self):
        """'int8' runs INT8, bit for bit; an unknown name raises instead of running FP32."""
        rng = np.random.default_rng(19)
        g = two_layer_graph(rng)
        x = one_scene(rng.normal(size=(3, 6)))
        stats = run_calibration(g, [x])
        for by_name, by_dtype in [
            (PrecisionPlan(default="int8"), PrecisionPlan(default=DType.INT8)),
            (PrecisionPlan(overrides={1: "fp16"}), PrecisionPlan(overrides={1: DType.FP16})),
        ]:
            assert by_name == by_dtype and by_name.label() == by_dtype.label()
            np.testing.assert_array_equal(forward(apply_plan(g, by_name), x, stats=stats),
                                          forward(apply_plan(g, by_dtype), x, stats=stats))
        assert not np.array_equal(forward(apply_plan(g, PrecisionPlan(default="int8")), x, stats=stats),
                                  forward(g, x))
        with pytest.raises(ValueError, match="'int4' is not a valid DType"):
            PrecisionPlan(default="int4")
        with pytest.raises(ValueError, match="'int4' is not a valid DType"):
            PrecisionPlan(overrides={1: "int4"})

    def test_unknown_index_rejected(self):
        g = two_layer_graph(np.random.default_rng(8))
        with pytest.raises(ValueError, match=r"unknown layer indices \[9\]"):
            apply_plan(g, PrecisionPlan(overrides={9: DType.FP16}))
        # the graph numbers its weight layers 1..2: 2 is the last known index
        assert apply_plan(g, PrecisionPlan(overrides={2: DType.FP16})).weight_layers[1].precision is DType.FP16
        with pytest.raises(ValueError, match=r"unknown layer indices \[3\]"):
            apply_plan(g, PrecisionPlan(overrides={2: DType.FP16, 3: DType.FP16}))

    def test_apply_never_mutates_weights(self):
        g = two_layer_graph(np.random.default_rng(9))
        digest = weights_digest(g)
        apply_plan(g, PrecisionPlan(default=DType.INT8))
        assert weights_digest(g) == digest

    def test_boundary_count(self):
        fp16, int8 = DType.FP16, DType.INT8
        assert dtype_boundaries([int8] * 5) == 0
        assert dtype_boundaries([fp16] + [int8] * 4) == 1
        seq = [fp16] + [int8] * 20 + [fp16, int8]
        assert dtype_boundaries(seq) == 3


class TestForward:
    def test_all_fp32_equals_plain_kernel_chain(self):
        rng = np.random.default_rng(10)
        g = two_layer_graph(rng)
        sample = one_scene(rng.normal(size=(3, 6)))
        (got,) = forward(g, sample)
        lin1, lin2 = g.layers
        points = real_points(sample.features, sample.point_mask)
        want = linear(relu(linear(points, lin1.weight, lin1.bias)), lin2.weight, lin2.bias)
        np.testing.assert_array_equal(got, want)

    def test_point_layers_run_on_the_real_points_and_are_observed_padded(self):
        """Both layers of a point chain run on the real points only, so the head
        returns one row per point; observe_fn sees each layer's input in the
        padded [P, M, C] slots, the sample's features themselves at layer 1 and
        zeros in the empty slots at layer 2."""
        rng = np.random.default_rng(26)
        g = two_layer_graph(rng)
        mask = np.array([[True, True, False], [True, False, False]])
        features = np.where(mask[..., None], rng.normal(size=(2, 3, 6)), 0.0).astype(np.float32)
        sample = PillarSample(features=features, point_mask=mask, coords=np.array([[0, 0], [0, 1]]), grid=(1, 2))
        observed = {}
        (out,) = forward(g, sample, observe_fn=lambda layer, x: observed.__setitem__(layer.index, x))
        lin1, lin2 = g.layers
        hidden = relu(linear(features[mask], lin1.weight, lin1.bias))
        assert out.tobytes() == linear(hidden, lin2.weight, lin2.bias).tobytes() and out.shape == (3, 4)
        assert observed[1] is features
        padded = np.zeros((2, 3, 6), np.float32)
        padded[mask] = hidden
        assert observed[2].tobytes() == padded.tobytes()

    def test_int8_identity_linear_error_bound(self):
        rng = np.random.default_rng(11)
        layer = LayerSpec(
            name="id",
            kind="linear",
            weight=np.eye(8, dtype=np.float32),
            bias=np.zeros(8, np.float32),
            is_head=True,
        )
        g = ModelGraph(layers=(layer,))
        x = rng.uniform(-2.0, 2.0, size=(4, 8)).astype(np.float32)
        stats = run_calibration(g, [one_scene(x)])
        q = apply_plan(g, PrecisionPlan(default=DType.INT8))
        (out,) = forward(q, one_scene(x), stats=stats)
        scale = stats[1].act_qp.scale
        assert np.max(np.abs(out - x)) <= scale / 2 + 1e-6

    def test_fp16_fixed_points_match_fp32(self):
        rng = np.random.default_rng(12)
        w = rng.integers(-8, 9, size=(4, 4)).astype(np.float32) / 4.0
        layer = LayerSpec(name="h", kind="linear", weight=w, bias=np.zeros(4, np.float32), is_head=True)
        g = ModelGraph(layers=(layer,))
        x = one_scene(rng.integers(-32, 33, size=(2, 4)) / 8.0)
        (fp32_out,) = forward(g, x)
        h = apply_plan(g, PrecisionPlan(default=DType.FP16))
        np.testing.assert_array_equal(forward(h, x)[0], fp32_out)

    def test_missing_quant_params_names_layer(self):
        g = two_layer_graph(np.random.default_rng(13))
        q = apply_plan(g, PrecisionPlan(default=DType.INT8))
        want = "layer 1 ('lin1'): is tagged int8 but calibration stats supply no quant params for it"
        with pytest.raises(ValueError, match=re.escape(want)):
            forward(q, one_scene(np.zeros((1, 6))))

    @pytest.mark.parametrize("precision", [DType.INT8, DType.FP16])
    def test_nan_at_precision_boundary_names_layer(self, precision):
        rng = np.random.default_rng(16)
        g = two_layer_graph(rng)
        stats = run_calibration(g, [one_scene(rng.normal(size=(2, 6)))])
        x = np.zeros((2, 6), dtype=np.float32)
        x[1, 3] = np.nan
        x = one_scene(x)
        planned = apply_plan(g, PrecisionPlan(default=precision))
        with pytest.raises(ValueError, match="layer 1 .*'lin1'.*NaN"):
            forward(planned, x, stats=stats)
        # the FP32 path has no precision boundary and stays untouched
        assert np.isnan(forward(g, x)[0]).any()

    def test_stats_from_another_graph_rejected(self):
        rng = np.random.default_rng(17)
        g = two_layer_graph(rng)
        stats = run_calibration(g, [one_scene(rng.normal(size=(2, 6)))])
        other = ModelGraph(layers=tuple(
            dataclasses.replace(l, name=f"other.{l.name}") for l in g.layers
        ))
        q = apply_plan(other, PrecisionPlan(default=DType.INT8))
        with pytest.raises(ValueError, match=r"layer 1 \('other\.lin1'\): .* recorded for layer 'lin1'; stats from"):
            forward(q, one_scene(np.zeros((1, 6))), stats=stats)
        # the same stats drive the graph they were recorded from
        forward(apply_plan(g, PrecisionPlan(default=DType.INT8)), one_scene(np.zeros((1, 6))), stats=stats)

    def test_unfolded_batch_norm_rejected_naming_the_layer(self):
        rng = np.random.default_rng(18)
        g = ModelGraph(layers=(linear_layer(1, 6, 6, rng),
                               linear_layer(2, 6, 4, rng, bn=random_bn(4, rng), head=True)))
        with pytest.raises(ValueError, match="layer 2 .*'lin2'.* batch norm"):
            forward(g, one_scene(np.zeros((1, 6))))
        forward(fold_all_bn(g), one_scene(np.zeros((1, 6))))

    def test_quantizing_all_zero_input_layer_changes_nothing(self):
        rng = np.random.default_rng(14)
        g = two_layer_graph(rng)
        x = one_scene(np.zeros((2, 6)))
        stats = run_calibration(g, [x])
        q = apply_plan(g, PrecisionPlan(overrides={1: DType.INT8}))
        np.testing.assert_array_equal(forward(q, x, stats=stats), forward(g, x))

    def test_a_chain_without_a_head_is_rejected(self):
        rng = np.random.default_rng(19)
        g = ModelGraph(layers=(linear_layer(1, 6, 6, rng), linear_layer(2, 6, 4, rng)))
        with pytest.raises(ValueError, match="no head layer"):
            forward(g, one_scene(np.zeros((1, 6))))

    def test_a_sample_on_another_grid_is_rejected_naming_the_scatter_and_both_grids(self):
        graph = fold_all_bn(build_toy_detector())
        sample = pillarize(generate_dataset(DatasetConfig(size=1), seed=0)[0], (8, 8))
        want = "scatter layer 'middle_encoder.scatter': has grid (16, 16), but the sample's grid is (8, 8)"
        with pytest.raises(ValueError, match=re.escape(want)):
            forward(graph, sample)

    def test_an_image_instead_of_a_pillar_sample_is_rejected_naming_both(self):
        graph = fold_all_bn(build_toy_detector())
        with pytest.raises(TypeError, match=r"takes a PillarSample \(a batch of pillarized scenes\), got ndarray"):
            forward(graph, np.zeros((1, 16, 16, 16), np.float32))

    def test_graph_validation(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError, match="unknown kind"):
            ModelGraph(layers=(LayerSpec(name="x", kind="softmax"),))
        head = dataclasses.replace(linear_layer(1, 3, 3, rng), is_head=True)
        tail = linear_layer(2, 3, 3, rng)
        with pytest.raises(ValueError, match="follows a head"):
            ModelGraph(layers=(head, tail))
        for stride, padding, match in [((1.5, 1), (0, 0), r"stride must be two integers >= 1, got \(1\.5, 1\)"),
                                       ((2,), (0, 0), r"stride must be two integers >= 1, got \(2,\)"),
                                       ((1, 1), (True, True), r"padding .* >= 0, got \(True, True\)")]:
            with pytest.raises(ValueError, match=match):
                conv_layer(3, 1, 2, 3, rng, stride=stride, padding=padding)
        for grid in [(16.0, 16), (16,), None]:  # a scatter always carries its grid
            with pytest.raises(ValueError, match=rf"scatter layer 'scatter' has grid {re.escape(repr(grid))}, not two"):
                ModelGraph(layers=(LayerSpec(name="scatter", kind="scatter", grid=grid),))
        with pytest.raises(ValueError, match="layer name 5 is not a string"):
            ModelGraph(layers=(dataclasses.replace(tail, name=5),))

    @pytest.mark.parametrize("kind, change, want", [
        ("linear", {"weight": None}, "weight layer {!r} is missing weight or bias"),
        ("conv2d", {"bias": None}, "weight layer {!r} is missing weight or bias"),
        ("conv2d", {"conv": None}, "conv layer {!r} is missing conv params"),
    ])
    def test_a_weight_layer_without_its_arrays_or_conv_params_is_rejected_naming_it(self, kind, change, want):
        layers = list(build_toy_detector().layers)
        k = next(k for k, l in enumerate(layers) if l.kind == kind)
        layers[k] = dataclasses.replace(layers[k], **change)
        with pytest.raises(ValueError, match=re.escape(want.format(layers[k].name))):
            ModelGraph(layers=tuple(layers))

    @pytest.mark.parametrize("name, change, field", [
        ("voxel_encoder.maxpool", {"weight": np.ones(3, np.float32)}, "weight"),
        ("voxel_encoder.maxpool", {"relu": True}, "relu"),
        ("voxel_encoder.maxpool", {"bn": random_bn(3, np.random.default_rng(0))}, "bn"),
        ("voxel_encoder.maxpool", {"precision": DType.FP16}, "precision"),
        ("middle_encoder.scatter", {"bias": np.zeros(3, np.float32)}, "bias"),
        ("middle_encoder.scatter", {"conv": ConvParams()}, "conv"),
        ("neck.upsample", {"is_head": True}, "is_head"),
        ("neck.upsample", {"grid": (16, 16)}, "grid"),
        ("voxel_encoder.pfn.linear", {"conv": ConvParams()}, "conv"),
        ("neck.conv", {"grid": (16, 16)}, "grid"),
    ])
    def test_a_layer_sets_only_the_fields_its_kind_reads(self, name, change, field):
        """Glue layers take no weight-layer field, only conv2d has conv and only
        scatter has grid; each breach names the layer and the field."""
        layers = [dataclasses.replace(l, **change) if l.name == name else l for l in build_toy_detector().layers]
        kind = next(l.kind for l in layers if l.name == name)
        with pytest.raises(ValueError, match=rf"{kind} layer '{name}' sets {field}, which its kind does not read"):
            ModelGraph(layers=tuple(layers))


@pytest.fixture(scope="module")
def default_detector():
    """The default detector, calibrated on 4 scenes, and a batch of 3 others."""
    cfg = DetectorConfig()
    graph = fold_all_bn(build_toy_detector(cfg, seed=0))
    stats = run_calibration(graph, pillarize_dataset(generate_dataset(DatasetConfig(size=4), seed=7), cfg))
    batch = stack_samples(pillarize_dataset(generate_dataset(DatasetConfig(size=3), seed=8), cfg))
    return graph, stats, batch


class TestEachHeadTransformsTheTrunk:
    """Both heads of the default detector read one trunk tensor; each turns it
    into its own precision, an INT8 head under its own stats entry."""

    @staticmethod
    def head_inputs(planned, stats, batch):
        """The trunk and each head's tape entry from one taped forward."""
        tape = []
        forward(planned, batch, stats=stats, tape=tape)
        heads = [e for e in tape if e.layer.is_head]
        assert len(heads) == 2 and all(e.x_in is heads[0].x_in for e in heads)
        return heads[0].x_in, heads

    @staticmethod
    def assert_reads(entry, x):
        """entry's head conv consumed the patch matrix of x, bit for bit."""
        want = im2col(x, entry.layer.weight.shape[2:], entry.layer.conv)
        assert entry.x_used.shape == want.shape and entry.x_used.tobytes() == want.tobytes()

    @pytest.mark.parametrize("label, transform", [("FP16", "fp16_roundtrip"), ("INT8", "fake_quant")])
    def test_each_weight_layer_transforms_its_own_input_and_weight(self, default_detector, monkeypatch, label,
                                                                  transform):
        graph, stats, batch = default_detector
        planned = apply_plan(graph, parse_plan_label(label))
        calls = []
        wrapped = getattr(model, transform)
        monkeypatch.setattr(model, transform, lambda t, *args: calls.append(t) or wrapped(t, *args))
        trunk, heads = self.head_inputs(planned, stats, batch)
        assert len(calls) == 2 * graph.num_indexed  # each layer's input, then its weight
        assert all(w is l.weight for w, l in zip(calls[1::2], planned.weight_layers))
        assert sum(t is trunk for t in calls) == len(heads)  # no head reuses another's transform

    def test_heads_of_two_dtypes_each_get_their_own(self, default_detector):
        graph, stats, batch = default_detector
        second = [l.index for l in graph.weight_layers if l.is_head][1]
        planned = apply_plan(graph, parse_plan_label(f"INT8 except {second}=fp16"))
        trunk, (int8_head, fp16_head) = self.head_inputs(planned, stats, batch)
        assert (int8_head.layer.precision, fp16_head.layer.precision) == (DType.INT8, DType.FP16)
        self.assert_reads(int8_head, fake_quant(trunk, stats[int8_head.layer.index].act_qp))
        self.assert_reads(fp16_head, fp16_roundtrip(trunk))

    def test_int8_heads_of_two_act_scales_each_get_their_own(self, default_detector):
        graph, stats, batch = default_detector
        first, second = (l.index for l in graph.weight_layers if l.is_head)
        assert stats[first].act_qp == stats[second].act_qp  # calibrated on one tensor
        wider = dataclasses.replace(stats[second], act_max=2 * stats[second].act_max)
        stats = {**stats, second: wider}
        trunk, heads = self.head_inputs(apply_plan(graph, PrecisionPlan(default=DType.INT8)), stats, batch)
        want = [fake_quant(trunk, stats[e.layer.index].act_qp) for e in heads]
        assert want[0].tobytes() != want[1].tobytes()
        for entry, x in zip(heads, want):
            self.assert_reads(entry, x)


class TestEveryLayerErrorNamesTheLayer:
    """forward prefixes each ValueError a layer raises with that layer, once:
    "layer <index> ('<name>'): " or "<kind> layer '<name>': "."""

    @pytest.mark.parametrize("case", ["four_features", "pillar_without_points", "mask_a_row_short", "coord_off_grid",
                                      "float_coords", "float_scene_ids"])
    def test_a_bad_sample_names_the_layer_that_rejects_it(self, default_detector, case):
        graph, _, batch = default_detector
        p = len(batch.features)
        no_points = batch.point_mask.copy()
        no_points[0] = False
        off_grid = batch.coords.copy()
        off_grid[0] = (16, 0)
        change, want = {
            "four_features": ({"features": batch.features[..., :4]},
                              "layer 1 ('voxel_encoder.pfn.linear'): linear input features 4 != weight in-features 5"),
            "pillar_without_points": ({"point_mask": no_points},
                                      "maxpool layer 'voxel_encoder.maxpool': pillar with no real points"),
            "mask_a_row_short": ({"point_mask": batch.point_mask[1:]},
                                 f"layer 1 ('voxel_encoder.pfn.linear'): point mask shape ({p - 1}, 8) != "
                                 f"features' (pillars, points) ({p}, 8)"),
            "coord_off_grid": ({"coords": off_grid},
                               "scatter layer 'middle_encoder.scatter': pillar coord (16, 0) outside grid (16, 16)"),
            # a float coord's cell is its integer part in the forward, but the backward cannot index by it
            "float_coords": ({"coords": batch.coords + 0.7},
                             "scatter layer 'middle_encoder.scatter': pillar coords are float64, not integers"),
            "float_scene_ids": ({"scene_ids": batch.scene_ids.astype(np.float64)},
                                "scatter layer 'middle_encoder.scatter': pillar scene ids are float64, not integers"),
        }[case]
        with pytest.raises(ValueError, match="^" + re.escape(want)):
            forward(graph, dataclasses.replace(batch, **change))

    @pytest.mark.parametrize("label, boundary", [("FP16 except 1=fp32", "FP16"), ("INT8 except 1=fp32", "INT8")])
    def test_a_nan_names_the_first_layer_whose_precision_boundary_it_reaches(self, default_detector, label, boundary):
        graph, stats, batch = default_detector
        features = batch.features.copy()
        features[0, 0, 0] = np.nan  # passes the FP32 layer 1, maxpool and scatter as NaN
        nan_batch = dataclasses.replace(batch, features=features)
        want = r"^layer 2 \('backbone\.block0\.conv0'\): \d+ NaN value\(s\) .*NaN has no INT8 or FP16 encoding$"
        with pytest.raises(ValueError, match=want):
            forward(apply_plan(graph, parse_plan_label(label)), nan_batch, stats=stats)

    def test_a_layer_still_carrying_bn_is_named(self, default_detector):
        graph, _, batch = default_detector
        unfolded = {l.name: l for l in build_toy_detector().layers}
        layers = tuple(unfolded[l.name] if l.name == "neck.conv" else l for l in graph.layers)
        want = "layer 11 ('neck.conv'): still carries batch norm; fold it before execution (fold_all_bn)"
        with pytest.raises(ValueError, match="^" + re.escape(want) + "$"):
            forward(ModelGraph(layers=layers), batch)

    def test_missing_stats_and_another_models_stats_are_named(self, default_detector):
        graph, stats, batch = default_detector
        planned = apply_plan(graph, PrecisionPlan(default=DType.INT8))
        missing = {i: e for i, e in stats.items() if i != 5}
        want = "layer 5 ('backbone.block1.conv0'): is tagged int8 but calibration stats supply no quant params for it"
        with pytest.raises(ValueError, match="^" + re.escape(want) + "$"):
            forward(planned, batch, stats=missing)
        other = {**stats, 5: dataclasses.replace(stats[5], name="other.conv")}
        want = ("layer 5 ('backbone.block1.conv0'): is tagged int8 but its calibration stats were recorded for "
                "layer 'other.conv'; stats from another model?")
        with pytest.raises(ValueError, match="^" + re.escape(want) + "$"):
            forward(planned, batch, stats=other)

    def test_an_observe_fn_error_that_is_no_value_error_passes_through_unnamed(self, default_detector):
        graph, _, batch = default_detector

        def observe(layer, x):
            raise RuntimeError(f"observed {layer.name}")

        with pytest.raises(RuntimeError, match="^observed voxel_encoder.pfn.linear$"):
            forward(graph, batch, observe_fn=observe)


class TestGraphsEqual:
    def test_equality_is_bit_exact(self):
        rng = np.random.default_rng(16)
        g = ModelGraph(layers=(linear_layer(1, 5, 6, rng, relu_flag=True, bn=random_bn(6, rng)),
                               conv_layer(2, 1, 2, 3, rng, stride=(2, 2), padding=(1, 1))))
        lin = g.layers[0]

        def with_first(layer):
            return dataclasses.replace(g, layers=(layer,) + g.layers[1:])

        zero = np.zeros_like(lin.bias)
        assert not graphs_equal(with_first(dataclasses.replace(lin, bias=zero)),
                                with_first(dataclasses.replace(lin, bias=-zero)))
        nan_bn = dataclasses.replace(lin.bn, mean=np.full_like(lin.bn.mean, np.nan))
        with_nan = with_first(dataclasses.replace(lin, bn=nan_bn))
        assert graphs_equal(with_nan, with_nan)
        assert not graphs_equal(g, with_first(dataclasses.replace(lin, weight=lin.weight.reshape(5, 6))))
        assert not graphs_equal(g, with_first(dataclasses.replace(lin, bn=dataclasses.replace(lin.bn, eps=1e-3))))
        assert not graphs_equal(g, with_first(dataclasses.replace(lin, relu=False)))
        # a graph is its layers alone
        assert [f.name for f in dataclasses.fields(ModelGraph)] == ["layers"]
        assert graphs_equal(g, ModelGraph(layers=g.layers))
