"""Model graph: BN folding, precision plans, forward execution, structure checks, equality."""

import dataclasses
import re

import numpy as np
import pytest

from pillarmix import model
from pillarmix.calibration import CalibrationStats, run_calibration
from pillarmix.detector import DetectorConfig, build_toy_detector, pillarize_dataset
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
from pillarmix.quant import DType
from pillarmix.scenes import DatasetConfig, generate_dataset, pillarize
from pillarmix.tensor_ops import ConvParams, conv2d, linear, relu, stack_samples

from pillar_helpers import one_scene


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
        want = linear(relu(linear(sample.features, lin1.weight, lin1.bias)), lin2.weight, lin2.bias)
        np.testing.assert_array_equal(got, want)

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
        assert np.max(np.abs(out[:, 0] - x)) <= scale / 2 + 1e-6

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
        with pytest.raises(RuntimeError, match="layer 1 .*'lin1'.* no quant params"):
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
        with pytest.raises(RuntimeError, match="layer 1 .*'other.lin1'.*'lin1'"):
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
        want = "scatter layer 'middle_encoder.scatter' has grid (16, 16), but the sample's grid is (8, 8)"
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


def record_calls(monkeypatch, name):
    """Patch model.<name> to record the tensor each call transforms."""
    calls = []
    transform = getattr(model, name)

    def recorded(t, *args):
        calls.append(t)
        return transform(t, *args)

    monkeypatch.setattr(model, name, recorded)
    return calls


def forward_transforming_per_head(monkeypatch, graph, batch, stats):
    """forward with every layer transforming its input afresh, heads included."""
    kernel_inputs = model._kernel_inputs
    with monkeypatch.context() as m:
        m.setattr(model, "_kernel_inputs", lambda layer, x, stats, _: kernel_inputs(layer, x, stats, {}))
        return forward(graph, batch, stats=stats)


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestHeadsShareTheTrunkTransform:
    """Both heads of the default detector read one trunk tensor; each (dtype,
    INT8 act scale) among them transforms it once."""

    @pytest.mark.parametrize("label, transform", [("FP16", "fp16_roundtrip"), ("INT8", "fake_quant")])
    def test_one_transform_serves_both_heads(self, default_detector, monkeypatch, label, transform):
        graph, stats, batch = default_detector
        planned = apply_plan(graph, parse_plan_label(label))
        calls = record_calls(monkeypatch, transform)
        tape = []
        heads = forward(planned, batch, stats=stats, tape=tape)
        trunk = tape[-1].x_in
        assert [e.layer.is_head for e in tape[-3:]] == [False, True, True] and tape[-2].x_in is trunk
        assert sum(t is trunk for t in calls) == 1
        assert len(calls) == 2 * graph.num_indexed - 1  # every weight, every input but one
        assert_bit_identical(heads, forward_transforming_per_head(monkeypatch, planned, batch, stats))

    def test_heads_of_two_dtypes_each_get_their_own(self, default_detector, monkeypatch):
        graph, stats, batch = default_detector
        second = [l.index for l in graph.weight_layers if l.is_head][1]
        planned = apply_plan(graph, parse_plan_label(f"INT8 except {second}=fp16"))
        int8_calls = record_calls(monkeypatch, "fake_quant")
        fp16_calls = record_calls(monkeypatch, "fp16_roundtrip")
        tape = []
        heads = forward(planned, batch, stats=stats, tape=tape)
        trunk = tape[-1].x_in
        assert [sum(t is trunk for t in calls) for calls in (int8_calls, fp16_calls)] == [1, 1]
        assert_bit_identical(heads, forward_transforming_per_head(monkeypatch, planned, batch, stats))

    def test_int8_heads_of_two_act_scales_each_get_their_own(self, default_detector, monkeypatch):
        graph, stats, batch = default_detector
        first, second = (l.index for l in graph.weight_layers if l.is_head)
        assert stats[first].act_qp == stats[second].act_qp  # calibrated on one tensor
        wider = dataclasses.replace(stats[second], act_max=2 * stats[second].act_max)
        stats = CalibrationStats(layers={**stats.layers, second: wider})
        planned = apply_plan(graph, PrecisionPlan(default=DType.INT8))
        calls = record_calls(monkeypatch, "fake_quant")
        tape = []
        heads = forward(planned, batch, stats=stats, tape=tape)
        assert sum(t is tape[-1].x_in for t in calls) == 2
        assert_bit_identical(heads, forward_transforming_per_head(monkeypatch, planned, batch, stats))


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
        assert not graphs_equal(g, dataclasses.replace(g, meta={"detector": {}}))
