"""Model graph: BN folding, precision plans, forward execution, serialization."""

import dataclasses
import json

import numpy as np
import pytest

from pillarmix.calibration import load_stats, run_calibration, save_stats
from pillarmix.model import (
    BatchNorm,
    LayerSpec,
    ModelFormatError,
    ModelGraph,
    PrecisionPlan,
    UnsupportedVersionError,
    apply_plan,
    dtype_boundaries,
    fold_all_bn,
    fold_bn,
    forward,
    graphs_equal,
    load_model,
    parse_plan_label,
    save_model,
    weights_digest,
)
from pillarmix.quant import DType
from pillarmix.tensor_ops import ConvParams, conv2d, linear, relu


def linear_layer(index, din, dout, rng, name=None, relu_flag=False, bn=None):
    return LayerSpec(
        name=name or f"lin{index}",
        kind="linear",
        index=index,
        weight=rng.normal(scale=0.5, size=(dout, din)).astype(np.float32),
        bias=rng.normal(scale=0.1, size=dout).astype(np.float32),
        relu=relu_flag,
        bn=bn,
    )


def conv_layer(index, cin, cout, k, rng, stride=(1, 1), padding=(0, 0), relu_flag=False, bn=None):
    return LayerSpec(
        name=f"conv{index}",
        kind="conv2d",
        index=index,
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
            name="l", kind="linear", index=1, weight=w, bias=np.zeros(2, np.float32), bn=bn
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
                x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
                raw = conv2d(x, layer.weight, layer.bias, layer.conv)
                shape = (1, -1, 1, 1)
            two_step = (raw - bn.mean.reshape(shape)) * (
                bn.gamma.reshape(shape) / np.sqrt(bn.var.reshape(shape) + bn.eps)
            ) + bn.beta.reshape(shape)
            folded = fold_bn(layer)
            if kind == "linear":
                got = linear(x, folded.weight, folded.bias)
            else:
                got = conv2d(x, folded.weight, folded.bias, folded.conv)
            assert np.max(np.abs(got - two_step)) < 1e-5

    def test_rejects_bad_variance(self):
        rng = np.random.default_rng(3)
        bn = random_bn(3, rng, eps=0.0)
        bn = dataclasses.replace(bn, var=np.array([-1.0, 1.0, 1.0], np.float32))
        layer = linear_layer(1, 4, 3, rng, bn=bn)
        with pytest.raises(ValueError, match="non-positive"):
            fold_bn(layer)

    def test_rejects_missing_bn(self):
        layer = linear_layer(1, 4, 3, np.random.default_rng(4))
        with pytest.raises(ValueError, match="no batch norm"):
            fold_bn(layer)


def two_layer_graph(rng):
    return ModelGraph(
        layers=(
            linear_layer(1, 6, 6, rng, relu_flag=True),
            linear_layer(2, 6, 4, rng),
        )
    )


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

    def test_apply_idempotent(self):
        g = two_layer_graph(np.random.default_rng(7))
        plan = PrecisionPlan(default=DType.INT8, overrides={1: DType.FP16})
        once = apply_plan(g, plan)
        twice = apply_plan(once, plan)
        assert graphs_equal(once, twice)

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
        x = rng.normal(size=(3, 6)).astype(np.float32)
        got = forward(g, x)
        want = linear(relu(linear(x, g.layers[0].weight, g.layers[0].bias)), g.layers[1].weight, g.layers[1].bias)
        np.testing.assert_array_equal(got, want)

    def test_int8_identity_linear_error_bound(self):
        rng = np.random.default_rng(11)
        layer = LayerSpec(
            name="id",
            kind="linear",
            index=1,
            weight=np.eye(8, dtype=np.float32),
            bias=np.zeros(8, np.float32),
        )
        g = ModelGraph(layers=(layer,))
        x = rng.uniform(-2.0, 2.0, size=(4, 8)).astype(np.float32)
        stats = run_calibration(g, [x])
        q = apply_plan(g, PrecisionPlan(default=DType.INT8))
        out = forward(q, x, stats=stats)
        scale = stats[1].act_qp.scale
        assert np.max(np.abs(out - x)) <= scale / 2 + 1e-6

    def test_fp16_fixed_points_match_fp32(self):
        rng = np.random.default_rng(12)
        w = rng.integers(-8, 9, size=(4, 4)).astype(np.float32) / 4.0
        layer = LayerSpec(name="h", kind="linear", index=1, weight=w, bias=np.zeros(4, np.float32))
        g = ModelGraph(layers=(layer,))
        x = (rng.integers(-32, 33, size=(2, 4)) / 8.0).astype(np.float32)
        fp32_out = forward(g, x)
        h = apply_plan(g, PrecisionPlan(default=DType.FP16))
        np.testing.assert_array_equal(forward(h, x), fp32_out)

    def test_missing_quant_params_names_layer(self):
        g = two_layer_graph(np.random.default_rng(13))
        q = apply_plan(g, PrecisionPlan(default=DType.INT8))
        with pytest.raises(RuntimeError, match="layer 1 .*'lin1'.* no quant params"):
            forward(q, np.zeros((1, 6), np.float32))

    @pytest.mark.parametrize("precision", [DType.INT8, DType.FP16])
    def test_nan_at_precision_boundary_names_layer(self, precision):
        rng = np.random.default_rng(16)
        g = two_layer_graph(rng)
        stats = run_calibration(g, [rng.normal(size=(2, 6)).astype(np.float32)])
        x = np.zeros((2, 6), dtype=np.float32)
        x[1, 3] = np.nan
        planned = apply_plan(g, PrecisionPlan(default=precision))
        with pytest.raises(ValueError, match="layer 1 .*'lin1'.*NaN"):
            forward(planned, x, stats=stats)
        # the FP32 path has no precision boundary and stays untouched
        assert np.isnan(forward(g, x)).any()

    def test_stats_from_another_graph_rejected(self, tmp_path):
        rng = np.random.default_rng(17)
        g = two_layer_graph(rng)
        save_stats(run_calibration(g, [rng.normal(size=(2, 6)).astype(np.float32)]), tmp_path / "s.json")
        other = ModelGraph(layers=tuple(
            dataclasses.replace(l, name=f"other.{l.name}") for l in g.layers
        ))
        q = apply_plan(other, PrecisionPlan(default=DType.INT8))
        with pytest.raises(RuntimeError, match="layer 1 .*'other.lin1'.*'lin1'"):
            forward(q, np.zeros((1, 6), np.float32), stats=load_stats(tmp_path / "s.json"))
        # the same file drives the graph it was recorded from
        forward(apply_plan(g, PrecisionPlan(default=DType.INT8)), np.zeros((1, 6), np.float32),
                stats=load_stats(tmp_path / "s.json"))

    def test_unfolded_batch_norm_rejected_naming_the_layer(self):
        rng = np.random.default_rng(18)
        g = ModelGraph(layers=(linear_layer(1, 6, 6, rng), linear_layer(2, 6, 4, rng, bn=random_bn(4, rng))))
        with pytest.raises(ValueError, match="layer 2 .*'lin2'.* batch norm"):
            forward(g, np.zeros((1, 6), np.float32))
        forward(fold_all_bn(g), np.zeros((1, 6), np.float32))

    def test_quantizing_all_zero_input_layer_changes_nothing(self):
        rng = np.random.default_rng(14)
        g = two_layer_graph(rng)
        x = np.zeros((2, 6), dtype=np.float32)
        stats = run_calibration(g, [x])
        q = apply_plan(g, PrecisionPlan(overrides={1: DType.INT8}))
        np.testing.assert_array_equal(forward(q, x, stats=stats), forward(g, x))

    def test_graph_validation(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError, match="expected 1"):
            ModelGraph(layers=(linear_layer(2, 3, 3, rng),))
        with pytest.raises(ValueError, match="unknown kind"):
            ModelGraph(layers=(LayerSpec(name="x", kind="softmax"),))
        head = dataclasses.replace(linear_layer(1, 3, 3, rng), is_head=True)
        tail = linear_layer(2, 3, 3, rng)
        with pytest.raises(ValueError, match="follows a head"):
            ModelGraph(layers=(head, tail))


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
    def graph(self):
        rng = np.random.default_rng(16)
        return ModelGraph(
            layers=(
                linear_layer(1, 5, 6, rng, relu_flag=True, bn=random_bn(6, rng)),
                conv_layer(2, 1, 2, 3, rng, stride=(2, 2), padding=(1, 1)),
            ),
            meta={"stages": {"backbone": ["lin1", "conv2"]}},
        )

    def test_round_trip_identity(self, tmp_path):
        g = self.graph()
        save_model(g, tmp_path / "toy")
        loaded = load_model(tmp_path / "toy")
        assert graphs_equal(g, loaded)

    def test_one_file_holds_the_manifest_and_one_member_per_array(self, tmp_path):
        g = self.graph()
        path = save_model(g, tmp_path / "toy")
        assert list(tmp_path.iterdir()) == [path] and path.name == "toy.npz"
        with np.load(path, allow_pickle=False) as npz:
            assert sorted(npz.files) == sorted(
                ["manifest", "0.weight", "0.bias", "0.bn.gamma", "0.bn.beta", "0.bn.mean", "0.bn.var",
                 "1.weight", "1.bias"]
            )
            np.testing.assert_array_equal(npz["0.bn.var"], g.layers[0].bn.var)
            doc = json.loads(str(npz["manifest"]))
        assert doc["format_version"] == 2 and doc["meta"] == g.meta
        assert weights_digest(g) == doc["weights_sha256"]
        assert doc["layers"][0]["bn"] == {"eps": 1e-5}
        assert not any({"shape", "offset", "weight", "bias"} & set(rec) for rec in doc["layers"])

    def test_equality_is_bit_exact(self):
        g = self.graph()
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

    def test_missing_blob(self, tmp_path):
        """No model file at the path."""
        with pytest.raises(ModelFormatError, match=r"toy\.npz: not a readable model file: .*No such file"):
            load_model(tmp_path / "toy")

    def test_truncated_blob(self, tmp_path):
        """A model file cut short."""
        path = save_model(self.graph(), tmp_path / "toy")
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
        path = save_model(g, tmp_path / "toy")
        data = bytearray(path.read_bytes())
        data[data.index(g.layers[1].weight.tobytes()) + 5] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match=r"toy\.npz: .*CRC-32 for file '1\.weight\.npy'"):
            load_model(path)

    def test_unknown_version(self, tmp_path):
        path = save_model(self.graph(), tmp_path / "toy")
        rewrite(path, lambda doc, arrays: doc.update(format_version=99))
        with pytest.raises(UnsupportedVersionError, match=r"toy\.npz: model format version 99"):
            load_model(path)

    def test_malformed_manifest(self, tmp_path):
        path = save_model(self.graph(), tmp_path / "toy")
        rewrite(path, text="{not json")
        with pytest.raises(ModelFormatError, match=r"toy\.npz: malformed manifest"):
            load_model(path)

    @pytest.mark.parametrize("edit, text, message", [
        (None, "[]", "malformed manifest: not a JSON object"),
        (lambda doc, arrays: doc.pop("layers"), None, "malformed manifest: needs a 'meta' object and a 'layers' list"),
        (lambda doc, arrays: doc.update(meta=["lin1"]), None, "malformed manifest: needs a 'meta' object"),
        (lambda doc, arrays: doc["layers"].__setitem__(0, "lin1"), None, "layer record 0 is not an object"),
    ], ids=["not_an_object", "no_layers", "meta_not_an_object", "layer_not_an_object"])
    def test_manifest_of_the_wrong_shape_names_the_file(self, tmp_path, edit, text, message):
        path = save_model(self.graph(), tmp_path / "toy")
        rewrite(path, edit, text)
        with pytest.raises(ModelFormatError, match=rf"toy\.npz: {message}"):
            load_model(path)

    def test_file_without_manifest_names_the_file(self, tmp_path):
        np.savez(tmp_path / "toy.npz", **{"0.weight": np.ones(2, np.float32)})
        with pytest.raises(ModelFormatError, match=r"toy\.npz: malformed manifest"):
            load_model(tmp_path / "toy.npz")

    @pytest.mark.parametrize("layer_i, array, value", [(1, "weight", np.nan), (0, "BN gamma", -np.inf)])
    def test_non_finite_array_rejected_naming_file_and_layer(self, tmp_path, layer_i, array, value):
        g = self.graph()
        layer = g.layers[layer_i]
        (layer.weight if array == "weight" else layer.bn.gamma).flat[1] = value
        save_model(g, tmp_path / "toy")
        field = {"weight": "weight", "BN gamma": r"bn\.gamma"}[array]
        with pytest.raises(ModelFormatError, match=rf"toy\.npz: layer '{layer.name}': {field} holds NaN or inf"):
            load_model(tmp_path / "toy")

    @pytest.mark.parametrize("corrupt, message", [
        (lambda layers, arrays: arrays.update({"0.bn.gamma": arrays["0.bn.beta"], "0.bn.beta": arrays["0.bn.gamma"]}),
         r"toy\.npz: the arrays' digest is not the manifest's weights_sha256"),
        (lambda layers, arrays: layers[0].pop("relu"), r"toy\.npz: layer 'lin1': missing key 'relu'"),
        (lambda layers, arrays: layers[1].update(precision="int4"), r"toy\.npz: layer 'conv2': 'int4' is not a valid"),
        (lambda layers, arrays: layers[1].update(index=1),
         r"toy\.npz: weight layer 'conv2' has index 1, expected 2"),
        (lambda layers, arrays: arrays.pop("0.bn.var"), r"toy\.npz: layer 'lin1': missing key '0\.bn\.var'"),
        (lambda layers, arrays: arrays.update({"1.weight": arrays["1.weight"].astype(np.float64)}),
         r"toy\.npz: layer 'conv2': weight is float64, not float32"),
        (lambda layers, arrays: arrays.update({"2.weight": np.ones(3, np.float32)}),
         r"toy\.npz: arrays \['2\.weight'\] belong to no layer"),
        (lambda layers, arrays: arrays.update({"1.bias": np.array([None, 1.0])}),
         r"toy\.npz: not a readable model file: Object arrays cannot be loaded"),
    ], ids=["swapped_arrays", "missing_key", "unknown_precision", "repeated_index", "missing_bn_array",
            "float64_array", "array_of_no_layer", "pickled_array"])
    def test_corrupt_layer_record_names_the_manifest(self, tmp_path, corrupt, message):
        path = save_model(self.graph(), tmp_path / "toy")
        rewrite(path, lambda doc, arrays: corrupt(doc["layers"], arrays))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_precision_tags_persist(self, tmp_path):
        g = apply_plan(
            ModelGraph(layers=(linear_layer(1, 3, 3, np.random.default_rng(17)),)),
            PrecisionPlan(default=DType.INT8),
        )
        save_model(g, tmp_path / "tagged")
        assert load_model(tmp_path / "tagged").layers[0].precision is DType.INT8
