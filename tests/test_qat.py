"""QAT backward pass: central differences, the clipped STE, FP16 and INT8
gradients, batched tapes and the detection loss of stacked scenes."""

import dataclasses

import numpy as np
import pytest

from pillarmix.calibration import CalibrationStats, run_calibration
from pillarmix.detector import DetectorConfig, build_toy_detector, make_train_examples
from pillarmix.model import LayerSpec, ModelGraph, PrecisionPlan, apply_plan, fold_all_bn, forward
from pillarmix.qat import TrainConfig, TrainExample, backward, detection_loss, ste_fake_quant_backward
from pillarmix.quant import (
    DType,
    PerChannelQuantParams,
    QuantParams,
    fake_quant,
    fake_quant_per_channel,
    fp16_roundtrip,
)
from pillarmix.scenes import DatasetConfig, generate_dataset
from pillarmix.tensor_ops import linear, stack_samples

# Largest relative error allowed between the analytic gradient and a central
# difference with step 1e-3 through float32 forwards; the tiny detector below
# reaches 3.7e-3.
GRADCHECK_MAX_REL = 1e-2

TINY = DetectorConfig(grid=(8, 8), block_channels=(8, 8, 8), convs_per_block=1, pfn_channels=8, neck_channels=8)


def tiny_graph():
    return apply_plan(fold_all_bn(build_toy_detector(TINY, seed=3)), PrecisionPlan())


def test_backward_matches_central_differences():
    scenes = generate_dataset(DatasetConfig(size=1, boxes_per_scene=(2, 2)), seed=1)
    graph = tiny_graph()
    example = make_train_examples(scenes, TINY)[0]
    cfg = TrainConfig(learning_rate=1e-3)

    def loss_at():
        return detection_loss(forward(graph, example.sample), example, cfg)[0]

    tape = []
    outputs = forward(graph, example.sample, tape=tape)
    grads = backward(tape, detection_loss(outputs, example, cfg)[1])
    rng = np.random.default_rng(0)
    eps = 1e-3
    worst = 0.0
    for layer in graph.weight_layers:
        dw, db = grads[layer.index]
        for arr, grad in ((layer.weight, dw), (layer.bias, db)):
            idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            plus = loss_at()
            arr[idx] = orig - eps
            minus = loss_at()
            arr[idx] = orig
            fd = (plus - minus) / (2 * eps)
            an = float(grad[idx])
            worst = max(worst, abs(fd - an) / max(1e-8, abs(fd), abs(an)))
    assert worst <= GRADCHECK_MAX_REL


class TestSteMask:
    def test_per_tensor_passes_inside_clip_range_only(self):
        qp = QuantParams(scale=0.5)  # clip range [-64, 63.5]
        x = np.array([-64.5, -64.0, 0.0, 63.5, 63.6, np.inf], dtype=np.float32)
        up = np.arange(1, 7, dtype=np.float32)
        np.testing.assert_array_equal(ste_fake_quant_backward(x, qp, up), [0, 2, 3, 4, 0, 0])

    def test_per_channel_uses_each_channels_range(self):
        qp = PerChannelQuantParams(scales=np.array([1.0, 0.125]))  # [-128, 127] and [-16, 15.875]
        x = np.array([[127.0, -128.0, 128.0], [15.875, -16.0, 16.0]], dtype=np.float32)
        got = ste_fake_quant_backward(x, qp, np.ones_like(x))
        np.testing.assert_array_equal(got, [[1, 1, 0], [1, 1, 0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ste_fake_quant_backward(np.zeros(3), QuantParams(scale=1.0), np.zeros(4))


def test_batched_tape_gradient_is_the_sum_over_scenes():
    scenes = generate_dataset(DatasetConfig(size=3), seed=2)
    graph = tiny_graph()
    samples = [e.sample for e in make_train_examples(scenes, TINY)]
    rng = np.random.default_rng(1)
    d_cls = rng.normal(size=(3, TINY.n_classes) + TINY.out_grid).astype(np.float32)
    d_reg = rng.normal(size=(3, 4) + TINY.out_grid).astype(np.float32)
    tape = []
    forward(graph, stack_samples(samples), tape=tape)
    batched = backward(tape, (d_cls, d_reg))
    want = {}
    for b, sample in enumerate(samples):
        tape = []
        forward(graph, sample, tape=tape)
        for index, (dw, db) in backward(tape, (d_cls[b : b + 1], d_reg[b : b + 1])).items():
            old_w, old_b = want.get(index, (0.0, 0.0))
            want[index] = (old_w + dw, old_b + db)
    assert sorted(batched) == sorted(want)
    for index, (dw, db) in batched.items():
        np.testing.assert_allclose(dw, want[index][0], rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(db, want[index][1], rtol=1e-4, atol=1e-5)


def stack_examples(examples):
    return TrainExample(
        sample=stack_samples([e.sample for e in examples]),
        cls_target=np.stack([e.cls_target for e in examples]),
        reg_target=np.stack([e.reg_target for e in examples]),
        pos_mask=np.stack([e.pos_mask for e in examples]),
        ignore_mask=np.stack([e.ignore_mask for e in examples]),
    )


def test_detection_loss_of_stacked_scenes_is_the_sum_of_their_own_losses():
    scenes = generate_dataset(DatasetConfig(size=3, boxes_per_scene=(1, 4)), seed=2)
    examples = make_train_examples(scenes, TINY)
    assert len({int(e.pos_mask.sum()) for e in examples}) > 1  # each scene its own normalization
    graph, cfg = tiny_graph(), TrainConfig()
    loss, (d_cls, d_reg) = detection_loss(forward(graph, stack_samples([e.sample for e in examples])),
                                          stack_examples(examples), cfg)
    singles = [detection_loss(forward(graph, e.sample), e, cfg) for e in examples]
    want = sum(l for l, _ in singles)
    assert abs(loss - want) <= 1e-12 * abs(want)
    for b, (_, (dc, dr)) in enumerate(singles):
        assert d_cls[b : b + 1].tobytes() == dc.tobytes()
        assert d_reg[b : b + 1].tobytes() == dr.tobytes()

    outputs = forward(graph, stack_samples([e.sample for e in examples[:2]]))
    with pytest.raises(ValueError, match=r"targets \(3, 3, 4, 4\) .* head outputs \(2, 3, 4, 4\)"):
        detection_loss(outputs, stack_examples(examples), cfg)
    with pytest.raises(ValueError, match=r"targets \(1, 3, 4, 4\) .* head outputs \(2, 3, 4, 4\)"):
        detection_loss(outputs, examples[0], cfg)


def linear_layer(index, din, dout, rng, relu=False):
    return LayerSpec(
        name=f"lin{index}",
        kind="linear",
        index=index,
        weight=rng.normal(size=(dout, din)).astype(np.float32),
        bias=rng.normal(size=dout).astype(np.float32),
        relu=relu,
    )


def taped_grads(graph, x, d_out, stats=None):
    tape = []
    forward(graph, x, stats=stats, tape=tape)
    return backward(tape, d_out)


def test_fp16_gradients_are_the_fp32_ones_on_rounded_tensors():
    rng = np.random.default_rng(20)
    layer = linear_layer(1, 5, 6, rng, relu=True)
    x = rng.normal(size=(3, 8, 5)).astype(np.float32)
    d_out = rng.normal(size=(3, 8, 6)).astype(np.float32)
    got = taped_grads(apply_plan(ModelGraph(layers=(layer,)), PrecisionPlan(default=DType.FP16)), x, d_out)[1]
    rounded = ModelGraph(layers=(dataclasses.replace(layer, weight=fp16_roundtrip(layer.weight)),))
    want = taped_grads(rounded, fp16_roundtrip(x), d_out)[1]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float32
        assert g.tobytes() == w.tobytes()
    assert not np.array_equal(got[0], taped_grads(ModelGraph(layers=(layer,)), x, d_out)[1][0])


@pytest.mark.parametrize("per_channel", [False, True])
def test_int8_gradients_are_the_fp32_ones_on_fake_quantized_tensors_inside_the_clip_range(per_channel):
    rng = np.random.default_rng(21)
    lin1, lin2 = linear_layer(1, 5, 6, rng), linear_layer(2, 6, 4, rng)
    graph = ModelGraph(layers=(lin1, lin2))
    x = rng.normal(size=(16, 5)).astype(np.float32)
    # calibrated on half-size inputs, so some of layer 2's inputs clip; the
    # weight scales are shrunk so that the largest weights clip too
    stats = run_calibration(graph, [0.5 * x], per_channel_weights=per_channel)
    cal2 = stats[2]
    if per_channel:
        weight_qp = PerChannelQuantParams(scales=0.6 * cal2.weight_qp.scales)
        w_used = fake_quant_per_channel(lin2.weight, weight_qp)
    else:
        weight_qp = QuantParams(scale=0.6 * cal2.weight_qp.scale)
        w_used = fake_quant(lin2.weight, weight_qp)
    stats = CalibrationStats(layers={1: stats[1], 2: dataclasses.replace(cal2, weight_qp=weight_qp)})
    d_out = rng.normal(size=(16, 4)).astype(np.float32)
    grads = taped_grads(apply_plan(graph, PrecisionPlan(overrides={2: DType.INT8})), x, d_out, stats)

    x2 = linear(x, lin1.weight, lin1.bias)  # layer 2's input, before quantization
    x2_kept = ste_fake_quant_backward(x2, cal2.act_qp, np.ones_like(x2))
    w_kept = ste_fake_quant_backward(lin2.weight, weight_qp, np.ones_like(lin2.weight))
    assert 0 < x2_kept.sum() < x2_kept.size and 0 < w_kept.sum() < w_kept.size
    # layer 2: the FP32 gradients on the fake-quantized input and weight, zero
    # at the weights outside the clip range
    dw_fp32, db_fp32 = taped_grads(
        ModelGraph(layers=(dataclasses.replace(lin2, index=1, weight=w_used),)),
        fake_quant(x2, cal2.act_qp), d_out,
    )[1]
    np.testing.assert_array_equal(grads[2][0], dw_fp32 * w_kept)
    np.testing.assert_array_equal(grads[2][1], db_fp32)
    # layer 1 (FP32) sees layer 2's input gradient: d_out through the fake-quantized
    # weight, zero at the inputs outside the clip range
    np.testing.assert_array_equal(grads[1][0], ((d_out @ w_used) * x2_kept).T @ x)
