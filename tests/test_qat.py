"""QAT backward pass: central differences, the clipped STE, FP16 and INT8
gradients, batched tapes, the detection loss of stacked scenes, and the
channels-last backward against an NCHW reference."""

import dataclasses
import re

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from pillarmix import qat, tensor_ops
from pillarmix.calibration import run_calibration
from pillarmix.detector import DetectorConfig, build_toy_detector, make_train_examples
from pillarmix.model import (
    LayerSpec,
    ModelGraph,
    PrecisionPlan,
    TapeEntry,
    apply_plan,
    forward,
    parse_plan_label,
)
from pillarmix.qat import TrainConfig, TrainExample, backward, detection_loss, train_qat
from pillarmix.quant import (
    DType,
    Q_MAX,
    Q_MIN,
    QuantParams,
    fake_quant,
    fp16_roundtrip,
)
from pillarmix.scenes import CLASS_NAMES, DatasetConfig, generate_dataset
from pillarmix.tensor_ops import PillarSample, linear, max_over_points, real_points, stack_samples

from pillar_helpers import TINY, cast_graph_and_sample, one_scene

# Largest relative error allowed between the analytic gradient and a central
# difference with step 1e-3 through float32 forwards; the tiny detector (TINY)
# reaches 3.7e-3.
GRADCHECK_MAX_REL = 1e-2
# The bound with step 1e-5 through float64 forwards and backwards, where the
# tiny detector reaches its floor, 1.8e-8. Scaling every dW by 1.005 reads
# 5e-3 here and fails, but 8.6e-3 in float32, under GRADCHECK_MAX_REL.
GRADCHECK_MAX_REL_FLOAT64 = 1e-6


def clip_range_mask(x, qp):
    """The clipped STE's mask, written from the clip range: 1 where
    Q_MIN * s <= x <= Q_MAX * s, s being qp's scale: one per tensor, or a
    weight's per output channel; each bound is rounded to x's dtype."""
    lo, hi = ((q * qp.scale).astype(x.dtype) for q in (Q_MIN, Q_MAX))
    return ((lo <= x) & (x <= hi)).astype(np.float32)


def tiny_graph():
    return apply_plan(build_toy_detector(TINY, seed=3), PrecisionPlan())


def central_difference_check(dtype, eps):
    """The largest relative error between backward's gradients and central
    differences with step eps, at one random entry of every weight and bias of
    the tiny detector, its graph and sample cast to dtype; also the tape and
    the gradients that backward computed. The plan is FP32: the clipped STE of
    an INT8 layer is not the loss's derivative, so no step size checks it."""
    scenes = generate_dataset(DatasetConfig(size=1, boxes_per_scene=(2, 2)), seed=1)
    example = make_train_examples(scenes, TINY)[0]
    graph, sample = cast_graph_and_sample(tiny_graph(), example.sample, dtype)
    example = dataclasses.replace(example, sample=sample)
    cfg = TrainConfig(learning_rate=1e-3)

    def loss_at():
        return detection_loss(forward(graph, example.sample), example, cfg)[0]

    tape = []
    outputs = forward(graph, example.sample, tape=tape)
    grads = backward(tape, detection_loss(outputs, example, cfg)[1])
    rng = np.random.default_rng(0)
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
    return worst, tape, grads


@pytest.mark.parametrize("dtype, eps, max_rel", [
    pytest.param(np.float32, 1e-3, GRADCHECK_MAX_REL, id="float32"),
    pytest.param(np.float64, 1e-5, GRADCHECK_MAX_REL_FLOAT64, id="float64"),
])
def test_backward_matches_central_differences(dtype, eps, max_rel):
    """Every tape array and gradient is in the graph's dtype, so a float64
    check is not float32 rounding noise narrowed back inside a kernel."""
    worst, tape, grads = central_difference_check(dtype, eps)
    arrays = [a for e in tape for a in (e.out, e.x_used) if a is not None] + [g for dg in grads.values() for g in dg]
    assert {a.dtype for a in arrays} == {np.dtype(dtype)}
    assert worst <= max_rel


def test_batched_tape_gradient_is_the_sum_over_scenes():
    scenes = generate_dataset(DatasetConfig(size=3), seed=2)
    graph = tiny_graph()
    samples = [e.sample for e in make_train_examples(scenes, TINY)]
    rng = np.random.default_rng(1)
    d_cls = rng.normal(size=(3, len(CLASS_NAMES)) + TINY.out_grid).astype(np.float32)
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


def test_detection_loss_weights_are_pinned():
    """Zero logits and offsets against one positive cell: the class term is
    (pos_weight 4 + 2 negatives) * log 2, the box term 1 / 4, weighted 1 and 5."""
    cls_t = np.zeros((1, 3, 1, 1), np.float32)
    cls_t[0, 0] = 1.0
    reg_t = np.array([1.0, 0.0, 0.0, 0.0], np.float32).reshape(1, 4, 1, 1)
    example = TrainExample(None, cls_t, reg_t, np.ones((1, 1, 1), bool), np.zeros((1, 1, 1), bool))
    loss, _ = detection_loss((np.zeros_like(cls_t), np.zeros_like(reg_t)), example, TrainConfig())
    assert loss == pytest.approx(1.0 * 6 * np.log(2) + 5.0 * 0.25, rel=1e-12)


def test_detection_loss_of_stacked_scenes_is_the_sum_of_their_own_losses():
    scenes = generate_dataset(DatasetConfig(size=3, boxes_per_scene=(1, 4)), seed=2)
    examples = make_train_examples(scenes, TINY)
    assert len({int(e.pos_mask.sum()) for e in examples}) > 1  # each scene its own normalization
    graph, cfg = tiny_graph(), TrainConfig()
    loss, (d_cls, d_reg) = detection_loss(forward(graph, stack_samples([e.sample for e in examples])),
                                          qat._stack_examples(examples), cfg)
    singles = [detection_loss(forward(graph, e.sample), e, cfg) for e in examples]
    want = sum(l for l, _ in singles)
    assert abs(loss - want) <= 1e-12 * abs(want)
    for b, (_, (dc, dr)) in enumerate(singles):
        assert d_cls[b : b + 1].tobytes() == dc.tobytes()
        assert d_reg[b : b + 1].tobytes() == dr.tobytes()

    outputs = forward(graph, stack_samples([e.sample for e in examples[:2]]))
    with pytest.raises(ValueError, match=r"targets \(3, 3, 4, 4\) .* head outputs \(2, 3, 4, 4\)"):
        detection_loss(outputs, qat._stack_examples(examples), cfg)
    with pytest.raises(ValueError, match=r"targets \(1, 3, 4, 4\) .* head outputs \(2, 3, 4, 4\)"):
        detection_loss(outputs, examples[0], cfg)
    # one scene's targets carry the batch axis too
    single = dataclasses.replace(examples[0], cls_target=examples[0].cls_target[0])
    with pytest.raises(ValueError, match=r"targets \(3, 4, 4\) .* head outputs \(1, 3, 4, 4\)"):
        detection_loss(forward(graph, single.sample), single, cfg)


def linear_layer(index, din, dout, rng, relu=False, head=False):
    return LayerSpec(
        name=f"lin{index}",
        kind="linear",
        weight=rng.normal(size=(dout, din)).astype(np.float32),
        bias=rng.normal(size=dout).astype(np.float32),
        relu=relu,
        is_head=head,
    )


def taped_grads(graph, sample, d_out, stats=None):
    """Gradients of a chain whose one head is its last layer."""
    tape = []
    forward(graph, sample, stats=stats, tape=tape)
    return backward(tape, (d_out,))


def test_maxpool_backward_routes_each_channel_to_the_first_real_point_at_the_max():
    """The pool's gradient goes, per pillar and channel, to the point that the
    argmax over the padded points (padding at -inf) picks: the first real slot
    among ties, signed zeros included, and the only one in a one-point pillar."""
    rng = np.random.default_rng(25)
    features = rng.choice(np.array([0.0, -0.0, 1.5, -1.5, 3.0], np.float32), size=(300, 6, 4))
    features[::3] = rng.normal(size=(100, 6, 4)).astype(np.float32)
    mask = rng.random((300, 6)) < 0.5
    mask[np.arange(300), rng.integers(0, 6, size=300)] = True
    mask[:50] = np.arange(6) == 2  # one point a pillar, not always the first
    sample = PillarSample(features=features, point_mask=mask, coords=np.zeros((300, 2), np.int64), grid=(1, 1))
    points = real_points(features, mask)
    entry = TapeEntry(LayerSpec(name="pool", kind="maxpool"), points, sample, None, None, None,
                      max_over_points(points, mask))
    dout = rng.normal(size=(300, 4)).astype(np.float32)
    dx, params = qat._layer_backward(entry, dout)
    winners = np.where(mask[:, :, None], features, np.float32(-np.inf)).argmax(axis=1)
    padded = np.zeros_like(features)
    np.put_along_axis(padded, winners[:, None, :], dout[:, None, :], axis=1)
    assert params is None and dx.tobytes() == padded[mask].tobytes()


def test_fp16_gradients_are_the_fp32_ones_on_rounded_tensors():
    rng = np.random.default_rng(20)
    layer = linear_layer(1, 5, 6, rng, relu=True, head=True)
    x = rng.normal(size=(24, 5)).astype(np.float32)
    d_out = rng.normal(size=(24, 6)).astype(np.float32)
    fp16 = apply_plan(ModelGraph(layers=(layer,)), PrecisionPlan(default=DType.FP16))
    got = taped_grads(fp16, one_scene(x), d_out)[1]
    rounded = ModelGraph(layers=(dataclasses.replace(layer, weight=fp16_roundtrip(layer.weight)),))
    want = taped_grads(rounded, one_scene(fp16_roundtrip(x)), d_out)[1]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float32
        assert g.tobytes() == w.tobytes()
    assert not np.array_equal(got[0], taped_grads(ModelGraph(layers=(layer,)), one_scene(x), d_out)[1][0])


def test_backward_takes_one_gradient_per_head():
    rng = np.random.default_rng(22)
    graph = ModelGraph(layers=(linear_layer(1, 5, 6, rng), linear_layer(2, 6, 4, rng, head=True)))
    tape = []
    forward(graph, one_scene(rng.normal(size=(3, 5))), tape=tape)
    d_out = np.ones((3, 4), np.float32)
    assert sorted(backward(tape, (d_out,))) == [1, 2]
    with pytest.raises(ValueError, match="2 output gradients for 1 heads"):
        backward(tape, (d_out, d_out))
    with pytest.raises(ValueError, match="1 output gradients for 0 heads"):
        backward(tape[:1], (np.ones((3, 6), np.float32),))


def test_backward_rejects_a_head_gradient_of_another_shape_naming_the_head():
    scenes = generate_dataset(DatasetConfig(size=2), seed=2)
    graph, tape = tiny_graph(), []
    forward(graph, stack_samples([e.sample for e in make_train_examples(scenes, TINY)]), tape=tape)
    cls_head, reg_head = (entry.layer for entry in tape if entry.layer.is_head)
    d_cls = np.ones((2, len(CLASS_NAMES)) + TINY.out_grid, np.float32)
    d_reg = np.ones((2, 4) + TINY.out_grid, np.float32)
    assert sorted(backward(tape, (d_cls, d_reg))) == sorted(l.index for l in graph.weight_layers)
    # a bare array passes the count check: it iterates as one [C, H', W'] gradient per scene
    with pytest.raises(ValueError, match=re.escape(f"shape {d_cls.shape[1:]} for head layer {cls_head.index} ")):
        backward(tape, d_cls)
    wrong_grid = np.ones((2, 4, 2, 2), np.float32)
    with pytest.raises(ValueError, match=re.escape(f"shape (2, 4, 2, 2) for head layer {reg_head.index} ({reg_head.name!r})")):
        backward(tape, (d_cls, wrong_grid))


def test_int8_gradients_are_the_fp32_ones_on_fake_quantized_tensors_inside_the_clip_range():
    rng = np.random.default_rng(21)
    lin1, lin2 = linear_layer(1, 5, 6, rng), linear_layer(2, 6, 4, rng, head=True)
    graph = ModelGraph(layers=(lin1, lin2))
    sample = one_scene(rng.normal(size=(16, 5)))
    x = sample.features[:, 0]  # [16, 5], the rows layer 1 runs on
    # calibrated on half-size inputs, so some of layer 2's inputs clip; the
    # weight scales are shrunk so that the largest weights clip too
    stats = run_calibration(graph, [one_scene(0.5 * x)])
    cal2 = stats[2]
    weight_qp = QuantParams(scale=0.6 * cal2.weight_qp.scale)
    w_used = fake_quant(lin2.weight, weight_qp)
    stats = {1: stats[1], 2: dataclasses.replace(cal2, weight_qp=weight_qp)}
    d_out = rng.normal(size=(16, 4)).astype(np.float32)
    grads = taped_grads(apply_plan(graph, PrecisionPlan(overrides={2: DType.INT8})), sample, d_out, stats)

    x2 = linear(x, lin1.weight, lin1.bias)  # layer 2's input, before quantization
    x2_kept = clip_range_mask(x2, cal2.act_qp)
    w_kept = clip_range_mask(lin2.weight, weight_qp)
    assert 0 < x2_kept.sum() < x2_kept.size and 0 < w_kept.sum() < w_kept.size
    # layer 2: the FP32 gradients on the fake-quantized input and weight, zero
    # at the weights outside the clip range
    dw_fp32, db_fp32 = taped_grads(
        ModelGraph(layers=(dataclasses.replace(lin2, weight=w_used),)),
        one_scene(fake_quant(x2, cal2.act_qp)), d_out,
    )[1]
    np.testing.assert_array_equal(grads[2][0], dw_fp32 * w_kept)
    np.testing.assert_array_equal(grads[2][1], db_fp32)
    # layer 1 (FP32) sees layer 2's input gradient: d_out through the fake-quantized
    # weight, zero at the inputs outside the clip range
    np.testing.assert_array_equal(grads[1][0], ((d_out @ w_used) * x2_kept).T @ x)


# ---------------------------------------------------------------------------
# The channels-last backward against an NCHW reference


def nchw_im2col(x, k_hw, params):
    """Patch matrix [N*H'*W', C*kh*kw] of an NCHW input, rows over (n, h', w')."""
    kh, kw = k_hw
    (ph, pw), (sh, sw) = params.padding, params.stride
    n, c, h, w = x.shape
    ho, wo = params.out_size((h, w), (kh, kw))
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw][:, :, :ho, :wo]
    return np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, c * kh * kw)


def nchw_conv_backward(entry, dout):
    """A conv layer's input gradient and (dW, db) with its images NCHW: the patch
    matrix rebuilt from the layer's transformed input, the output gradient
    rows transposed out of dout, and the nine patch-gradient slices
    transposed back onto the padded input."""
    layer, w = entry.layer, entry.w_used
    x_in = entry.x_in.transpose(0, 3, 1, 2)
    if entry.quant is not None:
        x = fake_quant(x_in, entry.quant[0])
    elif layer.precision is DType.FP16:
        x = fp16_roundtrip(x_in)
    else:
        x = x_in
    if layer.relu:
        dout = dout * (entry.out.transpose(0, 3, 1, 2) > 0)
    (sh, sw), (ph, pw) = layer.conv.stride, layer.conv.padding
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ho, wo = dout.shape[2], dout.shape[3]
    cols = nchw_im2col(x, (kh, kw), layer.conv)
    do2 = np.ascontiguousarray(dout.transpose(0, 2, 3, 1)).reshape(-1, f)
    dcols = (do2 @ w.reshape(f, -1)).reshape(n, ho, wo, c, kh, kw)
    dxp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=np.float32)
    for ki in range(kh):
        for kj in range(kw):
            dxp[:, :, ki : ki + sh * ho : sh, kj : kj + sw * wo : sw] += dcols[:, :, :, :, ki, kj].transpose(0, 3, 1, 2)
    dx = dxp[:, :, ph : ph + h, pw : pw + wd]
    dw = (do2.T @ cols).reshape(w.shape)
    if entry.quant is not None:
        act_qp, weight_qp = entry.quant
        dx = dx * clip_range_mask(x_in, act_qp)
        dw = dw * clip_range_mask(layer.weight, weight_qp)
    return dx, (dw.astype(np.float32), do2.sum(axis=0).astype(np.float32))


def nchw_backward(tape, d_outputs):
    """qat.backward's walk over the tape with every image gradient NCHW; the
    point layers (linear, maxpool) have no image layout and use qat's step."""
    douts = list(d_outputs)
    grads, current = {}, None
    for entry in reversed(tape):
        layer = entry.layer
        dout = douts.pop() if layer.is_head else current
        if layer.kind == "conv2d":
            dx, dparams = nchw_conv_backward(entry, dout)
        elif layer.kind == "scatter":
            s = entry.sample
            dx, dparams = dout[s.scene_ids, :, s.coords[:, 0], s.coords[:, 1]], None
        elif layer.kind == "upsample2x":
            n, c, h2, w2 = dout.shape
            dx, dparams = dout.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5)).astype(np.float32), None
        else:
            dx, dparams = qat._layer_backward(entry, dout)
        if dparams is not None:
            grads[layer.index] = dparams
        current = current + dx if layer.is_head and current is not None else dx
    return grads


@pytest.fixture(scope="module")
def default_batch():
    """Default detector, its calibration and a stacked 3-scene training batch."""
    cfg = DetectorConfig()
    graph = build_toy_detector(cfg, seed=0)
    examples = make_train_examples(generate_dataset(DatasetConfig(size=5), seed=12), cfg)
    stats = run_calibration(graph, [e.sample for e in examples[3:]])
    return graph, stats, examples[:3]


@pytest.mark.parametrize("label", ["FP32", "FP16", "INT8", "FP16: 1"])
def test_backward_equals_the_nchw_reference_bit_for_bit(default_batch, label):
    graph, stats, examples = default_batch
    planned = apply_plan(graph, parse_plan_label(label))
    batch = qat._stack_examples(examples)
    tape = []
    outputs = forward(planned, batch.sample, stats=stats, tape=tape)
    assert all(o.flags.c_contiguous and o.shape[:2] == (3, c) for o, c in zip(outputs, (len(CLASS_NAMES), 4)))
    d_outputs = detection_loss(outputs, batch, TrainConfig())[1]
    got, want = backward(tape, d_outputs), nchw_backward(tape, d_outputs)
    assert sorted(got) == sorted(want) == list(range(1, graph.num_indexed + 1))
    for index in want:
        for g, w in zip(got[index], want[index]):
            assert g.dtype == w.dtype == np.float32
            assert g.tobytes() == w.tobytes(), f"layer {index}"


def test_a_train_step_builds_one_patch_matrix_per_conv_layer(default_batch, monkeypatch):
    graph, stats, examples = default_batch
    calls = []
    for module in (tensor_ops, qat):
        def counted(*args, build=module.im2col, name=module.__name__):
            calls.append(name)
            return build(*args)

        monkeypatch.setattr(module, "im2col", counted)
    train_qat(graph, parse_plan_label("FP16: 1"), stats, examples, TrainConfig(batch_size=len(examples)))
    n_convs = sum(layer.kind == "conv2d" for layer in graph.layers)
    assert calls == ["pillarmix.tensor_ops"] * n_convs
