"""QAT backward pass: central differences, the clipped STE, and batched tapes."""

import numpy as np
import pytest

from pillarmix.detector import DetectorConfig, build_toy_detector, make_train_examples
from pillarmix.model import PrecisionPlan, apply_plan, fold_all_bn, forward
from pillarmix.qat import TrainConfig, backward, detection_loss, ste_fake_quant_backward
from pillarmix.quant import PerChannelQuantParams, QuantParams
from pillarmix.scenes import DatasetConfig, generate_dataset
from pillarmix.tensor_ops import stack_samples

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
