"""train_qat: batched SGD steps against the per-sample loop, with and without
momentum, gradient clipping, loss descent, and its failure on empty data, an
example of several scenes, a non-finite loss or an unfolded graph."""

import copy
import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest

from pillarmix import qat
from pillarmix.calibration import run_calibration
from pillarmix.detector import DetectorConfig, build_toy_detector, make_train_examples
from pillarmix.model import PrecisionPlan, apply_plan, fold_all_bn, forward, parse_plan_label, weights_digest
from pillarmix.qat import TrainConfig, backward, detection_loss, train_qat
from pillarmix.scenes import DatasetConfig, generate_dataset

from pillar_helpers import TINY

# The batched step sums each weight's gradient over all scenes' rows in one
# float32 product, the per-sample loop scene by scene, so the tuned weights
# differ by float32 reassociation: a few units in the last place of each
# weight (rtol, 8 float32 ulps) plus an absolute 1e-6 times the largest weight
# change (a relative gradient error of 1e-6 in the steps).
WEIGHT_RTOL = 8 * np.finfo(np.float32).eps
STEP_ATOL = 1e-6


def train_setup(n_scenes):
    graph = fold_all_bn(build_toy_detector(TINY, seed=3))
    data = make_train_examples(generate_dataset(DatasetConfig(size=n_scenes), seed=4), TINY)
    stats = run_calibration(graph, [e.sample for e in data[:2]], seed=0)
    return graph, data, stats


def batch_orders(cfg, n):
    """The scenes of each SGD step, epoch by epoch, as train_qat draws them."""
    for epoch in range(cfg.epochs):
        order = np.random.default_rng((cfg.seed, epoch)).permutation(n)
        for start in range(0, n, cfg.batch_size):
            yield epoch, start // cfg.batch_size, order[start : start + cfg.batch_size]


def per_sample_train_qat(graph, plan, stats, data, cfg):
    """train_qat as one forward, loss and backward per scene, the gradients g
    summed in a dict over the B scenes of a step. Plain SGD steps by g / B;
    with momentum mu, heavy-ball SGD keeps a velocity v <- mu * v + g / B per
    parameter and steps by v. Each parameter moves by -lr times its step."""
    g = copy.deepcopy(apply_plan(graph, plan))
    epoch_losses = [[] for _ in range(cfg.epochs)]
    velocity = {}
    for epoch, _, batch in batch_orders(cfg, len(data)):
        acc, batch_loss = {}, 0.0
        for i in batch:
            tape = []
            loss, d_outputs = detection_loss(forward(g, data[i].sample, stats=stats, tape=tape), data[i], cfg)
            batch_loss += loss
            for index, (dw, db) in backward(tape, d_outputs).items():
                old_w, old_b = acc.get(index, (0.0, 0.0))
                acc[index] = (old_w + dw, old_b + db)
        inv, lr, mu = np.float32(1.0 / len(batch)), np.float32(cfg.learning_rate), np.float32(cfg.momentum)
        weight_layers = g.weight_layers
        for index, (dw, db) in acc.items():
            layer = weight_layers[index - 1]
            step_w, step_b = inv * dw, inv * db
            if cfg.momentum:
                v_w, v_b = velocity.get(index, (0.0, 0.0))
                step_w, step_b = velocity[index] = (mu * v_w + step_w, mu * v_b + step_b)
            layer.weight[...] -= lr * step_w
            layer.bias[...] -= lr * step_b
        epoch_losses[epoch].append(batch_loss / len(batch))
    return g, [float(np.mean(losses)) for losses in epoch_losses]


@pytest.mark.parametrize("label, n_scenes, batch_size", [
    ("FP32", 8, 4),
    ("FP16", 8, 4),
    ("INT8", 8, 4),
    ("FP16: 1", 8, 4),
    pytest.param("FP32", 6, 4, id="FP32-short-last-batch"),
    pytest.param("INT8", 3, 1, id="INT8-one-scene-steps"),
])
def test_batched_steps_match_the_per_sample_loop(monkeypatch, label, n_scenes, batch_size):
    graph, data, stats = train_setup(n_scenes)
    plan = parse_plan_label(label)
    cfg = TrainConfig(learning_rate=1e-2, epochs=2, batch_size=batch_size)
    input_digest = weights_digest(graph)
    steps = list(batch_orders(cfg, len(data)))
    calls = Counter()

    def checked_forward(g, sample, stats=None, tape=None):
        outputs = forward(g, sample, stats=stats, tape=tape)
        # scene b's head outputs equal, bit for bit, a forward on that scene alone
        _, _, batch = steps[calls["forward"]]
        for b, i in enumerate(batch):
            for got, want in zip(outputs, forward(g, data[i].sample, stats=stats)):
                assert got[b : b + 1].tobytes() == want.tobytes()
        calls["forward"] += 1
        return outputs

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(qat, "forward", checked_forward)
    monkeypatch.setattr(qat, "backward", counted("backward", backward))
    tuned, history = train_qat(graph, plan, stats, data, cfg, loss_fn=counted("loss", detection_loss))
    monkeypatch.undo()

    assert calls == {"forward": len(steps), "loss": len(steps), "backward": len(steps)}
    assert weights_digest(graph) == input_digest
    ref, ref_losses = per_sample_train_qat(graph, plan, stats, data, cfg)
    np.testing.assert_allclose([h["loss"] for h in history], ref_losses, rtol=1e-6)
    if batch_size == 1:  # nothing to reassociate
        assert weights_digest(tuned) == weights_digest(ref) and history[-1]["loss"] == ref_losses[-1]
    assert_weights_close(tuned, ref, graph)


def assert_weights_close(tuned, ref, start):
    """tuned's weights equal ref's within WEIGHT_RTOL and STEP_ATOL times the
    largest change of each array from start."""
    for got, want, first in zip(tuned.weight_layers, ref.weight_layers, start.weight_layers):
        for a, b, w0 in ((got.weight, want.weight, first.weight), (got.bias, want.bias, first.bias)):
            atol = STEP_ATOL * float(np.abs(b - w0).max())
            np.testing.assert_allclose(a, b, rtol=WEIGHT_RTOL, atol=atol)


@pytest.mark.parametrize("label", ["FP32", "INT8"])
def test_momentum_steps_match_the_per_sample_heavy_ball_loop(label):
    graph, data, stats = train_setup(8)
    plan = parse_plan_label(label)
    cfg = TrainConfig(learning_rate=1e-2, epochs=2, batch_size=4, momentum=0.9)
    tuned, history = train_qat(graph, plan, stats, data, cfg)
    ref, ref_losses = per_sample_train_qat(graph, plan, stats, data, cfg)
    np.testing.assert_allclose([h["loss"] for h in history], ref_losses, rtol=1e-6)
    assert_weights_close(tuned, ref, graph)
    plain, _ = train_qat(graph, plan, stats, data, dataclasses.replace(cfg, momentum=0.0))
    assert weights_digest(plain) != weights_digest(tuned)


def full_batch_grad_norm(graph, data):
    """L2 norm of the FP32 gradient of every weight and bias, summed over data
    and divided by len(data): the size of one full-batch step per unit lr."""
    tape = []
    example = qat._stack_examples(data)
    outputs = forward(graph, example.sample, tape=tape)
    grads = backward(tape, detection_loss(outputs, example, TrainConfig())[1])
    return math.sqrt(sum(float((d.astype(np.float64) ** 2).sum()) for pair in grads.values() for d in pair)) / len(data)


def step_length(tuned, start):
    return math.sqrt(sum(float(((a.astype(np.float64) - b) ** 2).sum())
                         for t, s in zip(tuned.weight_layers, start.weight_layers)
                         for a, b in ((t.weight, s.weight), (t.bias, s.bias))))


def test_clipping_scales_a_full_batch_step_to_max_grad_norm():
    graph, data, _ = train_setup(4)
    norm = full_batch_grad_norm(graph, data)
    cfg = TrainConfig(learning_rate=0.1, batch_size=len(data), max_grad_norm=norm / 2)
    tuned, _ = train_qat(graph, PrecisionPlan(), None, data, cfg)
    assert step_length(tuned, graph) == pytest.approx(cfg.learning_rate * cfg.max_grad_norm, rel=1e-5)


def test_a_max_grad_norm_above_the_gradient_norm_changes_nothing():
    graph, data, _ = train_setup(4)
    cfg = TrainConfig(learning_rate=0.1, batch_size=len(data))
    clipped, _ = train_qat(graph, PrecisionPlan(), None, data,
                           dataclasses.replace(cfg, max_grad_norm=2 * full_batch_grad_norm(graph, data)))
    unclipped, _ = train_qat(graph, PrecisionPlan(), None, data, cfg)
    assert weights_digest(clipped) == weights_digest(unclipped)


def test_empty_training_data_is_rejected():
    graph, _, _ = train_setup(1)
    with pytest.raises(ValueError, match="^training data is empty$"):
        train_qat(graph, PrecisionPlan(), None, [], TrainConfig())


def test_one_fp32_step_lowers_the_loss_on_its_batch():
    graph, data, _ = train_setup(4)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=4)

    def batch_loss(g):
        return sum(detection_loss(forward(g, e.sample), e, cfg)[0] for e in data) / len(data)

    tuned, history = train_qat(graph, PrecisionPlan(), None, data, cfg)
    before = batch_loss(graph)
    assert history[0]["loss"] == pytest.approx(before, rel=1e-12)
    assert batch_loss(tuned) < before


def test_an_example_of_two_scenes_is_rejected_before_any_step(monkeypatch):
    """Each step is scaled by 1 / len(batch), a count of examples, so an
    example that stacks two scenes would take a double step."""
    graph, data, _ = train_setup(3)
    data = [data[0], qat._stack_examples(data[1:])]
    monkeypatch.setattr(qat, "forward", lambda *args, **kwargs: pytest.fail("a step ran"))
    with pytest.raises(ValueError, match=re.escape("samples at positions [1] hold [2] scenes")):
        train_qat(graph, PrecisionPlan(), None, data, TrainConfig(batch_size=2))


def test_a_non_finite_loss_names_the_epoch_the_batch_and_its_samples():
    graph, data, _ = train_setup(4)
    data[2].cls_target[0, 0, 0] = np.nan
    cfg = TrainConfig(epochs=1, batch_size=2)
    epoch, k, batch = next(s for s in batch_orders(cfg, len(data)) if 2 in s[2])
    want = f"epoch {epoch}, batch {k}, samples {batch.tolist()}"
    with pytest.raises(RuntimeError, match=re.escape(want)):
        train_qat(graph, PrecisionPlan(), None, data, cfg)


def test_an_unfolded_graph_is_rejected_naming_its_first_bn_layer():
    data = make_train_examples(generate_dataset(DatasetConfig(size=2), seed=4), DetectorConfig())
    want = "layer 1 ('voxel_encoder.pfn.linear'): still carries batch norm"
    with pytest.raises(ValueError, match=re.escape(want)):
        train_qat(build_toy_detector(), PrecisionPlan(), None, data, TrainConfig())


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0),
    ("batch_size", -1),
    ("batch_size", 2.5),
    ("batch_size", True),
    ("epochs", 1.5),
    ("epochs", True),
    ("learning_rate", 0.0),
    ("learning_rate", -1e-3),
    ("learning_rate", float("nan")),
    ("learning_rate", float("inf")),
    ("max_grad_norm", -1.0),
    ("max_grad_norm", float("nan")),
    ("pos_weight", -1.0),
    ("pos_weight", 0.0),
    ("pos_weight", float("nan")),
    ("pos_weight", float("inf")),
    # a string, None or a bool is not a number, even where it would compare as one
    ("learning_rate", "0.001"),
    ("learning_rate", None),
    ("pos_weight", True),
    ("pos_weight", "4.0"),
    ("momentum", 1.0),
    ("momentum", -0.1),
    ("momentum", "0.9"),
    ("momentum", None),
    ("max_grad_norm", "10"),
    ("max_grad_norm", None),
    # the seed keys the shuffle's generator, so it is an integer >= 0 like every other count
    ("seed", 1.5),
    ("seed", -1),
    ("seed", "x"),
    ("seed", True),
])
def test_train_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=rf"{field} must be .*, got {re.escape(repr(value))}$"):
        TrainConfig(**{field: value})
