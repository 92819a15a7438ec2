"""Quantization-aware fine-tuning with a clipped straight-through estimator.

Each SGD step makes one pass over its stacked batch of scenes: one forward
through the same precision-aware executor as inference, on the folded weights,
recording one ``model.TapeEntry`` per layer, one loss, and one backward that
walks the tape in reverse and treats the FP16 round trip as identity. The
clipped STE is one mask (``quant.in_clip_range``) on both gradients of an INT8
layer, so weights are quantized once per step. Quant scales stay frozen at
their calibrated values throughout; the loss weights are CLS_WEIGHT and
REG_WEIGHT. Every gradient follows the dtype of the head outputs, float32 in
training; a float64 graph on float64 points, at FP32, is backpropagated in
float64 throughout, which a gradient check needs.

The backward runs channels-last, like the forward: the head gradients arrive
NCHW, as the heads return, and are transposed once. A conv layer's patch rows
are the patch matrix on its tape entry, and its input gradient adds the patch
gradients back onto the padded input, so the backward builds no patch matrix.
The point layers' backward runs on the real point rows, as their forward did:
the maxpool hands each pillar's gradient, per channel, to its first point at
the max, the point that an argmax over the padded points picks (for a NaN max,
the pillar's first point).
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import ModelGraph, PrecisionPlan, TapeEntry, _check_one_scene_each, apply_plan, forward
from .quant import in_clip_range
from .tensor_ops import PillarSample, int_at_least, is_real, sigmoid, stack_samples
from .tensor_ops import im2col  # noqa: F401  unused: perfbench/tracing.py counts backward patch builds as qat.im2col calls

__all__ = [
    "GradState",
    "TrainConfig",
    "TrainExample",
    "backward",
    "detection_loss",
    "train_qat",
]

CLS_WEIGHT = 1.0
REG_WEIGHT = 5.0


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-4
    epochs: int = 1
    batch_size: int = 4
    seed: int = 0
    pos_weight: float = 4.0  # weight of positive cells inside the BCE term
    momentum: float = 0.0  # fine-tuning stays plain SGD; base training may use this
    max_grad_norm: float = 0.0  # 0 disables clipping

    def __post_init__(self):
        for name in ("learning_rate", "pos_weight"):
            value = getattr(self, name)
            if not (is_real(value) and 0.0 < value < math.inf):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            if not int_at_least(getattr(self, name), low):
                raise ValueError(f"{name} must be an integer >= {low}, got {getattr(self, name)!r}")
        if not (is_real(self.momentum) and 0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be a number in [0, 1), got {self.momentum!r}")
        if not (is_real(self.max_grad_norm) and self.max_grad_norm >= 0.0):
            raise ValueError(f"max_grad_norm must be a number >= 0 (0 disables clipping), got {self.max_grad_norm!r}")


@dataclass
class TrainExample:
    """A batch of B pillarized scenes and their ``detector.encode_targets``
    targets along a leading batch axis: cls [B, C, H', W'], reg [B, 4, H', W']
    and the masks [B, H', W']. One scene's example is a batch of one."""

    sample: PillarSample
    cls_target: np.ndarray
    reg_target: np.ndarray
    pos_mask: np.ndarray
    ignore_mask: np.ndarray


GradState = dict[int, tuple[np.ndarray, np.ndarray]]  # index -> (dW, db)


def detection_loss(outputs, example: TrainExample, cfg: TrainConfig):
    """Weighted BCE on the class map plus MSE on box offsets at positive cells.

    outputs are the head outputs of B scenes, example their targets, with the
    same leading batch axis. Both terms of a scene are normalized by its own
    number of positive cells, so the per-object gradient does not vanish as
    the map grows. The loss is the sum over scenes, and scene b's slice of the
    output gradients is that of the loss on scene b alone. The loss is computed
    in float64, and each output gradient is cast to its output's dtype.
    """
    cls_map, reg_map = outputs
    t, reg_t, pos, ignore = example.cls_target, example.reg_target, example.pos_mask, example.ignore_mask
    if t.shape != cls_map.shape or reg_t.shape != reg_map.shape:
        raise ValueError(
            f"targets {t.shape} and {reg_t.shape} do not match "
            f"head outputs {cls_map.shape} and {reg_map.shape}"
        )
    n_pos = np.maximum(1, pos.sum(axis=(1, 2)))[:, None, None, None]
    z = cls_map.astype(np.float64)
    w = np.where(t > 0, cfg.pos_weight, 1.0) * ~ignore[:, None]
    bce = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    cls_loss = (w * bce).sum(axis=(1, 2, 3), keepdims=True) / n_pos
    d_cls = (CLS_WEIGHT * w * (sigmoid(z) - t) / n_pos).astype(cls_map.dtype)

    r = reg_map.astype(np.float64)
    diff = (r - reg_t) * pos[:, None]
    reg_loss = (diff**2).sum(axis=(1, 2, 3), keepdims=True) / (4.0 * n_pos)
    d_reg = (REG_WEIGHT * 2.0 * diff / (4.0 * n_pos)).astype(reg_map.dtype)

    loss = float((CLS_WEIGHT * cls_loss + REG_WEIGHT * reg_loss).sum())
    return loss, (d_cls, d_reg)


# ---------------------------------------------------------------------------
# Backward pass over a forward tape


def _layer_backward(entry: TapeEntry, dout: np.ndarray):
    """Gradient of the layer's input, and (dW, db) for a weight layer (else None).
    A weight layer's kind gives only its patch rows and input gradient; one tail
    forms dW and db and, at INT8, applies the clipped STE of both fake-quant
    nodes. FP32 passes through and FP16 is treated as identity."""
    layer = entry.layer
    if layer.kind == "maxpool":  # the first point row reaching its pillar's max takes it all, per channel
        x, counts = entry.x_in, entry.sample.point_mask.sum(axis=1)
        row = np.where(x < np.repeat(entry.out, counts, axis=0), len(x), np.arange(len(x))[:, None])
        winners = np.minimum.reduceat(row, np.cumsum(counts) - counts, axis=0)
        dx = np.zeros_like(x)
        dx[winners, np.arange(x.shape[1])] = dout
        return dx, None
    if layer.kind == "scatter":
        sample = entry.sample
        return dout[sample.scene_ids, sample.coords[:, 0], sample.coords[:, 1]], None
    if layer.kind == "upsample2x":  # each input cell fans out to a 2x2 block
        n, h2, w2, c = dout.shape
        d = dout.reshape(n, h2 // 2, 2, w2 // 2, 2, c)
        # (d00 + d01) + (d10 + d11); sum(axis=(2, 4)) would add the four in another order and round differently
        return (d[:, :, 0, :, 0] + d[:, :, 0, :, 1]) + (d[:, :, 1, :, 0] + d[:, :, 1, :, 1]), None
    if layer.relu:
        dout = dout * (entry.out > 0)
    w = entry.w_used
    do2 = dout.reshape(-1, dout.shape[-1])
    if layer.kind == "linear":
        cols = entry.x_used.reshape(-1, w.shape[1])
        dx = dout @ w
    else:  # conv2d: the patch matrix is on the tape; the patch gradients are added back onto the padded input
        cols = entry.x_used
        (sh, sw), (ph, pw) = layer.conv.stride, layer.conv.padding
        n, h, wd, c = entry.x_in.shape
        f, _, kh, kw = w.shape
        ho, wo = dout.shape[1], dout.shape[2]
        dcols = (do2 @ w.reshape(f, -1)).reshape(n, ho, wo, c, kh, kw)
        dxp = np.zeros((n, h + 2 * ph, wd + 2 * pw, c), dtype=dcols.dtype)
        for ki in range(kh):
            for kj in range(kw):
                dxp[:, ki : ki + sh * ho : sh, kj : kj + sw * wo : sw] += dcols[..., ki, kj]
        dx = dxp[:, ph : ph + h, pw : pw + wd]
    dw = (do2.T @ cols).reshape(w.shape)
    if entry.quant is not None:
        act_qp, weight_qp = entry.quant
        dx = dx * in_clip_range(entry.x_in, act_qp)
        dw = dw * in_clip_range(layer.weight, weight_qp)
    return dx, (dw, do2.sum(axis=0))


def backward(tape: list[TapeEntry], d_outputs: Sequence[np.ndarray]) -> GradState:
    """Weight/bias gradients from the head output gradients over a tape.

    d_outputs holds one gradient per head, in head order, each shaped as
    forward returned its head (an image NCHW); another count, or a gradient
    of another shape, raises ValueError. The trunk gets the sum of the heads'
    input gradients.
    """
    d_outputs = list(d_outputs)
    heads = [entry for entry in tape if entry.layer.is_head]
    if len(d_outputs) != len(heads):
        raise ValueError(f"{len(d_outputs)} output gradients for {len(heads)} heads")
    for entry, d in zip(heads, d_outputs):
        out = entry.out  # channels-last on the tape; forward returned an image NCHW
        expected = out.transpose(0, 3, 1, 2).shape if out.ndim == 4 else out.shape
        if np.shape(d) != expected:
            raise ValueError(
                f"output gradient of shape {np.shape(d)} for head layer {entry.layer.index} "
                f"({entry.layer.name!r}), whose output has shape {expected}"
            )
    douts = [d.transpose(0, 2, 3, 1) if d.ndim == 4 else d for d in d_outputs]
    grads: GradState = {}
    current = None
    for entry in reversed(tape):
        dout = douts.pop() if entry.layer.is_head else current
        dx, dparams = _layer_backward(entry, dout)
        if dparams is not None:
            grads[entry.layer.index] = dparams
        # the trunk's gradient is the sum over the heads that read it
        current = current + dx if entry.layer.is_head and current is not None else dx
    return grads


# ---------------------------------------------------------------------------
# Training loop


def _stack_examples(examples: Sequence[TrainExample]) -> TrainExample:
    targets = [np.concatenate([getattr(e, f.name) for e in examples]) for f in dataclasses.fields(TrainExample)[1:]]
    return TrainExample(stack_samples([e.sample for e in examples]), *targets)


def train_qat(
    graph: ModelGraph,
    plan: PrecisionPlan,
    stats,
    data: Sequence[TrainExample],
    cfg: TrainConfig,
    loss_fn: Callable = detection_loss,
) -> tuple[ModelGraph, list[dict]]:
    """Fine-tune weights under the plan's precision; scales stay frozen.

    Each SGD step stacks its batch of one-scene examples (an example of
    several scenes raises ValueError naming its position) and runs one taped
    forward, one loss_fn (which, like detection_loss, sums the losses of B
    stacked scenes) and one backward over it. The step descends on the summed
    gradient over len(batch), so a short last batch is scaled by its own size.

    Returns the tuned graph and a history of per-epoch mean train loss.
    """
    if not data:
        raise ValueError("training data is empty")
    _check_one_scene_each([e.sample for e in data])
    g = copy.deepcopy(apply_plan(graph, plan))  # SGD writes the weights in place
    weight_layers = g.weight_layers
    lr, mu = np.float32(cfg.learning_rate), np.float32(cfg.momentum)
    velocity: GradState = {}
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng((cfg.seed, epoch))
        order = rng.permutation(len(data))
        epoch_losses = []
        for b_start in range(0, len(order), cfg.batch_size):
            batch = order[b_start : b_start + cfg.batch_size]
            example = _stack_examples([data[int(si)] for si in batch])
            tape: list[TapeEntry] = []
            outputs = forward(g, example.sample, stats=stats, tape=tape)
            batch_loss, d_outputs = loss_fn(outputs, example, cfg)
            if not math.isfinite(batch_loss):
                raise RuntimeError(
                    f"non-finite train loss at epoch {epoch}, "
                    f"batch {b_start // cfg.batch_size}, samples {batch.tolist()}"
                )
            grads = backward(tape, d_outputs)
            inv = np.float32(1.0 / len(batch))
            if cfg.max_grad_norm > 0.0:
                total_sq = 0.0
                for dw, db in grads.values():
                    total_sq += float(((inv * dw) ** 2).sum()) + float(((inv * db) ** 2).sum())
                total = math.sqrt(total_sq)
                if total > cfg.max_grad_norm:
                    inv = np.float32(inv * cfg.max_grad_norm / total)
            for index, grad in grads.items():
                layer = weight_layers[index - 1]
                steps = tuple(inv * d for d in grad)
                if cfg.momentum > 0.0:
                    steps = tuple(mu * v + step for v, step in zip(velocity.get(index, (0, 0)), steps))
                    velocity[index] = steps
                for param, step in zip((layer.weight, layer.bias), steps):
                    param -= lr * step
            epoch_losses.append(batch_loss / len(batch))
        history.append({"epoch": epoch, "loss": float(np.mean(epoch_losses))})
    return g, history
