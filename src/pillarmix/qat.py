"""Quantization-aware fine-tuning with a clipped straight-through estimator.

Forward passes run through the same precision-aware executor as inference
on a BN-folded graph, recording one ``model.TapeEntry`` per layer; the
backward pass walks that tape in reverse, treats each fake-quant node as
identity inside its clip range and zero outside (clipped STE), treats the
FP16 round trip as identity, and descends with plain SGD. Quant scales stay
frozen at their calibrated values throughout.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .model import ModelGraph, PrecisionPlan, TapeEntry, apply_plan, forward
from .quant import PerChannelQuantParams, QuantParams
from .tensor_ops import ConvParams, im2col, sigmoid

__all__ = [
    "GradState",
    "TrainConfig",
    "TrainExample",
    "detection_loss",
    "ste_fake_quant_backward",
    "train_qat",
]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-4
    epochs: int = 1
    batch_size: int = 4
    seed: int = 0
    cls_weight: float = 1.0
    reg_weight: float = 5.0
    pos_weight: float = 4.0  # weight of positive cells inside the BCE term
    momentum: float = 0.0  # fine-tuning stays plain SGD; base training may use this
    max_grad_norm: float = 0.0  # 0 disables clipping

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


@dataclass
class TrainExample:
    """Forward input plus whichever targets the loss function consumes."""

    sample: Any
    cls_target: np.ndarray | None = None
    reg_target: np.ndarray | None = None
    pos_mask: np.ndarray | None = None
    ignore_mask: np.ndarray | None = None


GradState = dict[int, tuple[np.ndarray, np.ndarray]]  # index -> (dW, db)


def _in_range_mask(x: np.ndarray, qp: QuantParams | PerChannelQuantParams) -> np.ndarray:
    if isinstance(qp, PerChannelQuantParams):
        scales = qp.scales.reshape((-1,) + (1,) * (x.ndim - 1))
        return ((x >= qp.q_min * scales) & (x <= qp.q_max * scales)).astype(np.float32)
    lo = qp.q_min * qp.scale
    hi = qp.q_max * qp.scale
    return ((x >= lo) & (x <= hi)).astype(np.float32)


def ste_fake_quant_backward(
    x: np.ndarray, qp: QuantParams | PerChannelQuantParams, upstream: np.ndarray
) -> np.ndarray:
    """Clipped STE: pass upstream through where x sits inside the clip range."""
    if x.shape != upstream.shape:
        raise ValueError(f"STE shape mismatch: x {x.shape} vs upstream {upstream.shape}")
    return upstream * _in_range_mask(x, qp)


def detection_loss(outputs, example: TrainExample, cfg: TrainConfig):
    """Weighted BCE on the class map plus MSE on box offsets at positive cells.

    Both terms are normalized by the number of positive cells, so the
    per-object gradient does not vanish as the map grows.
    """
    cls_map, reg_map = outputs
    if cls_map.shape[0] != 1 or reg_map.shape[0] != 1:
        raise ValueError(
            f"detection_loss scores one scene; got head outputs {cls_map.shape} and {reg_map.shape}"
        )
    z = cls_map[0].astype(np.float64)
    t = example.cls_target
    n_pos = max(1, int(example.pos_mask.sum()))
    w = np.where(t > 0, cfg.pos_weight, 1.0)
    if example.ignore_mask is not None:
        w = w * ~example.ignore_mask[None, :, :]
    bce = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    cls_loss = float((w * bce).sum() / n_pos)
    d_cls = (cfg.cls_weight * w * (sigmoid(z) - t) / n_pos).astype(np.float32)

    r = reg_map[0].astype(np.float64)
    mask = example.pos_mask[None, :, :]
    diff = (r - example.reg_target) * mask
    reg_loss = float((diff**2).sum() / (4.0 * n_pos))
    d_reg = (cfg.reg_weight * 2.0 * diff / (4.0 * n_pos)).astype(np.float32)

    loss = cfg.cls_weight * cls_loss + cfg.reg_weight * reg_loss
    return loss, (d_cls[None], d_reg[None])


# ---------------------------------------------------------------------------
# Backward pass over a forward tape


def _kernel_backward(entry: TapeEntry, cols: np.ndarray, do2: np.ndarray, dx_used: np.ndarray):
    """Input gradient and (dW, db) of a weight layer whose kernel multiplied the
    patch rows cols by the weight, given the output gradient rows do2 and the
    gradient dx_used of the kernel's input. INT8 applies the clipped STE of
    both fake-quant nodes; FP32 passes through and FP16 is treated as identity."""
    dx = dx_used
    dw = (do2.T @ cols).reshape(entry.w_used.shape)
    if entry.quant is not None:
        act_qp, weight_qp = entry.quant
        dx = ste_fake_quant_backward(entry.x_in, act_qp, dx_used)
        dw = dw * _in_range_mask(entry.layer.weight, weight_qp)
    return dx, (dw.astype(np.float32), do2.sum(axis=0).astype(np.float32))


def _layer_backward(entry: TapeEntry, dout: np.ndarray):
    """Gradient of the layer's input, and (dW, db) for a weight layer (else None)."""
    layer = entry.layer
    if layer.kind == "maxpool":  # the winning point of each pillar and channel takes it all
        x = entry.x_in
        winners = np.where(entry.sample.point_mask[:, :, None], x, np.float32(-np.inf)).argmax(axis=1)
        dx = np.zeros_like(x)
        np.put_along_axis(dx, winners[:, None, :], dout[:, None, :], axis=1)
        return dx, None
    if layer.kind == "scatter":
        sample = entry.sample
        return dout[sample.scene_ids, :, sample.coords[:, 0], sample.coords[:, 1]], None
    if layer.kind == "upsample2x":  # each input cell fans out to a 2x2 block
        n, c, h2, w2 = dout.shape
        return dout.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5)).astype(np.float32), None
    if layer.relu:
        dout = dout * (entry.out > 0)
    x, w = entry.x_used, entry.w_used
    if layer.kind == "linear":
        do2 = dout.reshape(-1, dout.shape[-1])
        return _kernel_backward(entry, x.reshape(-1, x.shape[-1]), do2, dout @ w)
    # conv2d: the forward's patch matrix, and the patch gradients added back onto the padded input
    params: ConvParams = layer.conv
    sh, sw = params.stride
    ph, pw = params.padding
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ho, wo = dout.shape[2], dout.shape[3]
    cols = im2col(x, (kh, kw), params)  # [N*H'*W', C*kh*kw]
    do2 = np.ascontiguousarray(dout.transpose(0, 2, 3, 1)).reshape(-1, f)
    dcols = (do2 @ w.reshape(f, -1)).reshape(n, ho, wo, c, kh, kw)
    dxp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=np.float32)
    for ki in range(kh):
        for kj in range(kw):
            dxp[:, :, ki : ki + sh * ho : sh, kj : kj + sw * wo : sw] += dcols[
                :, :, :, :, ki, kj
            ].transpose(0, 3, 1, 2)
    return _kernel_backward(entry, cols, do2, dxp[:, :, ph : ph + h, pw : pw + wd])


def backward(tape: list[TapeEntry], d_outputs) -> GradState:
    """Weight/bias gradients from the output gradients over a tape.

    With head layers, d_outputs holds one gradient per head, in head order,
    and the trunk gets their sum; otherwise it is the final output's gradient.
    """
    douts = list(d_outputs) if isinstance(d_outputs, (tuple, list)) else [d_outputs]
    n_heads = sum(1 for entry in tape if entry.layer.is_head)
    if n_heads and len(douts) != n_heads:
        raise ValueError(f"{len(douts)} output gradients for {n_heads} heads")
    grads: GradState = {}
    current = None if n_heads else douts[0]
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


def _trainable_copy(graph: ModelGraph) -> ModelGraph:
    layers = [
        dataclasses.replace(l, weight=l.weight.copy(), bias=l.bias.copy())
        if l.is_weight_layer
        else l
        for l in graph.layers
    ]
    return ModelGraph(layers=tuple(layers), meta=graph.meta)


def train_qat(
    graph: ModelGraph,
    plan: PrecisionPlan,
    stats,
    data: Sequence[TrainExample],
    cfg: TrainConfig,
    loss_fn: Callable = detection_loss,
    evaluator: Callable | None = None,
) -> tuple[ModelGraph, list[dict]]:
    """Fine-tune weights under the plan's precision; scales stay frozen.

    Returns the tuned graph and a history of per-epoch mean train loss plus
    the evaluator score (None when no evaluator is given).
    """
    if any(l.bn is not None for l in graph.layers):
        raise ValueError("fold batch norm before training")
    if not data:
        raise ValueError("training data is empty")
    g = _trainable_copy(apply_plan(graph, plan))
    velocity: GradState = {}
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng((cfg.seed, epoch))
        order = rng.permutation(len(data))
        epoch_losses = []
        for b_start in range(0, len(order), cfg.batch_size):
            batch = order[b_start : b_start + cfg.batch_size]
            acc: GradState = {}
            batch_loss = 0.0
            for si in batch:
                example = data[int(si)]
                tape: list[TapeEntry] = []
                outputs = forward(g, example.sample, stats=stats, tape=tape)
                loss, d_outputs = loss_fn(outputs, example, cfg)
                if not math.isfinite(loss):
                    raise RuntimeError(
                        f"non-finite train loss at epoch {epoch}, "
                        f"batch {b_start // cfg.batch_size}, sample {int(si)}"
                    )
                batch_loss += loss
                for index, (dw, db) in backward(tape, d_outputs).items():
                    old_w, old_b = acc.get(index, (0.0, 0.0))
                    acc[index] = (old_w + dw, old_b + db)
            inv = np.float32(1.0 / len(batch))
            if cfg.max_grad_norm > 0.0:
                total_sq = 0.0
                for dw, db in acc.values():
                    total_sq += float(((inv * dw) ** 2).sum()) + float(((inv * db) ** 2).sum())
                total = math.sqrt(total_sq)
                if total > cfg.max_grad_norm:
                    inv = np.float32(inv * cfg.max_grad_norm / total)
            lr = np.float32(cfg.learning_rate)
            mu = np.float32(cfg.momentum)
            for index, (dw, db) in acc.items():
                layer = g.layer_by_index(index)
                step_w = inv * dw
                step_b = inv * db
                if cfg.momentum > 0.0:
                    vw, vb = velocity.get(index, (np.float32(0.0), np.float32(0.0)))
                    step_w = mu * vw + step_w
                    step_b = mu * vb + step_b
                    velocity[index] = (step_w, step_b)
                layer.weight[...] -= lr * step_w
                layer.bias[...] -= lr * step_b
            epoch_losses.append(batch_loss / len(batch))
        score = float(evaluator(g, plan, stats)) if evaluator is not None else None
        history.append({"epoch": epoch, "loss": float(np.mean(epoch_losses)), "score": score})
    return g, history
