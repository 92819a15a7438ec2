"""Calibration-set selection and per-layer activation range collection.

Calibration runs the folded model in full precision over a small sample set,
recording each indexed layer's input-activation min/max (what that layer's
kernel consumes, post-ReLU of the previous layer) per sample. Pillarized
scenes run EVAL_CHUNK at a time, one stacked forward per chunk, and each
layer input is split back into per-scene ranges. A layer keeps one range,
(act_min, act_max): the smallest per-sample min and the largest per-sample max,
so subsets of a dataset can be re-calibrated from cached per-sample ranges
without re-running forwards. The activation scale is always derived from that
range; weight quant params are computed once from the folded weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import EVAL_CHUNK, ModelGraph, PrecisionPlan, apply_plan, fold_all_bn, forward
from .quant import DType, PerChannelQuantParams, QuantParams, compute_scale, weight_quant_params
from .tensor_ops import PillarSample, int_at_least, stack_samples

__all__ = [
    "CalibrationStats",
    "LayerCalibration",
    "calib_size_sweep",
    "per_sample_ranges",
    "run_calibration",
    "select_calib_set",
    "stats_from_ranges",
]


def select_calib_set(dataset_size: int, n: int = 4, seed: int = 0, nested: bool = False) -> tuple[int, ...]:
    """Draw n distinct sample indices of a dataset, uniformly without replacement.

    nested=True draws a prefix of a seed-fixed permutation, so the set for a
    smaller n is contained in the set for any larger n under the same seed.
    """
    if not (int_at_least(n, 1) and n <= dataset_size):
        raise ValueError(f"calibration size {n!r} out of range: it must be an integer in [1, {dataset_size}]")
    rng = np.random.default_rng(seed)
    if nested:
        indices = rng.permutation(dataset_size)[:n]
    else:
        indices = rng.choice(dataset_size, size=n, replace=False)
    return tuple(int(i) for i in indices)


@dataclass(frozen=True)
class LayerCalibration:
    """One layer's calibrated input range; act_qp is derived from it (compute_scale)."""

    name: str
    act_min: float
    act_max: float
    weight_qp: QuantParams | PerChannelQuantParams
    act_qp: QuantParams = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "act_qp", compute_scale(self.act_min, self.act_max))


@dataclass(frozen=True)
class CalibrationStats:
    """Per-layer calibration results, keyed by layer index, plus the seed that drew the calibration set."""

    layers: dict[int, LayerCalibration] = field(default_factory=dict)
    seed: int = 0

    def __contains__(self, index: int) -> bool:
        return index in self.layers

    def __getitem__(self, index: int) -> LayerCalibration:
        return self.layers[index]

    def indices(self) -> list[int]:
        return sorted(self.layers)


def _scene_ranges(x: np.ndarray, pillar_bounds: np.ndarray | None, n: int) -> list[tuple[float, float]]:
    """(min, max) of each of the n scenes in a stacked layer input, (0.0, 0.0) for an empty one.

    A [B, C, H, W] input, or a plain tensor (pillar_bounds None, n = 1), is
    reduced per row of x.reshape(n, -1); a point-layer input [P_total, M, C]
    over each scene's run of pillars, pillar_bounds[b]:pillar_bounds[b + 1].
    """
    if pillar_bounds is not None and x.ndim != 4:
        runs = [x[a:b] for a, b in zip(pillar_bounds[:-1], pillar_bounds[1:])]
        return [(float(r.min()), float(r.max())) if r.size else (0.0, 0.0) for r in runs]
    if x.size == 0:
        return [(0.0, 0.0)] * n
    flat = x.reshape(n, -1)
    return list(zip(flat.min(axis=1).tolist(), flat.max(axis=1).tolist()))


def per_sample_ranges(
    graph: ModelGraph, samples: Sequence
) -> list[dict[int, tuple[float, float]]]:
    """Per-layer input (min, max) for each sample, from full-precision forwards.

    Single-scene PillarSamples run EVAL_CHUNK at a time, as one stacked
    forward per chunk; a plain tensor sample is a chunk of one. A sample's
    ranges equal, bit for bit, those of a forward on it alone. A non-finite
    range raises RuntimeError naming the layer and the sample's position, and
    a PillarSample holding several scenes raises ValueError.
    """
    folded = fold_all_bn(graph)
    fp32 = apply_plan(folded, PrecisionPlan(default=DType.FP32))
    stacked = len(samples) > 0 and isinstance(samples[0], PillarSample)
    step = EVAL_CHUNK if stacked else 1
    out: list[dict[int, tuple[float, float]]] = []
    for start in range(0, len(samples), step):
        chunk = samples[start : start + step]
        ranges: list[dict[int, tuple[float, float]]] = [{} for _ in chunk]
        if stacked:
            batch = stack_samples(chunk)
            if batch.num_scenes != len(chunk):
                raise ValueError(
                    f"calibration samples {start}..{start + len(chunk) - 1} hold "
                    f"{batch.num_scenes} scenes; each PillarSample must hold one"
                )
            pillar_bounds = np.cumsum([0] + [s.features.shape[0] for s in chunk])
        else:
            batch, pillar_bounds = chunk[0], None

        def record(layer, x):
            for b, (lo, hi) in enumerate(_scene_ranges(x, pillar_bounds, len(chunk))):
                if not (np.isfinite(lo) and np.isfinite(hi)):
                    raise RuntimeError(
                        f"non-finite activation at layer {layer.index} ({layer.name!r}) "
                        f"on calibration sample {start + b}"
                    )
                ranges[b][layer.index] = (lo, hi)

        forward(fp32, batch, observe_fn=record)
        out.extend(ranges)
    return out


def stats_from_ranges(
    graph: ModelGraph,
    ranges: Sequence[dict[int, tuple[float, float]]],
    seed: int = 0,
    per_channel_weights: bool = False,
) -> CalibrationStats:
    """Each layer's range over the samples (Python min/max in sample order) and its quant params.

    A sample without a range for a layer, or with a non-finite or inverted
    (min > max) one, raises ValueError naming the sample's position and the layer.
    """
    if not ranges:
        raise ValueError("calibration needs at least one sample")
    folded = fold_all_bn(graph)
    layers: dict[int, LayerCalibration] = {}
    for layer in folded.weight_layers:
        where = f"layer {layer.index} ({layer.name!r})"
        layer_ranges = []
        for pos, sample_ranges in enumerate(ranges):
            if layer.index not in sample_ranges:
                raise ValueError(
                    f"calibration sample {pos} has no range for {where}; ranges from another model?"
                )
            lo, hi = sample_ranges[layer.index]
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(
                    f"calibration sample {pos} has range ({lo}, {hi}) for {where}; "
                    "a range must be finite with min <= max"
                )
            layer_ranges.append((lo, hi))
        layers[layer.index] = LayerCalibration(
            name=layer.name,
            act_min=min(lo for lo, _ in layer_ranges),
            act_max=max(hi for _, hi in layer_ranges),
            weight_qp=weight_quant_params(layer.weight, per_channel=per_channel_weights),
        )
    return CalibrationStats(layers=layers, seed=seed)


def run_calibration(
    graph: ModelGraph,
    samples: Sequence,
    seed: int = 0,
    per_channel_weights: bool = False,
) -> CalibrationStats:
    """Calibrate every indexed layer of the (folded) graph on the samples."""
    ranges = per_sample_ranges(graph, samples)
    return stats_from_ranges(graph, ranges, seed=seed, per_channel_weights=per_channel_weights)


# ---------------------------------------------------------------------------
# Calibration-size sweep


def calib_size_sweep(
    graph: ModelGraph,
    dataset: Sequence,
    sizes: Sequence[int],
    seeds: Sequence[int],
    evaluator: Callable[[CalibrationStats], float],
    nested: bool = False,
) -> list[dict]:
    """Score the model once per (calibration size, seed); sizes ascend strictly.

    Returns one row per (n, seed, layer): the layer's observed input max under
    that calibration set, plus the evaluator score for the set (repeated
    across the set's layers). Per-sample ranges are cached, so the cost is one
    evaluation per (n, seed) plus, per set, one stacked forward per chunk of
    up to EVAL_CHUNK samples that no earlier set held.
    """
    sizes = list(sizes)
    if sizes != sorted(set(sizes)):
        raise ValueError(f"sizes must be strictly ascending, got {sizes}")
    cache: dict[int, dict[int, tuple[float, float]]] = {}
    rows: list[dict] = []
    for seed in seeds:
        for n in sizes:
            indices = select_calib_set(len(dataset), n=n, seed=seed, nested=nested)
            missing = [i for i in indices if i not in cache]
            if missing:
                for i, ranges in zip(missing, per_sample_ranges(graph, [dataset[i] for i in missing])):
                    cache[i] = ranges
            stats = stats_from_ranges(
                graph, [cache[i] for i in indices], seed=seed
            )
            score = float(evaluator(stats))
            for index in stats.indices():
                rows.append(
                    {
                        "n": n,
                        "seed": seed,
                        "layer": index,
                        "max_observed": stats[index].act_max,
                        "score": score,
                    }
                )
    return rows
