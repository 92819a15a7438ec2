"""Calibration-set selection and per-layer activation range collection.

Calibration runs the folded model in full precision over a small sample set,
recording each indexed layer's input-activation min/max (what that layer's
kernel consumes, post-ReLU of the previous layer) per sample. Pillarized
scenes run EVAL_CHUNK at a time, one stacked forward per chunk, and each
layer input is split back into per-scene ranges. A layer keeps one range,
(act_min, act_max): the smallest per-sample min and the largest per-sample max,
so subsets of a dataset can be re-calibrated from cached per-sample ranges
without re-running forwards. The activation scale, one per tensor, is always
derived from that range; the weight scales, one per output channel, are
computed once from the folded weights (quant.weight_quant_params). The
stats are a plain dict[int, LayerCalibration], filled in layer-index order
1..L: the mapping ``model.forward`` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import ModelGraph, PrecisionPlan, apply_plan, eval_chunks, fold_all_bn, forward
from .quant import QuantParams, compute_scale, weight_quant_params
from .tensor_ops import PillarSample, int_at_least

__all__ = [
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
    """One layer's calibrated input range and quant params: act_qp, one 0-d
    scale derived from the range (compute_scale), and weight_qp, one scale per
    output channel of the folded weight (weight_quant_params), all read-only
    float64. Equal calibrations compare equal, pickled or deep-copied too."""

    name: str
    act_min: float
    act_max: float
    weight_qp: QuantParams
    act_qp: QuantParams = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "act_qp", compute_scale(self.act_min, self.act_max))


def _scene_ranges(x: np.ndarray, pillar_bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mins, maxes) of each scene in a stacked layer input, 0.0 for an empty one.

    A [B, C, H, W] image is reduced per scene; a point-layer input [P_total, M, C]
    per pillar, then over each scene's run of pillars, pillar_bounds[b]:pillar_bounds[b + 1].
    """
    if x.ndim == 4:
        return x.min(axis=(1, 2, 3)), x.max(axis=(1, 2, 3))
    axes = tuple(range(1, x.ndim))
    starts, ends = pillar_bounds[:-1], pillar_bounds[1:]
    held = starts < ends  # an empty scene's run is empty; reduceat would read the next pillar
    lo, hi = np.zeros((2, len(starts)), x.dtype)
    lo[held] = np.minimum.reduceat(x.min(axis=axes), starts[held])
    hi[held] = np.maximum.reduceat(x.max(axis=axes), starts[held])
    return lo, hi


def per_sample_ranges(
    graph: ModelGraph, samples: Sequence[PillarSample]
) -> list[dict[int, tuple[float, float]]]:
    """Per-layer input (min, max) for each single-scene sample, from full-precision forwards.

    The samples run EVAL_CHUNK at a time (``model.eval_chunks``), as one
    stacked forward per chunk. A sample's ranges equal, bit for bit, those of
    a forward on it alone. A non-finite range raises RuntimeError naming the
    layer and the sample's position, and a sample holding several scenes
    raises ValueError. The graph runs as given: no entry point folds (see ``model``).
    """
    fp32 = apply_plan(graph, PrecisionPlan())
    out: list[dict[int, tuple[float, float]]] = []
    for start, batch in eval_chunks(samples):
        ranges: list[dict[int, tuple[float, float]]] = [{} for _ in range(batch.num_scenes)]
        # the batch holds its scenes' pillars in scene order
        pillar_bounds = np.searchsorted(batch.scene_ids, np.arange(batch.num_scenes + 1))

        def record(layer, x):
            lo, hi = _scene_ranges(x, pillar_bounds)
            bad = ~(np.isfinite(lo) & np.isfinite(hi))
            if bad.any():
                raise RuntimeError(
                    f"non-finite activation at layer {layer.index} ({layer.name!r}) "
                    f"on calibration sample {start + int(np.argmax(bad))}"
                )
            for scene_ranges, pair in zip(ranges, zip(lo.tolist(), hi.tolist())):
                scene_ranges[layer.index] = pair

        forward(fp32, batch, observe_fn=record)
        out.extend(ranges)
    return out


def stats_from_ranges(
    graph: ModelGraph,
    ranges: Sequence[dict[int, tuple[float, float]]],
) -> dict[int, LayerCalibration]:
    """Each layer's range over the samples (Python min/max in sample order) and its quant params
    (activation per tensor, weight per output channel), as a dict keyed by layer index and
    filled in index order 1..L.

    A sample whose ranges are not keyed by the layer indices 1..L raises
    ValueError naming its position and the missing or extra indices; a layer
    still carrying BN (none is folded here; see ``model``), a non-finite or inverted
    (min > max) range or a non-finite weight raises ValueError naming the layer (and the sample).
    """
    if not ranges:
        raise ValueError("calibration needs at least one sample")
    indices = set(range(1, graph.num_indexed + 1))
    for pos, keys in enumerate(r.keys() for r in ranges):
        if keys != indices:
            raise ValueError(
                f"calibration sample {pos} has ranges for other layers than the model's 1..{len(indices)}: "
                f"missing {sorted(indices - keys)}, extra {sorted(keys - indices)}; ranges from another model?"
            )
    stats: dict[int, LayerCalibration] = {}
    for layer in graph.weight_layers:
        where = f"layer {layer.index} ({layer.name!r})"
        if layer.bn is not None:
            raise ValueError(f"{where}: still carries batch norm; fold it before calibration (fold_all_bn)")
        layer_ranges = [sample_ranges[layer.index] for sample_ranges in ranges]
        for pos, (lo, hi) in enumerate(layer_ranges):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(
                    f"calibration sample {pos} has range ({lo}, {hi}) for {where}; "
                    "a range must be finite with min <= max"
                )
        try:
            weight_qp = weight_quant_params(layer.weight)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        stats[layer.index] = LayerCalibration(
            name=layer.name,
            act_min=min(lo for lo, _ in layer_ranges),
            act_max=max(hi for _, hi in layer_ranges),
            weight_qp=weight_qp,
        )
    return stats


def run_calibration(
    graph: ModelGraph,
    samples: Sequence,
    seed: int = 0,  # unused: perfbench/workloads.py passes it
) -> dict[int, LayerCalibration]:
    """Calibrate every indexed layer of the graph, run as given (see ``model``), on the samples:
    the stats_from_ranges dict of their per_sample_ranges, keyed 1..L in order."""
    return stats_from_ranges(graph, per_sample_ranges(graph, samples))


# ---------------------------------------------------------------------------
# Calibration-size sweep


def calib_size_sweep(
    graph: ModelGraph,
    dataset: Sequence,
    sizes: Sequence[int],
    seeds: Sequence[int],
    evaluator: Callable[[dict[int, LayerCalibration]], float],
    nested: bool = False,
) -> list[dict]:
    """Score the model once per (calibration size, seed); sizes ascend strictly.

    Returns one row per (n, seed, layer): the layer's observed input max under
    that calibration set, plus the evaluator score for the set (repeated
    across the set's layers). The evaluator receives the set's stats, the
    stats_from_ranges dict. Per-sample ranges are cached, so the cost is one
    evaluation per (n, seed) plus, per set, one stacked forward per chunk of
    up to EVAL_CHUNK samples that no earlier set held. With no (n, seed) point it returns [] and does no work.
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
            stats = stats_from_ranges(graph, [cache[i] for i in indices])
            score = float(evaluator(stats))
            for index, cal in stats.items():  # filled in index order 1..L
                rows.append({"n": n, "seed": seed, "layer": index, "max_observed": cal.act_max, "score": score})
    return rows
