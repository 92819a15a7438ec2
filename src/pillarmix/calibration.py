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

calib-stats.json holds per layer only what cannot be recomputed: "index",
"name", "min", "max", and "weight_scale" (per tensor) or "weight_scales" (per
output channel).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .model import EVAL_CHUNK, ModelGraph, PrecisionPlan, apply_plan, fold_all_bn, forward
from .quant import DType, PerChannelQuantParams, QuantParams, compute_scale, weight_quant_params
from .tensor_ops import PillarSample, stack_samples

__all__ = [
    "CalibrationStats",
    "LayerCalibration",
    "calib_size_sweep",
    "load_stats",
    "per_sample_ranges",
    "run_calibration",
    "save_stats",
    "select_calib_set",
    "stats_from_ranges",
]

STATS_FORMAT_VERSION = 1


def select_calib_set(dataset_size: int, n: int = 4, seed: int = 0, nested: bool = False) -> tuple[int, ...]:
    """Draw n distinct sample indices of a dataset, uniformly without replacement.

    nested=True draws a prefix of a seed-fixed permutation, so the set for a
    smaller n is contained in the set for any larger n under the same seed.
    """
    if not 1 <= n <= dataset_size:
        raise ValueError(f"calibration size {n} out of range [1, {dataset_size}]")
    rng = np.random.default_rng(seed)
    if nested:
        indices = rng.permutation(dataset_size)[:n]
    else:
        indices = rng.choice(dataset_size, size=n, replace=False)
    return tuple(int(i) for i in indices)


@dataclass(frozen=True)
class LayerCalibration:
    """One layer's calibrated input range; act_qp is derived from it (compute_scale)."""

    index: int
    name: str
    act_min: float
    act_max: float
    weight_qp: QuantParams | PerChannelQuantParams
    act_qp: QuantParams = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "act_qp", compute_scale(self.act_min, self.act_max))


@dataclass(frozen=True)
class CalibrationStats:
    """Per-layer calibration results plus (seed, n) provenance."""

    layers: dict[int, LayerCalibration] = field(default_factory=dict)
    n_samples: int = 0
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
    """Each layer's range over the samples (Python min/max in sample order) and its quant params."""
    if not ranges:
        raise ValueError("calibration needs at least one sample")
    folded = fold_all_bn(graph)
    layers: dict[int, LayerCalibration] = {}
    for layer in folded.weight_layers:
        try:
            layer_ranges = [sample_ranges[layer.index] for sample_ranges in ranges]
        except KeyError:
            pos = next(p for p, sample_ranges in enumerate(ranges) if layer.index not in sample_ranges)
            raise ValueError(
                f"calibration sample {pos} has no range for layer {layer.index} ({layer.name!r}); "
                "ranges from another model?"
            ) from None
        layers[layer.index] = LayerCalibration(
            index=layer.index,
            name=layer.name,
            act_min=min(lo for lo, _ in layer_ranges),
            act_max=max(hi for _, hi in layer_ranges),
            weight_qp=weight_quant_params(layer.weight, per_channel=per_channel_weights),
        )
    return CalibrationStats(layers=layers, n_samples=len(ranges), seed=seed)


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
# Serialization: calib-stats.json


def save_stats(stats: CalibrationStats, path) -> Path:
    path = Path(path)
    layers = []
    for index in stats.indices():
        entry = stats[index]
        rec = {
            "index": entry.index,
            "name": entry.name,
            "min": entry.act_min,
            "max": entry.act_max,
        }
        if isinstance(entry.weight_qp, PerChannelQuantParams):
            rec["weight_scales"] = [float(s) for s in entry.weight_qp.scales]
        else:
            rec["weight_scale"] = entry.weight_qp.scale
        layers.append(rec)
    doc = {
        "format_version": STATS_FORMAT_VERSION,
        "seed": stats.seed,
        "n_samples": stats.n_samples,
        "layers": layers,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_stats(path) -> CalibrationStats:
    """Read a calib-stats.json written by save_stats; act_qp comes from each stored range.

    Malformed JSON, an unknown version, a missing key or a value of the wrong
    type, a non-integer or repeated layer index, and a non-finite or inverted
    range raise ValueError naming the file (and the layer, for a layer's
    record). Other keys, such as the "count" and "scale" that files from
    before the scale was derived hold, are ignored.
    """
    path = Path(path)
    where = ""
    try:
        doc = json.loads(path.read_text())
        if doc.get("format_version") != STATS_FORMAT_VERSION:
            raise ValueError(f"unsupported format version {doc.get('format_version')!r}")
        layers: dict[int, LayerCalibration] = {}
        for rec in doc["layers"]:
            where = f", layer {rec.get('index')!r}"
            if type(rec["index"]) is not int:
                raise ValueError("the index is not an integer")
            if rec["index"] in layers:
                raise ValueError("a second record for this index")
            if "weight_scales" in rec:
                weight_qp = PerChannelQuantParams(scales=np.asarray(rec["weight_scales"]))
            else:
                weight_qp = QuantParams(scale=rec["weight_scale"])
            layers[rec["index"]] = LayerCalibration(
                index=rec["index"],
                name=rec["name"],
                act_min=rec["min"],
                act_max=rec["max"],
                weight_qp=weight_qp,
            )
        where = ""
        return CalibrationStats(layers=layers, n_samples=doc["n_samples"], seed=doc["seed"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValueError(f"calibration stats {path}{where}: {detail}") from exc


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
    """Score the model once per (calibration size, seed).

    Returns one row per (n, seed, layer): the layer's observed input max under
    that calibration set, plus the evaluator score for the set (repeated
    across the set's layers). Per-sample ranges are cached, so the cost is one
    evaluation per (n, seed) plus, per set, one stacked forward per chunk of
    up to EVAL_CHUNK samples that no earlier set held.
    """
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise ValueError(f"sizes must be ascending, got {sizes}")
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
