"""Calibration-set selection and per-layer activation range collection.

Calibration runs the folded model in full precision over a small sample set,
recording each indexed layer's input-activation min/max (what that layer's
kernel consumes, post-ReLU of the previous layer). A layer keeps one range,
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

from .model import ModelGraph, PrecisionPlan, apply_plan, fold_all_bn, forward
from .quant import DType, PerChannelQuantParams, QuantParams, compute_scale, weight_quant_params

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


def per_sample_ranges(
    graph: ModelGraph, samples: Sequence
) -> list[dict[int, tuple[float, float]]]:
    """Per-layer input (min, max) for each sample, from full-precision forwards."""
    folded = fold_all_bn(graph)
    fp32 = apply_plan(folded, PrecisionPlan(default=DType.FP32))
    out: list[dict[int, tuple[float, float]]] = []
    for pos, sample in enumerate(samples):
        ranges: dict[int, tuple[float, float]] = {}

        def record(layer, x):
            lo = float(x.min()) if x.size else 0.0
            hi = float(x.max()) if x.size else 0.0
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise RuntimeError(
                    f"non-finite activation at layer {layer.index} ({layer.name!r}) "
                    f"on calibration sample {pos}"
                )
            ranges[layer.index] = (lo, hi)

        forward(fp32, sample, observe_fn=record)
        out.append(ranges)
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
        layer_ranges = [sample_ranges[layer.index] for sample_ranges in ranges]
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
    type, and a non-finite or inverted range raise ValueError naming the file
    (and the layer, for a layer's record). Other keys, such as the "count" and "scale" that files
    from before the scale was derived hold, are ignored.
    """
    path = Path(path)
    where = ""
    try:
        doc = json.loads(path.read_text())
        if doc.get("format_version") != STATS_FORMAT_VERSION:
            raise ValueError(f"unsupported format version {doc.get('format_version')!r}")
        layers: dict[int, LayerCalibration] = {}
        for rec in doc["layers"]:
            where = f", layer {rec.get('index')}"
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
    across the set's layers). Per-sample forwards are cached, so the cost is
    one forward per distinct dataset sample plus one evaluation per (n, seed).
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
