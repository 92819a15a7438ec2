"""Symmetric INT8 fake quantization and FP16 simulation.

One rounding rule serves every INT8 tensor: clamp(round_half_even(x / scale),
Q_MIN, Q_MAX) * scale (zero point 0) in one float64 buffer, with one scale per
tensor (fake_quant) or per output channel (fake_quant_per_channel). The clip
range [Q_MIN * scale, Q_MAX * scale] is written here once: in_clip_range masks
the values the clamp leaves alone, the clipped STE of QAT (qat.py).
compute_scale derives the scale from a range, max(|min|, |max|) / 127 (an
activation's range is its calibrated (min, max), see calibration.py; a
weight's is its own). FP16 layers are simulated by a binary16 round trip that
saturates at +-65504 instead of overflowing. Infinities saturate in both
schemes; a NaN has no code in either, so all three transforms raise ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DType",
    "FP16_MAX",
    "PerChannelQuantParams",
    "Q_MAX",
    "Q_MIN",
    "QuantParams",
    "compute_scale",
    "fake_quant",
    "fake_quant_per_channel",
    "fp16_roundtrip",
    "in_clip_range",
    "weight_quant_params",
]

Q_MIN = -128
Q_MAX = 127
FP16_MAX = 65504.0


class DType(str, Enum):
    """Per-layer datatype tag."""

    FP32 = "fp32"
    FP16 = "fp16"
    INT8 = "int8"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class QuantParams:
    """Symmetric per-tensor quantization parameters: the scale."""

    scale: float

    def __post_init__(self):
        if not math.isfinite(self.scale) or self.scale <= 0.0:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class PerChannelQuantParams:
    """Per-output-channel weight scales (optional mode; axis 0 is the channel)."""

    scales: np.ndarray

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=np.float64)
        if scales.ndim != 1 or not np.all(np.isfinite(scales)) or np.any(scales <= 0):
            raise ValueError("per-channel scales must be a 1D positive finite array")
        object.__setattr__(self, "scales", scales)

    def along_axis0(self, ndim: int) -> np.ndarray:
        """The scales shaped to broadcast along axis 0 of an ndim-dimensional tensor."""
        return self.scales.reshape((-1,) + (1,) * (ndim - 1))


def compute_scale(x_min: float, x_max: float) -> QuantParams:
    """Derive the symmetric scale max(|x_min|, |x_max|) / 127.

    A degenerate all-zero range, or one so small that the scale underflows to
    0 (max_abs below about 3.2e-322), falls back to scale 1.0; every value of
    such a tensor quantizes to 0 regardless of the scale chosen.
    """
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise ValueError(f"non-finite calibration range ({x_min}, {x_max})")
    if x_min > x_max:
        raise ValueError(f"calibration range has min {x_min} > max {x_max}")
    scale = max(abs(x_min), abs(x_max)) / Q_MAX
    return QuantParams(scale=scale if scale > 0.0 else 1.0)


def _reject_nan(x: np.ndarray) -> None:
    nan = np.isnan(x)
    if nan.any():
        raise ValueError(f"{int(nan.sum())} NaN value(s) in a tensor of shape {np.shape(x)}: "
                         "NaN has no INT8 or FP16 encoding")


def _fake_quant(t: np.ndarray, scale) -> np.ndarray:
    """clamp(round_half_even(t / scale), Q_MIN, Q_MAX) * scale in one float64
    buffer, float32 out; scale is a float or an array that broadcasts against t."""
    x = np.array(t, dtype=np.float64)
    _reject_nan(x)
    np.divide(x, scale, out=x)
    np.rint(x, out=x)
    np.clip(x, Q_MIN, Q_MAX, out=x)
    x *= scale
    return x.astype(np.float32)


def in_clip_range(t: np.ndarray, qp: QuantParams | PerChannelQuantParams) -> np.ndarray:
    """float32 mask, 1 where Q_MIN * s <= t <= Q_MAX * s and 0 elsewhere (NaN
    included): s is qp's scale, or each channel's along axis 0 if per-channel."""
    scale = qp.along_axis0(np.ndim(t)) if isinstance(qp, PerChannelQuantParams) else qp.scale
    return ((t >= Q_MIN * scale) & (t <= Q_MAX * scale)).astype(np.float32)


def fake_quant(t: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Quantize-then-dequantize with one scale; shape preserved, float32 out. NaN raises ValueError."""
    return _fake_quant(t, qp.scale)


def weight_quant_params(weight: np.ndarray, per_channel: bool = False):
    """One-shot quant params from a (folded) weight tensor.

    Per-tensor by default; per_channel=True yields one scale per output
    channel (axis 0), the common deployment convention for conv/linear.
    """
    w = np.asarray(weight, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("weight tensor contains non-finite values")
    if not per_channel:
        return compute_scale(float(w.min(initial=0.0)), float(w.max(initial=0.0)))
    flat = w.reshape(w.shape[0], -1)
    scales = np.abs(flat).max(axis=1) / Q_MAX
    scales = np.where(scales > 0.0, scales, 1.0)  # the same fallback as compute_scale
    return PerChannelQuantParams(scales=scales)


def fake_quant_per_channel(weight: np.ndarray, qp: PerChannelQuantParams) -> np.ndarray:
    """fake_quant with one scale per output channel (axis 0); NaN raises ValueError."""
    return _fake_quant(weight, qp.along_axis0(np.ndim(weight)))


def fp16_roundtrip(t: np.ndarray) -> np.ndarray:
    """Round each value to binary16 and back, saturating at +-65504 (inf included).

    NaN raises ValueError.
    """
    t = np.asarray(t, dtype=np.float32)
    _reject_nan(t)
    clipped = np.clip(t, -FP16_MAX, FP16_MAX)
    return clipped.astype(np.float16).astype(np.float32)
