"""Symmetric INT8 quantization math and FP16 simulation.

The INT8 scheme maps x to clamp(round_half_even(x / scale), -128, 127) with
the zero point pinned at 0; compute_scale derives the scale from a range,
max(|min|, |max|) / 127 (an activation's range is its calibrated (min, max),
see calibration.py; a weight's is its own). FP16 layers are simulated by a
binary16 round trip that saturates at +-65504 instead of overflowing.
Infinities saturate in both schemes (to -128/127 codes or to +-65504); a NaN
has no code in either, so quantize, fake_quant, fake_quant_per_channel and
fp16_roundtrip raise ValueError on one instead of emitting a garbage number.
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
    "dequantize",
    "fake_quant",
    "fake_quant_per_channel",
    "fp16_roundtrip",
    "quantize",
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
    """Symmetric per-tensor quantization parameters (zero point fixed at 0)."""

    scale: float
    zero_point: int = 0
    q_min: int = Q_MIN
    q_max: int = Q_MAX

    def __post_init__(self):
        if not math.isfinite(self.scale) or self.scale <= 0.0:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.zero_point != 0:
            raise ValueError("symmetric quantization requires zero_point == 0")


@dataclass(frozen=True)
class PerChannelQuantParams:
    """Per-output-channel weight scales (optional mode; axis 0 is the channel)."""

    scales: np.ndarray
    q_min: int = Q_MIN
    q_max: int = Q_MAX

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=np.float64)
        if scales.ndim != 1 or not np.all(np.isfinite(scales)) or np.any(scales <= 0):
            raise ValueError("per-channel scales must be a 1D positive finite array")
        object.__setattr__(self, "scales", scales)


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


def quantize(x, qp: QuantParams):
    """clamp(round_half_even(x / scale), -128, 127); scalar in, int out.

    +-inf saturates to the end codes; NaN raises ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    _reject_nan(x)
    xq = np.clip(np.rint(x / qp.scale), qp.q_min, qp.q_max)
    if np.ndim(x) == 0:
        return int(xq)
    return xq.astype(np.int32)


def dequantize(x_q, qp: QuantParams):
    """Map integer codes back to reals: x_q * scale."""
    out = np.asarray(x_q, dtype=np.float64) * qp.scale
    if np.ndim(x_q) == 0:
        return float(out)
    return out


def fake_quant(t: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Quantize-then-dequantize in real arithmetic; shape preserved, float32 out.

    Equal to dequantize(quantize(t, qp), qp), computed in one float64 buffer:
    the codes are small integers, exact in float64. NaN raises ValueError.
    """
    x = np.array(t, dtype=np.float64)
    _reject_nan(x)
    np.divide(x, qp.scale, out=x)
    np.rint(x, out=x)
    np.clip(x, qp.q_min, qp.q_max, out=x)
    x *= qp.scale
    return x.astype(np.float32)


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
    w = np.asarray(weight, dtype=np.float64)
    _reject_nan(w)
    scales = qp.scales.reshape((-1,) + (1,) * (w.ndim - 1))
    codes = np.clip(np.rint(w / scales), qp.q_min, qp.q_max)
    return (codes * scales).astype(np.float32)


def fp16_roundtrip(t: np.ndarray) -> np.ndarray:
    """Round each value to binary16 and back, saturating at +-65504 (inf included).

    NaN raises ValueError.
    """
    t = np.asarray(t, dtype=np.float32)
    _reject_nan(t)
    clipped = np.clip(t, -FP16_MAX, FP16_MAX)
    return clipped.astype(np.float16).astype(np.float32)
