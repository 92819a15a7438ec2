"""Symmetric INT8 fake quantization and FP16 simulation.

One rounding rule serves every INT8 tensor: clamp(round_half_even(x / scale),
Q_MIN, Q_MAX) * scale (zero point 0) in one float64 buffer (fake_quant). A
scale is a read-only float64 array that broadcasts against its tensor, as
TensorRT's quantize nodes take it: 0-d for an activation, one per tensor, and
one per output channel (axis 0) for a weight (weight_quant_params). One rule
derives every scale from a max |x|, max|x| / 127 or 1.0 where that is 0: an
activation's from its calibrated (min, max) (compute_scale, see
calibration.py), a weight's from each output channel's own. The clip range
[Q_MIN * scale, Q_MAX * scale] is written here once: in_clip_range masks the
values the clamp leaves alone, the clipped STE of QAT (qat.py), by one rule
for both kinds of scale. FP16 layers are simulated by a binary16 round trip
that saturates at +-65504 instead of overflowing, computed on the float32 bits
(fp16_roundtrip). Infinities saturate in both schemes; a NaN has no code in
either, so both transforms raise ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DType",
    "FP16_MAX",
    "Q_MAX",
    "Q_MIN",
    "QuantParams",
    "compute_scale",
    "fake_quant",
    "fp16_roundtrip",
    "in_clip_range",
    "weight_quant_params",
]

Q_MIN = -128
Q_MAX = 127
FP16_MAX = 65504.0
_FP16_MAX_BITS = 0x477FE000  # FP16_MAX as float32 bits
_FP16_MIN_NORMAL_BITS = 0x38800000  # 2**-14, binary16's smallest normal, as float32 bits


class DType(str, Enum):
    """Per-layer datatype tag."""

    FP32 = "fp32"
    FP16 = "fp16"
    INT8 = "int8"


@dataclass(frozen=True)
class QuantParams:
    """Symmetric quantization parameters: the scale, positive and finite, kept
    as a read-only float64 copy, 0-d for an activation (compute_scale) and
    (C_out,) + (1,) * (w.ndim - 1) for a weight (weight_quant_params). A float32
    or int scale widens; one that does not cast safely to float64, such as a
    string or None, raises TypeError. Equality compares the scales' values."""

    scale: np.ndarray

    def __post_init__(self):
        scale = np.asarray(self.scale).astype(np.float64, casting="safe")
        scale.flags.writeable = False
        object.__setattr__(self, "scale", scale)
        if not (np.isfinite(scale) & (scale > 0.0)).all():
            raise ValueError(f"scale must be positive and finite, got {scale}")

    def __eq__(self, other):
        return isinstance(other, QuantParams) and np.array_equal(self.scale, other.scale)

    def __reduce__(self):  # a pickled or deep-copied array comes back writeable
        return QuantParams, (self.scale,)


def _scale_rule(max_abs):
    """max_abs / 127, or 1.0 where that is 0: an all-zero range, or one so small
    (below about 3.2e-322) that the quotient underflows; every value of such a
    tensor quantizes to 0 regardless of the scale chosen."""
    scale = np.divide(max_abs, Q_MAX, dtype=np.float64)
    return np.where(scale > 0.0, scale, 1.0)


def compute_scale(x_min: float, x_max: float) -> QuantParams:
    """An activation's quant params from its range: one scale, the rule's of
    max(|x_min|, |x_max|), a 0-d float64 array whatever float type the range comes in."""
    x_min, x_max = float(x_min), float(x_max)
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise ValueError(f"non-finite calibration range ({x_min}, {x_max})")
    if x_min > x_max:
        raise ValueError(f"calibration range has min {x_min} > max {x_max}")
    return QuantParams(scale=_scale_rule(max(abs(x_min), abs(x_max))))


def weight_quant_params(weight: np.ndarray) -> QuantParams:
    """A (folded) weight's quant params: one scale per output channel (axis 0),
    the rule's of that channel's max |w|, shaped (C_out,) + (1,) * (w.ndim - 1)."""
    w = np.asarray(weight)
    if not np.isfinite(w).all():
        raise ValueError("weight tensor contains non-finite values")
    max_abs = np.abs(w).max(axis=tuple(range(1, w.ndim)), keepdims=True, initial=0.0)
    return QuantParams(scale=_scale_rule(max_abs))


def _reject_nan(x: np.ndarray) -> None:
    nan = np.isnan(x)
    if nan.any():
        raise ValueError(f"{int(nan.sum())} NaN value(s) in a tensor of shape {np.shape(x)}: "
                         "NaN has no INT8 or FP16 encoding")


def in_clip_range(t: np.ndarray, qp: QuantParams) -> np.ndarray:
    """float32 mask, 1 where Q_MIN * s <= t <= Q_MAX * s and 0 elsewhere (NaN
    included), s being qp's scale, one per tensor or per channel: each bound
    is rounded once to t's dtype and compared in it, for both kinds of scale."""
    lo, hi = ((q * qp.scale).astype(t.dtype) for q in (Q_MIN, Q_MAX))
    return ((t >= lo) & (t <= hi)).astype(np.float32)


def fake_quant(t: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Quantize-then-dequantize under qp's scale, which broadcasts against t;
    shape preserved, float32 out. NaN raises ValueError."""
    x = np.array(t, dtype=np.float64)
    _reject_nan(x)
    np.divide(x, qp.scale, out=x)
    np.rint(x, out=x)
    np.clip(x, Q_MIN, Q_MAX, out=x)
    x *= qp.scale
    return x.astype(np.float32)


def fp16_roundtrip(t: np.ndarray) -> np.ndarray:
    """Round each value to binary16 and back, saturating at +-65504 (inf included).

    The rounding works on the float32 bits, in two fresh uint32 buffers, so t
    is neither written nor aliased. With a = |bits|, a + 0xFFF + (bit 13 of a)
    masked to 0xFFFFE000 rounds half to even at binary16's 10 mantissa bits,
    an exponent carry included; min(., _FP16_MAX_BITS) saturates everything
    above 65504, inf too; the sign is OR'ed back. A nonzero |x| below 2**-14
    is a binary16 subnormal, whose step is 2**-24: (|x| + 0.5) - 0.5 in
    float32 rounds it there, half to even, as float32's step at 0.5 is 2**-24.
    Zeros take the first rule, which keeps them and their sign. For float32 t
    the result is bit for bit that of clipping to +-65504 and casting through
    np.float16; any other t is cast to float32 first, so a float64 value can
    round twice. NaN raises ValueError.
    """
    t = np.asarray(t, dtype=np.float32)
    _reject_nan(t)
    bits = t.view(np.uint32)
    mag = np.bitwise_and(bits, 0x7FFFFFFF, out=np.empty(t.shape, np.uint32))
    out = np.right_shift(mag, 13, out=np.empty(t.shape, np.uint32))
    out &= 1
    out += mag
    out += 0xFFF
    out &= 0xFFFFE000
    np.minimum(out, _FP16_MAX_BITS, out=out)
    subnormal = (mag != 0) & (mag < _FP16_MIN_NORMAL_BITS)
    if subnormal.any():
        half = np.float32(0.5)
        out.view(np.float32)[subnormal] = (mag.view(np.float32)[subnormal] + half) - half
    out |= np.bitwise_and(bits, 0x80000000, out=mag)
    return out.view(np.float32)
