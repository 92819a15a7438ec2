"""A fixed piece of work that measures how fast the host is at the moment.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes to hours, as other tenants come and go. Such drift slows this probe
and the program alike, so the benchmark times one probe next to each pass of
the timed loop and next to each set-up, and scales the program's times by
``REFERENCE_S / probe time``: a time then reads as it would on a host where
one probe takes ``REFERENCE_S`` seconds.

The probe does the same kinds of work as pillarmix, in proportions close to
those of its traced profile, and none of it calls pillarmix: small float32
patch-matrix convolutions and element-wise rounding (numpy calls on arrays of
a few thousand elements), a greedy NMS that makes one tiny numpy IoU per
pair, and a pure-Python sort-and-count pass like AP40. Its inputs are fixed,
so every run of every seed and every version of the program does the same
probe work.
"""

from __future__ import annotations

import math
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# A host on which one probe takes this long is the reference host. Any fixed
# value would do; this one is close to a quiet 2-core cloud host.
REFERENCE_S = 0.040

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((1, 16, 16, 16)).astype(np.float32)
_W = (_rng.standard_normal((24, 16 * 9)) * 0.1).astype(np.float32)
_BOXES = np.concatenate([_rng.uniform(0, 16, (40, 2)), _rng.uniform(1, 4, (40, 2))], axis=1)
_SCORES = _rng.uniform(0, 1, 40)
_FLAGS = [(float(s), bool(f)) for s, f in zip(_rng.uniform(0, 1, 10000), _rng.uniform(0, 1, 10000) < 0.4)]


def _iou(a: np.ndarray, b: np.ndarray) -> float:
    lo = np.maximum(a[:2] - a[2:] / 2, b[:2] - b[2:] / 2)
    hi = np.minimum(a[:2] + a[2:] / 2, b[:2] + b[2:] / 2)
    inter = float(np.prod(np.clip(hi - lo, 0.0, None)))
    return inter / (float(a[2] * a[3] + b[2] * b[3]) - inter)


def _convs() -> float:
    total = 0.0
    for _ in range(48):
        xp = np.pad(_X, ((0, 0), (0, 0), (1, 1), (1, 1)))
        cols = np.ascontiguousarray(sliding_window_view(xp, (3, 3), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5))
        out = cols.reshape(256, 144) @ _W.T
        out = np.clip(np.rint(out / 0.05), -128, 127) * 0.05
        total += float(np.maximum(out, 0.0).sum())
    return total


def _nms() -> int:
    order = np.argsort(-_SCORES)
    kept: list[int] = []
    for i in order:
        if any(_iou(_BOXES[i], _BOXES[k]) >= 0.5 for k in kept):
            continue
        kept.append(int(i))
    return len(kept)


def _ap() -> float:
    flags = sorted(_FLAGS, key=lambda f: -f[0])
    tp = 0
    precisions = []
    for rank, (_, hit) in enumerate(flags, start=1):
        tp += hit
        precisions.append(tp / rank)
    return sum(max(precisions[math.ceil(r / 40 * len(precisions)) - 1:]) for r in range(1, 41)) / 40


def probe() -> float:
    """Run the probe once; returns its wall time in seconds."""
    start = time.perf_counter()
    _convs()
    _nms()
    _ap()
    return time.perf_counter() - start
