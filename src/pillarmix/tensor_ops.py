"""Dense float32 tensor kernels: linear, 2D convolution, ReLU, pillar scatter.

All kernels are pure functions over C-contiguous float32 ndarrays (NCHW for
convolutions) and accumulate in float32. They are small enough to be checked
against naive loop oracles but fast enough to run the toy detector. Every
kernel takes a batch of scenes: a stacked ``PillarSample`` carries the scene
of each pillar, and the scatter turns it into a ``[B, C, H, W]`` pseudo-image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "ConvParams",
    "PillarSample",
    "conv2d",
    "im2col",
    "linear",
    "max_over_points",
    "relu",
    "scatter_pillars",
    "sigmoid",
    "stack_samples",
    "upsample2x",
]


@dataclass(frozen=True)
class ConvParams:
    """Stride/padding for a 2D convolution, per spatial axis."""

    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if any(s < 1 for s in self.stride):
            raise ValueError(f"stride must be positive, got {self.stride}")
        if any(p < 0 for p in self.padding):
            raise ValueError(f"padding must be non-negative, got {self.padding}")

    def out_size(self, in_hw: tuple[int, int], k_hw: tuple[int, int]) -> tuple[int, int]:
        out = []
        for size, k, s, p in zip(in_hw, k_hw, self.stride, self.padding):
            o = (size + 2 * p - k) // s + 1
            if o < 1:
                raise ValueError(
                    f"conv output extent {o} < 1 for input {size}, kernel {k}, "
                    f"stride {s}, padding {p}"
                )
            out.append(o)
        return out[0], out[1]


@dataclass(frozen=True)
class PillarSample:
    """A batch of pillarized scenes: padded per-pillar point features plus grid coords.

    features: [P, max_points, C] float32, zero-padded past each pillar's count
    point_mask: [P, max_points] bool, True where a real point sits
    coords: [P, 2] int array of (row, col) grid cells, unique per pillar within a scene
    grid: (H, W) pseudo-image extents, shared by every scene
    scene_ids: [P] int, the batch position of each pillar's scene; defaults
        to all zeros, so a single pillarized scene is a batch of one
    num_scenes: batch size B; scenes without pillars still count
    """

    features: np.ndarray
    point_mask: np.ndarray
    coords: np.ndarray
    grid: tuple[int, int]
    scene_ids: np.ndarray | None = None
    num_scenes: int = 1

    def __post_init__(self):
        if self.scene_ids is None:
            object.__setattr__(self, "scene_ids", np.zeros(self.features.shape[0], np.int64))


def stack_samples(samples: Sequence[PillarSample]) -> PillarSample:
    """Concatenate samples into one batch; scenes keep their order."""
    if not samples:
        raise ValueError("cannot stack an empty list of samples")
    grids = {tuple(s.grid) for s in samples}
    if len(grids) != 1:
        raise ValueError(f"cannot stack samples with different grids {sorted(grids)}")
    offsets = np.cumsum([0] + [s.num_scenes for s in samples])
    return PillarSample(
        features=np.concatenate([s.features for s in samples]),
        point_mask=np.concatenate([s.point_mask for s in samples]),
        coords=np.concatenate([np.asarray(s.coords, np.int64).reshape(-1, 2) for s in samples]),
        grid=samples[0].grid,
        scene_ids=np.concatenate([s.scene_ids + off for s, off in zip(samples, offsets)]),
        num_scenes=int(offsets[-1]),
    )


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x[..., Din] @ weight[Dout, Din].T + bias[Dout]."""
    x = np.asarray(x, dtype=np.float32)
    if x.shape[-1] != weight.shape[1]:
        raise ValueError(
            f"linear input features {x.shape[-1]} != weight in-features {weight.shape[1]}"
        )
    if bias.shape != (weight.shape[0],):
        raise ValueError(
            f"linear bias shape {bias.shape} != (out-features,) = ({weight.shape[0]},)"
        )
    return x @ weight.T + bias


def im2col(x: np.ndarray, k_hw: tuple[int, int], params: ConvParams) -> np.ndarray:
    """Patch matrix [N*H'*W', C*kh*kw] of the padded input, row-major over (n, h', w')."""
    kh, kw = k_hw
    ph, pw = params.padding
    sh, sw = params.stride
    n, c, h, w = x.shape
    ho, wo = params.out_size((h, w), (kh, kw))
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    windows = windows[:, :, :ho, :wo]  # [N, C, H', W', kh, kw]
    return np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n * ho * wo, c * kh * kw
    )


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    params: ConvParams = ConvParams(),
) -> np.ndarray:
    """Cross-correlate x[N,C,H,W] with weight[F,C,kh,kw], add bias[F].

    Returns [N, F, H', W'] with H', W' from ``params.out_size``. The GEMM is
    a stacked [N, H'*W', K] @ [K, F] matmul, one BLAS call per image with
    the same M = H'*W' whatever N is: OpenBLAS sgemm rounding depends on M,
    so one flattened [N*H'*W', K] GEMM would make an image's output depend
    on the batch it was run in.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError(f"conv2d expects 4D input/weight, got {x.shape} and {weight.shape}")
    n, c, h, w = x.shape
    f, cw, kh, kw = weight.shape
    if c != cw:
        raise ValueError(f"conv2d input channels {c} != weight channels {cw}")
    if bias.shape != (f,):
        raise ValueError(f"conv2d bias shape {bias.shape} != ({f},)")
    ho, wo = params.out_size((h, w), (kh, kw))
    cols = im2col(x, (kh, kw), params).reshape(n, ho * wo, c * kh * kw)
    out = cols @ weight.reshape(f, -1).T + bias
    return np.ascontiguousarray(out.reshape(n, ho, wo, f).transpose(0, 3, 1, 2))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, np.float32(0.0))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated without overflow for large |x|."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def scatter_pillars(
    features: np.ndarray,
    coords: np.ndarray,
    grid: tuple[int, int],
    scene_ids: np.ndarray | None = None,
    num_scenes: int = 1,
) -> np.ndarray:
    """Write pillar feature columns [P, C] into a zeroed [B, C, H, W] grid.

    Pillar p lands in scene scene_ids[p] (all scene 0 when omitted) at
    coords[p]; two pillars may share a cell only in different scenes.
    """
    h, w = grid
    features = np.asarray(features, dtype=np.float32)
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    p, c = features.shape
    if coords.shape[0] != p:
        raise ValueError(f"scatter got {p} pillars but {coords.shape[0]} coords")
    scenes = np.zeros(p, np.int64) if scene_ids is None else np.asarray(scene_ids, dtype=np.int64)
    if scenes.shape != (p,):
        raise ValueError(f"scatter got {p} pillars but scene ids of shape {scenes.shape}")
    out = np.zeros((num_scenes, c, h, w), dtype=np.float32)
    if p == 0:
        return out
    rows, cols = coords[:, 0], coords[:, 1]
    bad = (rows < 0) | (rows >= h) | (cols < 0) | (cols >= w)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"pillar coord {tuple(coords[i])} outside grid {grid}")
    bad = (scenes < 0) | (scenes >= num_scenes)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"pillar scene id {scenes[i]} outside batch of {num_scenes}")
    flat = (scenes * h + rows) * w + cols
    if len(np.unique(flat)) != p:
        raise ValueError("duplicate pillar coords")
    out[scenes, :, rows, cols] = features
    return out


def max_over_points(features: np.ndarray, point_mask: np.ndarray) -> np.ndarray:
    """Masked max over the points axis: [P, M, C] -> [P, C].

    Padding rows are excluded; every pillar must hold at least one real point.
    """
    if features.shape[0] == 0:
        return np.zeros((0, features.shape[2]), dtype=np.float32)
    if not point_mask.any(axis=1).all():
        raise ValueError("pillar with no real points cannot be max-pooled")
    masked = np.where(point_mask[:, :, None], features, np.float32(-np.inf))
    return masked.max(axis=1)


def upsample2x(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbor 2x spatial upsample of [N, C, H, W]."""
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)
