"""Dense float32 tensor kernels: linear, 2D convolution, ReLU, pillar scatter.

All kernels are pure functions over float32 ndarrays and accumulate in
float32. They are small enough to be checked against naive loop oracles but
fast enough to run the toy detector. Images are channels-last,
``[N, H, W, C]``: the scatter, the convolution and the upsample take and
return that layout, so a convolution's GEMM output rows are already the
pixels of its output image. Every kernel takes a batch of scenes: a stacked
``PillarSample`` carries the scene of each pillar, and the scatter turns it
into a ``[B, H, W, C]`` pseudo-image.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ConvParams",
    "PillarSample",
    "conv2d",
    "im2col",
    "int_at_least",
    "int_pair_at_least",
    "is_real",
    "linear",
    "max_over_points",
    "relu",
    "scatter_pillars",
    "sigmoid",
    "stack_samples",
    "upsample2x",
]


def int_at_least(value, low: int) -> bool:
    """Whether value is an int of at least low; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def int_pair_at_least(value, low: int) -> bool:
    """Whether value is a tuple of two ints of at least low."""
    return isinstance(value, tuple) and len(value) == 2 and all(int_at_least(v, low) for v in value)


def is_real(value) -> bool:
    """Whether value is a real number (an int or a float, NaN included); a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ConvParams:
    """Stride/padding for a 2D convolution, per spatial axis."""

    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)

    def __post_init__(self):
        for name, low in (("stride", 1), ("padding", 0)):
            if not int_pair_at_least(getattr(self, name), low):
                raise ValueError(f"{name} must be two integers >= {low}, got {getattr(self, name)!r}")

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

    features: [P, max_points, C] float32, zero-padded past each pillar's count;
        max_points is scenes.MAX_POINTS_PER_PILLAR in a pillarized scene
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
    """Patch matrix [N*H'*W', C*kh*kw] of the zero-padded input x[N, H, W, C].

    Rows run over (n, h', w') and columns over (c, kh, kw), the order of
    ``weight.reshape(F, -1)``. The matrix is filled with one slab copy per
    kernel offset (ki, kj): the [N, H', W', C] input pixels that the offset
    meets, strided by the conv stride, land in column (c, ki, kj) of every
    row, so each copy reads runs of C contiguous floats. The matrix is always
    a fresh C-contiguous array, even for a 1x1 kernel, never a view of x.
    """
    kh, kw = k_hw
    ph, pw = params.padding
    sh, sw = params.stride
    n, h, w, c = x.shape
    ho, wo = params.out_size((h, w), (kh, kw))
    xp = x
    if ph or pw:
        xp = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
        xp[:, ph : ph + h, pw : pw + w] = x
    cols = np.empty((n, ho, wo, c, kh, kw), dtype=x.dtype)
    for ki in range(kh):
        for kj in range(kw):
            cols[..., ki, kj] = xp[:, ki : ki + sh * ho : sh, kj : kj + sw * wo : sw]
    return cols.reshape(n * ho * wo, c * kh * kw)


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    params: ConvParams = ConvParams(),
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-correlate x[N, H, W, C] with weight[F, C, kh, kw], add bias[F].

    Returns (out, cols): out is [N, H', W', F] with H', W' from
    ``params.out_size``, and cols the [N*H'*W', C*kh*kw] patch matrix (see
    ``im2col``) that the GEMM consumed, a fresh array the training backward reuses.
    The GEMM is a stacked [N, H'*W', K] @ [K, F] matmul, one BLAS call per
    image with the same M = H'*W' whatever N is: OpenBLAS sgemm rounding
    depends on M, so one flattened [N*H'*W', K] GEMM would make an image's
    output depend on the batch it was run in.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError(f"conv2d expects 4D input/weight, got {x.shape} and {weight.shape}")
    n, h, w, c = x.shape
    f, cw, kh, kw = weight.shape
    if c != cw:
        raise ValueError(f"conv2d input channels {c} != weight channels {cw}")
    if bias.shape != (f,):
        raise ValueError(f"conv2d bias shape {bias.shape} != ({f},)")
    ho, wo = params.out_size((h, w), (kh, kw))
    cols = im2col(x, (kh, kw), params)
    out = cols.reshape(n, ho * wo, c * kh * kw) @ weight.reshape(f, -1).T + bias
    return out.reshape(n, ho, wo, f), cols


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, np.float32(0.0))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function; exp(-|x|) is its one exponential, so large |x| cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def scatter_pillars(
    features: np.ndarray,
    coords: np.ndarray,
    grid: tuple[int, int],
    scene_ids: np.ndarray,
    num_scenes: int,
) -> np.ndarray:
    """Write pillar feature rows [P, C] into a zeroed [num_scenes, H, W, C] grid.

    Pillar p lands in scene scene_ids[p] at coords[p]; two pillars may share
    a cell only in different scenes.
    """
    h, w = grid
    features = np.asarray(features, dtype=np.float32)
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    p, c = features.shape
    if coords.shape[0] != p:
        raise ValueError(f"scatter got {p} pillars but {coords.shape[0]} coords")
    scenes = np.asarray(scene_ids, dtype=np.int64)
    if scenes.shape != (p,):
        raise ValueError(f"scatter got {p} pillars but scene ids of shape {scenes.shape}")
    out = np.zeros((num_scenes, h, w, c), dtype=np.float32)
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
    out[scenes, rows, cols] = features
    return out


def max_over_points(features: np.ndarray, point_mask: np.ndarray) -> np.ndarray:
    """Masked max over the points axis: [P, M, C] -> [P, C].

    Padding rows are excluded; every pillar must hold at least one real point.
    """
    if not point_mask.any(axis=1).all():
        raise ValueError("pillar with no real points cannot be max-pooled")
    masked = np.where(point_mask[:, :, None], features, np.float32(-np.inf))
    return masked.max(axis=1)


def upsample2x(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbor 2x spatial upsample of [N, H, W, C]."""
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)
