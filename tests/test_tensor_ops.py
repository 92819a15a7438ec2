"""Kernel correctness against naive loop oracles.

The oracles and the hand-written cases are NCHW; the channels-last image
kernels are checked through the *_nchw wrappers, which only transpose.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pillarmix.tensor_ops import (
    ConvParams,
    PillarSample,
    conv2d,
    im2col,
    linear,
    max_over_points,
    relu,
    scatter_pillars,
    sigmoid,
    stack_samples,
    upsample2x,
)


def naive_conv2d(x, w, b, stride=(1, 1), padding=(0, 0)):
    """Quadruple-loop cross-correlation oracle."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, f, ho, wo), dtype=np.float64)
    for ni in range(n):
        for fi in range(f):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += xp[ni, ci, i * sh + ki, j * sw + kj] * w[fi, ci, ki, kj]
                    out[ni, fi, i, j] = acc + b[fi]
    return out


def nhwc(x):
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def nchw(x):
    return x.transpose(0, 3, 1, 2)


def conv2d_nchw(x, w, b, params=ConvParams()):
    out, _ = conv2d(nhwc(x), w, b, params)
    return nchw(out)


def scatter_pillars_nchw(*args, **kwargs):
    return nchw(scatter_pillars(*args, **kwargs))


def upsample2x_nchw(x):
    return nchw(upsample2x(nhwc(x)))


def gather_im2col(x, k_hw, stride, padding):
    """Per-patch gather oracle of im2col on x[N, H, W, C]: one row per output
    pixel (n, h', w'), its entries over (c, ki, kj), zero outside the input."""
    n, h, w, c = x.shape
    (kh, kw), (sh, sw), (ph, pw) = k_hw, stride, padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    rows = []
    for ni in range(n):
        for i in range(ho):
            for j in range(wo):
                row = []
                for ci in range(c):
                    for ki in range(kh):
                        for kj in range(kw):
                            y, xx = i * sh + ki - ph, j * sw + kj - pw
                            row.append(x[ni, y, xx, ci] if 0 <= y < h and 0 <= xx < w else 0.0)
                rows.append(row)
    return np.array(rows, dtype=np.float32).reshape(n * ho * wo, c * kh * kw)


def naive_linear(x, w, b):
    n, din = x.shape
    dout = w.shape[0]
    out = np.zeros((n, dout), dtype=np.float64)
    for i in range(n):
        for o in range(dout):
            acc = 0.0
            for k in range(din):
                acc += x[i, k] * w[o, k]
            out[i, o] = acc + b[o]
    return out


class TestIm2col:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 2), h=st.integers(1, 6), extra=st.integers(1, 3), wide=st.booleans(),
           c=st.integers(1, 3), k_hw=st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3])),
           stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           padding=st.tuples(st.integers(0, 2), st.integers(0, 2)), seed=st.integers(0, 2**16))
    @example(n=2, h=5, extra=2, wide=True, c=3, k_hw=(1, 3), stride=(2, 1), padding=(0, 2), seed=7)
    @example(n=2, h=5, extra=2, wide=False, c=3, k_hw=(3, 1), stride=(1, 3), padding=(2, 0), seed=7)
    @example(n=1, h=4, extra=3, wide=True, c=2, k_hw=(2, 3), stride=(1, 2), padding=(1, 0), seed=7)
    @example(n=2, h=3, extra=2, wide=True, c=3, k_hw=(1, 1), stride=(1, 1), padding=(0, 0), seed=8)
    def test_equals_the_per_patch_gather(self, n, h, extra, wide, c, k_hw, stride, padding, seed):
        """Non-square kernels and per-axis strides and padding: a mix-up of the
        two spatial axes anywhere in the patch build changes the matrix. The
        matrix is a fresh array, even for an unpadded 1x1 stride-1 kernel."""
        hw = (h, h + extra) if wide else (h + extra, h)
        hw = tuple(max(size, k - 2 * p) for size, k, p in zip(hw, k_hw, padding))
        x = np.random.default_rng(seed).normal(size=(n, *hw, c)).astype(np.float32)
        got = im2col(x, k_hw, ConvParams(stride, padding))
        np.testing.assert_array_equal(got, gather_im2col(x, k_hw, stride, padding))
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert not np.shares_memory(got, x)


class TestConv2d:
    def test_returns_the_patch_matrix_its_gemm_consumed(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 6, 5, 4)).astype(np.float32)
        w = rng.normal(size=(7, 4, 3, 3)).astype(np.float32)
        b = rng.normal(size=7).astype(np.float32)
        params = ConvParams(stride=(2, 2), padding=(1, 1))
        out, cols = conv2d(x, w, b, params)
        np.testing.assert_array_equal(cols, im2col(x, (3, 3), params))
        per_image = cols.reshape(3, -1, 4 * 9)
        for i in range(3):
            np.testing.assert_array_equal(out[i].reshape(-1, 7), per_image[i] @ w.reshape(7, -1).T + b)

    def test_identity_1x1(self):
        x = np.full((1, 1, 1, 1), 3.25, dtype=np.float32)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        assert conv2d_nchw(x, w, b)[0, 0, 0, 0] == np.float32(3.25)

    def test_zero_weight_gives_bias(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        w = np.zeros((4, 3, 3, 3), dtype=np.float32)
        b = np.array([1.5, -2.0, 0.0, 7.0], dtype=np.float32)
        out = conv2d_nchw(x, w, b)
        for fi, bv in enumerate(b):
            assert np.all(out[:, fi] == bv)

    def test_hand_computed_window_sums(self):
        x = np.arange(1, 10, dtype=np.float32).reshape(1, 1, 3, 3)
        w = np.ones((1, 1, 2, 2), dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        out = conv2d_nchw(x, w, b)
        np.testing.assert_array_equal(out[0, 0], [[12.0, 16.0], [24.0, 28.0]])

    @pytest.mark.parametrize("case", range(12))
    def test_random_against_naive_oracle(self, case):
        rng = np.random.default_rng(100 + case)
        c = int(rng.integers(1, 5))
        f = int(rng.integers(1, 5))
        h, w = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        kh, kw = int(rng.integers(1, min(4, h) + 1)), int(rng.integers(1, min(4, w) + 1))
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        padding = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        x = rng.normal(scale=0.4, size=(2, c, h, w)).astype(np.float32)
        wt = rng.normal(scale=0.4, size=(f, c, kh, kw)).astype(np.float32)
        b = rng.normal(size=f).astype(np.float32)
        got = conv2d_nchw(x, wt, b, ConvParams(stride=stride, padding=padding))
        want = naive_conv2d(x, wt, b, stride=stride, padding=padding)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-6

    @pytest.mark.parametrize("shape", [(16, 16, 16, 3, 1), (16, 16, 8, 3, 2), (24, 32, 4, 3, 1), (5, 24, 8, 1, 1)])
    def test_batch_equals_per_image_bit_for_bit(self, shape):
        c, f, hw, k, stride = shape
        rng = np.random.default_rng(7)
        x = rng.normal(size=(17, c, hw, hw)).astype(np.float32)
        w = rng.normal(size=(f, c, k, k)).astype(np.float32)
        b = rng.normal(size=f).astype(np.float32)
        params = ConvParams(stride=(stride, stride), padding=(k // 2, k // 2))
        batched = conv2d_nchw(x, w, b, params)
        for i in range(len(x)):
            np.testing.assert_array_equal(batched[i : i + 1], conv2d_nchw(x[i : i + 1], w, b, params))

    def test_channel_mismatch_named_in_error(self):
        x = np.zeros((1, 3, 4, 4), dtype=np.float32)
        w = np.zeros((2, 5, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="3 != weight channels 5"):
            conv2d_nchw(x, w, np.zeros(2, dtype=np.float32))

    @pytest.mark.parametrize("x_shape, w_shape", [((4, 4, 3), (2, 3, 1, 1)), ((1, 4, 4, 3), (2, 3))])
    def test_an_input_or_weight_that_is_not_4d_is_rejected_naming_both_shapes(self, x_shape, w_shape):
        x, w = np.zeros(x_shape, np.float32), np.zeros(w_shape, np.float32)
        with pytest.raises(ValueError, match=re.escape(f"conv2d expects 4D input/weight, got {x_shape} and {w_shape}")):
            conv2d(x, w, np.zeros(2, np.float32))

    def test_bias_shape_named_in_error(self):
        x, w = np.zeros((1, 4, 4, 3), np.float32), np.zeros((2, 3, 1, 1), np.float32)
        with pytest.raises(ValueError, match=re.escape("conv2d bias shape (3,) != (2,)")):
            conv2d(x, w, np.zeros(3, np.float32))

    def test_output_smaller_than_one_rejected(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="< 1"):
            conv2d_nchw(x, w, np.zeros(1, dtype=np.float32))


class TestLinear:
    def test_identity_weight(self):
        x = np.random.default_rng(1).normal(size=(3, 4)).astype(np.float32)
        out = linear(x, np.eye(4, dtype=np.float32), np.zeros(4, dtype=np.float32))
        np.testing.assert_array_equal(out, x)

    def test_worked_example(self):
        out = linear(
            np.array([[1.0, 2.0]], dtype=np.float32),
            np.array([[3.0, 4.0]], dtype=np.float32),
            np.array([5.0], dtype=np.float32),
        )
        assert out[0, 0] == np.float32(16.0)

    @pytest.mark.parametrize("case", range(8))
    def test_random_against_naive_oracle(self, case):
        rng = np.random.default_rng(200 + case)
        x = rng.normal(size=(4, 8)).astype(np.float32)
        w = rng.normal(size=(6, 8)).astype(np.float32)
        b = rng.normal(size=6).astype(np.float32)
        assert np.max(np.abs(linear(x, w, b) - naive_linear(x, w, b))) < 1e-6

    def test_batched_last_axis(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 8)).astype(np.float32)
        w = rng.normal(size=(6, 8)).astype(np.float32)
        b = rng.normal(size=6).astype(np.float32)
        out = linear(x, w, b)
        assert out.shape == (2, 5, 6)
        np.testing.assert_allclose(out[1], linear(x[1], w, b), rtol=0, atol=0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="features 3 != weight in-features 4"):
            linear(np.zeros((1, 3), dtype=np.float32), np.zeros((2, 4), dtype=np.float32), np.zeros(2, dtype=np.float32))

    def test_bias_shape_named_in_error(self):
        with pytest.raises(ValueError, match=re.escape("linear bias shape (3,) != (out-features,) = (2,)")):
            linear(np.zeros((1, 4), np.float32), np.zeros((2, 4), np.float32), np.zeros(3, np.float32))


class TestRelu:
    def test_examples(self):
        np.testing.assert_array_equal(
            relu(np.array([-1.0, 0.0, 2.0], dtype=np.float32)), [0.0, 0.0, 2.0]
        )
        assert np.all(relu(-np.ones(5, dtype=np.float32)) == 0.0)

    def test_idempotent_and_monotone(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(64,)).astype(np.float32)
        y = rng.normal(size=(64,)).astype(np.float32)
        np.testing.assert_array_equal(relu(relu(x)), relu(x))
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        assert np.all(relu(lo) <= relu(hi))


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_two_branch_formula_without_overflow_warnings(self, dtype):
        x = np.concatenate([np.linspace(-800, 800, 4001), [-745.0, -40.0, -1e-300, 0.0, 1e-300, 40.0, 745.0]])
        x = x.astype(dtype)
        with np.errstate(all="ignore"):  # the reference overflows in the unused branch
            want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = sigmoid(x)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype
        assert sigmoid(np.array([-800.0, 800.0])).tolist() == [0.0, 1.0]


class TestScatterPillars:
    def test_empty(self):
        out = scatter_pillars_nchw(np.zeros((0, 3), dtype=np.float32), np.zeros((0, 2), int), (4, 4),
                                   np.zeros(0, np.int64), 1)
        assert out.shape == (1, 3, 4, 4) and out.dtype == np.float32
        assert np.all(out == 0.0)

    def test_single_pillar(self):
        out = scatter_pillars_nchw(np.array([[7.0]], dtype=np.float32), np.array([[0, 0]]), (2, 2),
                                   np.zeros(1, np.int64), 1)
        np.testing.assert_array_equal(out[0, 0], [[7.0, 0.0], [0.0, 0.0]])

    def test_conserves_sum(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(10, 6)).astype(np.float32)
        cells = rng.choice(8 * 8, size=10, replace=False)
        coords = np.stack([cells // 8, cells % 8], axis=1)
        out = scatter_pillars_nchw(feats, coords, (8, 8), np.zeros(10, np.int64), 1)
        np.testing.assert_allclose(out.sum(), feats.sum(), rtol=1e-6)

    def test_out_of_range_and_duplicate(self):
        feats = np.ones((1, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="outside grid"):
            scatter_pillars(feats, np.array([[5, 0]]), (4, 4), np.zeros(1, np.int64), 1)
        feats2 = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="duplicate"):
            scatter_pillars(feats2, np.array([[1, 1], [1, 1]]), (4, 4), np.zeros(2, np.int64), 1)


    def test_batch_scatters_each_scene_into_its_own_image(self):
        feats = np.array([[1.0], [2.0], [3.0]], dtype=np.float32)
        coords = np.array([[0, 1], [0, 1], [1, 0]])
        out = scatter_pillars_nchw(feats, coords, (2, 2), scene_ids=np.array([0, 2, 2]), num_scenes=3)
        assert out.shape == (3, 1, 2, 2)
        np.testing.assert_array_equal(out[:, 0], [[[0, 1], [0, 0]], [[0, 0], [0, 0]], [[0, 2], [3, 0]]])

    def test_batch_duplicates_and_scene_range(self):
        feats = np.ones((2, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="duplicate"):
            scatter_pillars(feats, np.array([[1, 1], [1, 1]]), (4, 4), np.array([1, 1]), 2)
        with pytest.raises(ValueError, match="scene id 2 outside batch of 2"):
            scatter_pillars(feats, np.array([[1, 1], [0, 1]]), (4, 4), np.array([0, 2]), 2)

    def test_coords_and_scene_ids_must_match_the_pillars(self):
        feats = np.ones((2, 1), dtype=np.float32)
        with pytest.raises(ValueError, match=re.escape("scatter got 2 pillars but 1 coords")):
            scatter_pillars(feats, np.array([[1, 1]]), (4, 4), np.zeros(2, np.int64), 1)
        with pytest.raises(ValueError, match=re.escape("scatter got 2 pillars but scene ids of shape (1,)")):
            scatter_pillars(feats, np.array([[1, 1], [0, 1]]), (4, 4), np.zeros(1, np.int64), 1)
        with pytest.raises(ValueError, match=re.escape("scatter got 2 pillars but scene ids of shape (2, 1)")):
            scatter_pillars(feats, np.array([[1, 1], [0, 1]]), (4, 4), np.zeros((2, 1), np.int64), 1)


def _sample(n_pillars, seed, grid=(4, 4)):
    rng = np.random.default_rng(seed)
    cells = rng.choice(grid[0] * grid[1], size=n_pillars, replace=False)
    return PillarSample(
        features=rng.normal(size=(n_pillars, 3, 2)).astype(np.float32),
        point_mask=np.ones((n_pillars, 3), bool),
        coords=np.stack([cells // grid[1], cells % grid[1]], axis=1),
        grid=grid,
    )


class TestStackSamples:
    def test_single_sample_is_a_batch_of_one(self):
        s = _sample(3, 0)
        assert s.num_scenes == 1
        np.testing.assert_array_equal(s.scene_ids, [0, 0, 0])

    def test_concatenates_and_tags_scenes(self):
        parts = [_sample(3, 0), _sample(0, 1), _sample(2, 2)]
        batch = stack_samples(parts)
        assert batch.num_scenes == 3
        np.testing.assert_array_equal(batch.scene_ids, [0, 0, 0, 2, 2])
        np.testing.assert_array_equal(batch.features, np.concatenate([p.features for p in parts]))
        np.testing.assert_array_equal(batch.coords, np.concatenate([p.coords for p in parts]))
        image = scatter_pillars(batch.features[:, 0], batch.coords, batch.grid, batch.scene_ids, 3)
        for i, part in enumerate(parts):
            np.testing.assert_array_equal(
                image[i : i + 1],
                scatter_pillars(part.features[:, 0], part.coords, part.grid, np.zeros(len(part.coords), np.int64), 1),
            )

    def test_stacking_batches_offsets_scene_ids(self):
        batch = stack_samples([stack_samples([_sample(1, 0), _sample(1, 1)]), _sample(2, 2)])
        assert batch.num_scenes == 3
        np.testing.assert_array_equal(batch.scene_ids, [0, 1, 2, 2])

    def test_rejects_empty_and_mixed_grids(self):
        with pytest.raises(ValueError, match="empty"):
            stack_samples([])
        with pytest.raises(ValueError, match="different grids"):
            stack_samples([_sample(1, 0), _sample(1, 1, grid=(4, 8))])


class TestGlueKernels:
    def test_max_over_points_masks_padding(self):
        feats = np.array(
            [[[1.0, -5.0], [9.0, 9.0]], [[2.0, 0.5], [0.0, 0.0]]], dtype=np.float32
        )
        mask = np.array([[True, False], [True, True]])
        out = max_over_points(feats, mask)
        np.testing.assert_array_equal(out, [[1.0, -5.0], [2.0, 0.5]])

    def test_max_over_points_of_no_pillars(self):
        out = max_over_points(np.zeros((0, 2, 3), dtype=np.float32), np.zeros((0, 2), bool))
        assert out.shape == (0, 3) and out.dtype == np.float32

    def test_max_over_points_requires_real_point(self):
        with pytest.raises(ValueError, match="no real points"):
            max_over_points(np.zeros((1, 2, 3), dtype=np.float32), np.zeros((1, 2), bool))

    def test_upsample2x(self):
        x = np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2)
        out = upsample2x_nchw(x)
        np.testing.assert_array_equal(
            out[0, 0],
            [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]],
        )
