"""Quantization math: scales, the one INT8 rounding rule, clamping, the clip-range mask, FP16 simulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pillarmix.calibration import LayerCalibration
from pillarmix.quant import (
    FP16_MAX,
    DType,
    PerChannelQuantParams,
    Q_MAX,
    Q_MIN,
    QuantParams,
    compute_scale,
    fake_quant,
    fake_quant_per_channel,
    fp16_roundtrip,
    in_clip_range,
    weight_quant_params,
)


class TestComputeScale:
    def test_worked_examples(self):
        assert compute_scale(-1.0, 2.0).scale == pytest.approx(2.0 / 127.0, abs=1e-12)
        assert compute_scale(-127.0, 127.0).scale == 1.0
        assert compute_scale(0.0, 0.0).scale == 1.0  # degenerate fallback
        assert compute_scale(0.0, 5e-324).scale == 1.0  # max_abs / 127 underflows to 0.0
        assert compute_scale(-3e-322, 0.0).scale == 1.0
        assert compute_scale(0.0, 1e-320).scale == 1e-320 / 127.0
        per_channel = weight_quant_params(np.array([[0.0], [5e-324], [2.0]]), per_channel=True)
        assert per_channel.scales.tolist() == [1.0, 1.0, 2.0 / 127.0]

    def test_matches_max_abs_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a, b = sorted(rng.uniform(-100, 100, size=2))
            expected = max(abs(a), abs(b)) / 127.0
            assert compute_scale(a, b).scale == expected

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = sorted(rng.uniform(-10, 10, size=2))
            c = float(rng.uniform(0.1, 10))
            lhs = compute_scale(c * a, c * b).scale
            rhs = c * compute_scale(a, b).scale
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="non-finite"):
            compute_scale(-math.inf, 1.0)
        with pytest.raises(ValueError, match="min .* > max"):
            compute_scale(2.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            QuantParams(scale=0.0)


class TestRounding:
    """fake_quant's rounding rule on scalars: round half to even, then clamp to the codes."""

    def test_zero_maps_to_zero(self):
        for s in (0.001, 1.0, 42.0):
            assert fake_quant(np.float32(0.0), QuantParams(scale=s)) == 0.0

    def test_round_half_to_even(self):
        fq = fake_quant(np.array([2.5, 3.5, -2.5], dtype=np.float32), QuantParams(scale=1.0))
        np.testing.assert_array_equal(fq, [2.0, 4.0, -2.0])

    def test_clamp_saturates(self):
        fq = fake_quant(np.array([1000.0, -1000.0], dtype=np.float32), QuantParams(scale=1.0))
        np.testing.assert_array_equal(fq, [127.0, -128.0])

    def test_round_trip_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            s = float(rng.uniform(1e-3, 10))
            x = np.float32(rng.uniform(-128 * s, 127 * s))
            err = abs(float(fake_quant(x, QuantParams(scale=s))) - float(x))
            assert err <= s * (0.5 + 64 * np.finfo(np.float32).eps)  # half a step, plus float32 rounding

    def test_monotone_in_x(self):
        qp = QuantParams(scale=0.37)
        xs = np.sort(np.random.default_rng(12).uniform(-100, 100, size=1000)).astype(np.float32)
        assert np.all(np.diff(fake_quant(xs, qp)) >= 0)


class TestFakeQuant:
    def test_zeros_fixed(self):
        t = np.zeros((3, 4), dtype=np.float32)
        np.testing.assert_array_equal(fake_quant(t, QuantParams(scale=0.5)), t)

    def test_grid_points_fixed(self):
        qp = QuantParams(scale=0.03125)  # power of two: grid exact in float32
        k = np.arange(-127, 128, dtype=np.float32)
        t = k * np.float32(qp.scale)
        np.testing.assert_array_equal(fake_quant(t, qp), t)

    def test_matches_scalar_oracle_and_bound(self):
        rng = np.random.default_rng(13)
        s = float(rng.uniform(0.01, 1.0))
        qp = QuantParams(scale=s)

        def oracle(x):  # Python's round is half to even
            return np.float32(min(Q_MAX, max(Q_MIN, round(float(x) / s))) * s)

        t = rng.uniform(-128 * s, 127 * s, size=256).astype(np.float32)
        fq = fake_quant(t, qp)
        np.testing.assert_array_equal(fq, [oracle(x) for x in t])
        assert np.max(np.abs(fq - t)) <= s / 2
        wide = rng.normal(scale=300 * s, size=256).astype(np.float32)  # saturates too
        np.testing.assert_array_equal(fake_quant(wide, qp), [oracle(x) for x in wide])

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        qp = QuantParams(scale=0.11)
        t = rng.normal(scale=5.0, size=128).astype(np.float32)
        once = fake_quant(t, qp)
        np.testing.assert_array_equal(fake_quant(once, qp), once)

    def test_error_decomposition(self):
        # inside the clip range the error is a rounding error bounded by s/2;
        # outside it equals the distance to the saturated grid edge
        qp = QuantParams(scale=0.5)
        inside = np.array([0.2, -3.3, 14.9], dtype=np.float32)
        assert np.max(np.abs(fake_quant(inside, qp) - inside)) <= qp.scale / 2
        outside = np.array([200.0, -100.0], dtype=np.float32)
        fq = fake_quant(outside, qp)
        np.testing.assert_allclose(fq, [127 * 0.5, -128 * 0.5], rtol=1e-6)
        np.testing.assert_allclose(
            np.abs(fq - outside), [200.0 - 63.5, 100.0 - 64.0], rtol=1e-6
        )

    def test_per_channel_weight_mode(self):
        rng = np.random.default_rng(15)
        w = rng.normal(size=(4, 3, 2, 2)).astype(np.float32)
        w[2] *= 40.0  # one wild output channel should not coarsen the others
        qp = weight_quant_params(w, per_channel=True)
        fq = fake_quant_per_channel(w, qp)
        per_tensor = fake_quant(w, weight_quant_params(w))
        err_pc = np.abs(fq - w)[0].max()
        err_pt = np.abs(per_tensor - w)[0].max()
        assert err_pc < err_pt
        for ch in range(4):
            assert np.abs(fq[ch] - w[ch]).max() <= qp.scales[ch] / 2


class TestInClipRange:
    """The clipped STE's mask: 1 inside [Q_MIN * s, Q_MAX * s], else 0."""

    def test_per_tensor_passes_inside_clip_range_only(self):
        qp = QuantParams(scale=0.5)  # clip range [-64, 63.5]
        x = np.array([-64.5, -64.0, 0.0, 63.5, 63.6, np.inf, np.nan], dtype=np.float32)
        mask = in_clip_range(x, qp)
        assert mask.dtype == np.float32
        np.testing.assert_array_equal(mask, [0, 1, 1, 1, 0, 0, 0])

    def test_per_channel_uses_each_channels_range(self):
        qp = PerChannelQuantParams(scales=np.array([1.0, 0.125]))  # [-128, 127] and [-16, 15.875]
        x = np.array([[127.0, -128.0, 128.0], [15.875, -16.0, 16.0]], dtype=np.float32)
        np.testing.assert_array_equal(in_clip_range(x, qp), [[1, 1, 0], [1, 1, 0]])

    def test_marks_the_values_fake_quant_does_not_saturate(self):
        """Inside the mask fake_quant rounds to within half a step; outside it
        returns a grid edge, Q_MIN * s or Q_MAX * s."""
        qp = QuantParams(scale=0.25)
        t = np.random.default_rng(16).normal(scale=40.0, size=512).astype(np.float32)
        inside = in_clip_range(t, qp) == 1
        assert 0 < inside.sum() < t.size
        fq = fake_quant(t, qp)
        assert np.all(np.abs(fq[inside] - t[inside]) <= qp.scale / 2)
        np.testing.assert_array_equal(fq[~inside], np.where(t[~inside] > 0, Q_MAX, Q_MIN) * qp.scale)


class TestFp16Roundtrip:
    def test_exact_cases(self):
        assert fp16_roundtrip(np.float32(1.0)) == 1.0
        assert fp16_roundtrip(np.float32(2049.0)) == 2048.0
        assert fp16_roundtrip(np.float32(1e6)) == FP16_MAX

    def test_idempotent(self):
        rng = np.random.default_rng(16)
        t = (rng.normal(size=512) * 1e3).astype(np.float32)
        once = fp16_roundtrip(t)
        np.testing.assert_array_equal(fp16_roundtrip(once), once)

    def test_integers_up_to_2048_exact(self):
        ints = np.arange(-2048, 2049, dtype=np.float32)
        np.testing.assert_array_equal(fp16_roundtrip(ints), ints)

    def test_saturates_instead_of_inf(self):
        t = np.array([1e30, -1e30, 65519.0], dtype=np.float32)
        out = fp16_roundtrip(t)
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out, [FP16_MAX, -FP16_MAX, FP16_MAX])


class TestNanRejected:
    """NaN has no INT8 code and no meaning after FP16: every transform raises."""

    def test_fake_quant(self):
        t = np.array([0.5, np.nan, 1.0], dtype=np.float32)
        with pytest.raises(ValueError, match="1 NaN"):
            fake_quant(t, QuantParams(scale=0.1))

    def test_fake_quant_per_channel(self):
        w = np.ones((2, 3), dtype=np.float32)
        w[1, 2] = np.nan
        with pytest.raises(ValueError, match="1 NaN"):
            fake_quant_per_channel(w, PerChannelQuantParams(scales=np.array([0.1, 0.2])))

    def test_fp16_roundtrip(self):
        with pytest.raises(ValueError, match="2 NaN"):
            fp16_roundtrip(np.array([np.nan, 1.0, np.nan], dtype=np.float32))

    def test_inf_still_saturates(self):
        t = np.array([np.inf, -np.inf], dtype=np.float32)
        np.testing.assert_array_equal(fake_quant(t, QuantParams(scale=0.5)), [63.5, -64.0])
        np.testing.assert_array_equal(
            fake_quant_per_channel(t.reshape(2, 1), PerChannelQuantParams(scales=np.array([0.5, 1.0]))),
            [[63.5], [-128.0]],
        )
        np.testing.assert_array_equal(fp16_roundtrip(t), [FP16_MAX, -FP16_MAX])


@pytest.mark.parametrize("scales", [[[0.1, 0.2]], [0.1, 0.0], [0.1, -0.2], [0.1, np.nan], [np.inf, 0.2]])
def test_per_channel_scales_must_be_1d_positive_and_finite(scales):
    with pytest.raises(ValueError, match="per-channel scales must be a 1D positive finite array"):
        PerChannelQuantParams(scales=np.array(scales))


class TestMinMaxObserver:
    """The observed min/max range now lives on LayerCalibration, which derives act_qp from it."""

    def test_params_follow_scale_formula(self):
        layer = LayerCalibration(name="conv", act_min=-0.5, act_max=2.54, weight_qp=QuantParams(scale=1.0))
        assert layer.act_qp.scale == 2.54 / 127.0


scales = st.floats(min_value=1e-6, max_value=1e6)
float32_arrays = arrays(np.float32, st.integers(1, 16), elements=st.floats(width=32, allow_nan=False))


class TestFakeQuantProperties:
    @settings(max_examples=50, deadline=None)
    @given(t=float32_arrays, scale=scales, channel_scales=arrays(np.float64, 4, elements=scales))
    def test_output_on_the_grid_and_inside_the_clip_range(self, t, scale, channel_scales):
        w = np.resize(t, (4, len(t)))  # four channels, each a copy of t under its own scale
        for fq, s in (
            (fake_quant(t, QuantParams(scale=scale)), scale),
            (fake_quant_per_channel(w, PerChannelQuantParams(scales=channel_scales)), channel_scales[:, None]),
        ):
            codes = np.rint(fq.astype(np.float64) / s)
            assert np.all((codes >= Q_MIN) & (codes <= Q_MAX))
            np.testing.assert_array_equal(fq, (codes * s).astype(np.float32))
        # one rounding rule: every channel at the same scale is per-tensor fake_quant
        same = PerChannelQuantParams(scales=np.full(4, scale))
        np.testing.assert_array_equal(fake_quant_per_channel(w, same), fake_quant(w, QuantParams(scale=scale)))

    @settings(max_examples=50, deadline=None)
    @given(u=arrays(np.float64, st.integers(1, 16), elements=st.floats(Q_MIN, Q_MAX)), scale=scales)
    def test_inside_the_clip_range_within_half_a_step(self, u, scale):
        t = (u * scale).astype(np.float32)
        err = np.abs(fake_quant(t, QuantParams(scale=scale)).astype(np.float64) - t)
        # half a step, plus float32 rounding of the grid point (at most 128 * scale * eps / 2)
        assert np.all(err <= scale * (0.5 + 64 * np.finfo(np.float32).eps))


def test_dtype_tags_closed():
    assert {d.value for d in DType} == {"fp32", "fp16", "int8"}
    with pytest.raises(ValueError):
        DType("int4")
