"""Quantization math: scales, rounding, clamping, FP16 simulation."""

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
    dequantize,
    fake_quant,
    fake_quant_per_channel,
    fp16_roundtrip,
    quantize,
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

    def test_zero_point_pinned(self):
        assert compute_scale(-3.0, 5.0).zero_point == 0

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
        with pytest.raises(ValueError, match="zero_point"):
            QuantParams(scale=1.0, zero_point=3)


class TestQuantizeDequantize:
    def test_zero_maps_to_zero(self):
        for s in (0.001, 1.0, 42.0):
            assert quantize(0.0, QuantParams(scale=s)) == 0

    def test_round_half_to_even(self):
        qp = QuantParams(scale=1.0)
        assert quantize(2.5, qp) == 2
        assert quantize(3.5, qp) == 4
        assert quantize(-2.5, qp) == -2

    def test_clamp_saturates(self):
        qp = QuantParams(scale=1.0)
        assert quantize(1000.0, qp) == 127
        assert quantize(-1000.0, qp) == -128

    def test_dequantize_examples(self):
        qp = QuantParams(scale=1.0)
        assert dequantize(0, qp) == 0.0
        assert dequantize(127, qp) == 127.0

    def test_round_trip_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            s = float(rng.uniform(1e-3, 10))
            qp = QuantParams(scale=s)
            x = float(rng.uniform(-128 * s, 127 * s))
            assert abs(dequantize(quantize(x, qp), qp) - x) <= s / 2

    def test_monotone_in_x(self):
        qp = QuantParams(scale=0.37)
        xs = np.sort(np.random.default_rng(12).uniform(-100, 100, size=1000))
        qs = quantize(xs, qp)
        assert np.all(np.diff(qs) >= 0)


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
        qp = QuantParams(scale=float(rng.uniform(0.01, 1.0)))
        t = rng.uniform(-128 * qp.scale, 127 * qp.scale, size=256).astype(np.float32)
        fq = fake_quant(t, qp)
        for x, y in zip(t, fq):
            assert y == np.float32(dequantize(quantize(float(x), qp), qp))
        assert np.max(np.abs(fq - t)) <= qp.scale / 2
        wide = rng.normal(scale=300 * qp.scale, size=256).astype(np.float32)  # saturates too
        np.testing.assert_array_equal(fake_quant(wide, qp), dequantize(quantize(wide, qp), qp).astype(np.float32))

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
        with pytest.raises(ValueError, match="NaN"):
            quantize(float("nan"), QuantParams(scale=0.1))

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


class TestMinMaxObserver:
    """The observed min/max range now lives on LayerCalibration, which derives act_qp from it."""

    def test_params_follow_scale_formula(self):
        layer = LayerCalibration(
            index=0, name="conv", act_min=-0.5, act_max=2.54, weight_qp=QuantParams(scale=1.0)
        )
        assert layer.act_qp.scale == 2.54 / 127.0
        assert layer.act_qp.zero_point == 0


scales = st.floats(min_value=1e-6, max_value=1e6)
float32_arrays = arrays(np.float32, st.integers(1, 16), elements=st.floats(width=32, allow_nan=False))


class TestFakeQuantProperties:
    @settings(max_examples=50, deadline=None)
    @given(t=float32_arrays, scale=scales)
    def test_output_on_the_grid_and_inside_the_clip_range(self, t, scale):
        fq = fake_quant(t, QuantParams(scale=scale))
        codes = np.rint(fq.astype(np.float64) / scale)
        assert np.all((codes >= Q_MIN) & (codes <= Q_MAX))
        np.testing.assert_array_equal(fq, (codes * scale).astype(np.float32))

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
