"""Quantization math: scales, the one INT8 rounding rule, clamping, the clip-range mask, FP16 simulation."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pillarmix.calibration import LayerCalibration
from pillarmix.quant import (
    FP16_MAX,
    DType,
    Q_MAX,
    Q_MIN,
    QuantParams,
    compute_scale,
    fake_quant,
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
        scale = compute_scale(np.float32(-1.0), np.float32(3.0)).scale  # a float32 range
        assert scale.shape == () and scale.dtype == np.float64 and not scale.flags.writeable
        assert scale == 3.0 / 127
        weight_qp = weight_quant_params(np.array([[0.0], [5e-324], [2.0]]))  # one scale per channel
        assert weight_qp.scale.tolist() == [[1.0], [1.0], [2.0 / 127.0]]

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

    @staticmethod
    def oracle(x, s):  # Python's round is half to even
        return np.float32(min(Q_MAX, max(Q_MIN, round(float(x) / s))) * s)

    def test_matches_scalar_oracle_and_bound(self):
        rng = np.random.default_rng(13)
        s = float(rng.uniform(0.01, 1.0))
        qp = QuantParams(scale=s)
        t = rng.uniform(-128 * s, 127 * s, size=256).astype(np.float32)
        fq = fake_quant(t, qp)
        np.testing.assert_array_equal(fq, [self.oracle(x, s) for x in t])
        assert np.max(np.abs(fq - t)) <= s / 2
        wide = rng.normal(scale=300 * s, size=256).astype(np.float32)  # saturates too
        np.testing.assert_array_equal(fake_quant(wide, qp), [self.oracle(x, s) for x in wide])

    @pytest.mark.parametrize("shape", [(5, 3, 3, 3), (4, 6), (3,)])
    def test_a_weight_matches_the_oracle_of_its_channels_own_scales(self, shape):
        """weight_quant_params gives each output channel max|w_c| / 127; an all-zero channel 1.0."""
        rng = np.random.default_rng(20)
        w = (rng.normal(size=shape) * rng.uniform(0.01, 50.0, size=(shape[0],) + (1,) * (len(shape) - 1)))
        w = w.astype(np.float32)
        w[1] = 0.0
        qp = weight_quant_params(w)
        assert qp.scale.shape == (shape[0],) + (1,) * (len(shape) - 1) and qp.scale.dtype == np.float64
        scales = [float(np.max(np.abs(w_c.astype(np.float64)))) / 127 or 1.0 for w_c in w]
        assert qp.scale.ravel().tolist() == scales
        expected = [[self.oracle(x, s) for x in np.ravel(w_c)] for w_c, s in zip(w, scales)]
        np.testing.assert_array_equal(fake_quant(w, qp).reshape(shape[0], -1), expected)

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

    def test_a_wild_weight_channel_does_not_coarsen_the_others(self):
        rng = np.random.default_rng(15)
        w = rng.normal(size=(4, 3, 2, 2)).astype(np.float32)
        w[2] *= 40.0
        qp = weight_quant_params(w)
        fq = fake_quant(w, qp)
        per_tensor = fake_quant(w, compute_scale(w.min(), w.max()))  # one scale for the whole weight
        err_pc = np.abs(fq - w)[0].max()
        err_pt = np.abs(per_tensor - w)[0].max()
        assert err_pc < err_pt
        for ch in range(4):
            assert np.abs(fq[ch] - w[ch]).max() <= qp.scale[ch, 0, 0, 0] / 2


class TestInClipRange:
    """The clipped STE's mask: 1 inside [Q_MIN * s, Q_MAX * s], else 0."""

    def test_per_tensor_passes_inside_clip_range_only(self):
        qp = QuantParams(scale=0.5)  # clip range [-64, 63.5]
        x = np.array([-64.5, -64.0, 0.0, 63.5, 63.6, np.inf, np.nan], dtype=np.float32)
        mask = in_clip_range(x, qp)
        assert mask.dtype == np.float32
        np.testing.assert_array_equal(mask, [0, 1, 1, 1, 0, 0, 0])

    def test_a_weight_uses_each_channels_range(self):
        qp = QuantParams(scale=np.array([[1.0], [0.125]]))  # [-128, 127] and [-16, 15.875]
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

    def test_one_rule_for_a_scale_per_tensor_and_per_channel(self):
        """Each bound q * s is rounded to float32 once, for both kinds of scale: the
        float32 bounds themselves are inside, their outer neighbours outside."""
        for s in np.random.default_rng(34).uniform(1e-3, 10.0, size=2000):
            lo, hi = np.float32(Q_MIN * s), np.float32(Q_MAX * s)
            t = np.array([np.nextafter(lo, -np.inf), lo, np.nextafter(lo, np.inf),
                          np.nextafter(hi, -np.inf), hi, np.nextafter(hi, np.inf)], dtype=np.float32)
            per_tensor = in_clip_range(t, QuantParams(scale=s))
            np.testing.assert_array_equal(per_tensor, [0, 1, 1, 1, 1, 0])
            np.testing.assert_array_equal(in_clip_range(t, QuantParams(scale=np.array([s]))), per_tensor)


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

    def test_a_float64_input_rounds_as_its_float32_cast(self):
        """Bit for bit the cast only for float32 input: any other is cast to float32
        first, so this float64 value rounds twice, to 1.0, where one cast through
        np.float16 gives 1 + 2**-10."""
        x = np.array([1 + 2**-11 + 2**-30])
        np.testing.assert_array_equal(fp16_roundtrip(x), fp16_roundtrip(x.astype(np.float32)))
        np.testing.assert_array_equal(fp16_roundtrip(x), [1.0])
        np.testing.assert_array_equal(fp16_oracle(x), [1 + 2**-10])



def fp16_oracle(t):
    """The binary16 round trip by numpy's own cast, saturating at +-65504."""
    return np.clip(t, -FP16_MAX, FP16_MAX).astype(np.float16).astype(np.float32)


class TestFp16RoundtripBits:
    """fp16_roundtrip rounds on the float32 bits; each case is compared with
    numpy's cast bit for bit, the signs of zeros included."""

    @staticmethod
    def assert_matches_the_cast(t):
        t = np.asarray(t, dtype=np.float32)
        before = t.copy()
        got = fp16_roundtrip(t)
        assert got.shape == t.shape and got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32), fp16_oracle(t).view(np.uint32))
        np.testing.assert_array_equal(t.view(np.uint32), before.view(np.uint32))  # t untouched
        assert not np.shares_memory(got, t)

    def test_every_binary16_value(self):
        every = np.arange(1 << 16, dtype=np.uint16).view(np.float16)
        self.assert_matches_the_cast(every[~np.isnan(every)].astype(np.float32))  # +-inf included

    def test_both_neighbours_of_every_midpoint(self):
        """Each midpoint between adjacent binary16 values, 65504 and 65536 too,
        is a tie that rounds to the even one; its float32 neighbours round away from it."""
        finite = np.arange(0x7C00, dtype=np.uint16).view(np.float16)  # every finite binary16 >= 0, ascending
        ups = np.append(finite.astype(np.float64), 65536.0)
        mid = ((ups[:-1] + ups[1:]) / 2).astype(np.float32)  # exact: 12 significant bits
        for t in (mid, np.nextafter(mid, np.float32(0)), np.nextafter(mid, np.float32(np.inf))):
            self.assert_matches_the_cast(np.concatenate([t, -t]))

    def test_a_dense_draw_over_the_subnormals(self):
        rng = np.random.default_rng(17)
        below = rng.integers(1, 0x38800000, size=1 << 16, dtype=np.uint32)  # 0 < |x| < 2**-14
        uniform = rng.uniform(-(2.0**-14), 2.0**-14, size=1 << 16).astype(np.float32).view(np.uint32)
        signs = rng.integers(0, 2, size=1 << 17, dtype=np.uint32) << np.uint32(31)
        self.assert_matches_the_cast((np.concatenate([below, uniform]) | signs).view(np.float32))

    def test_signed_zeros_keep_their_sign(self):
        self.assert_matches_the_cast([0.0, -0.0])
        assert fp16_roundtrip(np.float32(-0.0)).view(np.uint32) == 0x80000000

    def test_saturation_edges(self):
        edges = np.array([np.inf, FP16_MAX, 65519.0, 65520.0], dtype=np.float32)
        self.assert_matches_the_cast(np.concatenate([edges, -edges]))
        np.testing.assert_array_equal(fp16_roundtrip(edges), FP16_MAX)

    def test_a_scalar_stays_zero_dimensional(self):
        for x in (np.float32(2049.0), np.float32(1e-7), np.float32(-np.inf)):
            self.assert_matches_the_cast(x)
        assert fp16_roundtrip(np.float32(3e-8)).shape == ()

    def test_a_non_contiguous_view(self):
        base = np.random.default_rng(18).normal(scale=1e3, size=(6, 40)).astype(np.float32)
        view = base[::2, 1::3].T
        assert not view.flags.c_contiguous
        self.assert_matches_the_cast(view)

    def test_a_random_normal_draw(self):
        rng = np.random.default_rng(19)
        scales = 10.0 ** rng.integers(-9, 6, size=(1 << 16, 1))
        self.assert_matches_the_cast((rng.normal(size=(1 << 16, 1)) * scales).astype(np.float32))


class TestNanRejected:
    """NaN has no INT8 code and no meaning after FP16: every transform raises."""

    def test_fake_quant(self):
        t = np.array([0.5, np.nan, 1.0], dtype=np.float32)
        with pytest.raises(ValueError, match="1 NaN"):
            fake_quant(t, QuantParams(scale=0.1))

    def test_fake_quant_of_a_weight(self):
        w = np.ones((2, 3), dtype=np.float32)
        w[1, 2] = np.nan
        with pytest.raises(ValueError, match="1 NaN"):
            fake_quant(w, QuantParams(scale=np.array([[0.1], [0.2]])))

    def test_fp16_roundtrip(self):
        with pytest.raises(ValueError, match="2 NaN"):
            fp16_roundtrip(np.array([np.nan, 1.0, np.nan], dtype=np.float32))

    def test_inf_still_saturates(self):
        t = np.array([np.inf, -np.inf], dtype=np.float32)
        np.testing.assert_array_equal(fake_quant(t, QuantParams(scale=0.5)), [63.5, -64.0])
        np.testing.assert_array_equal(
            fake_quant(t.reshape(2, 1), QuantParams(scale=np.array([[0.5], [1.0]]))),
            [[63.5], [-128.0]],
        )
        np.testing.assert_array_equal(fp16_roundtrip(t), [FP16_MAX, -FP16_MAX])


class TestQuantParams:
    """One form: every scale is a read-only float64 array, 0-d per tensor, or one per weight channel."""

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, np.array([[0.1], [0.0]]),
                                       np.array([[0.1], [-0.2]]), np.array([0.1, np.nan]), np.array([np.inf, 0.2])])
    def test_scales_must_be_positive_and_finite(self, scale):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            QuantParams(scale=scale)

    def test_an_array_scale_is_a_read_only_float64_copy(self):
        given = np.array([[1], [2]], dtype=np.int64)
        qp = QuantParams(scale=given)
        assert qp.scale.dtype == np.float64 and not qp.scale.flags.writeable
        given[0, 0] = 5
        assert qp.scale.tolist() == [[1.0], [2.0]]
        for copied in (pickle.loads(pickle.dumps(qp)), copy.deepcopy(qp)):
            assert copied == qp and not copied.scale.flags.writeable

    @pytest.mark.parametrize("float_type", [float, np.float32, np.float64])
    def test_compute_scale_gives_a_read_only_float64_0d_scale(self, float_type):
        scale = compute_scale(float_type(-1.0), float_type(3.0)).scale
        assert scale.shape == () and scale.dtype == np.float64 and not scale.flags.writeable
        assert scale == 3.0 / 127

    def test_a_float32_scale_widens_to_float64(self):
        qp = QuantParams(scale=np.float32(0.1))
        assert qp.scale.dtype == np.float64 and qp.scale == np.float64(np.float32(0.1))

    @pytest.mark.parametrize("scale", ["0.5", None])
    def test_a_scale_that_is_not_a_number_raises(self, scale):
        with pytest.raises(TypeError):
            QuantParams(scale=scale)

    def test_a_0d_scale_stays_read_only_through_pickle_and_deepcopy(self):
        qp = compute_scale(-1.0, 2.0)
        for copied in (pickle.loads(pickle.dumps(qp)), copy.deepcopy(qp)):
            assert copied == qp and copied.scale.shape == () and not copied.scale.flags.writeable

    def test_equality_compares_the_values(self):
        qp = QuantParams(scale=np.array([[0.5], [0.25]]))
        assert qp == QuantParams(scale=np.array([[0.5], [0.25]]))
        assert qp != QuantParams(scale=np.array([[0.5], [0.125]]))  # one channel differs
        assert qp != QuantParams(scale=np.array([0.5, 0.25]))  # another shape
        assert QuantParams(scale=0.5) != QuantParams(scale=np.array([[0.5], [0.5]]))
        assert QuantParams(scale=0.5) == QuantParams(scale=0.5) and QuantParams(scale=0.5) != 0.5


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
            (fake_quant(w, QuantParams(scale=channel_scales[:, None])), channel_scales[:, None]),
        ):
            codes = np.rint(fq.astype(np.float64) / s)
            assert np.all((codes >= Q_MIN) & (codes <= Q_MAX))
            np.testing.assert_array_equal(fq, (codes * s).astype(np.float32))
        # one rounding rule: every channel at the same scale is one scale for the tensor
        same = QuantParams(scale=np.full((4, 1), scale))
        np.testing.assert_array_equal(fake_quant(w, same), fake_quant(w, QuantParams(scale=scale)))

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
