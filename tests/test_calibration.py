"""Calibration-set selection, range collection, per-layer stats, and sweep machinery."""

import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarmix import calibration
from pillarmix.calibration import (
    calib_size_sweep,
    per_sample_ranges,
    run_calibration,
    select_calib_set,
    stats_from_ranges,
)
from pillarmix.detector import DetectorConfig, build_toy_detector, pillarize_dataset
from pillarmix.model import EVAL_CHUNK, LayerSpec, ModelGraph, PrecisionPlan, apply_plan, fold_all_bn, forward
from pillarmix.quant import QuantParams, fake_quant
from pillarmix.scenes import DatasetConfig, Scene, generate_dataset
from pillarmix.tensor_ops import stack_samples

from pillar_helpers import one_scene


def assert_equal_by_value(stats, same):
    """stats == same, also pickled and deep-copied; and unequal once one
    channel of the last layer's weight scale differs."""
    assert stats == same
    assert pickle.loads(pickle.dumps(stats)) == stats and copy.deepcopy(stats) == stats
    last = stats[len(stats)]
    scale = last.weight_qp.scale.copy()
    scale[-1] *= 2.0
    changed = dict(stats)
    changed[len(stats)] = dataclasses.replace(last, weight_qp=QuantParams(scale=scale))
    assert changed != stats


def chain(rng, widths=(6, 6, 4)):
    layers = []
    din = widths[0]
    for i, dout in enumerate(widths[1:], start=1):
        layers.append(
            LayerSpec(
                name=f"lin{i}",
                kind="linear",
                weight=rng.normal(scale=0.5, size=(dout, din)).astype(np.float32),
                bias=rng.normal(scale=0.1, size=dout).astype(np.float32),
                relu=True,
                is_head=i == len(widths) - 1,
            )
        )
        din = dout
    return ModelGraph(layers=tuple(layers))


class TestSelectCalibSet:
    def test_full_set(self):
        assert sorted(select_calib_set(10, n=10, seed=3)) == list(range(10))

    def test_deterministic(self):
        a = select_calib_set(100, n=4, seed=9)
        b = select_calib_set(100, n=4, seed=9)
        assert a == b

    def test_default_n_is_four(self):
        assert len(select_calib_set(100)) == 4

    def test_without_replacement(self):
        assert len(set(select_calib_set(50, n=20, seed=1))) == 20

    def test_nested_prefix_property(self):
        small = select_calib_set(200, n=4, seed=5, nested=True)
        large = select_calib_set(200, n=64, seed=5, nested=True)
        assert large[:4] == small

    @pytest.mark.parametrize("n", [0, 11, True, 2.0])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError, match=rf"calibration size {n!r} out of range: it must be an integer in \[1, 10\]"):
            select_calib_set(10, n=n, seed=0)


class TestRunCalibration:
    def test_all_zero_sample_degenerate_scales(self):
        g = chain(np.random.default_rng(0))
        stats = run_calibration(g, [one_scene(np.zeros((3, 6)))])
        assert stats[1].act_qp.scale == 1.0  # degenerate fallback

    def test_every_indexed_layer_covered(self):
        g = chain(np.random.default_rng(1))
        stats = run_calibration(g, [one_scene(np.random.default_rng(2).normal(size=(3, 6)))])
        assert type(stats) is dict and list(stats) == [1, 2]

    def test_sequential_equals_merged(self):
        rng = np.random.default_rng(3)
        g = chain(rng)
        a = one_scene(rng.normal(size=(2, 6)))
        b = one_scene(rng.normal(size=(5, 6)))
        both = run_calibration(g, [a, b])
        ranges = per_sample_ranges(g, [a]) + per_sample_ranges(g, [b])
        merged = stats_from_ranges(g, ranges)
        for i in both:
            assert (both[i].act_min, both[i].act_max) == (merged[i].act_min, merged[i].act_max)
            assert both[i].act_qp == merged[i].act_qp

    def test_scale_obeys_formula_exactly(self):
        rng = np.random.default_rng(4)
        g = chain(rng)
        stats = run_calibration(g, [one_scene(rng.normal(size=(4, 6)))])
        assert stats[1].act_qp.scale == max(abs(stats[1].act_min), abs(stats[1].act_max)) / 127.0

    def test_non_finite_activation_names_layer_and_sample(self):
        rng = np.random.default_rng(5)
        g = chain(rng)
        bad = one_scene(np.full((1, 6), np.inf))
        good = one_scene(rng.normal(size=(1, 6)))
        with pytest.raises(RuntimeError, match="layer 1 .* sample 1"):
            run_calibration(g, [good, bad])

    def test_empty_samples_rejected(self):
        g = chain(np.random.default_rng(6))
        with pytest.raises(ValueError, match="at least one sample"):
            run_calibration(g, [])

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(7)
        g = chain(rng)
        xs = [one_scene(rng.normal(size=(3, 6))) for _ in range(3)]
        a = run_calibration(g, xs, seed=1)
        b = run_calibration(g, xs, seed=1)
        assert_equal_by_value(a, b)
        assert run_calibration(g, xs, seed=1) == run_calibration(g, xs, seed=7)  # the seed reaches no stat

    def test_scales_per_tensor_for_activations_per_output_channel_for_weights(self, detector_samples):
        """The contract of every INT8 consumer: every scale is a read-only
        float64 array, 0-d for an activation; a weight's broadcasts against
        the folded weight, one max|w_c| / 127 per output channel."""
        graph, samples = detector_samples
        stats = run_calibration(graph, samples[:2])
        assert_equal_by_value(stats, run_calibration(graph, samples[:2]))
        for layer in fold_all_bn(graph).weight_layers:
            w, cal = layer.weight, stats[layer.index]
            act = cal.act_qp.scale
            assert act.shape == () and act.dtype == np.float64 and not act.flags.writeable
            scale = cal.weight_qp.scale
            assert scale.shape == (w.shape[0],) + (1,) * (w.ndim - 1)
            assert scale.dtype == np.float64 and not scale.flags.writeable
            assert scale.ravel().tolist() == [float(np.abs(w_c).max()) / 127 for w_c in w]


def per_scene_reference(graph, samples):
    """One FP32 forward per sample, each layer input reduced whole: the loop
    that per_sample_ranges ran before it stacked scenes."""
    fp32 = apply_plan(fold_all_bn(graph), PrecisionPlan())
    out = []
    for sample in samples:
        ranges = {}

        def record(layer, x):
            ranges[layer.index] = (float(x.min()), float(x.max())) if x.size else (0.0, 0.0)

        forward(fp32, sample, observe_fn=record)
        out.append(ranges)
    return out


@pytest.fixture(scope="module")
def detector_samples():
    """Default detector and EVAL_CHUNK + 3 pillarized scenes: an empty one
    ends the first chunk and an outlier scene opens the second."""
    cfg = DetectorConfig()
    graph = fold_all_bn(build_toy_detector(cfg, seed=0))
    scenes = generate_dataset(DatasetConfig(size=EVAL_CHUNK + 1, outlier_rate=0.0), seed=3)
    empty = Scene(points=np.zeros((0, 3), np.float32), boxes=np.zeros((0, 4), np.float32),
                  classes=np.zeros(0, np.int64), difficulty=np.zeros(0, dtype=object))
    outlier = generate_dataset(DatasetConfig(size=1, outlier_rate=1.0), seed=4)[0]
    scenes.insert(EVAL_CHUNK - 1, empty)
    scenes.insert(EVAL_CHUNK, outlier)
    samples = pillarize_dataset(scenes, cfg)
    assert samples[EVAL_CHUNK - 1].features.shape[0] == 0
    assert samples[EVAL_CHUNK].features.max() > 2 * max(s.features.max() for s in samples[: EVAL_CHUNK - 1])
    return graph, samples


class TestPerSampleRanges:
    def test_stacked_chunks_equal_per_scene_forwards(self, detector_samples):
        graph, samples = detector_samples
        ranges = per_sample_ranges(graph, samples)
        # repr tells -0.0 from 0.0
        assert repr(ranges) == repr(per_scene_reference(graph, samples))
        assert ranges[EVAL_CHUNK - 1][1] == (0.0, 0.0)  # the empty scene's point layer

    def test_layer_1_range_is_that_of_the_padded_features(self, detector_samples):
        """Layer 1 runs on the real points only, but its range is the min and
        max of the padded features, zero slots included: a scene whose real
        features are all positive still has a layer-1 min of 0.0."""
        graph, samples = detector_samples
        sample = samples[0]
        assert not sample.point_mask.all()
        positive = np.where(sample.point_mask[..., None], np.abs(sample.features) + 1.0, 0.0).astype(np.float32)
        shifted = dataclasses.replace(sample, features=positive)
        ranges = per_sample_ranges(graph, [sample, shifted])
        for s, r in zip((sample, shifted), ranges):
            assert r[1] == (float(s.features.min()), float(s.features.max()))
        assert ranges[1][1][0] == 0.0 < positive[shifted.point_mask].min()

    def test_non_finite_names_the_global_sample_position(self, detector_samples):
        graph, samples = detector_samples
        bad = EVAL_CHUNK + 1
        features = samples[bad].features.copy()
        features[0, 0, 0] = np.nan
        broken = list(samples)
        broken[bad] = dataclasses.replace(samples[bad], features=features)
        # raised in forward's observe_fn, and not a ValueError, so forward does not name the layer again
        want = rf"^non-finite activation at layer 1 \('voxel_encoder.pfn.linear'\) on calibration sample {bad}$"
        with pytest.raises(RuntimeError, match=want):
            per_sample_ranges(graph, broken)

    def test_a_scene_of_a_point_layer_chain_is_reduced_whole(self):
        rng = np.random.default_rng(23)
        g = chain(rng)
        points = [rng.normal(size=(3, 6)), np.zeros((0, 6)), rng.normal(size=(5, 6))]
        xs = [one_scene(p) for p in points]
        ranges = per_sample_ranges(g, xs)
        assert repr(ranges) == repr(per_scene_reference(g, xs))
        assert ranges[0][1] == (float(xs[0].features.min()), float(xs[0].features.max()))
        assert ranges[1] == {1: (0.0, 0.0), 2: (0.0, 0.0)}

    def test_rejects_a_sample_of_several_scenes(self, detector_samples):
        graph, samples = detector_samples
        with pytest.raises(ValueError, match=r"positions \[1\] hold \[2\] scenes; each PillarSample must hold one"):
            per_sample_ranges(graph, [samples[0], stack_samples(samples[1:3])])

    @pytest.mark.parametrize("n", [1, EVAL_CHUNK, EVAL_CHUNK + 3])
    def test_one_forward_per_chunk(self, detector_samples, monkeypatch, n):
        graph, samples = detector_samples
        calls = []

        def counting_forward(*args, **kwargs):
            calls.append(args[1])
            return forward(*args, **kwargs)

        monkeypatch.setattr(calibration, "forward", counting_forward)
        per_sample_ranges(graph, samples[:n])
        assert len(calls) == math.ceil(n / EVAL_CHUNK)


RANGE_GRAPH = chain(np.random.default_rng(20))


def per_sample(pairs):
    """Per-sample ranges of RANGE_GRAPH's two layers from (lo1, hi1, lo2, hi2) tuples."""
    return [{1: (lo1, hi1), 2: (lo2, hi2)} for lo1, hi1, lo2, hi2 in pairs]


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
sample_range = st.tuples(finite, finite).map(sorted)
sample_ranges = st.lists(
    st.tuples(sample_range, sample_range).map(lambda r: (*r[0], *r[1])), min_size=1, max_size=8
)


class TestStatsFromRanges:
    def test_interior_sample_does_not_widen(self):
        stats = stats_from_ranges(RANGE_GRAPH, per_sample([(-1.0, 3.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.5)]))
        assert (stats[1].act_min, stats[1].act_max) == (-1.0, 3.0)
        assert (stats[2].act_min, stats[2].act_max) == (0.0, 1.0)

    def test_sample_order_decides_signed_zero(self):
        # -0.0 == 0.0, so the first sample's zero is kept, bit for bit
        first_pos = stats_from_ranges(RANGE_GRAPH, per_sample([(0.0, 0.0, 0.0, 0.0), (-0.0, -0.0, -0.0, -0.0)]))
        first_neg = stats_from_ranges(RANGE_GRAPH, per_sample([(-0.0, -0.0, -0.0, -0.0), (0.0, 0.0, 0.0, 0.0)]))
        assert math.copysign(1.0, first_pos[1].act_min) == math.copysign(1.0, first_pos[1].act_max) == 1.0
        assert math.copysign(1.0, first_neg[1].act_min) == math.copysign(1.0, first_neg[1].act_max) == -1.0

    def test_missing_layer_names_the_layer_and_sample(self):
        ranges = per_sample([(0.0, 1.0, 0.0, 1.0), (0.0, 2.0, 0.0, 2.0)])
        del ranges[1][2]
        with pytest.raises(ValueError, match=r"sample 1 has ranges for other layers than the model's 1\.\.2: "
                                             r"missing \[2\], extra \[\]; ranges from another model\?"):
            stats_from_ranges(RANGE_GRAPH, ranges)

    def test_ranges_of_a_deeper_model_are_rejected(self):
        """A detector of four convs a block has 16 layers; their ranges would land
        on the wrong layers of the 13-layer default, not fail on a missing index."""
        cfg = DetectorConfig(grid=(8, 8), pfn_channels=4, block_channels=(4, 4, 4), neck_channels=4)
        deeper = dataclasses.replace(cfg, convs_per_block=4)
        ranges = [{i: (0.0, 1.0) for i in range(1, build_toy_detector(deeper).num_indexed + 1)}] * 2
        stats_from_ranges(fold_all_bn(build_toy_detector(deeper)), ranges)
        with pytest.raises(ValueError, match=r"sample 0 has ranges for other layers than the model's 1\.\.13: "
                                             r"missing \[\], extra \[14, 15, 16\]"):
            stats_from_ranges(fold_all_bn(build_toy_detector(cfg)), ranges)

    def test_a_non_finite_weight_names_the_layer(self):
        """A NaN in a head weight reaches no observed activation, so only the weight's quant params see it."""
        cfg = DetectorConfig(grid=(8, 8), pfn_channels=4, block_channels=(4, 4, 4), convs_per_block=1, neck_channels=4)
        graph = fold_all_bn(build_toy_detector(cfg))
        graph.layers[-2].weight[1, 0, 0, 0] = np.nan
        samples = pillarize_dataset(generate_dataset(DatasetConfig(size=2), seed=3), cfg)
        with pytest.raises(ValueError, match=r"^layer 6 \('bbox_head\.conv_cls'\): weight tensor contains non-finite"):
            run_calibration(graph, samples)

    @pytest.mark.parametrize("pos", [0, 1])
    @pytest.mark.parametrize("bad", [(math.nan, 1.0), (0.0, math.inf), (5.0, 1.0)], ids=["nan", "inf", "inverted"])
    def test_non_finite_or_inverted_range_names_the_layer_and_sample(self, bad, pos):
        """Python min/max would drop a NaN after the first sample and keep an inverted range."""
        ranges = per_sample([(0.0, 1.0, 0.0, 1.0), (0.0, 2.0, 0.0, 2.0)])
        ranges[pos][2] = bad
        with pytest.raises(ValueError, match=rf"sample {pos} has range \(.*\) for layer 2 \('lin2'\); .*finite"):
            stats_from_ranges(RANGE_GRAPH, ranges)

    @settings(max_examples=50, deadline=None)
    @given(pairs=sample_ranges, data=st.data())
    def test_any_sample_order_gives_the_same_stats(self, pairs, data):
        shuffled = data.draw(st.permutations(pairs))
        assert stats_from_ranges(RANGE_GRAPH, per_sample(shuffled)) == stats_from_ranges(
            RANGE_GRAPH, per_sample(pairs)
        )

    @settings(max_examples=50, deadline=None)
    @given(pairs=sample_ranges)
    def test_range_is_the_elementwise_min_and_max(self, pairs):
        stats = stats_from_ranges(RANGE_GRAPH, per_sample(pairs))
        cols = np.array(pairs)
        for index, (lo_col, hi_col) in ((1, (0, 1)), (2, (2, 3))):
            assert stats[index].act_min == cols[:, lo_col].min()
            assert stats[index].act_max == cols[:, hi_col].max()
            assert stats[index].act_qp == QuantParams(
                scale=max(abs(stats[index].act_min), abs(stats[index].act_max)) / 127.0 or 1.0
            )

    def test_float32_ranges_give_the_stats_of_their_python_floats(self):
        """numpy reductions yield float32 ranges; the scale must not stay float32, as
        float32 and float64 scales compare equal yet quantize differently: it is a
        0-d read-only float64 array, whatever float type the range comes in."""
        pairs = np.array([(-1.0, 3.0, 0.0, 0.7), (-0.5, 2.5, 0.0, 1.3)], dtype=np.float32)
        as_float32 = stats_from_ranges(RANGE_GRAPH, per_sample(list(pairs)))
        as_python = stats_from_ranges(RANGE_GRAPH, per_sample(pairs.tolist()))
        assert_equal_by_value(as_float32, as_python)
        for scale in (cal.act_qp.scale for cal in as_float32.values()):
            assert scale.shape == () and scale.dtype == np.float64 and not scale.flags.writeable
        x = np.linspace(-1, 3, 100001, dtype=np.float32)
        np.testing.assert_array_equal(fake_quant(x, as_float32[1].act_qp), fake_quant(x, as_python[1].act_qp))


class TestNestedMonotonicity:
    def test_supersets_widen_ranges(self):
        rng = np.random.default_rng(10)
        g = chain(rng)
        dataset = [one_scene(rng.normal(scale=1 + i % 5, size=(3, 6))) for i in range(64)]
        ranges = per_sample_ranges(g, dataset)
        for seed in range(3):
            prev_max = {i: -np.inf for i in (1, 2)}
            prev_min = {i: np.inf for i in (1, 2)}
            for n in (2, 8, 32, 64):
                chosen = select_calib_set(64, n=n, seed=seed, nested=True)
                stats = stats_from_ranges(g, [ranges[i] for i in chosen])
                for i in (1, 2):
                    assert stats[i].act_max >= prev_max[i]
                    assert stats[i].act_min <= prev_min[i]
                    prev_max[i] = stats[i].act_max
                    prev_min[i] = stats[i].act_min


class TestCalibSizeSweep:
    def test_single_row_case(self):
        rng = np.random.default_rng(13)
        g = chain(rng)
        dataset = [one_scene(rng.normal(size=(3, 6))) for _ in range(8)]
        rows = calib_size_sweep(g, dataset, sizes=[4], seeds=[0], evaluator=lambda s: 1.0)
        assert len(rows) == 2  # one per indexed layer
        assert {r["layer"] for r in rows} == {1, 2}
        assert all(r["n"] == 4 and r["seed"] == 0 and r["score"] == 1.0 for r in rows)

    @pytest.mark.parametrize("sizes", [[8, 4], [2, 2], [2, 4, 4]])
    def test_rejects_unsorted_or_repeated_sizes(self, sizes):
        """A repeated size would emit its rows twice."""
        g = chain(np.random.default_rng(14))
        with pytest.raises(ValueError, match=rf"sizes must be strictly ascending, got {re.escape(str(sizes))}"):
            calib_size_sweep(g, [one_scene(np.zeros((1, 6)))] * 8, sizes, [0], lambda s: 0.0)

    def test_nested_mode_max_column_monotone(self):
        rng = np.random.default_rng(15)
        g = chain(rng)
        dataset = [one_scene(rng.normal(scale=1 + (i % 7), size=(2, 6))) for i in range(32)]
        rows = calib_size_sweep(
            g, dataset, sizes=[2, 8, 32], seeds=[0, 1], evaluator=lambda s: 0.0, nested=True
        )
        for seed in (0, 1):
            for layer in (1, 2):
                maxes = [
                    r["max_observed"] for r in rows if r["seed"] == seed and r["layer"] == layer
                ]
                assert maxes == sorted(maxes)

    def test_matches_direct_calibration(self):
        rng = np.random.default_rng(16)
        g = chain(rng)
        dataset = [one_scene(rng.normal(size=(2, 6))) for _ in range(16)]
        received = []
        rows = calib_size_sweep(g, dataset, sizes=[4], seeds=[7], evaluator=lambda s: received.append(s) or 0.0)
        direct = stats_from_ranges(g, per_sample_ranges(g, [dataset[i] for i in select_calib_set(16, n=4, seed=7)]))
        assert [type(s) for s in received] == [dict] and received == [direct]
        by_layer = {r["layer"]: r["max_observed"] for r in rows}
        for i in (1, 2):
            assert by_layer[i] == direct[i].act_max
