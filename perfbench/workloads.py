"""The three pillarmix workloads: set-up, one operation, and their checks.

Every workload builds the folded default toy detector (model seed 0) and
makes all of its data from the run's seed. An operation is one call of a
public entry point, except in calib_sweep, where it is one (n, seed) point of
the sweep. The benchmark checks each result as it comes back, and checks the
program against independent references after the timed loop.
Entry points are looked up on their module at call time, so that a traced run
sees the wrapped names.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from pillarmix import calibration, detector, model, qat, scenes
import reference

PLAN_LABELS = ("FP32", "FP16", "INT8", "FP16: 1")
QUALITY_PLANS = {"fp16": "FP16", "int8": "INT8", "mixed": "FP16: 1"}
CALIB_SEED_OFFSET = 1000  # the shared calibration's scenes use seed + 1000
QUALITY_CALIBRATIONS = 5  # calibrations from seed + 1000 .. seed + 1004 for the SQNR metrics
# Finite-difference check of qat.backward: largest relative error allowed
# between the analytic and the central-difference gradient (3.7e-3 today,
# float32 forwards with a 1e-3 step).
GRADCHECK_MAX_REL = 1e-2


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, SMOKE is for the smoke test."""

    eval_scenes: int = 96
    calib_scenes: int = 8
    check_scenes: int = 8  # ptq_eval scenes checked against the reference forward
    train_scenes: int = 64
    epochs: int = 3
    batch_size: int = 8
    pool_scenes: int = 256
    sweep_sizes: tuple[int, ...] = (4, 16, 64, 256)
    sweep_seeds: tuple[int, ...] = (0, 1)
    heldout_scenes: int = 16


SMOKE = Sizes(eval_scenes=3, calib_scenes=2, check_scenes=2, train_scenes=4, epochs=2, batch_size=2,
              pool_scenes=6, sweep_sizes=(2, 6), heldout_scenes=2)


def no_span(name, attr=None):
    """The set-up ``span`` argument of an untraced run."""
    return nullcontext()


def _generate(span, size: int, seed: int):
    with span("scenes.generate_dataset", size):
        return scenes.generate_dataset(scenes.DatasetConfig(size=size), seed=seed)


def _base_graph():
    return detector.build_toy_detector(detector.DetectorConfig(), seed=0)


def _calibration(span, graph, cfg, sizes: Sizes, seed: int):
    """INT8 calibration of the graph on calib_scenes scenes generated from seed."""
    calib = detector.pillarize_dataset(_generate(span, sizes.calib_scenes, seed), cfg)
    return calibration.run_calibration(graph, calib, seed=seed)


def _quality_calibrations(graph, cfg, sizes: Sizes, seed: int) -> list:
    """The QUALITY_CALIBRATIONS calibrations behind the SQNR metrics; the first is the shared one."""
    return [_calibration(no_span, graph, cfg, sizes, seed + CALIB_SEED_OFFSET + j)
            for j in range(QUALITY_CALIBRATIONS)]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f4").tobytes())
    return h.hexdigest()


def _plan_outputs(graph, stats, samples, labels=PLAN_LABELS) -> dict:
    outputs = {}
    for label in labels:
        planned = model.apply_plan(graph, model.parse_plan_label(label))
        outputs[label] = [model.forward(planned, s, stats=stats) for s in samples]
    return outputs


def _median_sqnr(outputs, label) -> float:
    return statistics.median(reference.sqnr_db(o, r) for o, r in zip(outputs[label], outputs["FP32"]))


def _quality(graph, calibrations, samples) -> tuple[dict, dict, dict]:
    """Median per-scene SQNR of each plan's head outputs against FP32.

    The median over scenes is used because one outlier scene can dominate an
    SQNR taken over the whole set. INT8 and mixed SQNR are the median over
    the given calibrations: a small calibration set holds one of the scenes'
    50x intensity spikes about one time in seven, which costs about 13 dB.
    Returns (SQNR per plan key, head outputs per plan label under the first
    calibration, sha256 of those outputs per plan label).
    """
    outputs = _plan_outputs(graph, calibrations[0], samples)
    quantized = [outputs] + [{"FP32": outputs["FP32"], **_plan_outputs(graph, stats, samples, ("INT8", "FP16: 1"))}
                             for stats in calibrations[1:]]
    sqnr = {key: statistics.median(_median_sqnr(outs, label) for outs in quantized)
            for key, label in QUALITY_PLANS.items() if key != "fp16"}
    sqnr["fp16"] = _median_sqnr(outputs, "FP16")
    digests = {label: _digest(a for heads in outs for a in heads) for label, outs in outputs.items()}
    return sqnr, outputs, digests


def _ap_problems(result) -> list[str]:
    bad = [k for k, v in result.ap.items() if v is not None and not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    return [f"AP outside [0, 1]: {bad}"] if bad else []


class PtqEval:
    """detector.evaluate over the eval scenes, one plan per operation."""

    name = "ptq_eval"
    entry = "evaluate"
    rate_name = "eval_scenes_per_s"
    group = len(PLAN_LABELS)  # calls in one pass over the plans
    ops_per_call = 1

    def setup(self, seed: int, sizes: Sizes, span=no_span):
        cfg = detector.DetectorConfig()
        self.sizes, self.cfg, self.seed = sizes, cfg, seed
        self.base = _base_graph()
        self.graph = model.fold_all_bn(self.base)
        self.stats = _calibration(span, self.graph, cfg, sizes, seed + CALIB_SEED_OFFSET)
        self.scenes = _generate(span, sizes.eval_scenes, seed)
        self.samples = detector.pillarize_dataset(self.scenes, cfg)
        self.plans = [model.parse_plan_label(l) for l in PLAN_LABELS]
        self.first: dict[int, dict] = {}
        self.items_per_call = len(self.samples)

    def run(self, k: int):
        return detector.evaluate(self.graph, self.plans[k % self.group], self.stats, self.scenes,
                                 self.cfg, samples=self.samples)

    def check(self, k: int, result) -> tuple[int, list[str]]:
        problems = _ap_problems(result)
        expected = self.first.setdefault(k % self.group, result.ap)
        if result.ap != expected:
            problems.append(f"plan {PLAN_LABELS[k % self.group]}: AP table differs from its first pass")
        return (1 if problems else 0), problems

    def finish(self) -> dict:
        sqnr, outputs, digests = _quality(
            self.graph, _quality_calibrations(self.graph, self.cfg, self.sizes, self.seed), self.samples)
        checks = []
        for f_layer, b_layer in zip(self.graph.weight_layers, self.base.weight_layers):
            w, b = reference.fold_batch_norm(b_layer)
            checks.append((f"fold_bn layer {f_layer.index}",
                           np.array_equal(f_layer.weight, w) and np.array_equal(f_layer.bias, b)))
        for label, plan in zip(PLAN_LABELS, self.plans):
            planned = model.apply_plan(self.graph, plan)
            for i, sample in enumerate(self.samples[: self.sizes.check_scenes]):
                observed = {}
                heads = model.forward(planned, sample, stats=self.stats,
                                      observe_fn=lambda layer, x: observed.__setitem__(layer.index, x.copy()))
                ref_heads, ref_inputs = reference.reference_forward(
                    self.base, sample, lambda index: plan.resolve(index).value, self.stats, observed)
                errors = [reference.rel_l2([observed[k]], [ref_inputs[k]]) for k in sorted(observed) if k > 1]
                errors.append(reference.rel_l2(heads, ref_heads))
                same = all(np.array_equal(a, b) for a, b in zip(heads, outputs[label][i]))
                checks.append((f"reference forward {label} scene {i}: max rel L2 {max(errors):.2e}",
                               same and max(errors) <= reference.REFERENCE_REL_TOL))
                dets = detector.decode_and_nms(*heads, self.cfg)
                ok = all(np.all(np.isfinite(d.box)) and d.box[2] > 0 and d.box[3] > 0
                         and math.isfinite(d.score) and 0.0 <= d.score <= 1.0 for d in dets)
                checks.append((f"detections {label} scene {i}", ok))
        return {"sqnr": sqnr, "digests": {"head_outputs_sha256": digests}, "checks": checks}


class QatFinetune:
    """qat.train_qat on the training scenes under the mixed plan."""

    name = "qat_finetune"
    entry = "train_qat"
    rate_name = "train_samples_per_s"
    group = 1
    ops_per_call = 1

    def setup(self, seed: int, sizes: Sizes, span=no_span):
        cfg = detector.DetectorConfig()
        self.sizes, self.cfg, self.seed = sizes, cfg, seed
        self.graph = model.fold_all_bn(_base_graph())
        self.stats = _calibration(span, self.graph, cfg, sizes, seed + CALIB_SEED_OFFSET)
        self.examples = detector.make_train_examples(_generate(span, sizes.train_scenes, seed), cfg)
        self.plan = model.parse_plan_label("FP16: 1")
        self.train_cfg = qat.TrainConfig(epochs=sizes.epochs, batch_size=sizes.batch_size, learning_rate=1e-3)
        self.input_digest = model.weights_digest(self.graph)
        self.first = None
        self.items_per_call = len(self.examples) * sizes.epochs

    def run(self, k: int):
        return qat.train_qat(self.graph, self.plan, self.stats, self.examples, self.train_cfg,
                             loss_fn=qat.detection_loss)

    def check(self, k: int, result) -> tuple[int, list[str]]:
        tuned, history = result
        problems = []
        losses = [h["loss"] for h in history]
        if len(losses) != self.train_cfg.epochs or not all(math.isfinite(l) for l in losses):
            problems.append(f"epoch losses {losses}")
        outcome = (model.weights_digest(tuned), losses)
        self.first = self.first or outcome
        if outcome != self.first:
            problems.append("fine-tuned weights or losses differ from the first operation")
        if model.weights_digest(self.graph) != self.input_digest:
            problems.append("train_qat changed its input graph")
        self.tuned, self.losses = tuned, losses
        return (1 if problems else 0), problems

    def finish(self) -> dict:
        samples = [e.sample for e in self.examples]
        sqnr, _, _ = _quality(
            self.tuned, _quality_calibrations(self.graph, self.cfg, self.sizes, self.seed), samples)
        worst = finite_difference_check()
        checks = [(f"qat.backward finite differences: max rel err {worst:.2e}",
                   worst <= GRADCHECK_MAX_REL)]
        return {
            "sqnr": sqnr,
            "digests": {"tuned_weights_digest": model.weights_digest(self.tuned)},
            "checks": checks,
            "final_loss": self.losses[-1],
            "epoch_losses": self.losses,
            "gradcheck_max_rel": worst,
        }


def finite_difference_check() -> float:
    """Largest relative error of qat.backward against central differences.

    Tiny detector (8x8 grid, 8 channels, one conv per block), FP32, one
    two-box scene; one random element of every weight and bias, eps 1e-3.
    """
    det_cfg = detector.DetectorConfig(
        grid=(8, 8), block_channels=(8, 8, 8), convs_per_block=1, pfn_channels=8, neck_channels=8
    )
    scene = scenes.generate_dataset(scenes.DatasetConfig(size=1, boxes_per_scene=(2, 2)), seed=1)
    graph = model.apply_plan(model.fold_all_bn(detector.build_toy_detector(det_cfg, seed=3)), model.PrecisionPlan())
    example = detector.make_train_examples(scene, det_cfg)[0]
    cfg = qat.TrainConfig(learning_rate=1e-3)

    def loss_at() -> float:
        return qat.detection_loss(model.forward(graph, example.sample), example, cfg)[0]

    tape: list = []
    outputs = model.forward(graph, example.sample, tape=tape)
    grads = qat.backward(tape, qat.detection_loss(outputs, example, cfg)[1])
    rng = np.random.default_rng(0)
    eps = 1e-3
    worst = 0.0
    for layer in graph.weight_layers:
        dw, db = grads[layer.index]
        for arr, grad in ((layer.weight, dw), (layer.bias, db)):
            idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            plus = loss_at()
            arr[idx] = orig - eps
            minus = loss_at()
            arr[idx] = orig
            fd = (plus - minus) / (2 * eps)
            an = float(grad[idx])
            worst = max(worst, abs(fd - an) / max(1e-8, abs(fd), abs(an)))
    return worst


def _nested_indices(pool_size: int, n: int, seed: int) -> np.ndarray:
    # nested calibration sets are a prefix of one seeded permutation
    return np.random.default_rng(seed).permutation(pool_size)[:n]


class CalibSweep:
    """calibration.calib_size_sweep over a pillarized pool, INT8 mAP on held-out scenes."""

    name = "calib_sweep"
    entry = "calib_size_sweep"
    rate_name = "sweep_points_per_s"
    group = 1

    def setup(self, seed: int, sizes: Sizes, span=no_span):
        cfg = detector.DetectorConfig()
        self.sizes, self.seed = sizes, seed
        self.graph = model.fold_all_bn(_base_graph())
        self.pool = detector.pillarize_dataset(_generate(span, sizes.pool_scenes, seed), cfg)
        self.heldout = _generate(span, sizes.heldout_scenes, seed + 2000)
        mean_ap = detector.make_evaluator(self.heldout, cfg)
        mean_ap(self.graph, model.PrecisionPlan(), None)  # pillarizes the held-out scenes once
        int8 = model.parse_plan_label("INT8")
        self.evaluator = lambda stats: mean_ap(self.graph, int8, stats)
        self.cfg = cfg
        self.first = None
        self.items_per_call = self.ops_per_call = len(sizes.sweep_sizes) * len(sizes.sweep_seeds)

    def run(self, k: int):
        return calibration.calib_size_sweep(self.graph, self.pool, self.sizes.sweep_sizes,
                                            self.sizes.sweep_seeds, self.evaluator, nested=True)

    def check(self, k: int, rows) -> tuple[int, list[str]]:
        n_layers = self.graph.num_indexed
        bad_points = set()
        problems = []
        points = [(n, s) for s in self.sizes.sweep_seeds for n in self.sizes.sweep_sizes]
        by_point = {p: [r for r in rows if (r["n"], r["seed"]) == p] for p in points}
        for (n, s), point_rows in by_point.items():
            if len(point_rows) != n_layers:
                bad_points.add((n, s))
                problems.append(f"point n={n} seed={s}: {len(point_rows)} rows")
                continue
            if not all(math.isfinite(r["score"]) and 0.0 <= r["score"] <= 1.0 for r in point_rows):
                bad_points.add((n, s))
                problems.append(f"point n={n} seed={s}: score outside [0, 1]")
            chosen = _nested_indices(len(self.pool), n, s)
            expected = max(float(self.pool[i].features.max()) for i in chosen)
            layer1 = [r["max_observed"] for r in point_rows if r["layer"] == 1]
            if layer1 != [expected]:
                bad_points.add((n, s))
                problems.append(f"point n={n} seed={s}: layer-1 max {layer1} != features max {expected}")
        for s in self.sizes.sweep_seeds:
            for layer in range(1, n_layers + 1):
                maxes = [r["max_observed"] for n in self.sizes.sweep_sizes for r in by_point[(n, s)]
                         if r["layer"] == layer]
                if any(b < a for a, b in zip(maxes, maxes[1:])):
                    bad_points.update((n, s) for n in self.sizes.sweep_sizes)
                    problems.append(f"seed {s} layer {layer}: max_observed decreases with n: {maxes}")
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        self.first = self.first or digest
        if digest != self.first:
            bad_points.update(points)
            problems.append("sweep rows differ from the first operation")
        self.rows_digest = digest
        return len(bad_points), problems

    def finish(self) -> dict:
        n, s = self.sizes.sweep_sizes[0], self.sizes.sweep_seeds[0]
        chosen = [self.pool[i] for i in _nested_indices(len(self.pool), n, s)]
        ranges = calibration.per_sample_ranges(self.graph, chosen)
        lo = min(r[1][0] for r in ranges)
        hi = max(r[1][1] for r in ranges)
        want = (min(float(c.features.min()) for c in chosen), max(float(c.features.max()) for c in chosen))
        checks = [(f"layer-1 range n={n} seed={s}: {(lo, hi)} vs features {want}", (lo, hi) == want)]
        heldout = detector.pillarize_dataset(self.heldout, self.cfg)
        sqnr, _, _ = _quality(self.graph, _quality_calibrations(self.graph, self.cfg, self.sizes, self.seed), heldout)
        return {"sqnr": sqnr, "digests": {"sweep_rows_sha256": self.rows_digest}, "checks": checks}


WORKLOADS = {w.name: w for w in (PtqEval, QatFinetune, CalibSweep)}
