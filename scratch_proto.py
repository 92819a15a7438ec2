"""Scratch: prototype detector training + quantization trends (not shipped)."""

import time

import numpy as np

from pillarmix.calibration import run_calibration, select_calib_set
from pillarmix.detector import DetectorConfig, build_toy_detector, make_evaluator, make_train_examples
from pillarmix.model import PrecisionPlan, fold_all_bn
from pillarmix.qat import TrainConfig, train_qat
from pillarmix.quant import DType
from pillarmix.scenes import DatasetConfig, generate_dataset

t0 = time.time()
det_cfg = DetectorConfig()
data_cfg = DatasetConfig(size=192)
train_scenes = generate_dataset(DatasetConfig(size=192, outlier_rate=0.0), seed=100)
eval_scenes = generate_dataset(DatasetConfig(size=48, outlier_rate=0.0), seed=200)
calib_pool = generate_dataset(DatasetConfig(size=1100), seed=300)
print(f"gen: {time.time()-t0:.1f}s")

graph = fold_all_bn(build_toy_detector(det_cfg, seed=0))
examples = make_train_examples(train_scenes, det_cfg)
evaluator = make_evaluator(eval_scenes, det_cfg)
print(f"prep: {time.time()-t0:.1f}s")

fp32 = PrecisionPlan(default=DType.FP32)
t1 = time.time()
base_map = evaluator(graph, fp32, None)
print(f"untrained mAP: {base_map:.3f}  ({time.time()-t1:.2f}s/eval)")

cfg = TrainConfig(learning_rate=0.004, epochs=30, batch_size=8, seed=0, pos_weight=4.0, momentum=0.9, max_grad_norm=10.0)
t1 = time.time()
trained, history = train_qat(graph, fp32, None, examples, cfg, evaluator=evaluator)
print(f"train: {time.time()-t1:.1f}s")
for h in history:
    print(f"  epoch {h['epoch']}: loss={h['loss']:.4f} map={h['score']:.3f}")

# PTQ with n=4 on the calib pool
from pillarmix.detector import pillarize_dataset

calib_samples_all = pillarize_dataset(calib_pool, det_cfg)
stats4 = run_calibration(trained, [calib_samples_all[i] for i in select_calib_set(len(calib_pool), n=4, seed=0)])
int8 = PrecisionPlan(default=DType.INT8)
fp16 = PrecisionPlan(default=DType.FP16)
print(f"FP32 mAP: {evaluator(trained, fp32, None):.3f}")
print(f"FP16 mAP: {evaluator(trained, fp16, None):.3f}")
print(f"INT8(n=4) mAP: {evaluator(trained, int8, stats4):.3f}")
stats1024 = run_calibration(trained, [calib_samples_all[i] for i in select_calib_set(len(calib_pool), n=1024, seed=0)])
print(f"INT8(n=1024) mAP: {evaluator(trained, int8, stats1024):.3f}")
int8_keep1 = PrecisionPlan(default=DType.INT8, overrides={1: DType.FP32})
print(f"INT8 keep-L1-FP32 (n=4): {evaluator(trained, int8_keep1, stats4):.3f}")
print(f"INT8 keep-L1-FP32 (n=1024): {evaluator(trained, int8_keep1, stats1024):.3f}")
print(f"total: {time.time()-t0:.1f}s")
