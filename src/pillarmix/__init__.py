"""Mixed-precision INT8/FP16 quantization toolkit with a pillar-detection harness."""

from .quant import (
    DType,
    QuantParams,
    compute_scale,
    dequantize,
    fake_quant,
    fp16_roundtrip,
    quantize,
)
from .model import (
    BatchNorm,
    LayerSpec,
    ModelGraph,
    PrecisionPlan,
    apply_plan,
    fold_bn,
    forward,
    load_model,
    parse_plan_label,
    save_model,
)
from .calibration import (
    CalibrationStats,
    run_calibration,
    select_calib_set,
)

__all__ = [
    "BatchNorm",
    "CalibrationStats",
    "DType",
    "LayerSpec",
    "ModelGraph",
    "PrecisionPlan",
    "QuantParams",
    "apply_plan",
    "compute_scale",
    "dequantize",
    "fake_quant",
    "fold_bn",
    "forward",
    "fp16_roundtrip",
    "load_model",
    "parse_plan_label",
    "quantize",
    "run_calibration",
    "save_model",
    "select_calib_set",
]

__version__ = "0.1.0"
