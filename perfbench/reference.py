"""Independent references for the benchmark's correctness checks.

Nothing here calls a pillarmix kernel or quantization function. The reference
forward reads only the layer specs (kinds, shapes, conv geometry, ReLU and
head flags) and the calibration scales, and does its own arithmetic in
float64: padded einsum convolutions, its own symmetric round-half-even INT8
and its own binary16 rounding.
"""

from __future__ import annotations

import numpy as np

Q_MIN, Q_MAX = -128, 127
BINARY16_MAX = 65504.0

# Each indexed layer's input and each head output of model.forward must match
# the reference within this relative L2 error, with the reference started at
# every indexed layer from the program's own input to that layer. Float32
# accumulation order alone gives about 2e-7. Starting each layer afresh keeps
# a rounding tie that the two resolve differently from cascading through the
# later INT8 layers. A layer run at the wrong precision is far outside: FP16
# against FP32 is about 1e-4 per layer, INT8 against FP32 about 5e-3.
REFERENCE_REL_TOL = 2e-6

def int8_round_trip(x: np.ndarray, scale: float) -> np.ndarray:
    """Symmetric INT8 with ties to even, zero point 0, back to reals."""
    codes = np.clip(np.rint(np.asarray(x, dtype=np.float64) / scale), Q_MIN, Q_MAX)
    return codes * scale


def binary16_round_trip(x: np.ndarray) -> np.ndarray:
    """Round to the nearest binary16 value (ties to even), saturating at 65504.

    A normal binary16 number has 11 significant bits, so in the binade
    [2**(e-1), 2**e) its spacing is 2**(e-11); below 2**-14 the subnormal
    spacing 2**-24 applies.
    """
    x = np.clip(np.asarray(x, dtype=np.float64), -BINARY16_MAX, BINARY16_MAX)
    _, exponent = np.frexp(x)
    spacing_exp = np.maximum(exponent - 11, -24)
    return np.ldexp(np.rint(np.ldexp(x, -spacing_exp)), spacing_exp)


def fold_batch_norm(layer) -> tuple[np.ndarray, np.ndarray]:
    """(weight, bias) with the layer's batch norm folded in.

    The per-channel factor gamma / sqrt(var + eps) is taken in float64 and
    stored as float32; the products are float32, as the weights are stored.
    """
    w, b = layer.weight, layer.bias
    if layer.bn is not None:
        bn = layer.bn
        factor = (bn.gamma.astype(np.float64) / np.sqrt(bn.var.astype(np.float64) + bn.eps)).astype(np.float32)
        w = (w * factor.reshape((-1,) + (1,) * (w.ndim - 1))).astype(np.float32)
        b = ((b - bn.mean) * factor + bn.beta).astype(np.float32)
    return w.astype(np.float64), b.astype(np.float64)


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride, padding) -> np.ndarray:
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    (sh, sw), (ph, pw) = stride, padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    xp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw))
    xp[:, :, ph : ph + h, pw : pw + wd] = x
    out = np.zeros((n, f, ho, wo))
    for ki in range(kh):
        for kj in range(kw):
            window = xp[:, :, ki : ki + sh * (ho - 1) + 1 : sh, kj : kj + sw * (wo - 1) + 1 : sw]
            out += np.einsum("nchw,fc->nfhw", window, w[:, :, ki, kj])
    return out + b[None, :, None, None]


def _masked_max(features: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.stack([features[p][mask[p]].max(axis=0) for p in range(features.shape[0])])


def _scatter(pillars: np.ndarray, coords: np.ndarray, grid) -> np.ndarray:
    image = np.zeros((1, pillars.shape[1]) + tuple(grid))
    for p, (r, c) in enumerate(coords):
        image[0, :, r, c] = pillars[p]
    return image


def _upsample(x: np.ndarray) -> np.ndarray:
    rows = np.arange(2 * x.shape[2]) // 2
    cols = np.arange(2 * x.shape[3]) // 2
    return x[:, :, rows[:, None], cols[None, :]]


def reference_forward(graph, sample, precision_of, stats=None, layer_inputs=None):
    """Reference run of the graph, batch norm folded here, on one pillarized sample.

    precision_of(index) gives "fp32", "fp16" or "int8" for each indexed
    layer; INT8 layers take their activation and weight scales from stats.
    Every layer output is rounded to float32, as the program stores it. When
    layer_inputs maps an index to the program's input for that layer, the
    layer starts from it. Returns (head outputs, {index: the input the
    reference computed for that layer}).
    """
    x = sample.features.astype(np.float64)
    trunk = None
    heads = []
    computed = {}
    for layer in graph.layers:
        source = x
        if layer.is_head:
            trunk = x if trunk is None else trunk
            source = trunk
        if layer.kind in ("linear", "conv2d"):
            computed[layer.index] = source
            if layer_inputs is not None:
                source = np.asarray(layer_inputs[layer.index], dtype=np.float64)
            w, b = fold_batch_norm(layer)
            precision = precision_of(layer.index)
            if precision == "int8":
                source = int8_round_trip(source, stats[layer.index].act_qp.scale)
                w = int8_round_trip(w, stats[layer.index].weight_qp.scale)
            elif precision == "fp16":
                source = binary16_round_trip(source)
                w = binary16_round_trip(w)
            if layer.kind == "linear":
                out = np.einsum("...c,fc->...f", source, w) + b
            else:
                out = _conv(source, w, b, layer.conv.stride, layer.conv.padding)
            if layer.relu:
                out = np.maximum(out, 0.0)
        elif layer.kind == "maxpool":
            out = _masked_max(source, sample.point_mask)
        elif layer.kind == "scatter":
            out = _scatter(source, sample.coords, sample.grid)
        elif layer.kind == "upsample2x":
            out = _upsample(source)
        else:
            raise ValueError(f"reference forward has no rule for layer kind {layer.kind!r}")
        out = out.astype(np.float32).astype(np.float64)
        if layer.is_head:
            heads.append(out)
        else:
            x = out
    return tuple(heads), computed


def rel_l2(out, ref) -> float:
    """||out - ref|| / ||ref|| over all head outputs together."""
    num = sum(float(np.sum((np.asarray(o, np.float64) - r) ** 2)) for o, r in zip(out, ref))
    den = sum(float(np.sum(np.asarray(r, np.float64) ** 2)) for r in ref)
    return float(np.sqrt(num / den))


def sqnr_db(out, ref) -> float:
    """10 log10(signal / noise) of one scene's head outputs against FP32."""
    signal = sum(float(np.sum(np.asarray(r, np.float64) ** 2)) for r in ref)
    noise = sum(float(np.sum((np.asarray(o, np.float64) - np.asarray(r, np.float64)) ** 2))
                for o, r in zip(out, ref))
    return float(10.0 * np.log10(signal / noise))
