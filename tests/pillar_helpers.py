"""Test helpers: an [N, C] array as a one-scene PillarSample, the only input
that model.forward, calibration and qat take, (box, class_id, score) rows as
one scene's detections, as decode_and_nms gives them, per-scene detections
joined into the one array that detect gives and ap40 takes, TINY, the
smallest detector config the tests build, and a graph and sample cast to
another dtype, which every kernel and the backward then compute in."""

import dataclasses

import numpy as np

from pillarmix.detector import DetectorConfig
from pillarmix.metrics import DETECTION
from pillarmix.model import ModelGraph
from pillarmix.tensor_ops import PillarSample

GRID = (16, 16)
TINY = DetectorConfig(grid=(8, 8), block_channels=(8, 8, 8), convs_per_block=1, pfn_channels=8, neck_channels=8)


def one_scene(points) -> PillarSample:
    """points [N, C] as a scene of N pillars holding one point each, in the
    first N cells of a GRID in row-major order. A chain of linear layers maps
    it to [N, C'], one row per point; an empty array is a scene without pillars."""
    points = np.asarray(points, dtype=np.float32)
    coords = np.stack(np.divmod(np.arange(len(points)), GRID[1]), axis=1)
    return PillarSample(features=points[:, None], point_mask=np.ones((len(points), 1), bool),
                        coords=coords, grid=GRID)


def scene_detections(rows=()) -> np.recarray:
    """(box, class_id, score) rows as one scene's DETECTION record array, of
    scene_id 0; no rows is a scene without detections."""
    return np.rec.fromrecords([(0, *row) for row in rows], dtype=DETECTION)


def joined_detections(per_scene) -> np.recarray:
    """Per-scene DETECTION arrays as one, scene after scene, each scene's rows
    in their order with scene_id its position in per_scene."""
    joined = np.concatenate([np.zeros(0, DETECTION), *per_scene]).view(np.recarray)
    joined.scene_id = np.repeat(np.arange(len(per_scene)), [len(d) for d in per_scene])
    return joined


def cast_graph_and_sample(graph: ModelGraph, sample: PillarSample, dtype) -> tuple[ModelGraph, PillarSample]:
    """Copies of graph, every weight and bias cast to dtype (precision tags
    kept), and of sample, its point features cast to dtype."""
    layers = [dataclasses.replace(l, weight=l.weight.astype(dtype), bias=l.bias.astype(dtype))
              if l.is_weight_layer else l for l in graph.layers]
    return ModelGraph(tuple(layers)), dataclasses.replace(sample, features=sample.features.astype(dtype))
