"""Deterministic domain-gap pipeline for co-registered labeled clouds.

Stages, in order: cloud-to-cloud distance, class-wise cylinder-projection
(M3C2-style) medians, their weighted blend, voxel-occupancy mIoU, and the
final bounded gap score

    m = 1 - exp(alpha * (d + lambda3 / (mIoU + epsilon)))

with d = lambda1 * d_mm3c2 + lambda2 * d_c2c. Lower m means a better match;
m always lies strictly inside (0, 1) for alpha < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .core import (
    ClassWeights,
    LabeledPointCloud,
    SemanticClass,
    default_weights,
    partition_by_class,
    record_fields,
)
from .errors import ConfigError, DegenerateDataError, check_fields, check_number, config_fields, config_object
from .spatial import NnIndex, cylinder_means, estimate_normals, voxelize

C2C_MODES = ("directed-max", "directed-mean", "symmetric-max")
EQ3_WEIGHT_MODES = ("as-given", "renormalized")
LAMBDA_VALIDATION_MODES = ("strict", "relaxed")
_CLASS_SLOTS = 16  # class ids (1..12) take the low 4 bits of a voxel key


def _check_floats(record, prefix: str = "") -> None:
    """:func:`check_fields` of ``record``, then each float field stored as a float."""
    check_fields(record, prefix)
    for f in fields(record):
        if f.type == "float":
            object.__setattr__(record, f.name, float(getattr(record, f.name)))


@dataclass(frozen=True)
class M3c2Params:
    """Cylinder search geometry: normal fit radius, projection radius, and
    half-depth of the search cylinder, all in meters."""

    normal_scale_m: float = field(default=0.5, metadata={"rule": "> 0"})
    projection_radius_m: float = field(default=0.25, metadata={"rule": "> 0"})
    max_depth_m: float = field(default=1.0, metadata={"rule": "> 0"})

    def __post_init__(self):
        _check_floats(self, "m3c2.")
        # the lengths the gathers derive: the axis span, the slab ratio and bounds on a ball's cell width
        r, depth = self.projection_radius_m, self.max_depth_m
        check_number(2 * depth, "m3c2.max_depth_m: 2 * max_depth_m")
        check_number(depth / r, "m3c2.projection_radius_m: max_depth_m / projection_radius_m")
        check_number(4 * math.hypot(r, depth),
                     "m3c2.projection_radius_m: 4 * hypot(projection_radius_m, max_depth_m)")
        check_number(4 * self.normal_scale_m, "m3c2.normal_scale_m: 4 * normal_scale_m")


@dataclass(frozen=True)
class MetricParams:
    """Everything the gap pipeline needs, validated on construction. Each
    field is named after its config key.

    ``lambda_validation="strict"`` enforces the published weighting rule
    (lambda sum 1, strictly decreasing); ``"relaxed"`` only requires
    non-negative lambdas so alternative weightings can be explored.
    Numbers are stored as floats. Every error is a :class:`ConfigError`
    naming the config key path.
    """

    lambda1: float = field(default=0.6, metadata={"rule": ">= 0"})
    lambda2: float = field(default=0.3, metadata={"rule": ">= 0"})
    lambda3: float = field(default=0.1, metadata={"rule": ">= 0"})
    alpha: float = field(default=-0.2, metadata={"rule": "< 0"})
    epsilon: float = field(default=1e-6, metadata={"rule": "> 0"})
    voxel_size_m: float = field(default=0.5, metadata={"rule": "> 0"})
    class_weights: ClassWeights = field(default_factory=default_weights, metadata={"record": ClassWeights})
    m3c2: M3c2Params = field(default_factory=M3c2Params, metadata={"record": M3c2Params})
    lambda_validation: str = field(default="strict", metadata={"modes": LAMBDA_VALIDATION_MODES})
    c2c_mode: str = field(default="directed-max", metadata={"modes": C2C_MODES})
    eq3_weight_mode: str = field(default="as-given", metadata={"modes": EQ3_WEIGHT_MODES})

    def __post_init__(self):
        _check_floats(self)  # field order: every number checked before any mode
        lams = (self.lambda1, self.lambda2, self.lambda3)
        if self.lambda_validation == "strict":
            if abs(sum(lams) - 1.0) > 1e-9:
                raise ConfigError(f"lambda1+lambda2+lambda3: must sum to 1, got {sum(lams)!r}")
            if not (self.lambda1 > self.lambda2 > self.lambda3):
                raise ConfigError("lambda1 > lambda2 > lambda3 is required in strict mode")
        if self.eq3_weight_mode == "renormalized" and not self.lambda1 + self.lambda2 > 0:
            raise ConfigError(f"lambda1+lambda2: must be positive for eq3_weight_mode 'renormalized', "
                              f"got {self.lambda1 + self.lambda2!r}")

    @classmethod
    def from_json_dict(cls, raw) -> tuple["MetricParams", int]:
        """Parameters and seed from a config object of the shape
        :meth:`to_json_dict` writes, plus ``seed`` (default 0). Missing keys
        take their defaults; an unknown key is a ConfigError naming its path,
        and every value is checked on construction."""
        cfg = dict(config_object(raw, "config root"))
        seed = check_number(cfg.pop("seed", 0), "seed", ">= 0", integer=True)
        cfg = config_fields(cfg, "config root", cls)
        cfg["m3c2"] = M3c2Params(**config_fields(cfg.get("m3c2", {}), "m3c2", M3c2Params, "m3c2."))
        if "class_weights" in cfg:
            weights = config_object(cfg["class_weights"], "class_weights")
            try:
                cfg["class_weights"] = ClassWeights.from_json_dict(weights)
            except KeyError as exc:  # an unknown class name
                raise ConfigError(f"class_weights: {exc}") from exc
        return cls(**cfg), seed

    def to_json_dict(self) -> dict:
        return record_fields(self, class_weights=self.class_weights.to_json_dict(),
                             m3c2=record_fields(self.m3c2))


# ---------------------------------------------------------------------------
# cloud-to-cloud distance
# ---------------------------------------------------------------------------


def c2c_distance(real: LabeledPointCloud, synth: LabeledPointCloud, mode: str = "directed-max") -> float:
    """Nearest-neighbor cloud distance in meters; labels are ignored.

    ``directed-max`` is the max over real points of the distance to the
    closest synthetic point (directed Hausdorff); ``directed-mean`` averages
    those per-point minima; ``symmetric-max`` takes the worse direction.
    """
    if mode not in C2C_MODES:
        raise ValueError(f"c2c mode must be one of {C2C_MODES}")
    if len(real) == 0 or len(synth) == 0:
        raise ValueError("c2c distance requires two non-empty clouds")
    d_rs = NnIndex(synth.xyz).nearest_distances(real.xyz)
    if mode == "directed-mean":
        return float(d_rs.mean())
    if mode == "directed-max":
        return float(d_rs.max())
    d_sr = NnIndex(real.xyz).nearest_distances(synth.xyz)
    return float(max(d_rs.max(), d_sr.max()))


# ---------------------------------------------------------------------------
# class-wise M3C2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassGapStats:
    """One class's comparison: the signed median of its M3C2 inlier distances
    (None when no core matched), its inlier and outlier core counts, and its
    voxel IoU (None for a class in neither cloud, or from M3C2 alone)."""

    m3c2_median: float | None
    inlier_count: int
    outlier_count: int
    iou: float | None = None


def _real_side(real_cls: LabeledPointCloud, params: M3c2Params) -> tuple[np.ndarray, ...]:
    """The real half of one class's M3C2: the cores with a valid normal,
    their normals and their real cylinder means. Cores with a degenerate
    normal are outliers and are gathered no further; every other core lies
    in its own real cylinder."""
    xyz = real_cls.xyz
    index = NnIndex(xyz)
    normals, valid = estimate_normals(index, xyz, params.normal_scale_m)
    cores, normals = xyz[valid], normals[valid]
    mean_r, _ = cylinder_means(index, cores, normals, params.projection_radius_m, params.max_depth_m)
    return cores, normals, mean_r


def m3c2_class_distance(
    real_cls: LabeledPointCloud,
    synth_cls: LabeledPointCloud,
    params: M3c2Params = M3c2Params(),
    side: tuple | None = None,
) -> ClassGapStats:
    """Normal-direction distance between two same-class sub-clouds (``iou`` None).

    Every real point is a core point. At each core the surface normal is
    fitted from the real neighborhood, a cylinder is projected both ways
    along it, and the signed distance is the normal-axis separation of the
    real and synthetic mean positions inside that cylinder. Cores with a
    degenerate normal or an empty cylinder on either side are outliers and
    are ignored; the result is the median over inlier signed distances.
    ``side``, when given, is :func:`_real_side` of ``real_cls``, gathered once
    for many synthetic clouds; the result is the same as without it.
    """
    if not (len(real_cls) and len(synth_cls)):
        return ClassGapStats(None, 0, len(real_cls))
    cores, normals, mean_r = side or _real_side(real_cls, params)
    mean_s, count_s = cylinder_means(
        NnIndex(synth_cls.xyz), cores, normals, params.projection_radius_m, params.max_depth_m
    )
    hit = count_s > 0
    signed = np.einsum("ij,ij->i", mean_s[hit] - mean_r[hit], normals[hit])
    median = float(np.median(signed)) if len(signed) else None
    return ClassGapStats(median, len(signed), len(real_cls) - len(signed))


def aggregate_mm3c2(
    per_class: Mapping[SemanticClass, ClassGapStats], weights: ClassWeights
) -> float:
    """Weighted mean of absolute class medians, renormalized over the classes
    that produced a median. Raises when no weighted class is comparable."""
    return weights.mean({c: None if r.m3c2_median is None else abs(r.m3c2_median)
                         for c, r in per_class.items()}, "weighted M3C2")


def compute_m3c2_per_class(
    sides: Mapping[SemanticClass, tuple], parts_s: Mapping[SemanticClass, LabeledPointCloud],
    offset: np.ndarray, params: M3c2Params,
) -> dict[SemanticClass, ClassGapStats]:
    """:func:`m3c2_class_distance` of each synthetic class part, moved by
    ``offset``, for each class of ``sides``, which maps it to its real part
    and that part's real side (None when either part is empty)."""
    return {cls: m3c2_class_distance(real_cls, parts_s[cls].translate(offset), params, side)
            for cls, (real_cls, side) in sides.items()}


# ---------------------------------------------------------------------------
# voxel occupancy IoU
# ---------------------------------------------------------------------------


def _occupancy_keys(edge: float, *parts) -> list[np.ndarray]:
    """Sorted unique keys ``((i*sy + j)*sz + k)*16 + class`` of the occupied
    (voxel, class) pairs of each ``(voxel coordinates, labels)`` part, with
    ``(i, j, k)`` counted from the low corner of the voxel span all parts
    share and ``(sx, sy, sz)`` its size. A span with more keys than int64
    holds is a DegenerateDataError naming ``voxel_size_m``."""
    cells = np.concatenate([cells for cells, _ in parts])
    lo, hi = (cells.min(axis=0), cells.max(axis=0)) if len(cells) else (np.zeros(3, np.int64),) * 2
    sx, sy, sz = (int(b) - int(a) + 1 for a, b in zip(lo, hi))  # Python ints: no wrap
    if sx * sy * sz * _CLASS_SLOTS > 2**63 - 1:
        raise DegenerateDataError(f"voxel_size_m: {edge!r} m voxels span {sx} x {sy} x {sz} "
                                  "cells, too many for 64-bit voxel keys")
    strides = np.array([sy * sz, sz, 1]) * _CLASS_SLOTS
    return [np.unique((cells - lo) @ strides + labels) for cells, labels in parts]


@dataclass(frozen=True)
class VoxelIouResult:
    per_class: Mapping[SemanticClass, float | None]  # None = class in neither cloud
    miou: float
    grid_origin: tuple[float, float, float]


def voxel_miou(
    real: LabeledPointCloud,
    synth: LabeledPointCloud,
    edge: float,
    weights: ClassWeights | None = None,
) -> VoxelIouResult:
    """Per-class voxel-occupancy IoU on a shared grid anchored to the real cloud.

    A voxel counts as occupied by a class when at least one point of that
    class falls in it. The weighted mean renormalizes over classes whose
    occupancy union is non-empty, so a class absent from both clouds never
    penalizes the score.
    """
    weights = weights or default_weights()
    origin, cells_r = voxelize(real, edge)
    keys_r, keys_s = _occupancy_keys(
        edge, (cells_r, real.labels), (voxelize(synth, edge, origin)[1], synth.labels)
    )
    inter = np.bincount(np.intersect1d(keys_r, keys_s, assume_unique=True) % _CLASS_SLOTS,
                        minlength=_CLASS_SLOTS)
    union = (np.bincount(keys_r % _CLASS_SLOTS, minlength=_CLASS_SLOTS)
             + np.bincount(keys_s % _CLASS_SLOTS, minlength=_CLASS_SLOTS) - inter)
    per_class: dict[SemanticClass, float | None] = {
        cls: int(inter[cls]) / int(union[cls]) if union[cls] else None for cls in SemanticClass
    }
    miou = weights.mean(per_class, "voxel IoU")
    return VoxelIouResult(per_class, miou, tuple(float(v) for v in origin))


# ---------------------------------------------------------------------------
# score composition and the full pipeline
# ---------------------------------------------------------------------------


def compose_score(d_mm3c2: float, d_c2c: float, miou: float, params: MetricParams) -> tuple[float, float, float]:
    """Return (d, f_miou, m) from already computed components: d is the
    blend of the class-wise and global distances (meters), its lambdas
    rescaled to sum 1 in ``renormalized`` mode.

    m lies strictly in (0, 1); it saturates to exactly 1.0 only when the
    exponent underflows (mIoU within epsilon of zero at default alpha).
    """
    l1, l2 = params.lambda1, params.lambda2
    if params.eq3_weight_mode == "renormalized":
        l1, l2 = l1 / (l1 + l2), l2 / (l1 + l2)
    d = l1 * abs(d_mm3c2) + l2 * abs(d_c2c)
    f_miou = 1.0 / (miou + params.epsilon)
    m = 1.0 - math.exp(params.alpha * (d + params.lambda3 * f_miou))
    return d, f_miou, m


@dataclass(frozen=True)
class GapReport:
    """Every intermediate quantity of one comparison, plus the parameters used."""

    params: MetricParams
    d_c2c: float
    per_class: Mapping[SemanticClass, ClassGapStats]
    d_mm3c2: float
    miou: float
    f_miou: float
    d: float
    m_dogss_pcl: float
    offset: tuple[float, float, float]

    def to_json_dict(self) -> dict:
        per_class = {cls.canonical_name: record_fields(stats) for cls, stats in self.per_class.items()}
        return {"report_type": "gap", **record_fields(
            self, params=self.params.to_json_dict(), offset=list(self.offset), per_class=per_class)}


def dogss_pcl(
    real: LabeledPointCloud,
    synth: LabeledPointCloud,
    params: MetricParams | None = None,
) -> GapReport:
    """Full deterministic comparison of a synthetic cloud against its real
    twin: the series of the one zero offset."""
    return offset_sensitivity(real, synth, [(0.0, 0.0, 0.0)], params)[0]


def _check_spans(real: LabeledPointCloud, synth: LabeledPointCloud, offsets) -> None:
    """Refuse, before any kd-tree is built, clouds whose joint extent has a
    squared length beyond the float range, which no kd-tree query can
    measure: the inputs as read, or the synthetic cloud moved by an offset."""
    lo_r, hi_r = real.xyz.min(axis=0).tolist(), real.xyz.max(axis=0).tolist()
    lo_s, hi_s = synth.xyz.min(axis=0).tolist(), synth.xyz.max(axis=0).tolist()
    for v in [None] + offsets:
        shift = [0.0] * 3 if v is None else v.tolist()
        # Python floats overflow to inf without a numpy warning
        span = [max(b, d + t) - min(a, c + t) for a, b, c, d, t in zip(lo_r, hi_r, lo_s, hi_s, shift)]
        if sum(e * e for e in span) == math.inf:
            what = ("the real and synthetic clouds" if v is None
                    else f"offset {shift} m moves the synthetic cloud so the two clouds")
            raise DegenerateDataError(f"{what} span {span} m, whose squared length overflows a float")


def offset_sensitivity(
    real: LabeledPointCloud,
    synth: LabeledPointCloud,
    offsets: Sequence,
    params: MetricParams | None = None,
) -> list[GapReport]:
    """Apply each rigid translation to the synthetic cloud and compare it
    with the real one; the applied offset is recorded in each report. The
    real side of M3C2 is computed once for the series."""
    params = params or MetricParams()
    if len(real) == 0 or len(synth) == 0:
        raise ValueError("gap comparison requires two non-empty clouds")
    offsets = [np.asarray(vec, dtype=np.float64).reshape(3) for vec in offsets]
    _check_spans(real, synth, offsets)
    parts_r, parts_s = partition_by_class(real), partition_by_class(synth)
    sides = {  # a translation keeps every label, so every offset gathers these classes
        cls: (parts_r[cls], _real_side(parts_r[cls], params.m3c2)
              if len(parts_r[cls]) and len(parts_s[cls]) else None)
        for cls in SemanticClass if params.class_weights.get(cls) > 0
    }
    reports = []
    for v in offsets:
        moved = synth.translate(v)
        d_c2c = c2c_distance(real, moved, params.c2c_mode)
        m3c2 = compute_m3c2_per_class(sides, parts_s, v, params.m3c2)
        d_mm3c2 = aggregate_mm3c2(m3c2, params.class_weights)
        iou = voxel_miou(real, moved, params.voxel_size_m, params.class_weights)
        d, f_miou, m = compose_score(d_mm3c2, d_c2c, iou.miou, params)
        per_class = {cls: replace(m3c2.get(cls, ClassGapStats(None, 0, 0)), iou=iou.per_class[cls])
                     for cls in SemanticClass}
        reports.append(GapReport(
            params=params, d_c2c=d_c2c, per_class=per_class, d_mm3c2=d_mm3c2, miou=iou.miou,
            f_miou=f_miou, d=d, m_dogss_pcl=m, offset=tuple(float(x) for x in v),
        ))
    return reports


#: Unit direction used when a scalar offset magnitude is given: the diagonal
#: perturbs all three axes at once, so no axis-aligned structure stays aligned.
DIAGONAL_DIRECTION = (1.0 / math.sqrt(3.0),) * 3


def scalar_offsets_to_vectors(magnitudes: Sequence[float]) -> list[tuple[float, float, float]]:
    return [tuple(m * c for c in DIAGONAL_DIRECTION) for m in magnitudes]
