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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .core import (
    ClassWeights,
    LabeledPointCloud,
    SemanticClass,
    default_weights,
    partition_by_class,
)
from .errors import ConfigError, DegenerateDataError, config_number, config_object
from .spatial import NnIndex, cylinder_means, estimate_normals, voxelize

C2C_MODES = ("directed-max", "directed-mean", "symmetric-max")
EQ3_WEIGHT_MODES = ("as-given", "renormalized")
LAMBDA_VALIDATION_MODES = ("strict", "relaxed")
_CLASS_SLOTS = 16  # class ids (1..12) take the low 4 bits of a voxel key


@dataclass(frozen=True)
class M3c2Params:
    """Cylinder search geometry: normal fit radius, projection radius, and
    half-depth of the search cylinder, all in meters."""

    normal_scale: float = 0.5
    projection_radius: float = 0.25
    max_depth: float = 1.0

    def __post_init__(self):
        for name in ("normal_scale", "projection_radius", "max_depth"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"m3c2.{name}_m: must be finite, got {value!r}")
            if value <= 0:
                raise ConfigError(f"m3c2.{name}_m: must be > 0, got {value!r}")


@dataclass(frozen=True)
class MetricParams:
    """Everything the gap pipeline needs, validated on construction.

    ``validation="strict"`` enforces the published weighting rule
    (lambda sum 1, strictly decreasing); ``"relaxed"`` only requires
    non-negative lambdas so alternative weightings can be explored.
    Every error is a :class:`ConfigError` naming the config key path.
    """

    lambda1: float = 0.6
    lambda2: float = 0.3
    lambda3: float = 0.1
    alpha: float = -0.2
    epsilon: float = 1e-6
    voxel_edge: float = 0.5
    weights: ClassWeights = field(default_factory=default_weights)
    m3c2: M3c2Params = field(default_factory=M3c2Params)
    c2c_mode: str = "directed-max"
    eq3_weight_mode: str = "as-given"
    validation: str = "strict"

    def __post_init__(self):
        numbers = {
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "lambda3": self.lambda3,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "voxel_size_m": self.voxel_edge,
        }
        for key, value in numbers.items():
            if not math.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {value!r}")
        modes = {
            "lambda_validation": (self.validation, LAMBDA_VALIDATION_MODES),
            "c2c_mode": (self.c2c_mode, C2C_MODES),
            "eq3_weight_mode": (self.eq3_weight_mode, EQ3_WEIGHT_MODES),
        }
        for key, (value, allowed) in modes.items():
            if value not in allowed:
                raise ConfigError(f"{key}: expected one of {allowed}, got {value!r}")
        lams = (self.lambda1, self.lambda2, self.lambda3)
        if min(lams) < 0:
            raise ConfigError("lambda1/lambda2/lambda3: must be non-negative")
        if self.validation == "strict":
            if abs(sum(lams) - 1.0) > 1e-9:
                raise ConfigError(f"lambda1+lambda2+lambda3: must sum to 1, got {sum(lams)!r}")
            if not (self.lambda1 > self.lambda2 > self.lambda3):
                raise ConfigError("lambda1 > lambda2 > lambda3 is required in strict mode")
        if self.alpha >= 0:
            raise ConfigError(f"alpha: must be < 0, got {self.alpha!r}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon: must be > 0, got {self.epsilon!r}")
        if self.voxel_edge <= 0:
            raise ConfigError(f"voxel_size_m: must be > 0, got {self.voxel_edge!r}")

    @classmethod
    def from_json_dict(cls, raw) -> tuple["MetricParams", int]:
        """Parameters and seed from a config object of the shape
        :meth:`to_json_dict` writes, plus ``seed`` (default 0). Missing keys
        take their defaults and numbers are stored as floats; an unknown
        key or a value of the wrong type is a ConfigError naming its path."""
        cfg = _merge_config({**cls().to_json_dict(), "seed": 0}, config_object(raw, "config root"), "")
        seed = config_number(cfg["seed"], "seed", integer=True)
        try:
            weights = ClassWeights.from_json_dict(cfg["class_weights"])
        except (KeyError, ValueError) as exc:  # an unknown class name, or a bad weight
            raise ConfigError(f"class_weights: {exc}") from exc
        m3c2 = cfg["m3c2"]
        params = cls(
            lambda1=cfg["lambda1"],
            lambda2=cfg["lambda2"],
            lambda3=cfg["lambda3"],
            alpha=cfg["alpha"],
            epsilon=cfg["epsilon"],
            voxel_edge=cfg["voxel_size_m"],
            weights=weights,
            m3c2=M3c2Params(
                m3c2["normal_scale_m"], m3c2["projection_radius_m"], m3c2["max_depth_m"]
            ),
            c2c_mode=cfg["c2c_mode"],
            eq3_weight_mode=cfg["eq3_weight_mode"],
            validation=cfg["lambda_validation"],
        )
        return params, seed

    def to_json_dict(self) -> dict:
        return {
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "lambda3": self.lambda3,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "voxel_size_m": self.voxel_edge,
            "class_weights": self.weights.to_json_dict(),
            "m3c2": {
                "normal_scale_m": self.m3c2.normal_scale,
                "projection_radius_m": self.m3c2.projection_radius,
                "max_depth_m": self.m3c2.max_depth,
            },
            "c2c_mode": self.c2c_mode,
            "eq3_weight_mode": self.eq3_weight_mode,
            "lambda_validation": self.validation,
        }


def _merge_config(defaults: dict, raw: Mapping, prefix: str) -> dict:
    """``defaults`` overridden by ``raw``, whose keys must be known and
    whose values take the defaults' types: a number where the default is a
    float, an object for ``m3c2`` (merged the same way) and for
    ``class_weights`` (of numbers, replacing the default)."""
    merged = dict(defaults)
    for key, value in raw.items():
        path = prefix + key
        if key not in defaults:
            raise ConfigError(f"{path}: unknown config key")
        if key == "m3c2":
            value = _merge_config(defaults[key], config_object(value, path), "m3c2.")
        elif key == "class_weights":
            value = {name: float(config_number(w, f"{path}.{name}"))
                     for name, w in config_object(value, path).items()}
        elif isinstance(defaults[key], float):
            value = float(config_number(value, path))
        merged[key] = value
    return merged


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
class M3c2ClassResult:
    """Signed median of inlier distances; None when no core point matched."""

    median: float | None
    inliers: int
    outliers: int


class _RealSide:
    """The real half of one class's M3C2: the normal and real cylinder mean
    at every core. Computed on first use and then kept, so a series of
    synthetic clouds (the offsets of a series) pays for it once."""

    def __init__(self, real_cls: LabeledPointCloud, params: M3c2Params):
        self.cloud = real_cls
        self.params = params

    @cached_property
    def _cores(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Core positions with a valid normal, their normals and real means.
        Cores with a degenerate normal are outliers and are gathered no
        further; every other core lies in its own real cylinder."""
        p = self.params
        xyz = self.cloud.xyz
        index = NnIndex(xyz)
        normals, valid = estimate_normals(index, xyz, p.normal_scale)
        cores, normals = xyz[valid], normals[valid]
        mean_r, _ = cylinder_means(index, cores, normals, p.projection_radius, p.max_depth)
        return cores, normals, mean_r

    def against(self, synth_cls: LabeledPointCloud) -> M3c2ClassResult:
        n_cores = len(self.cloud)
        if n_cores == 0:
            return M3c2ClassResult(None, 0, 0)
        if len(synth_cls) == 0:
            return M3c2ClassResult(None, 0, n_cores)
        cores, normals, mean_r = self._cores
        p = self.params
        mean_s, count_s = cylinder_means(
            NnIndex(synth_cls.xyz), cores, normals, p.projection_radius, p.max_depth
        )
        hit = count_s > 0
        signed = np.einsum("ij,ij->i", mean_s[hit] - mean_r[hit], normals[hit])
        n_in = signed.shape[0]
        if n_in == 0:
            return M3c2ClassResult(None, 0, n_cores)
        return M3c2ClassResult(float(np.median(signed)), n_in, n_cores - n_in)


class _RealSides(dict):
    """Prepared :class:`_RealSide` of every positively weighted class, and
    the real cloud's voxel coordinates once asked for."""

    def __init__(self, real: LabeledPointCloud, weights: ClassWeights, params: M3c2Params):
        parts = partition_by_class(real)
        super().__init__(
            (cls, _RealSide(parts[cls], params)) for cls in SemanticClass if weights.get(cls) > 0
        )
        self.cloud = real
        self._voxels: dict[float, tuple] = {}

    def voxels(self, edge: float) -> tuple[np.ndarray, np.ndarray]:
        """The real cloud's grid origin and the voxel coordinates of its points."""
        if edge not in self._voxels:
            self._voxels[edge] = voxelize(self.cloud, edge)
        return self._voxels[edge]


def m3c2_class_distance(
    real_cls: LabeledPointCloud,
    synth_cls: LabeledPointCloud,
    params: M3c2Params = M3c2Params(),
) -> M3c2ClassResult:
    """Normal-direction distance between two same-class sub-clouds.

    Every real point is a core point. At each core the surface normal is
    fitted from the real neighborhood, a cylinder is projected both ways
    along it, and the signed distance is the normal-axis separation of the
    real and synthetic mean positions inside that cylinder. Cores with a
    degenerate normal or an empty cylinder on either side are outliers and
    are ignored; the result is the median over inlier signed distances.

    ``real_cls`` may also be a prepared real side (then ``params`` is the
    one it was prepared with), which an offset series reuses.
    """
    side = real_cls if isinstance(real_cls, _RealSide) else _RealSide(real_cls, params)
    return side.against(synth_cls)


def aggregate_mm3c2(
    per_class: Mapping[SemanticClass, M3c2ClassResult], weights: ClassWeights
) -> float:
    """Weighted mean of absolute class medians, renormalized over the classes
    that produced a median. Raises when no weighted class is comparable."""
    defined = [c for c, r in per_class.items() if r.median is not None and weights.get(c) > 0]
    renorm = weights.restricted_to(defined)
    if not renorm:
        raise DegenerateDataError("no comparable semantic content for weighted M3C2")
    return float(sum(w * abs(per_class[c].median) for c, w in renorm.items()))


def compute_m3c2_per_class(
    real: LabeledPointCloud,
    synth: LabeledPointCloud,
    weights: ClassWeights,
    params: M3c2Params,
) -> dict[SemanticClass, M3c2ClassResult]:
    """Class-wise results for every positively weighted class.

    ``real`` may also be the prepared real sides of an earlier call (then
    ``weights`` and ``params`` are the ones they were prepared with), which
    an offset series reuses.
    """
    sides = real if isinstance(real, _RealSides) else _RealSides(real, weights, params)
    parts_s = partition_by_class(synth)
    out: dict[SemanticClass, M3c2ClassResult] = {}
    for cls in SemanticClass:
        if cls in sides:
            out[cls] = m3c2_class_distance(sides[cls], parts_s[cls], params)
        else:
            out[cls] = M3c2ClassResult(None, 0, 0)
    return out


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

    ``real`` may also be the prepared real sides of an earlier call, which
    keep the real voxel coordinates for an offset series.
    """
    weights = weights or default_weights()
    if isinstance(real, _RealSides):
        origin, cells_r = real.voxels(edge)
        real = real.cloud
    else:
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

    present = [c for c in SemanticClass if per_class[c] is not None]
    renorm = weights.restricted_to(present)
    if not renorm:
        raise DegenerateDataError("no comparable semantic content for voxel IoU")
    miou = float(sum(w * per_class[c] for c, w in renorm.items()))
    return VoxelIouResult(per_class, miou, tuple(float(v) for v in origin))


# ---------------------------------------------------------------------------
# score composition and the full pipeline
# ---------------------------------------------------------------------------


def blend_distance(d_mm3c2: float, d_c2c: float, params: MetricParams) -> float:
    """Weighted blend of the class-wise and global distances (meters)."""
    l1, l2 = params.lambda1, params.lambda2
    if params.eq3_weight_mode == "renormalized":
        total = l1 + l2
        if total <= 0:
            raise ValueError("lambda1 + lambda2 must be positive to renormalize")
        l1, l2 = l1 / total, l2 / total
    return l1 * abs(d_mm3c2) + l2 * abs(d_c2c)


def compose_score(d_mm3c2: float, d_c2c: float, miou: float, params: MetricParams) -> tuple[float, float, float]:
    """Return (d, f_miou, m) from already computed components.

    m lies strictly in (0, 1); it saturates to exactly 1.0 only when the
    exponent underflows (mIoU within epsilon of zero at default alpha).
    """
    d = blend_distance(d_mm3c2, d_c2c, params)
    f_miou = 1.0 / (miou + params.epsilon)
    m = 1.0 - math.exp(params.alpha * (d + params.lambda3 * f_miou))
    return d, f_miou, m


@dataclass(frozen=True)
class ClassGapStats:
    m3c2_median: float | None
    inlier_count: int
    outlier_count: int
    iou: float | None


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
        return {
            "report_type": "gap",
            "params": self.params.to_json_dict(),
            "offset": list(self.offset),
            "d_c2c": self.d_c2c,
            "per_class": {
                cls.canonical_name: {
                    "m3c2_median": stats.m3c2_median,
                    "inlier_count": stats.inlier_count,
                    "outlier_count": stats.outlier_count,
                    "iou": stats.iou,
                }
                for cls, stats in self.per_class.items()
            },
            "d_mm3c2": self.d_mm3c2,
            "miou": self.miou,
            "f_miou": self.f_miou,
            "d": self.d,
            "m_dogss_pcl": self.m_dogss_pcl,
        }


def dogss_pcl(
    real: LabeledPointCloud,
    synth: LabeledPointCloud,
    params: MetricParams | None = None,
) -> GapReport:
    """Full deterministic comparison of a synthetic cloud against its real
    twin: the series of the one zero offset."""
    return offset_sensitivity(real, synth, [(0.0, 0.0, 0.0)], params)[0]


def offset_sensitivity(
    real: LabeledPointCloud,
    synth: LabeledPointCloud,
    offsets: Sequence,
    params: MetricParams | None = None,
) -> list[GapReport]:
    """Apply each rigid translation to the synthetic cloud and compare it
    with the real one; the applied offset is recorded in each report. The
    real side of M3C2 and the real voxels are computed once for the series."""
    params = params or MetricParams()
    if len(real) == 0 or len(synth) == 0:
        raise ValueError("gap comparison requires two non-empty clouds")
    sides = _RealSides(real, params.weights, params.m3c2)
    reports = []
    for vec in offsets:
        v = np.asarray(vec, dtype=np.float64).reshape(3)
        moved = synth.translate(v)
        d_c2c = c2c_distance(real, moved, params.c2c_mode)
        m3c2 = compute_m3c2_per_class(sides, moved, params.weights, params.m3c2)
        d_mm3c2 = aggregate_mm3c2(m3c2, params.weights)
        iou = voxel_miou(sides, moved, params.voxel_edge, params.weights)
        d, f_miou, m = compose_score(d_mm3c2, d_c2c, iou.miou, params)
        per_class = {
            cls: ClassGapStats(m3c2[cls].median, m3c2[cls].inliers, m3c2[cls].outliers,
                               iou.per_class[cls])
            for cls in SemanticClass
        }
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
