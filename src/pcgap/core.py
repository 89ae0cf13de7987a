"""Semantic taxonomy, class weights, and the labeled point cloud data model.

Everything downstream (metrics, simulation, dataset tools) speaks in terms of
the 12 road-space classes and the :class:`LabeledPointCloud` defined here.
All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from enum import IntEnum
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DegenerateDataError, check_number

logger = logging.getLogger(__name__)

WEIGHT_SUM_TOL = 1e-9


class SemanticClass(IntEnum):
    """The 12 road-space classes shared by real-world and simulated clouds."""

    ROAD_SURFACE = 1
    GROUND_SURFACE = 2
    CITY_FURNITURE = 3
    VEHICLE = 4
    PEDESTRIAN = 5
    WALL_SURFACE = 6
    ROOF_SURFACE = 7
    DOOR = 8
    WINDOW = 9
    BUILDING_INSTALLATION = 10
    SOLITARY_VEGETATION_OBJECT = 11
    NOISE = 12

    @property
    def canonical_name(self) -> str:
        """The member name in CamelCase (``WALL_SURFACE``: ``WallSurface``)."""
        return self.name.title().replace("_", "")

    @classmethod
    def from_name(cls, name: str) -> "SemanticClass":
        """Resolve a canonical class name (case-insensitive); raises KeyError."""
        return _NAME_TO_CLASS[name.strip().lower()]


_NAME_TO_CLASS = {c.canonical_name.lower(): c for c in SemanticClass}

#: Classes averaged by the unweighted segmentation mIoU (Noise excluded).
NON_NOISE_CLASSES: tuple[SemanticClass, ...] = tuple(
    c for c in SemanticClass if c is not SemanticClass.NOISE
)


# The CityGML 2.0 / OpenDRIVE 1.4 correspondence table: (descriptor,
# qualifiers, class) rows in published order. The two standards share no
# descriptor, so a lookup needs no standard. CityGML "AuxiliaryTrafficArea"
# is listed under both RoadSurface and GroundSurface; the first row wins.
_CLASS_TABLE = [
    # OpenDRIVE 1.4
    ("LaneSectionLRLane", {"type": "driving"}, SemanticClass.ROAD_SURFACE),
    ("RoadObject", {"type": "barrier", "name": "raisedMedian"}, SemanticClass.ROAD_SURFACE),
    ("RoadObject", {"type": "barrier", "name": "trafficIsland"}, SemanticClass.ROAD_SURFACE),
    ("RoadObject", {"type": "roadMark"}, SemanticClass.ROAD_SURFACE),
    ("LaneSectionLRLane", {"type": "sidewalk"}, SemanticClass.GROUND_SURFACE),
    ("LaneSectionLRLane", {"type": "border"}, SemanticClass.GROUND_SURFACE),
    ("LaneSectionLRLane", {"type": "none", "material": "grass"}, SemanticClass.GROUND_SURFACE),
    ("Signal", {"name": "trafficLight"}, SemanticClass.CITY_FURNITURE),
    ("Signal", {"name": "traffic signs"}, SemanticClass.CITY_FURNITURE),
    ("RoadObject", {"type": "pole", "name": "streetLamp"}, SemanticClass.CITY_FURNITURE),
    ("RoadObject", {"type": "pole", "name": "trafficLight"}, SemanticClass.CITY_FURNITURE),
    ("RoadObject", {"type": "pole", "name": "trafficSign"}, SemanticClass.CITY_FURNITURE),
    ("RoadObject", {"type": "barrier", "name": "fence"}, SemanticClass.CITY_FURNITURE),
    ("RoadObject", {"type": "obstacle", "name": "controllerBox"}, SemanticClass.CITY_FURNITURE),
    ("RoadObject", {"type": "obstacle", "name": "bench"}, SemanticClass.CITY_FURNITURE),
    ("RoadObject", {"type": "barrier", "name": "wall"}, SemanticClass.CITY_FURNITURE),
    ("RoadObject", {"type": "building", "surf_orientation": "side"}, SemanticClass.WALL_SURFACE),
    ("RoadObject", {"type": "building", "surf_orientation": "top"}, SemanticClass.ROOF_SURFACE),
    ("RoadObject", {"type": "tree"}, SemanticClass.SOLITARY_VEGETATION_OBJECT),
    ("RoadObject", {"type": "vegetation"}, SemanticClass.SOLITARY_VEGETATION_OBJECT),
    # CityGML 2.0
    ("TrafficArea", {"function": "1"}, SemanticClass.ROAD_SURFACE),
    ("AuxiliaryTrafficArea", {}, SemanticClass.ROAD_SURFACE),
    ("TrafficArea", {"function": "2"}, SemanticClass.GROUND_SURFACE),
    ("AuxiliaryTrafficArea", {}, SemanticClass.GROUND_SURFACE),  # shadowed, kept for fidelity
    ("OuterFloorSurface", {}, SemanticClass.GROUND_SURFACE),
    ("CityFurniture", {}, SemanticClass.CITY_FURNITURE),
    ("WallSurface", {}, SemanticClass.WALL_SURFACE),
    ("RoofSurface", {}, SemanticClass.ROOF_SURFACE),
    ("Door", {}, SemanticClass.DOOR),
    ("Window", {}, SemanticClass.WINDOW),
    ("BuildingInstallation", {}, SemanticClass.BUILDING_INSTALLATION),
    ("OuterCeilingSurface", {}, SemanticClass.BUILDING_INSTALLATION),
    ("SolitaryVegetationObject", {}, SemanticClass.SOLITARY_VEGETATION_OBJECT),
]


def map_class(descriptor: str, attributes: Mapping[str, str] | None = None) -> SemanticClass:
    """Class of the first table row whose descriptor is ``descriptor`` and
    whose qualifiers all appear in ``attributes`` (trimmed, case-insensitive;
    other attributes are ignored). Total: anything unmatched is Noise."""
    attrs = {k.strip().lower(): v.strip().lower() for k, v in (attributes or {}).items()}
    descriptor = descriptor.strip().lower()
    for name, qualifiers, target in _CLASS_TABLE:
        if name.lower() == descriptor and all(
            attrs.get(k.lower()) == v.lower() for k, v in qualifiers.items()
        ):
            return target
    return SemanticClass.NOISE


def coerce_labels(labels: np.ndarray, context: str = "") -> np.ndarray:
    """Class ids of class values read from a file: each rounded to an integer (half to even),
    and each outside 1..12 replaced by Noise, with a warning that counts them."""
    labels = np.asarray(labels)
    labels = np.rint(labels) if labels.dtype.kind == "f" else labels
    bad = ~((labels >= 1) & (labels <= 12))  # NaN included
    if n_bad := int(bad.sum()):
        logger.warning("%s%d label(s) outside 1..12 coerced to Noise (12)", context and f"{context}: ", n_bad)
    return np.where(bad, SemanticClass.NOISE, labels).astype(np.uint8)


def class_ids(values, field: str) -> np.ndarray:
    """``values`` as a record's class ids, a read-only uint8 array (see :func:`frozen_copy`),
    when each is a whole number in 1..12 and none is a bool; else a ValueError naming ``field``."""
    ids = np.asarray(values)
    whole = ids.dtype.kind in "iu" or (ids.dtype.kind == "f" and bool((ids == np.rint(ids)).all()))
    if not (whole and (not ids.size or 1 <= ids.min() <= ids.max() <= 12)) or (  # a listed bool reads as 1
            isinstance(values, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in values)):
        raise ValueError(f"{field}: class ids must be whole numbers in 1..12, not bools")
    return frozen_copy(ids, np.uint8)


def coordinates(values, field: str) -> np.ndarray:
    """``values`` as a record's (N, 3) points, a read-only float64 array (see :func:`frozen_copy`),
    when every coordinate is finite; else a ValueError naming ``field``."""
    xyz = frozen_copy(values, np.float64)
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise ValueError(f"{field} must be (N, 3), got {xyz.shape}")
    if not np.isfinite(xyz).all():
        raise ValueError(f"{field}: coordinates must be finite")
    return xyz


def frozen_copy(values, dtype) -> np.ndarray:
    """``values`` itself when it is a read-only, C-ordered ``dtype`` array that owns its data, as a
    record's own array is, else such a copy: a record neither freezes nor follows its caller's array."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype and values.flags.c_contiguous
            and values.flags.owndata and not values.flags.writeable):
        return values
    copy = np.array(values, dtype=dtype, order="C")
    copy.setflags(write=False)
    return copy


@dataclass(frozen=True)
class LabeledPointCloud:
    """Points with per-point semantic class ids, stored as numpy arrays.

    ``xyz`` is (N, 3) float64 in meters, ``labels`` is (N,) uint8 in 1..12.
    Arrays are taken through :func:`frozen_copy`, so another record's are shared.
    """

    xyz: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        xyz = coordinates(self.xyz, "xyz")
        labels = class_ids(self.labels, "labels")
        if labels.shape != (xyz.shape[0],):
            raise ValueError(f"labels shape {labels.shape} does not match {xyz.shape[0]} points")
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "labels", labels)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def empty(cls) -> "LabeledPointCloud":
        return cls(np.empty((0, 3)), np.empty(0, dtype=np.uint8))

    @staticmethod
    def concat(clouds: Sequence["LabeledPointCloud"]) -> "LabeledPointCloud":
        if not clouds:
            return LabeledPointCloud.empty()
        xyz = np.concatenate([c.xyz for c in clouds], axis=0)
        labels = np.concatenate([c.labels for c in clouds])
        return LabeledPointCloud(xyz, labels)

    # -- accessors -------------------------------------------------------------

    def __len__(self) -> int:
        return self.xyz.shape[0]

    def select(self, mask_or_indices) -> "LabeledPointCloud":
        return LabeledPointCloud(self.xyz[mask_or_indices], self.labels[mask_or_indices])

    def translate(self, vector) -> "LabeledPointCloud":
        v = np.asarray(vector, dtype=np.float64).reshape(3)
        return LabeledPointCloud(self.xyz + v, self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledPointCloud):
            return NotImplemented
        return np.array_equal(self.xyz, other.xyz) and np.array_equal(self.labels, other.labels)

    __hash__ = None


def partition_by_class(cloud: LabeledPointCloud) -> dict[SemanticClass, LabeledPointCloud]:
    """Split a cloud into one homogeneous sub-cloud per class.

    Every class gets an entry; classes with no points map to empty clouds.
    The disjoint union of the outputs is the input.
    """
    out = {}
    for cls in SemanticClass:
        out[cls] = cloud.select(cloud.labels == cls.value)
    return out


def record_fields(record, **converted) -> dict:
    """A dataclass record as a JSON object: its fields by name, each value
    in ``converted`` (by field name) in place of the field's own."""
    return {f.name: getattr(record, f.name) for f in fields(record)} | converted


@dataclass(frozen=True)
class ClassWeights:
    """Non-negative per-class weights summing to 1 over the classes present;
    a refusal is a ConfigError naming its ``class_weights`` key."""

    weights: Mapping[SemanticClass, float]

    def __post_init__(self):
        cleaned: dict[SemanticClass, float] = {}
        for cls, w in self.weights.items():
            cls = SemanticClass(cls)
            cleaned[cls] = float(check_number(w, f"class_weights.{cls.canonical_name}", ">= 0"))
        total = sum(cleaned.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(f"class_weights: class weights must sum to 1 (got {total!r})")
        object.__setattr__(self, "weights", dict(sorted(cleaned.items())))

    def get(self, cls: SemanticClass) -> float:
        return self.weights.get(cls, 0.0)

    def mean(self, values: Mapping[SemanticClass, float | None], what: str) -> float:
        """Mean of ``values`` over the classes whose value is not None and whose weight is positive,
        their weights renormalized (summed in the mapping's order, products in class order)."""
        kept = {c: self.get(c) for c, v in values.items() if v is not None and self.get(c) > 0}
        if not kept:
            raise DegenerateDataError(f"no comparable semantic content for {what}")
        total = sum(kept.values())
        return float(sum(w / total * values[c] for c, w in sorted(kept.items())))

    def to_json_dict(self) -> dict[str, float]:
        return {c.canonical_name: w for c, w in self.weights.items()}

    @classmethod
    def from_json_dict(cls, raw: Mapping[str, float]) -> "ClassWeights":
        return cls({SemanticClass.from_name(name): w for name, w in raw.items()})


def default_weights() -> ClassWeights:
    """Weights emphasizing static, well-modeled building classes; dynamic
    objects, heavily simplified classes, and Noise carry weight 0."""
    return ClassWeights(
        {
            SemanticClass.CITY_FURNITURE: 0.1,
            SemanticClass.GROUND_SURFACE: 0.1,
            SemanticClass.WALL_SURFACE: 0.2,
            SemanticClass.ROOF_SURFACE: 0.15,
            SemanticClass.DOOR: 0.15,
            SemanticClass.WINDOW: 0.15,
            SemanticClass.BUILDING_INSTALLATION: 0.15,
        }
    )
