"""Semantic taxonomy, class weights, and the labeled point cloud data model.

Everything downstream (metrics, simulation, dataset tools) speaks in terms of
the 12 road-space classes and the :class:`LabeledPointCloud` defined here.
All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from enum import IntEnum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, check_number

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
        return _CANONICAL_NAMES[self.value]

    @classmethod
    def from_name(cls, name: str) -> "SemanticClass":
        """Resolve a canonical class name (case-insensitive); raises KeyError."""
        return _NAME_TO_CLASS[name.strip().lower()]


_CANONICAL_NAMES = {
    1: "RoadSurface",
    2: "GroundSurface",
    3: "CityFurniture",
    4: "Vehicle",
    5: "Pedestrian",
    6: "WallSurface",
    7: "RoofSurface",
    8: "Door",
    9: "Window",
    10: "BuildingInstallation",
    11: "SolitaryVegetationObject",
    12: "Noise",
}

_NAME_TO_CLASS = {name.lower(): SemanticClass(cid) for cid, name in _CANONICAL_NAMES.items()}

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
    """Replace labels outside 1..12 with Noise, logging how many were touched."""
    labels = np.asarray(labels)
    bad = (labels < 1) | (labels > 12)
    n_bad = int(bad.sum())
    if n_bad:
        logger.warning(
            "%s%d label(s) outside 1..12 coerced to Noise (12)",
            f"{context}: " if context else "",
            n_bad,
        )
        labels = np.where(bad, np.uint8(SemanticClass.NOISE), labels)
    return labels.astype(np.uint8)


@dataclass(frozen=True)
class LabeledPointCloud:
    """Points with per-point semantic class ids, stored as numpy arrays.

    ``xyz`` is (N, 3) float64 in meters, ``labels`` is (N,) uint8 in 1..12.
    Arrays are copied on construction and frozen read-only.
    """

    xyz: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        xyz = np.ascontiguousarray(self.xyz, dtype=np.float64)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValueError(f"xyz must be (N, 3), got {xyz.shape}")
        if not np.isfinite(xyz).all():
            raise ValueError("coordinates must be finite")
        labels = np.asarray(self.labels)
        if labels.shape != (xyz.shape[0],):
            raise ValueError(f"labels shape {labels.shape} does not match {xyz.shape[0]} points")
        if labels.size and ((labels < 1) | (labels > 12)).any():
            raise ValueError("class ids must be in 1..12 (coerce out-of-range labels on read)")
        labels = labels.astype(np.uint8)
        xyz.setflags(write=False)
        labels.setflags(write=False)
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
        return (
            self.xyz.shape == other.xyz.shape
            and bool(np.array_equal(self.xyz, other.xyz))
            and bool(np.array_equal(self.labels, other.labels))
        )

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

    def restricted_to(self, classes: Iterable[SemanticClass]) -> dict[SemanticClass, float]:
        """Renormalized weights over a subset; empty dict when the subset carries
        no weight (callers decide whether that is an error)."""
        kept = {c: self.get(c) for c in classes if self.get(c) > 0}
        total = sum(kept.values())
        if total <= 0:
            return {}
        return {c: w / total for c, w in sorted(kept.items())}

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
