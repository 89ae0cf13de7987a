import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcgap
from pcgap.core import (
    _CLASS_TABLE,
    ClassWeights,
    LabeledPointCloud,
    SemanticClass,
    coerce_labels,
    default_weights,
    map_class,
    partition_by_class,
)
from pcgap.errors import ConfigError


def test_every_public_name_resolves():
    assert len(set(pcgap.__all__)) == len(pcgap.__all__)
    for name in pcgap.__all__:
        assert getattr(pcgap, name, None) is not None, name
    # voxel IoU runs on packed int64 keys; the dict-of-dicts grid is gone
    assert not hasattr(pcgap, "VoxelGrid") and "VoxelGrid" not in pcgap.__all__


class TestTaxonomy:
    def test_twelve_classes(self):
        assert len(SemanticClass) == 12
        assert [c.value for c in SemanticClass] == list(range(1, 13))

    def test_id_name_bijection(self):
        names = {c.canonical_name for c in SemanticClass}
        assert len(names) == 12
        for c in SemanticClass:
            assert SemanticClass.from_name(c.canonical_name) is c

    def test_published_names(self):
        expected = [
            "RoadSurface", "GroundSurface", "CityFurniture", "Vehicle",
            "Pedestrian", "WallSurface", "RoofSurface", "Door", "Window",
            "BuildingInstallation", "SolitaryVegetationObject", "Noise",
        ]
        assert [c.canonical_name for c in SemanticClass] == expected

    def test_noise_is_12(self):
        assert SemanticClass.NOISE.value == 12


# every published correspondence row and its expected target
OPENDRIVE_ROWS = [
    ("LaneSectionLRLane", {"type": "driving"}, 1),
    ("RoadObject", {"type": "barrier", "name": "raisedMedian"}, 1),
    ("RoadObject", {"type": "barrier", "name": "trafficIsland"}, 1),
    ("RoadObject", {"type": "roadMark"}, 1),
    ("LaneSectionLRLane", {"type": "sidewalk"}, 2),
    ("LaneSectionLRLane", {"type": "border"}, 2),
    ("LaneSectionLRLane", {"type": "none", "material": "grass"}, 2),
    ("Signal", {"name": "trafficLight"}, 3),
    ("Signal", {"name": "traffic signs"}, 3),
    ("RoadObject", {"type": "pole", "name": "streetLamp"}, 3),
    ("RoadObject", {"type": "pole", "name": "trafficLight"}, 3),
    ("RoadObject", {"type": "pole", "name": "trafficSign"}, 3),
    ("RoadObject", {"type": "barrier", "name": "fence"}, 3),
    ("RoadObject", {"type": "obstacle", "name": "controllerBox"}, 3),
    ("RoadObject", {"type": "obstacle", "name": "bench"}, 3),
    ("RoadObject", {"type": "barrier", "name": "wall"}, 3),
    ("RoadObject", {"type": "building", "surf_orientation": "side"}, 6),
    ("RoadObject", {"type": "building", "surf_orientation": "top"}, 7),
    ("RoadObject", {"type": "tree"}, 11),
    ("RoadObject", {"type": "vegetation"}, 11),
]

CITYGML_ROWS = [
    ("TrafficArea", {"function": "1"}, 1),
    ("TrafficArea", {"function": "2"}, 2),
    ("OuterFloorSurface", {}, 2),
    ("CityFurniture", {}, 3),
    ("WallSurface", {}, 6),
    ("RoofSurface", {}, 7),
    ("Door", {}, 8),
    ("Window", {}, 9),
    ("BuildingInstallation", {}, 10),
    ("OuterCeilingSurface", {}, 10),
    ("SolitaryVegetationObject", {}, 11),
]


class TestMapClass:
    @pytest.mark.parametrize("descriptor,attrs,target", OPENDRIVE_ROWS)
    def test_opendrive_rows(self, descriptor, attrs, target):
        assert map_class(descriptor, attrs).value == target

    @pytest.mark.parametrize("descriptor,attrs,target", CITYGML_ROWS)
    def test_citygml_rows(self, descriptor, attrs, target):
        assert map_class(descriptor, attrs).value == target

    def test_standards_share_no_descriptor(self):
        # why a lookup needs no standard
        opendrive, citygml = ({d for d, _, _ in rows} for rows in (OPENDRIVE_ROWS, CITYGML_ROWS))
        assert not opendrive & citygml
        assert {d for d, _, _ in _CLASS_TABLE} == opendrive | citygml | {"AuxiliaryTrafficArea"}

    def test_auxiliary_traffic_area_first_match(self):
        # listed under both RoadSurface and GroundSurface; table order wins
        assert map_class("AuxiliaryTrafficArea") is SemanticClass.ROAD_SURFACE

    def test_unknown_descriptor_is_noise(self):
        assert map_class("FantasyObject") is SemanticClass.NOISE

    def test_unmatched_attributes_fall_through(self):
        assert map_class("LaneSectionLRLane", {"type": "biking"}) is SemanticClass.NOISE
        assert map_class("RoadObject") is SemanticClass.NOISE  # every RoadObject row is qualified

    def test_case_and_whitespace_insensitive(self):
        assert map_class("  window ") is SemanticClass.WINDOW
        got = map_class("lanesectionlrlane", {"TYPE": " DRIVING "})
        assert got is SemanticClass.ROAD_SURFACE

    def test_extra_attributes_ignored(self):
        got = map_class("Signal", {"name": "trafficLight", "id": "42"})
        assert got is SemanticClass.CITY_FURNITURE

    def test_total_and_deterministic(self):
        for _ in range(3):
            assert map_class("Door") is SemanticClass.DOOR


class TestLabeledPointCloud:
    def test_round_trip_points(self):
        xyz, labels = [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]], [6, 12]
        cloud = LabeledPointCloud(np.array(xyz), np.array(labels))
        assert cloud.xyz.tolist() == xyz
        assert cloud.labels.tolist() == labels
        assert cloud.labels.dtype == np.uint8

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            LabeledPointCloud(np.array([[np.nan, 0, 0]]), np.array([1]))

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError, match="1..12"):
            LabeledPointCloud(np.zeros((1, 3)), np.array([0]))
        with pytest.raises(ValueError, match="1..12"):
            LabeledPointCloud(np.zeros((1, 3)), np.array([13]))

    def test_coercion_logs_warning(self, caplog):
        with caplog.at_level("WARNING"):
            labels = coerce_labels(np.array([0, 5, 40]))
        assert labels.tolist() == [12, 5, 12]
        assert "coerced to Noise" in caplog.text

    def test_immutable(self):
        cloud = LabeledPointCloud(np.zeros((2, 3)), np.array([1, 2]))
        with pytest.raises(ValueError):
            cloud.xyz[0, 0] = 5.0

    def test_translate(self):
        cloud = LabeledPointCloud(np.array([[1.0, 2.0, 3.0]]), np.array([4]))
        moved = cloud.translate((1, -1, 0.5))
        assert np.allclose(moved.xyz, [[2.0, 1.0, 3.5]])
        assert moved.labels.tolist() == [4]


class TestPartition:
    def test_small_example(self):
        cloud = LabeledPointCloud(np.arange(9, dtype=float).reshape(3, 3), np.array([1, 1, 6]))
        parts = partition_by_class(cloud)
        assert len(parts[SemanticClass.ROAD_SURFACE]) == 2
        assert len(parts[SemanticClass.WALL_SURFACE]) == 1
        assert len(parts[SemanticClass.NOISE]) == 0

    def test_empty_cloud(self):
        parts = partition_by_class(LabeledPointCloud.empty())
        assert all(len(p) == 0 for p in parts.values())
        assert set(parts) == set(SemanticClass)

    def test_counts_conserved(self):
        rng = np.random.default_rng(3)
        cloud = LabeledPointCloud(
            rng.normal(size=(10_000, 3)), rng.integers(1, 13, size=10_000)
        )
        parts = partition_by_class(cloud)
        assert sum(len(p) for p in parts.values()) == 10_000
        for cls, part in parts.items():
            assert (part.labels == cls.value).all()

    @given(labels=st.lists(st.integers(1, 12), min_size=0, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_concat_is_permutation(self, labels):
        n = len(labels)
        rng = np.random.default_rng(n)
        cloud = LabeledPointCloud(rng.normal(size=(n, 3)), np.array(labels, dtype=np.int64))
        parts = partition_by_class(cloud)
        merged = LabeledPointCloud.concat([parts[c] for c in SemanticClass])
        rows = sorted(map(tuple, np.column_stack([cloud.xyz, cloud.labels])))
        rows_m = sorted(map(tuple, np.column_stack([merged.xyz, merged.labels])))
        assert len(merged) == n
        assert rows == rows_m


class TestClassWeights:
    def test_default_values(self):
        w = default_weights()
        assert w.get(SemanticClass.WALL_SURFACE) == pytest.approx(0.2)
        assert w.get(SemanticClass.CITY_FURNITURE) == pytest.approx(0.1)
        assert w.get(SemanticClass.GROUND_SURFACE) == pytest.approx(0.1)
        assert w.get(SemanticClass.ROOF_SURFACE) == pytest.approx(0.15)
        assert w.get(SemanticClass.DOOR) == pytest.approx(0.15)
        assert w.get(SemanticClass.WINDOW) == pytest.approx(0.15)
        assert w.get(SemanticClass.BUILDING_INSTALLATION) == pytest.approx(0.15)

    def test_default_sums_to_one(self):
        assert sum(default_weights().weights.values()) == pytest.approx(1.0, abs=1e-9)

    def test_dynamic_classes_zero(self):
        w = default_weights()
        for cls in (SemanticClass.VEHICLE, SemanticClass.PEDESTRIAN,
                    SemanticClass.ROAD_SURFACE, SemanticClass.SOLITARY_VEGETATION_OBJECT,
                    SemanticClass.NOISE):
            assert w.get(cls) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigError, match=r"^class_weights\.Door: must be >= 0, got -0\.5$"):
            ClassWeights({SemanticClass.DOOR: -0.5, SemanticClass.WINDOW: 1.5})

    @pytest.mark.parametrize("weight", [True, "1", None, [1.0]])
    def test_rejects_a_weight_that_is_not_a_number(self, weight):
        with pytest.raises(ConfigError, match=r"^class_weights\.WallSurface: expected a number"):
            ClassWeights({SemanticClass.WALL_SURFACE: weight})

    def test_weights_stored_as_floats(self):
        w = ClassWeights({SemanticClass.WALL_SURFACE: 1})
        assert type(w.get(SemanticClass.WALL_SURFACE)) is float

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ClassWeights({SemanticClass.DOOR: 0.5, SemanticClass.WINDOW: 0.4})

    @given(
        values=st.lists(st.floats(0.01, 10.0, allow_nan=False), min_size=1, max_size=8)
    )
    @settings(max_examples=50, deadline=None)
    def test_normalized_weights_accepted(self, values):
        total = sum(values)
        classes = list(SemanticClass)[: len(values)]
        w = ClassWeights({c: v / total for c, v in zip(classes, values)})
        assert sum(w.weights.values()) == pytest.approx(1.0, abs=1e-9)

    def test_restricted_renormalizes(self):
        w = default_weights()
        sub = w.restricted_to([SemanticClass.WALL_SURFACE, SemanticClass.ROOF_SURFACE])
        assert sum(sub.values()) == pytest.approx(1.0)
        assert sub[SemanticClass.WALL_SURFACE] == pytest.approx(0.2 / 0.35)

    def test_restricted_empty(self):
        assert default_weights().restricted_to([SemanticClass.VEHICLE]) == {}
