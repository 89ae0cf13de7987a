import json
import math
import os
import re
import stat
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgap import io as pio
from pcgap.core import LabeledPointCloud, SemanticClass, default_weights
from pcgap.dataset import RatioMix
from pcgap.errors import RULES, ConfigError, ParseError, PcgapError
from pcgap.io import (
    FORMAT_PLY_ASCII,
    FORMAT_PLY_BINARY,
    FORMAT_XYZL,
    ClassedMesh,
    dump_json,
    output_file,
    read_cloud,
    read_label_file,
    read_mesh,
    read_ray_origins,
    read_report,
    write_cloud,
    write_ray_origins,
    write_report,
)
from pcgap.metric import M3c2Params, MetricParams
from pcgap.simulate import NoiseModel, ScanConfig

from conftest import random_cloud, room_mesh_obj_text


coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord, coord, st.integers(1, 12))


class TestXyzl:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "c.xyzl"
        p.write_text("1.0 2.0 3.0 6\n")
        cloud = read_cloud(p)
        assert cloud.xyz.tolist() == [[1.0, 2.0, 3.0]]
        assert cloud.labels.tolist() == [6]

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c.xyzl"
        p.write_text("# header\n\n1 2 3 4  # trailing\n\n")
        assert len(read_cloud(p)) == 1

    def test_bad_field_count(self, tmp_path):
        p = tmp_path / "c.xyzl"
        p.write_text("1 2 3\n")
        with pytest.raises(ParseError, match=":1"):
            read_cloud(p)

    def test_bad_number_reports_line(self, tmp_path):
        p = tmp_path / "c.xyzl"
        p.write_text("1 2 3 4\nx 2 3 4\n")
        with pytest.raises(ParseError, match=":2"):
            read_cloud(p)

    def test_out_of_range_label_coerced(self, tmp_path, caplog):
        p = tmp_path / "c.xyzl"
        p.write_text("0 0 0 0\n1 1 1 99\n")
        with caplog.at_level("WARNING"):
            cloud = read_cloud(p)
        assert cloud.labels.tolist() == [12, 12]

    @given(points=st.lists(point, min_size=0, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, points, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("xyzl") / "c.xyzl"
        cloud = LabeledPointCloud(
            np.array([p[:3] for p in points]).reshape(-1, 3), np.array([p[3] for p in points])
        )
        write_cloud(cloud, tmp, FORMAT_XYZL)
        assert read_cloud(tmp) == cloud

    def test_unknown_format_rejected(self, tmp_path):
        from pcgap.errors import FormatError

        with pytest.raises(FormatError, match="unknown cloud format"):
            write_cloud(LabeledPointCloud.empty(), tmp_path / "x", "las")


class TestPly:
    @pytest.mark.parametrize("fmt", [FORMAT_PLY_ASCII, FORMAT_PLY_BINARY])
    def test_round_trip_random(self, fmt, tmp_path):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 1000)
        p = tmp_path / "c.ply"
        write_cloud(cloud, p, fmt)
        assert read_cloud(p) == cloud

    def test_empty_cloud(self, tmp_path):
        p = tmp_path / "c.ply"
        write_cloud(LabeledPointCloud.empty(), p, FORMAT_PLY_BINARY)
        assert len(read_cloud(p)) == 0

    def test_auto_detect(self, tmp_path):
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, 10)
        for fmt in (FORMAT_PLY_ASCII, FORMAT_PLY_BINARY, FORMAT_XYZL):
            p = tmp_path / f"c-{fmt}.dat"
            write_cloud(cloud, p, fmt)
            assert read_cloud(p) == cloud

    def test_scalar_classification_alias(self, tmp_path):
        p = tmp_path / "c.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property float scalar_Classification\nend_header\n"
            "0 0 0 6\n1 1 1 2\n"
        )
        cloud = read_cloud(p)
        assert cloud.labels.tolist() == [6, 2]

    def test_extra_properties_skipped(self, tmp_path):
        p = tmp_path / "c.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property float intensity\nproperty uchar class_id\nend_header\n"
            "1 2 3 0.5 9\n"
        )
        cloud = read_cloud(p)
        assert cloud.xyz.tolist() == [[1.0, 2.0, 3.0]]
        assert cloud.labels.tolist() == [9]

    def test_truncated_binary(self, tmp_path):
        p = tmp_path / "c.ply"
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 5\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property uchar class_id\nend_header\n"
        )
        p.write_bytes(header.encode() + b"\x00" * 10)
        with pytest.raises(ParseError, match="truncated"):
            read_cloud(p)

    def test_missing_class_property(self, tmp_path):
        p = tmp_path / "c.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 0\n"
            "property double x\nproperty double y\nproperty double z\nend_header\n"
        )
        with pytest.raises(ParseError, match="class"):
            read_cloud(p)

    @given(blob=st.binary(min_size=0, max_size=400))
    @settings(max_examples=120, deadline=None)
    def test_fuzz_never_crashes(self, blob, tmp_path_factory):
        p = tmp_path_factory.mktemp("fuzz") / "f.ply"
        p.write_bytes(b"ply\n" + blob)
        try:
            read_cloud(p)
        except (PcgapError, ValueError):
            pass  # structured failure only

    @given(blob=st.binary(min_size=0, max_size=300))
    @settings(max_examples=120, deadline=None)
    def test_fuzz_text_never_crashes(self, blob, tmp_path_factory):
        p = tmp_path_factory.mktemp("fuzz") / "f.xyzl"
        p.write_bytes(blob)
        try:
            read_cloud(p)
        except (PcgapError, ValueError):
            pass


class TestObjMesh:
    def test_quad_fan_triangulation(self, tmp_path):
        p = tmp_path / "m.obj"
        p.write_text(
            "g RoofSurface\n"
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
            "f 1 2 3 4\n"
        )
        mesh = read_mesh(p)
        assert len(mesh.triangles) == 2
        assert set(mesh.triangle_classes.tolist()) == {7}

    def test_unknown_group_noise_with_warning(self, tmp_path, caplog):
        p = tmp_path / "m.obj"
        p.write_text("g Tree_canopy\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        with caplog.at_level("WARNING"):
            mesh = read_mesh(p)
        assert mesh.triangle_classes.tolist() == [12]
        assert "Noise" in caplog.text

    def test_citygml_and_opendrive_groups(self, tmp_path, caplog):
        p = tmp_path / "m.obj"
        tri = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
        p.write_text(
            "g OuterFloorSurface_3\n" + tri
            + "g TrafficArea function=1\n" + tri
            + "g RoadObject_7 type=pole name=streetLamp\n" + tri
            + "g LaneSectionLRLane type=biking\n" + tri
        )
        with caplog.at_level("WARNING"):
            mesh = read_mesh(p)
        assert mesh.triangle_classes.tolist() == [2, 1, 3, 12]
        assert [r.getMessage() for r in caplog.records] == [
            f"{p}:16: group 'LaneSectionLRLane type=biking' is not a known class, using Noise"
        ]

    def test_group_suffix(self, tmp_path):
        p = tmp_path / "m.obj"
        p.write_text("g WallSurface_02\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        assert read_mesh(p).triangle_classes.tolist() == [6]

    def test_cube_area(self, tmp_path):
        s = 2.0
        corners = [
            (0, 0, 0), (s, 0, 0), (s, s, 0), (0, s, 0),
            (0, 0, s), (s, 0, s), (s, s, s), (0, s, s),
        ]
        faces = [
            (1, 2, 3, 4), (5, 8, 7, 6), (1, 5, 6, 2),
            (2, 6, 7, 3), (3, 7, 8, 4), (4, 8, 5, 1),
        ]
        lines = ["g WallSurface"]
        lines += [f"v {x} {y} {z}" for x, y, z in corners]
        lines += ["f " + " ".join(str(i) for i in f) for f in faces]
        p = tmp_path / "cube.obj"
        p.write_text("\n".join(lines) + "\n")
        mesh = read_mesh(p)
        assert len(mesh.triangles) == 12
        assert mesh.triangle_areas().sum() == pytest.approx(6 * s * s)

    def test_degenerate_dropped(self, tmp_path, caplog):
        p = tmp_path / "m.obj"
        p.write_text(
            "g WallSurface\nv 0 0 0\nv 1 0 0\nv 0 1 0\nv 2 0 0\n"
            "f 1 2 3\nf 1 2 4\n"  # second face is collinear
        )
        with caplog.at_level("WARNING"):
            mesh = read_mesh(p)
        assert len(mesh.triangles) == 1
        assert mesh.dropped_degenerate == 1

    def test_out_of_range_index(self, tmp_path):
        p = tmp_path / "m.obj"
        p.write_text("g Door\nv 0 0 0\nv 1 0 0\nf 1 2 9\n")
        with pytest.raises(ParseError, match="out of range"):
            read_mesh(p)

    def test_negative_and_slash_indices(self, tmp_path):
        p = tmp_path / "m.obj"
        p.write_text(
            "g Window\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf -3/1/1 -2/2/2 -1/3/3\n"
        )
        mesh = read_mesh(p)
        assert mesh.triangles.tolist() == [[0, 1, 2]]

    def test_face_with_two_vertices(self, tmp_path):
        p = tmp_path / "m.obj"
        p.write_text("g Door\nv 0 0 0\nv 1 0 0\nf 1 2\n")
        with pytest.raises(ParseError, match="at least 3"):
            read_mesh(p)

    @pytest.mark.parametrize("line,error", [
        ("v 0 \u0661 0", "bad vertex coordinate"),  # Arabic-Indic one
        ("f 1 2 \u0663", "bad face index"),  # Arabic-Indic three
    ])
    def test_non_ascii_digit_is_not_a_digit(self, line, error, tmp_path):
        p = tmp_path / "m.obj"
        p.write_text(f"g Door\nv 0 0 0\nv 1 0 0\nv 0 1 0\n{line}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{p}:5: {error}")):
            read_mesh(p)

    @given(blob=st.binary(min_size=0, max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_fuzz_obj_never_crashes(self, blob, tmp_path_factory):
        p = tmp_path_factory.mktemp("fuzz") / "f.obj"
        p.write_bytes(blob)
        try:
            read_mesh(p)
        except (PcgapError, ValueError):
            pass


class TestConfig:
    """``MetricParams.from_json_dict`` maps JSON onto the records, whose
    construction checks every field."""

    def test_defaults(self):
        params, seed = MetricParams.from_json_dict({})
        assert params.voxel_size_m == 0.5
        assert (params.lambda1, params.lambda2, params.lambda3) == (0.6, 0.3, 0.1)
        assert params.alpha == -0.2
        assert params.epsilon == 1e-6
        assert params.c2c_mode == "directed-max"
        assert params.eq3_weight_mode == "as-given"
        assert params.class_weights.weights == default_weights().weights
        assert seed == 0

    def test_alpha_default_echoed(self):
        params, _ = MetricParams.from_json_dict({})
        assert params.to_json_dict()["alpha"] == -0.2

    def test_lambda_sum_violation(self):
        with pytest.raises(ConfigError, match="lambda1\\+lambda2\\+lambda3"):
            MetricParams.from_json_dict({"lambda1": 0.5, "lambda2": 0.3, "lambda3": 0.1})

    def test_lambda_order_violation(self):
        with pytest.raises(ConfigError, match="lambda1 > lambda2 > lambda3"):
            MetricParams.from_json_dict({"lambda1": 0.3, "lambda2": 0.6, "lambda3": 0.1})

    def test_relaxed_mode_allows_table_weights(self):
        params, _ = MetricParams.from_json_dict(
            {"lambda1": 0.6, "lambda2": 0.4, "lambda3": 0.1, "lambda_validation": "relaxed"}
        )
        assert params.lambda2 == 0.4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="lambda4"):
            MetricParams.from_json_dict({"lambda4": 1})

    def test_nested_key_path_in_error(self):
        with pytest.raises(ConfigError, match="m3c2.normal_scale_m"):
            MetricParams.from_json_dict({"m3c2": {"normal_scale_m": -1}})

    def test_bad_weights(self):
        with pytest.raises(ConfigError, match="class_weights"):
            MetricParams.from_json_dict({"class_weights": {"WallSurface": 0.5}})

    @pytest.mark.parametrize(
        "raw,message",
        [
            ([], "config root: expected an object"),
            ({"m3c2": []}, "m3c2: expected an object"),
            ({"class_weights": None}, "class_weights: expected an object"),
            ({"m3c2": {"depth": 1}}, "m3c2.depth: unknown config key"),
            ({"alpha": True}, "alpha: expected a number"),
            ({"alpha": "-0.2"}, "alpha: expected a number"),
            ({"class_weights": {"WallSurface": "1"}}, "class_weights.WallSurface: expected a number"),
            ({"class_weights": {"Tree": 1}}, "class_weights: 'tree'"),
            ({"seed": True}, "seed: expected an integer"),
            ({"seed": 1.0}, "seed: expected an integer"),
            ({"c2c_mode": "max"}, "c2c_mode: expected one of"),
            ({"lambda_validation": "lax"}, "lambda_validation: expected one of"),
            ({"voxel_size_m": 0}, "voxel_size_m: must be > 0"),
            ({"m3c2": {"max_depth_m": 0}}, "m3c2.max_depth_m: must be > 0"),
            ({"seed": -1}, "seed: must be >= 0"),
        ],
    )
    def test_refusals_name_the_key_path(self, raw, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            MetricParams.from_json_dict(raw)

    def test_numbers_stored_as_floats(self):
        params, seed = MetricParams.from_json_dict(
            {"alpha": -1, "m3c2": {"max_depth_m": 2}, "class_weights": {"Door": 1}, "seed": 4}
        )
        doc = params.to_json_dict()
        assert (doc["alpha"], doc["m3c2"]["max_depth_m"], doc["class_weights"]) == (
            -1.0, 2.0, {"Door": 1.0}
        )
        assert all(type(v) is float for v in (doc["alpha"], doc["m3c2"]["max_depth_m"]))
        assert type(doc["class_weights"]["Door"]) is float
        assert seed == 4

    def test_round_trips_its_own_json(self):
        params = MetricParams(lambda2=0.4, alpha=-1.0, lambda_validation="relaxed")
        assert MetricParams.from_json_dict({**params.to_json_dict(), "seed": 9}) == (params, 9)

    def test_library_and_json_params_write_the_same_bytes(self, tmp_path):
        library = MetricParams(voxel_size_m=1, alpha=-1, m3c2=M3c2Params(max_depth_m=2))
        parsed, _ = MetricParams.from_json_dict({"voxel_size_m": 1, "alpha": -1, "m3c2": {"max_depth_m": 2}})
        assert library == parsed
        for params in (library, parsed):
            floats = [getattr(params, f.name) for f in fields(params) if f.type == "float"]
            floats += [getattr(params.m3c2, f.name) for f in fields(params.m3c2)]
            assert all(type(v) is float for v in floats)
        dump_json(library.to_json_dict(), tmp_path / "library.json")
        dump_json(parsed.to_json_dict(), tmp_path / "parsed.json")
        assert (tmp_path / "library.json").read_bytes() == (tmp_path / "parsed.json").read_bytes()

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: MetricParams(epsilon=True), "epsilon: expected a number"),
            (lambda: MetricParams(alpha="-0.2"), "alpha: expected a number"),
            (lambda: M3c2Params(max_depth_m="1"), "m3c2.max_depth_m: expected a number"),
            (lambda: MetricParams(m3c2={"max_depth_m": 1.0}), "m3c2: expected M3c2Params"),
            (lambda: MetricParams(class_weights={"WallSurface": 1.0}),
             "class_weights: expected ClassWeights"),
        ],
        ids=["bool", "string", "nested-string", "m3c2-dict", "class-weights-dict"],
    )
    def test_construction_refuses_wrong_types(self, build, message):
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            build()


#: Each parameter record: its key prefix, and the other arguments a valid
#: construction needs.
_RECORDS = [
    (M3c2Params, "m3c2.", {}),
    (MetricParams, "", {"lambda_validation": "relaxed"}),
    (ScanConfig, "", {}),
    (NoiseModel, "", {}),
    (RatioMix, "", {"real_fraction": 0.5, "target_count": 10}),
]
#: For each rule and field type: the values just outside the rule's bounds,
#: and those on or just inside them.
_RULE_EDGES = {
    ("> 0", "float"): ([0.0], [5e-324]),
    (">= 0", "float"): ([-5e-324], [0.0]),
    (">= 0", "int"): ([-1], [0]),
    (">= 1", "int"): ([0], [1]),
    ("< 0", "float"): ([0.0], [-5e-324]),
    ("in [0, 1]", "float"): ([-5e-324, math.nextafter(1.0, 2.0)], [0.0, 1.0]),
}
_RULED_FIELDS = [(record, prefix, base, f) for record, prefix, base in _RECORDS
                 for f in fields(record) if "rule" in f.metadata]


def test_rule_edges_cover_every_rule():
    assert {rule for rule, _ in _RULE_EDGES} == set(RULES)


@pytest.mark.parametrize("record,prefix,base,f", _RULED_FIELDS,
                         ids=[f"{r.__name__}.{f.name}" for r, _, _, f in _RULED_FIELDS])
def test_every_declared_rule_refuses_its_bound(record, prefix, base, f):
    rule = f.metadata["rule"]
    refused, accepted = _RULE_EDGES[rule, f.type]
    for value in refused:
        message = f"{prefix}{f.name}: must be {rule}, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            record(**{**base, f.name: value})
    for value in accepted:
        assert getattr(record(**{**base, f.name: value}), f.name) == value


def _pinned_gap_report():
    """A gap report of fixed numbers whose parameters all differ from the
    defaults, built from config keys alone."""
    from pcgap.metric import ClassGapStats, GapReport

    params, _ = MetricParams.from_json_dict({
        "voxel_size_m": 0.3, "lambda1": 0.5, "lambda2": 0.4, "lambda3": 0.25, "alpha": -0.5,
        "epsilon": 0.001, "class_weights": {"WallSurface": 0.75, "Door": 0.25},
        "m3c2": {"normal_scale_m": 0.75, "projection_radius_m": 0.125, "max_depth_m": 1.5},
        "c2c_mode": "directed-mean", "eq3_weight_mode": "renormalized",
        "lambda_validation": "relaxed",
    })
    per_class = {SemanticClass.WALL_SURFACE: ClassGapStats(-0.125, 40, 2, 0.75),
                 SemanticClass.VEHICLE: ClassGapStats(None, 0, 0, None)}
    return GapReport(params=params, d_c2c=0.5, per_class=per_class, d_mm3c2=0.25, miou=0.625,
                     f_miou=1.6, d=0.375, m_dogss_pcl=0.5, offset=(0.0, 0.5, -1.0))


def _pinned_eval_report():
    from pcgap.dataset import ClassEval, EvalReport

    per_class = {SemanticClass.ROAD_SURFACE: ClassEval(3, 1, 0, 0.75, False),
                 SemanticClass.NOISE: ClassEval(0, 0, 0, 0.0, True)}
    return EvalReport(per_class=per_class, miou=0.375, confusion=np.array([[3, 1], [0, 0]]),
                      synthetic_ratio=0.25)


# The exact bytes each record above is written as. A key renamed on both the
# writing and the reading side passes every round trip, but not this text.
_PINNED_GAP_TEXT = """{
  "d": 0.375,
  "d_c2c": 0.5,
  "d_mm3c2": 0.25,
  "f_miou": 1.6,
  "m_dogss_pcl": 0.5,
  "miou": 0.625,
  "offset": [
    0.0,
    0.5,
    -1.0
  ],
  "params": {
    "alpha": -0.5,
    "c2c_mode": "directed-mean",
    "class_weights": {
      "Door": 0.25,
      "WallSurface": 0.75
    },
    "epsilon": 0.001,
    "eq3_weight_mode": "renormalized",
    "lambda1": 0.5,
    "lambda2": 0.4,
    "lambda3": 0.25,
    "lambda_validation": "relaxed",
    "m3c2": {
      "max_depth_m": 1.5,
      "normal_scale_m": 0.75,
      "projection_radius_m": 0.125
    },
    "voxel_size_m": 0.3
  },
  "per_class": {
    "Vehicle": {
      "inlier_count": 0,
      "iou": null,
      "m3c2_median": null,
      "outlier_count": 0
    },
    "WallSurface": {
      "inlier_count": 40,
      "iou": 0.75,
      "m3c2_median": -0.125,
      "outlier_count": 2
    }
  },
  "report_type": "gap"
}
"""
_PINNED_EVAL_TEXT = """{
  "confusion": [
    [
      3,
      1
    ],
    [
      0,
      0
    ]
  ],
  "miou": 0.375,
  "per_class": {
    "Noise": {
      "absent": true,
      "fn": 0,
      "fp": 0,
      "iou": 0.0,
      "tp": 0
    },
    "RoadSurface": {
      "absent": false,
      "fn": 0,
      "fp": 1,
      "iou": 0.75,
      "tp": 3
    }
  },
  "report_type": "eval",
  "synthetic_ratio": 0.25
}
"""


class TestReports:
    @pytest.mark.parametrize("build,text", [
        (_pinned_gap_report, _PINNED_GAP_TEXT), (_pinned_eval_report, _PINNED_EVAL_TEXT),
    ], ids=["gap", "eval"])
    def test_serialized_bytes(self, tmp_path, build, text):
        p = tmp_path / "report.json"
        dump_json(build().to_json_dict(), p)
        assert p.read_text() == text

    def test_gap_report_round_trip(self, tmp_path):
        from pcgap.metric import MetricParams, dogss_pcl

        from conftest import build_street_scene

        cloud = build_street_scene(5, scale=0.03)
        report = dogss_pcl(cloud, cloud, MetricParams())
        p = tmp_path / "report.json"
        write_report(report, p)
        doc = read_report(p)
        assert doc == report.to_json_dict()
        assert doc["report_type"] == "gap"
        for key in ("params", "d_c2c", "per_class", "d_mm3c2", "miou", "f_miou", "d", "m_dogss_pcl"):
            assert key in doc
        stats = doc["per_class"]["WallSurface"]
        assert set(stats) == {"m3c2_median", "inlier_count", "outlier_count", "iou"}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_dump_json_refuses_non_finite_and_keeps_the_file(self, tmp_path, value):
        p = tmp_path / "report.json"
        p.write_text("old\n")
        with pytest.raises(ValueError, match=str(p)):
            dump_json({"a": [1.0, {"b": value}]}, p)
        assert p.read_text() == "old\n"

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-2.5e309"])
    def test_read_report_refuses_non_finite(self, tmp_path, constant):
        p = tmp_path / "report.json"
        p.write_text('{"report_type": "gap", "d": %s}\n' % constant)
        with pytest.raises(ParseError, match=f"{p}: non-finite number {constant}"):
            read_report(p)

    def test_ray_origin_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        origins = rng.normal(size=(50, 3))
        p = tmp_path / "o.origins"
        write_ray_origins(origins, p)
        assert np.array_equal(read_ray_origins(p), origins)

    def test_label_file(self, tmp_path):
        p = tmp_path / "pred.txt"
        p.write_text("1\n2\n# comment\n12\n")
        assert read_label_file(p).tolist() == [1, 2, 12]

    def test_label_file_coerces(self, tmp_path, caplog):
        p = tmp_path / "pred.txt"
        p.write_text("0\n13\n")
        with caplog.at_level("WARNING"):
            assert read_label_file(p).tolist() == [12, 12]


# ---------------------------------------------------------------------------
# every text format: one ASCII rule, one read of each input
# ---------------------------------------------------------------------------

_PLY_ASCII_HEAD = (  # 8 lines: the body's first row is the file's 9th line
    "ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\nproperty double y\n"
    "property double z\nproperty uchar class_id\nend_header\n"
)
# reader, header, the fields of a clean row
_TABLES = {
    "xyzl": (read_cloud, "", ["1", "2", "3", "4"]),
    "ply-ascii": (read_cloud, _PLY_ASCII_HEAD, ["1", "2", "3", "4"]),
    "origins": (read_ray_origins, "", ["1", "2", "3"]),
    "labels": (read_label_file, "", ["4"]),
}
_NON_ASCII_ROWS = {
    "arabic-indic-3-last": lambda fields: " ".join(fields[:-1] + ["\u0663"]),
    "fullwidth-1-first": lambda fields: " ".join(["\uff11"] + fields[1:]),
    "no-break-spaces": lambda fields: "\xa0" + "\xa0".join(fields),
}


@pytest.mark.parametrize("case", sorted(_NON_ASCII_ROWS))
@pytest.mark.parametrize("table", sorted(_TABLES))
def test_non_ascii_is_never_a_digit_or_a_separator(table, case, tmp_path):
    read, head, fields = _TABLES[table]
    p = tmp_path / f"t.{table}"
    p.write_text(head + " ".join(fields) + "\n" + _NON_ASCII_ROWS[case](fields) + "\n",
                 encoding="utf-8")
    line = head.count("\n") + 2
    with pytest.raises(ParseError, match=re.escape(f"{p}:{line}: ")):
        read(p)


_opened = None  # while a list, the audit hook below appends each opened path


def _audit(event, args):
    if event == "open" and _opened is not None:
        _opened.append(str(args[0]))


@pytest.fixture(scope="module")
def open_audit():
    sys.addaudithook(_audit)  # cannot be removed: it counts only while _opened is set


def _origins_file(p, text_fallback):
    write_ray_origins(np.repeat(np.eye(3), 16, axis=0), p)
    if text_fallback:  # a comment line: the run parse refuses the file
        p.write_text("# origins\n" + p.read_text())


def _cloud_file(fmt):
    return lambda p: write_cloud(random_cloud(np.random.default_rng(1), 40), p, fmt)


_INPUTS = {
    "xyzl": (read_cloud, _cloud_file(FORMAT_XYZL)),
    "ply-binary": (read_cloud, _cloud_file(FORMAT_PLY_BINARY)),
    "ply-ascii": (read_cloud, _cloud_file(FORMAT_PLY_ASCII)),
    "labels": (read_label_file, lambda p: p.write_text("1\n2\n# note\n12\n")),
    "origins-runs": (read_ray_origins, lambda p: _origins_file(p, False)),
    "origins-fallback": (read_ray_origins, lambda p: _origins_file(p, True)),
    "obj": (read_mesh, lambda p: p.write_text(room_mesh_obj_text())),
}


@pytest.mark.parametrize("name", list(_INPUTS))
def test_each_reader_opens_its_input_once(name, tmp_path, open_audit, monkeypatch):
    global _opened
    read, write = _INPUTS[name]
    p = tmp_path / name
    write(p)
    table_reads, real = [], pio._read_text_table
    monkeypatch.setattr(pio, "_read_text_table",
                        lambda *a, **k: table_reads.append(a) or real(*a, **k))
    _opened = []
    try:
        read(p)
    finally:
        opened, _opened = _opened, None
    assert opened.count(str(p)) == 1
    if name.startswith("origins"):  # both origins paths are covered
        assert bool(table_reads) == name.endswith("fallback")


def _temps(directory):
    return sorted(p.name for p in directory.glob(".*.tmp"))


class TestOutputFile:
    """Outputs are replaced whole; in-place writes only where a rename would
    change what the path is."""

    @pytest.mark.parametrize("fmt", [FORMAT_XYZL, FORMAT_PLY_ASCII, FORMAT_PLY_BINARY])
    def test_rewrite_equals_fresh_write(self, fmt, tmp_path):
        cloud = random_cloud(np.random.default_rng(8), 40)
        fresh, again = tmp_path / "fresh.out", tmp_path / "again.out"
        write_cloud(random_cloud(np.random.default_rng(9), 70), again, fmt)
        write_cloud(cloud, fresh, fmt)
        write_cloud(cloud, again, fmt)
        assert again.read_bytes() == fresh.read_bytes() and _temps(tmp_path) == []

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt, OSError])
    def test_failed_block_keeps_the_old_file(self, error, tmp_path):
        path = tmp_path / "cloud.xyzl"
        path.write_bytes(b"old rows\n")
        with pytest.raises(error) as info:
            with output_file(path, "cloud") as fh:
                fh.write(b"half a new ")
                raise error("disk full")
        assert path.read_bytes() == b"old rows\n" and _temps(tmp_path) == []
        if error is OSError:
            assert str(info.value) == f"cannot write cloud to {path}: disk full"

    def test_new_file_gets_the_umask_mode(self, tmp_path):
        umask = os.umask(0o027)
        try:
            with output_file(tmp_path / "new.json", "report") as fh:
                fh.write(b"{}\n")
        finally:
            os.umask(umask)
        assert stat.S_IMODE(os.stat(tmp_path / "new.json").st_mode) == 0o640

    def test_permission_bits_carry_over(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("old\n")
        path.chmod(0o604)
        dump_json({"a": 1}, path)
        assert path.read_text() == '{\n  "a": 1\n}\n'
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o604

    def test_symlink_keeps_its_link(self, tmp_path):
        (tmp_path / "data").mkdir()
        target, link = tmp_path / "data" / "report.json", tmp_path / "link.json"
        target.write_text("old\n")
        link.symlink_to(target)
        dump_json({"a": 1}, link)
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_text() == '{\n  "a": 1\n}\n'
        assert _temps(tmp_path) == [] and _temps(tmp_path / "data") == []

    def test_relative_output_without_a_working_directory_path(self, tmp_path, monkeypatch):
        # below an ancestor the user may not search, the working directory has
        # no path os.getcwd() can give, but open() still takes a relative name
        monkeypatch.chdir(tmp_path)
        (tmp_path / "old.json").write_text("old\n")

        def no_path():
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "getcwd", no_path)
        dump_json({"a": 1}, "old.json")
        dump_json({"b": 2}, "new.json")
        monkeypatch.undo()
        assert (tmp_path / "old.json").read_text() == '{\n  "a": 1\n}\n'
        assert (tmp_path / "new.json").read_text() == '{\n  "b": 2\n}\n'
        assert _temps(tmp_path) == []

    def test_hard_link_is_written_in_place(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_text("old\n")
        os.link(first, second)
        dump_json({"a": 1}, first)
        assert second.read_text() == first.read_text() == '{\n  "a": 1\n}\n'
        assert os.stat(first).st_ino == os.stat(second).st_ino

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        with output_file(fifo, "cloud") as fh:
            fh.write(b"through the pipe\n")
        reader.join(timeout=30)
        assert got == [b"through the pipe\n"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode) and _temps(tmp_path) == []

    @pytest.mark.parametrize("planted", ["file", "symlink"])
    def test_a_file_at_the_temp_name_is_left_alone(self, planted, tmp_path):
        path, elsewhere = tmp_path / "r.json", tmp_path / "elsewhere"
        path.write_text("old\n")
        elsewhere.write_text("keep\n")
        temp = tmp_path / f".r.json.{os.getpid()}.tmp"
        if planted == "file":
            temp.write_text("keep\n")
        else:
            temp.symlink_to(elsewhere)
        with pytest.raises(OSError, match=f"^cannot write report to {path}: File exists$"):
            dump_json({"a": 1}, path)
        assert path.read_text() == "old\n" and elsewhere.read_text() == "keep\n"
        assert temp.is_symlink() == (planted == "symlink") and temp.read_text() == "keep\n"

