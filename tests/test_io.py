import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgap.core import LabeledPointCloud, default_weights
from pcgap.errors import ConfigError, ParseError, PcgapError
from pcgap.io import (
    FORMAT_PLY_ASCII,
    FORMAT_PLY_BINARY,
    FORMAT_XYZL,
    ClassedMesh,
    dump_json,
    read_cloud,
    read_label_file,
    read_mesh,
    read_ray_origins,
    read_report,
    write_cloud,
    write_ray_origins,
    write_report,
)
from pcgap.metric import MetricParams

from conftest import random_cloud


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

        p = tmp_path / "c.xyzl"
        p.write_text("0 0 0 1\n")
        with pytest.raises(FormatError, match="unknown cloud format"):
            read_cloud(p, "las")
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
            assert read_cloud(p, "auto") == cloud

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
    """``MetricParams.from_json_dict``, the one config validator."""

    def test_defaults(self):
        params, seed = MetricParams.from_json_dict({})
        assert params.voxel_edge == 0.5
        assert (params.lambda1, params.lambda2, params.lambda3) == (0.6, 0.3, 0.1)
        assert params.alpha == -0.2
        assert params.epsilon == 1e-6
        assert params.c2c_mode == "directed-max"
        assert params.eq3_weight_mode == "as-given"
        assert params.weights.weights == default_weights().weights
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
        params = MetricParams(lambda2=0.4, alpha=-1.0, validation="relaxed")
        assert MetricParams.from_json_dict({**params.to_json_dict(), "seed": 9}) == (params, 9)


class TestReports:
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
