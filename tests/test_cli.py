import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcgap
from pcgap.cli import EXIT_CONFIG, EXIT_DEGENERATE, EXIT_IO, EXIT_OK, main
from pcgap.core import LabeledPointCloud
from pcgap.io import FORMAT_XYZL, read_cloud, read_report, write_cloud
from pcgap.metric import MetricParams, dogss_pcl

from conftest import build_street_scene, random_cloud, room_mesh_obj_text


@pytest.fixture()
def scene_files(tmp_path):
    real = build_street_scene(70, scale=0.02)
    synth = build_street_scene(71, scale=0.02)
    real_path = tmp_path / "real.xyzl"
    synth_path = tmp_path / "synth.xyzl"
    write_cloud(real, real_path, FORMAT_XYZL)
    write_cloud(synth, synth_path, FORMAT_XYZL)
    return real_path, synth_path, real, synth


@pytest.fixture()
def small_inputs(tmp_path):
    """Inputs on which every command below runs, and the argv of each; the
    fresh-interpreter tests run them all with finite flags."""
    rng = np.random.default_rng(74)
    cloud = tmp_path / "c.xyzl"
    write_cloud(random_cloud(rng, 10, classes=(1, 2, 6)), cloud, FORMAT_XYZL)
    (tmp_path / "c.xyzl.origins").write_text("0 0 0\n" * 10)
    (tmp_path / "pred.txt").write_text("1\n" * 10)
    street = tmp_path / "street.xyzl"
    write_cloud(build_street_scene(73, scale=0.02), street, FORMAT_XYZL)
    (tmp_path / "room.obj").write_text(room_mesh_obj_text())
    (tmp_path / "traj.json").write_text(json.dumps([
        {"t": 0.0, "x": 2.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
        {"t": 0.1, "x": 3.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
    ]))
    out = str(tmp_path / "out" / "o.xyzl")
    return {
        "compare": ["compare", "--real", str(street), "--synthetic", str(street),
                    "--out", str(tmp_path / "out" / "gap.json")],
        "simulate": ["simulate", "--mesh", str(tmp_path / "room.obj"), "--trajectory",
                     str(tmp_path / "traj.json"), "--seed", "1", "--out", out],
        "noise": ["noise", "--cloud", str(cloud), "--seed", "1", "--out", out],
        "mix": ["mix", "--real", str(cloud), "--synthetic", str(cloud), "--fraction", "0.5",
                "--count", "10", "--seed", "1", "--out", out],
        "eval-seg": ["eval-seg", "--truth", str(cloud), "--pred", str(tmp_path / "pred.txt"),
                     "--out", str(tmp_path / "out" / "eval.json")],
    }


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("simulate", "--sigma", "nan"),
        ("noise", "--sigma", "nan"),
        ("noise", "--sigma", "inf"),
        ("mix", "--fraction", "nan"),
        ("eval-seg", "--ratio", "nan"),
        ("compare", "--offset", "nan"),
        ("compare", "--offset", "0,inf"),
        ("compare", "--offset", ", ,"),
        ("compare", "--offset", "0,x"),
        ("compare", "--alpha", "-inf"),
        ("compare", "--voxel-size", "nan"),
        # finite but out of range
        ("simulate", "--sigma", "-1"),
        ("noise", "--sigma", "-0.5"),
        ("eval-seg", "--ratio", "-0.1"),
        ("eval-seg", "--ratio", "1.5"),
        ("mix", "--fraction", "1.5"),
        ("mix", "--fraction", "-0.1"),
        ("mix", "--count", "-3"),
        ("mix", "--count", "0"),
    ],
)
def test_non_finite_flag_exit_2(tmp_path, small_inputs, capsys, command, flag, value):
    (tmp_path / "out").mkdir()
    code = main(small_inputs[command] + [f"{flag}={value}"])
    assert code == EXIT_CONFIG
    assert flag in json.loads(capsys.readouterr().err)["error"]
    assert list((tmp_path / "out").iterdir()) == []


def test_simulate_sigma_zero_changes_no_byte(tmp_path, small_inputs):
    (tmp_path / "out").mkdir()
    argv = small_inputs["simulate"]
    out = Path(argv[-1])
    assert main(argv) == EXIT_OK
    plain = out.read_bytes(), Path(f"{out}.origins").read_bytes()
    assert main(argv + ["--sigma", "0"]) == EXIT_OK
    assert (out.read_bytes(), Path(f"{out}.origins").read_bytes()) == plain


@pytest.mark.parametrize("flag", ["--config", "--trajectory", "--scan-config", "--spec"])
def test_invalid_json_exit_2(tmp_path, small_inputs, capsys, flag):
    (tmp_path / "out").mkdir()
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    argv = {
        "--config": small_inputs["compare"] + ["--config", str(bad)],
        "--trajectory": small_inputs["simulate"] + ["--trajectory", str(bad)],
        "--scan-config": small_inputs["simulate"] + ["--scan-config", str(bad)],
        "--spec": ["split", "--cloud", str(tmp_path / "c.xyzl"), "--spec", str(bad),
                   "--out-dir", str(tmp_path / "out" / "parts")],
    }[flag]
    assert main(argv) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"{bad}: invalid JSON")
    assert list((tmp_path / "out").iterdir()) == []


def _samples(**second):
    """The two-sample trajectory of ``small_inputs``, with fields of the
    second sample replaced."""
    return [{"t": 0.0, "x": 2.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
            {"t": 0.2, "x": 3.0, "y": 4.0, "z": 1.5, "yaw": 0.0, **second}]


@pytest.mark.parametrize("flag,doc,key", [
    ("--scan-config", {"channels": 2.5}, "channels"),
    ("--scan-config", {"channels": True}, "channels"),
    ("--scan-config", {"points_per_second": "20000"}, "points_per_second"),
    ("--scan-config", {"sensor_offset": [1, 2]}, "sensor_offset"),
    ("--scan-config", {"sensor_offset": [math.nan, 0, 0]}, "sensor_offset[0]"),
    ("--scan-config", {"max_range_m": math.nan}, "max_range_m"),
    ("--scan-config", {"vertical_fov_deg": [-25, math.inf]}, "vertical_fov_deg[1]"),
    ("--scan-config", [], "scan config root"),
    ("--trajectory", _samples(x=math.nan), "[1].x"),
    ("--trajectory", _samples(yaw=math.inf), "[1].yaw"),
    ("--trajectory", _samples(t="0.2"), "[1].t"),
    ("--trajectory", _samples(z=None), "[1].z"),
    ("--trajectory", [_samples()[0], 7], "[1]"),
])
def test_simulate_bad_scan_config_or_trajectory_exit_2(tmp_path, small_inputs, capsys,
                                                         flag, doc, key):
    (tmp_path / "out").mkdir()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity, as Python's json writes them
    assert main(small_inputs["simulate"] + [flag, str(path)]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"{path}: {key}: ")
    assert list((tmp_path / "out").iterdir()) == []


def _run_fresh(argvs) -> list[str]:
    """Run CLI calls in a fresh interpreter that imports pcgap from this
    source tree; return the scipy modules loaded when they are done."""
    src = str(Path(pcgap.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import json, sys\n"
        "import pcgap.cli\n"
        "pcgap.cli.build_parser()\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    if pcgap.cli.main(argv) != 0:\n"
        "        raise SystemExit(f'{argv} failed')\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_without_a_kd_tree_never_import_scipy(tmp_path, small_inputs):
    (tmp_path / "out").mkdir()
    eval_json = small_inputs["eval-seg"][-1]
    assert _run_fresh([
        small_inputs["simulate"],
        small_inputs["noise"] + ["--sigma", "0.01"],
        small_inputs["mix"],
        small_inputs["eval-seg"] + ["--ratio", "0.5"],
        ["report", eval_json, "--out", str(tmp_path / "out" / "eval.csv")],
    ]) == []


def test_compare_in_a_fresh_interpreter_matches_in_process(tmp_path, small_inputs):
    (tmp_path / "out").mkdir()
    fresh, here = tmp_path / "out" / "fresh.json", tmp_path / "out" / "here.json"
    argv = small_inputs["compare"][:-1]  # ends with --out
    assert "scipy.spatial" in _run_fresh([argv + [str(fresh), "--offset", "0,0.1"]])
    assert main(argv + [str(here), "--offset", "0,0.1"]) == EXIT_OK
    for suffix in ("", ".manifest.json"):
        assert Path(f"{fresh}{suffix}").read_bytes() == Path(f"{here}{suffix}").read_bytes()


# A config that sets every key to a non-default, integer-valued number or
# mode, and the manifest ``config`` text it gives, byte for byte: numbers
# are echoed as floats, the seed as an integer.
_FULL_CONFIG = {
    "voxel_size_m": 1, "lambda1": 1, "lambda2": 2, "lambda3": 0, "alpha": -1, "epsilon": 1,
    "class_weights": {"WallSurface": 1},
    "m3c2": {"normal_scale_m": 1, "projection_radius_m": 1, "max_depth_m": 2},
    "c2c_mode": "symmetric-max", "eq3_weight_mode": "renormalized",
    "lambda_validation": "relaxed", "seed": 7,
}
_FULL_CONFIG_TEXT = """{
    "alpha": -1.0,
    "c2c_mode": "symmetric-max",
    "class_weights": {
      "WallSurface": 1.0
    },
    "epsilon": 1.0,
    "eq3_weight_mode": "renormalized",
    "lambda1": 1.0,
    "lambda2": 2.0,
    "lambda3": 0.0,
    "lambda_validation": "relaxed",
    "m3c2": {
      "max_depth_m": 2.0,
      "normal_scale_m": 1.0,
      "projection_radius_m": 1.0
    },
    "seed": 7,
    "voxel_size_m": 1.0
  }"""
_DEFAULT_CONFIG_TEXT = """{
    "alpha": -0.2,
    "c2c_mode": "directed-max",
    "class_weights": {
      "BuildingInstallation": 0.15,
      "CityFurniture": 0.1,
      "Door": 0.15,
      "GroundSurface": 0.1,
      "RoofSurface": 0.15,
      "WallSurface": 0.2,
      "Window": 0.15
    },
    "epsilon": 1e-06,
    "eq3_weight_mode": "as-given",
    "lambda1": 0.6,
    "lambda2": 0.3,
    "lambda3": 0.1,
    "lambda_validation": "strict",
    "m3c2": {
      "max_depth_m": 1.0,
      "normal_scale_m": 0.5,
      "projection_radius_m": 0.25
    },
    "seed": 0,
    "voxel_size_m": 0.5
  }"""


class TestCompare:
    def test_report_matches_library(self, tmp_path, scene_files, capsys):
        real_path, synth_path, real, synth = scene_files
        out = tmp_path / "report.json"
        code = main([
            "compare", "--real", str(real_path), "--synthetic", str(synth_path),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        doc = read_report(out)
        expect = dogss_pcl(real, synth, MetricParams()).to_json_dict()
        assert doc == expect

    def test_offset_series(self, tmp_path, scene_files):
        real_path, synth_path, *_ = scene_files
        out = tmp_path / "series.json"
        code = main([
            "compare", "--real", str(real_path), "--synthetic", str(synth_path),
            "--offset", "0,0.1,0.3", "--out", str(out),
        ])
        assert code == EXIT_OK
        doc = read_report(out)
        assert doc["report_type"] == "gap_series"
        assert len(doc["reports"]) == 3
        offsets = [np.linalg.norm(r["offset"]) for r in doc["reports"]]
        assert offsets == pytest.approx([0.0, 0.1, 0.3])

    def test_missing_file_exit_3(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main([
            "compare", "--real", "/nonexistent.xyzl", "--synthetic", "/nonexistent.xyzl",
            "--out", str(out),
        ])
        assert code == EXIT_IO
        err = capsys.readouterr().err.strip()
        record = json.loads(err)  # one machine-parsable line
        assert record["exit_code"] == EXIT_IO

    def test_bad_config_exit_2(self, tmp_path, scene_files, capsys):
        real_path, synth_path, *_ = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lambda1": 0.5, "lambda2": 0.3, "lambda3": 0.1}')
        code = main([
            "compare", "--real", str(real_path), "--synthetic", str(synth_path),
            "--config", str(cfg), "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "config,key",
        [
            ('{"alpha": NaN}', "alpha"),
            ('{"m3c2": {"max_depth_m": NaN}}', "max_depth"),
            ('{"m3c2": {"projection_radius_m": Infinity}}', "projection_radius"),
            ('{"voxel_size_m": Infinity}', "voxel_size_m"),
            ('{"class_weights": {"WallSurface": NaN}}', "class_weights: weight for WallSurface must be finite"),
            ('{"class_weights": {"WallSurface": Infinity}}', "class_weights: weight for WallSurface must be finite"),
        ],
        ids=["alpha-nan", "max-depth-nan", "projection-radius-inf", "voxel-size-inf",
             "class-weight-nan", "class-weight-inf"],
    )
    def test_non_finite_config_exit_2(self, tmp_path, scene_files, capsys, config, key):
        real_path, synth_path, *_ = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        out = tmp_path / "r.json"
        code = main([
            "compare", "--real", str(real_path), "--synthetic", str(synth_path),
            "--config", str(cfg), "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert key in json.loads(capsys.readouterr().err.strip())["error"]
        assert not out.exists()
        assert not (tmp_path / "r.json.manifest.json").exists()

    @pytest.mark.parametrize(
        "config,text,seed",
        [({}, _DEFAULT_CONFIG_TEXT, 0), (_FULL_CONFIG, _FULL_CONFIG_TEXT, 7)],
        ids=["defaults", "full-relaxed-integers"],
    )
    def test_manifest_config_bytes(self, tmp_path, scene_files, config, text, seed):
        real_path, synth_path, *_ = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main([
            "compare", "--real", str(real_path), "--synthetic", str(synth_path),
            "--config", str(cfg), "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_OK
        manifest = (tmp_path / "r.json.manifest.json").read_text()
        assert f'''"config": {text},\n  "inputs"''' in manifest
        assert manifest.endswith(f'''"seed": {seed},\n  "version": "{pcgap.__version__}"\n}}\n''')

    def test_degenerate_exit_4(self, tmp_path, capsys):
        # Vehicle-only clouds carry no weighted semantic content
        cloud = LabeledPointCloud(np.random.default_rng(0).normal(size=(50, 3)), np.full(50, 4))
        path = tmp_path / "v.xyzl"
        write_cloud(cloud, path, FORMAT_XYZL)
        code = main([
            "compare", "--real", str(path), "--synthetic", str(path),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_DEGENERATE

    @pytest.mark.parametrize("far", [(1e19, 0.0, 0.0), (1e12, 1e12, 1e12)])
    def test_voxel_keys_beyond_int64_exit_4(self, tmp_path, scene_files, capsys, far):
        # 1e19 m is past int64 voxel coordinates; 1e12 m on every axis fits
        # each coordinate, but not the key span the two clouds share
        real_path, _, _, synth = scene_files
        far_path = tmp_path / "far.xyzl"
        write_cloud(LabeledPointCloud(np.vstack([synth.xyz, far]), np.append(synth.labels, 2)),
                    far_path, FORMAT_XYZL)
        out = tmp_path / "r.json"
        code = main(["compare", "--real", str(real_path), "--synthetic", str(far_path),
                     "--out", str(out)])
        assert code == EXIT_DEGENERATE
        assert json.loads(capsys.readouterr().err)["error"].startswith("voxel_size_m: 0.5 m voxels")
        assert not out.exists()

    def test_flag_overrides_config(self, tmp_path, scene_files):
        real_path, synth_path, real, synth = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"voxel_size_m": 0.5}')
        out = tmp_path / "r.json"
        code = main([
            "compare", "--real", str(real_path), "--synthetic", str(synth_path),
            "--config", str(cfg), "--voxel-size", "1.0", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert read_report(out)["params"]["voxel_size_m"] == 1.0

    def test_manifest_written(self, tmp_path, scene_files):
        real_path, synth_path, *_ = scene_files
        out = tmp_path / "r.json"
        main(["compare", "--real", str(real_path), "--synthetic", str(synth_path),
              "--out", str(out)])
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["command"] == "compare"
        assert str(real_path) in manifest["inputs"]
        assert manifest["config"]["alpha"] == -0.2  # defaults echoed
        assert manifest["version"]


class TestSimulateNoise:
    @pytest.fixture()
    def sim_inputs(self, tmp_path):
        mesh_path = tmp_path / "room.obj"
        mesh_path.write_text(room_mesh_obj_text())
        traj_path = tmp_path / "traj.json"
        traj_path.write_text(json.dumps([
            {"t": 0.0, "x": 2.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
            {"t": 0.5, "x": 8.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
        ]))
        scan_path = tmp_path / "scan.json"
        scan_path.write_text(json.dumps({
            "channels": 8, "vertical_fov_deg": [-25.0, 25.0],
            "rotation_rate_hz": 10.0, "points_per_second": 8000,
            "max_range_m": 50.0,
        }))
        return mesh_path, traj_path, scan_path

    def test_simulate_writes_cloud_and_origins(self, tmp_path, sim_inputs):
        mesh_path, traj_path, scan_path = sim_inputs
        out = tmp_path / "scan.xyzl"
        code = main([
            "simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
            "--scan-config", str(scan_path), "--seed", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        cloud = read_cloud(out)
        assert len(cloud) > 500
        origins = (tmp_path / "scan.xyzl.origins").read_text().splitlines()
        assert len(origins) == len(cloud)

    def test_noise_sigma_zero_identical_point_data(self, tmp_path, sim_inputs):
        mesh_path, traj_path, scan_path = sim_inputs
        scan_out = tmp_path / "scan.xyzl"
        main(["simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
              "--scan-config", str(scan_path), "--seed", "1", "--out", str(scan_out)])
        noise_out = tmp_path / "noisy.xyzl"
        code = main([
            "noise", "--cloud", str(scan_out), "--sigma", "0", "--seed", "5",
            "--out", str(noise_out),
        ])
        assert code == EXIT_OK
        assert scan_out.read_bytes() == noise_out.read_bytes()

    def test_rerun_byte_identical(self, tmp_path, sim_inputs):
        mesh_path, traj_path, scan_path = sim_inputs
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"scan-{tag}.xyzl"
            main(["simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
                  "--scan-config", str(scan_path), "--seed", "9", "--sigma", "0.02",
                  "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_noise_missing_origins_exit_3(self, tmp_path):
        cloud_path = tmp_path / "c.xyzl"
        write_cloud(random_cloud(np.random.default_rng(1), 10), cloud_path, FORMAT_XYZL)
        code = main(["noise", "--cloud", str(cloud_path), "--sigma", "0.02",
                     "--seed", "1", "--out", str(tmp_path / "n.xyzl")])
        assert code == EXIT_IO

    def test_noise_non_finite_origin_exit_3(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyzl"
        write_cloud(random_cloud(np.random.default_rng(2), 3), cloud_path, FORMAT_XYZL)
        origins = tmp_path / "c.xyzl.origins"
        origins.write_text("0 0 0\nnan 0 0\n0 0 0\n")
        code = main(["noise", "--cloud", str(cloud_path), "--sigma", "0.02",
                     "--seed", "1", "--out", str(tmp_path / "n.xyzl")])
        assert code == EXIT_IO
        err = json.loads(capsys.readouterr().err)["error"]
        assert f"{origins}:2: non-finite coordinate" in err
        assert not (tmp_path / "n.xyzl").exists()

    @pytest.mark.parametrize("origins", ["scan.xyzl", "sub/../scan.xyzl"])
    def test_simulate_origins_onto_out_exit_2(self, tmp_path, sim_inputs, capsys, origins):
        mesh_path, traj_path, scan_path = sim_inputs
        (tmp_path / "sub").mkdir()
        out = tmp_path / "scan.xyzl"
        code = main(["simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
                     "--scan-config", str(scan_path), "--origins", str(tmp_path / origins),
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--origins" in json.loads(capsys.readouterr().err)["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["room.obj", "scan.json", "sub",
                                                              "traj.json"]

    def test_all_miss_scan_round_trip(self, tmp_path, sim_inputs):
        # every hit lies beyond a 1 mm range: an empty cloud and an empty sidecar
        mesh_path, traj_path, scan_path = sim_inputs
        scan_path.write_text(json.dumps({**json.loads(scan_path.read_text()), "max_range_m": 1e-3}))
        out, noisy = tmp_path / "scan.xyzl", tmp_path / "noisy.xyzl"
        assert main(["simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
                     "--scan-config", str(scan_path), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == b"" and (tmp_path / "scan.xyzl.origins").read_bytes() == b""
        assert main(["noise", "--cloud", str(out), "--sigma", "0.02", "--seed", "1",
                     "--out", str(noisy)]) == EXIT_OK
        assert noisy.read_bytes() == b""

    def test_simulate_with_sigma_requires_seed(self, tmp_path, sim_inputs):
        mesh_path, traj_path, scan_path = sim_inputs
        code = main([
            "simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
            "--scan-config", str(scan_path), "--sigma", "0.02",
            "--out", str(tmp_path / "s.xyzl"),
        ])
        assert code == EXIT_CONFIG


class TestMixSplit:
    def test_mix_counts_and_provenance(self, tmp_path):
        rng = np.random.default_rng(72)
        real_path, synth_path = tmp_path / "r.xyzl", tmp_path / "s.xyzl"
        write_cloud(random_cloud(rng, 2000), real_path, FORMAT_XYZL)
        write_cloud(random_cloud(rng, 2000), synth_path, FORMAT_XYZL)
        out = tmp_path / "mixed.xyzl"
        code = main([
            "mix", "--real", str(real_path), "--synthetic", str(synth_path),
            "--fraction", "0.5", "--count", "1000", "--seed", "11", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert len(read_cloud(out)) == 1000
        prov = (tmp_path / "mixed.xyzl.provenance.txt").read_text().splitlines()
        assert prov.count("real") == 500
        assert prov.count("synthetic") == 500
        manifest = json.loads((tmp_path / "mixed.xyzl.manifest.json").read_text())
        assert manifest["config"]["real_points"] == 500
        assert manifest["seed"] == 11

    def test_mix_rerun_byte_identical(self, tmp_path):
        rng = np.random.default_rng(73)
        real_path, synth_path = tmp_path / "r.xyzl", tmp_path / "s.xyzl"
        write_cloud(random_cloud(rng, 500), real_path, FORMAT_XYZL)
        write_cloud(random_cloud(rng, 500), synth_path, FORMAT_XYZL)
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"m-{tag}.xyzl"
            main(["mix", "--real", str(real_path), "--synthetic", str(synth_path),
                  "--fraction", "0.25", "--count", "200", "--seed", "77", "--out", str(out)])
            blobs.append(out.read_bytes() + (tmp_path / f"m-{tag}.xyzl.manifest.json").read_bytes())
        # manifests differ only in output path keys; compare clouds directly
        a = read_cloud(tmp_path / "m-a.xyzl")
        b = read_cloud(tmp_path / "m-b.xyzl")
        assert a == b

    def test_split_outputs(self, tmp_path):
        rng = np.random.default_rng(74)
        cloud_path = tmp_path / "c.xyzl"
        cloud = random_cloud(rng, 2000, span=10.0)
        write_cloud(cloud, cloud_path, FORMAT_XYZL)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "regions": [
                {"name": "train", "rect": [-10, -10, 0, 10]},
                {"name": "test", "rect": [0, -10, 10, 10]},
            ]
        }))
        out_dir = tmp_path / "splits"
        code = main(["split", "--cloud", str(cloud_path), "--spec", str(spec_path),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        train = read_cloud(out_dir / "train.xyzl")
        test = read_cloud(out_dir / "test.xyzl")
        assert len(train) + len(test) == len(cloud)

    def test_split_ply_property_without_type_exit_3(self, tmp_path, capsys):
        cloud_path = tmp_path / "bad.ply"
        cloud_path.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty\n"
                              "end_header\n0 0 0\n")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"regions": [{"name": "all", "rect": [-1, -1, 1, 1]}]}))
        code = main(["split", "--cloud", str(cloud_path), "--spec", str(spec_path),
                     "--out-dir", str(tmp_path / "splits")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert f"{cloud_path}:4: malformed property line" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name",["../escape", "a/b", "a\\b", "..", ".", "", "nul\0"])
    def test_split_region_name_escape_exit_2(self, tmp_path, name, capsys):
        cloud_path = tmp_path / "c.xyzl"
        write_cloud(random_cloud(np.random.default_rng(76), 200, span=10.0), cloud_path, FORMAT_XYZL)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"regions": [
            {"name": "ok", "rect": [-10, -10, 0, 10]},
            {"name": name, "rect": [0, -10, 10, 10]},
        ]}))
        out_dir = tmp_path / "work" / "splits"
        before = sorted(tmp_path.rglob("*"))
        code = main(["split", "--cloud", str(cloud_path), "--spec", str(spec_path),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        assert "regions[1].name" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before  # nothing written, in or out of --out-dir

    @pytest.mark.parametrize("region", [
        {"polygon": [[0, 0], [4, 0], [4, math.nan], [0, 4]]},
        {"polygon": [[0, 0], [4, 0], [4, math.inf], [0, 4]]},
        {"rect": [0, 0, math.inf, 4]},
        {"rect": [-math.inf, 0, 4, 4]},
    ])
    def test_split_non_finite_region_exit_2(self, tmp_path, region, capsys):
        cloud_path = tmp_path / "c.xyzl"
        write_cloud(LabeledPointCloud(np.array([[1.0, 1, 0], [2.0, 1, 0], [9.0, 9, 0]]),
                                      np.array([1, 2, 6])), cloud_path, FORMAT_XYZL)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"regions": [
            {"name": "ok", "rect": [8, 8, 10, 10]}, {"name": "a", **region},
        ]}))
        out_dir = tmp_path / "splits"
        code = main(["split", "--cloud", str(cloud_path), "--spec", str(spec_path),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        assert "regions[1]: " in capsys.readouterr().err
        assert not out_dir.exists()

    def test_mix_bad_fraction_exit_2(self, tmp_path):
        rng = np.random.default_rng(75)
        p = tmp_path / "c.xyzl"
        write_cloud(random_cloud(rng, 10), p, FORMAT_XYZL)
        code = main(["mix", "--real", str(p), "--synthetic", str(p),
                     "--fraction", "1.5", "--count", "10", "--seed", "1",
                     "--out", str(tmp_path / "m.xyzl")])
        assert code == EXIT_CONFIG


class TestEvalAndReport:
    def _write_eval_fixture(self, tmp_path, tag, ious_by_seed):
        rng = np.random.default_rng(ious_by_seed)
        cloud = random_cloud(rng, 500, classes=(1, 2, 6))
        truth = tmp_path / f"gt-{tag}.xyzl"
        write_cloud(cloud, truth, FORMAT_XYZL)
        pred = tmp_path / f"pred-{tag}.txt"
        labels = cloud.labels.copy()
        flip = rng.random(len(labels)) < 0.2
        labels[flip] = rng.integers(1, 13, size=int(flip.sum()))
        pred.write_text("\n".join(str(int(v)) for v in labels) + "\n")
        return truth, pred

    def test_eval_seg_report(self, tmp_path):
        truth, pred = self._write_eval_fixture(tmp_path, "x", 80)
        out = tmp_path / "eval.json"
        code = main(["eval-seg", "--truth", str(truth), "--pred", str(pred),
                     "--ratio", "0.5", "--out", str(out)])
        assert code == EXIT_OK
        doc = read_report(out)
        assert doc["report_type"] == "eval"
        assert doc["synthetic_ratio"] == 0.5
        assert "confusion" in doc

    def test_eval_seg_length_mismatch_exit_2(self, tmp_path):
        truth, pred = self._write_eval_fixture(tmp_path, "y", 81)
        pred.write_text("1\n2\n")
        code = main(["eval-seg", "--truth", str(truth), "--pred", str(pred),
                     "--out", str(tmp_path / "e.json")])
        assert code == EXIT_CONFIG

    def test_gap_report_csv(self, tmp_path, capsys):
        real = build_street_scene(76, scale=0.02)
        synth = build_street_scene(77, scale=0.02)
        rp, sp = tmp_path / "r.xyzl", tmp_path / "s.xyzl"
        write_cloud(real, rp, FORMAT_XYZL)
        write_cloud(synth, sp, FORMAT_XYZL)
        series = tmp_path / "series.json"
        main(["compare", "--real", str(rp), "--synthetic", str(sp),
              "--offset", "0,0.1,0.3", "--out", str(series)])
        out_csv = tmp_path / "summary.csv"
        code = main(["report", str(series), "--out", str(out_csv)])
        assert code == EXIT_OK
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        assert rows[0] == ["report", "offset_m", "m_dogss_pcl", "d", "d_mm3c2",
                           "d_c2c", "miou", "f_miou"]
        assert len(rows) == 4

    def test_eval_report_csv_with_correlation(self, tmp_path):
        paths = []
        for i, ratio in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
            truth, pred = self._write_eval_fixture(tmp_path, f"r{i}", 90 + i)
            out = tmp_path / f"eval-{i}.json"
            main(["eval-seg", "--truth", str(truth), "--pred", str(pred),
                  "--ratio", str(ratio), "--out", str(out)])
            paths.append(str(out))
        out_csv = tmp_path / "evals.csv"
        plot = tmp_path / "plot.json"
        code = main(["report", *paths, "--out", str(out_csv), "--plot-data", str(plot)])
        assert code == EXIT_OK
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        assert rows[0][0] == "class"
        assert rows[0][-1] == "corr"
        assert rows[-1][0] == "mIoU"
        series = json.loads(plot.read_text())["series"]
        assert len(series["mIoU"]) == 5

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-1E+999"])
    def test_report_refuses_non_finite_input_exit_3(self, tmp_path, capsys, constant):
        real = build_street_scene(76, scale=0.02)
        rp = tmp_path / "r.xyzl"
        write_cloud(real, rp, FORMAT_XYZL)
        gap = tmp_path / "gap.json"
        assert main(["compare", "--real", str(rp), "--synthetic", str(rp), "--out", str(gap)]) == 0
        doc = gap.read_text()
        edited = doc.replace('"miou": ', f'"miou": {constant}, "was": ', 1)
        assert edited != doc
        gap.write_text(edited)
        out_csv, plot = tmp_path / "summary.csv", tmp_path / "plot.json"
        code = main(["report", str(gap), "--out", str(out_csv), "--plot-data", str(plot)])
        assert code == EXIT_IO
        assert f"{gap}: non-finite number {constant}" in json.loads(capsys.readouterr().err)["error"]
        assert not out_csv.exists() and not plot.exists()

    @pytest.mark.parametrize(
        "case",
        ["gap-without-fields", "gap-column-not-a-number", "gap-column-huge-int", "list-root",
         "series-entry-not-object", "class-without-tp", "class-missing", "ratio-above-1",
         "ratio-bool"],
    )
    def test_report_refuses_malformed_input_exit_3(self, tmp_path, capsys, case):
        truth, pred = self._write_eval_fixture(tmp_path, "m", 82)
        path = tmp_path / "eval.json"
        assert main(["eval-seg", "--truth", str(truth), "--pred", str(pred),
                     "--out", str(path)]) == EXIT_OK
        doc = json.loads(path.read_text())
        if case == "gap-without-fields":
            doc = {"report_type": "gap"}
        elif case in ("gap-column-not-a-number", "gap-column-huge-int"):
            doc = {"report_type": "gap", "m_dogss_pcl": 0.5, "d": "x", "d_mm3c2": 0.5,
                   "d_c2c": 0.5, "miou": 0.5, "f_miou": 0.5}
            if case == "gap-column-huge-int":
                doc["d"] = 10**400  # no float holds it
        elif case == "list-root":
            doc = [doc]
        elif case == "series-entry-not-object":
            doc = {"report_type": "gap_series", "reports": [1]}
        elif case == "class-without-tp":
            del doc["per_class"]["Door"]["tp"]
        elif case == "class-missing":
            del doc["per_class"]["Door"]
        else:
            doc["synthetic_ratio"] = 1.5 if case == "ratio-above-1" else True
        path.write_text(json.dumps(doc))
        out_csv = tmp_path / "summary.csv"
        code = main(["report", str(path), "--out", str(out_csv)])
        assert code == EXIT_IO
        assert json.loads(capsys.readouterr().err)["error"].startswith(f"{path}: ")
        assert not out_csv.exists()

    @pytest.mark.parametrize("component,code", [(1e200, EXIT_OK), (1.5e308, EXIT_IO)])
    def test_report_huge_offset_magnitude(self, tmp_path, capsys, component, code):
        # numpy's norm overflows on both offsets; only the first has a finite length
        rp = tmp_path / "r.xyzl"
        write_cloud(build_street_scene(76, scale=0.02), rp, FORMAT_XYZL)
        gap = tmp_path / "gap.json"
        assert main(["compare", "--real", str(rp), "--synthetic", str(rp), "--out", str(gap)]) == 0
        gap.write_text(json.dumps({**read_report(gap), "offset": [component, component, 0.0]}))
        out_csv, plot = tmp_path / "summary.csv", tmp_path / "plot.json"
        assert main(["report", str(gap), "--out", str(out_csv), "--plot-data", str(plot)]) == code
        if code == EXIT_OK:
            rows = list(csv.reader(out_csv.read_text().splitlines()))
            assert float(rows[1][1]) == math.hypot(component, component)
            assert json.loads(plot.read_text())["series"]["miou"][0][0] == float(rows[1][1])
        else:
            assert json.loads(capsys.readouterr().err)["error"].startswith(f"{gap}: ")
            assert not out_csv.exists() and not plot.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_report_refuses_huge_ratio_tags_exit_3(self, tmp_path, capsys):
        # tags this far apart overflow the Pearson sums; [0, 1] bounds them
        paths = []
        for i, ratio in enumerate((1e308, -1e308, 1e308)):
            truth, pred = self._write_eval_fixture(tmp_path, f"h{i}", 83 + i)
            out = tmp_path / f"eval-{i}.json"
            assert main(["eval-seg", "--truth", str(truth), "--pred", str(pred),
                         "--out", str(out)]) == EXIT_OK
            out.write_text(json.dumps({**json.loads(out.read_text()), "synthetic_ratio": ratio}))
            paths.append(str(out))
        out_csv = tmp_path / "evals.csv"
        code = main(["report", *paths, "--out", str(out_csv)])
        assert code == EXIT_IO
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith(f"{paths[0]}: ") and "synthetic_ratio" in error
        assert not out_csv.exists()

    def test_mixed_schema_rejected(self, tmp_path):
        real = build_street_scene(78, scale=0.02)
        rp = tmp_path / "r.xyzl"
        write_cloud(real, rp, FORMAT_XYZL)
        gap_out = tmp_path / "gap.json"
        main(["compare", "--real", str(rp), "--synthetic", str(rp), "--out", str(gap_out)])
        truth, pred = self._write_eval_fixture(tmp_path, "z", 99)
        eval_out = tmp_path / "eval.json"
        main(["eval-seg", "--truth", str(truth), "--pred", str(pred), "--out", str(eval_out)])
        code = main(["report", str(gap_out), str(eval_out), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_compare_rerun_byte_identical(self, tmp_path):
        real = build_street_scene(79, scale=0.02)
        synth = build_street_scene(80, scale=0.02)
        rp, sp = tmp_path / "r.xyzl", tmp_path / "s.xyzl"
        write_cloud(real, rp, FORMAT_XYZL)
        write_cloud(synth, sp, FORMAT_XYZL)
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"rep-{tag}.json"
            main(["compare", "--real", str(rp), "--synthetic", str(sp), "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
