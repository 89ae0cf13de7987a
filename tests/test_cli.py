import csv
import json

import numpy as np
import pytest

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
        ],
        ids=["alpha-nan", "max-depth-nan", "projection-radius-inf", "voxel-size-inf"],
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
