"""Million-element and ground-mesh build-time checks and raycast, XYZL,
M3C2 and voxel IoU throughput floors; long-running, so opt in with
PCGAP_PERF=1 (e.g. ``PCGAP_PERF=1 pytest tests/test_perf.py -m perf``)."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pcgap
from pcgap.core import partition_by_class
from pcgap.io import (FORMAT_XYZL, ClassedMesh, read_cloud, read_ray_origins, write_cloud,
                      write_ray_origins)
from pcgap.metric import voxel_miou
from pcgap.simulate import ScanConfig, Trajectory, simulate_scan
from pcgap.spatial import Bvh, NnIndex, cylinder_means, estimate_normals

from conftest import build_room_mesh, build_street_scene, height_field_mesh, sensor_rays

pytestmark = [
    pytest.mark.perf,
    pytest.mark.skipif(not os.environ.get("PCGAP_PERF"), reason="set PCGAP_PERF=1 to run"),
]


def test_nn_index_build_1m_under_30s():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 100, size=(1_000_000, 3))
    t0 = time.time()
    NnIndex(pts)
    assert time.time() - t0 < 30.0


def test_bvh_build_1m_under_30s():
    rng = np.random.default_rng(1)
    n = 1_000_000
    verts = rng.uniform(0, 100, size=(3 * n, 3))
    mesh = ClassedMesh(verts, np.arange(3 * n).reshape(n, 3), np.ones(n, dtype=np.uint8))
    t0 = time.time()
    bvh = Bvh(mesh)
    assert time.time() - t0 < 30.0
    assert bvh.raycast_many((50.0, 50.0, -10.0), (0.0, 0.0, 1.0))[1][0] >= 0


def best_build_time(mesh, runs):
    elapsed = []
    for _ in range(runs):
        t0 = time.perf_counter()
        Bvh(mesh)
        elapsed.append(time.perf_counter() - t0)
    return min(elapsed)


def test_bvh_build_1m_under_4s():
    rng = np.random.default_rng(1)
    n = 1_000_000
    verts = rng.uniform(0, 100, size=(3 * n, 3))
    mesh = ClassedMesh(verts, np.arange(3 * n).reshape(n, 3), np.ones(n, dtype=np.uint8))
    assert best_build_time(mesh, 2) <= 4.0


def test_ground_build_under_40ms():
    mesh = height_field_mesh(np.random.default_rng(2), 120)  # 28,800 triangles
    assert best_build_time(mesh, 3) <= 0.040


def test_ground_scan_under_25us_per_ray():
    rng = np.random.default_rng(2)
    mesh = height_field_mesh(rng, 120)
    origins, dirs = sensor_rays(rng, mesh, 750)
    bvh = Bvh(mesh)
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        t, _, _ = bvh.raycast_many(origins, dirs)
        elapsed.append(time.perf_counter() - t0)
    assert (t < np.inf).any()
    assert min(elapsed) / len(origins) < 25e-6


def test_xyzl_204k_read_under_045s_round_trip_under_12s(tmp_path):
    cloud = build_street_scene(10, scale=4.0)  # 204,400 points
    path, copy = tmp_path / "street.xyzl", tmp_path / "copy.xyzl"
    write_cloud(cloud, path, FORMAT_XYZL)
    reads, trips = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        back = read_cloud(path)
        t1 = time.perf_counter()
        write_cloud(back, copy, FORMAT_XYZL)
        reads.append(t1 - t0)
        trips.append(time.perf_counter() - t0)
    assert back == cloud and copy.read_bytes() == path.read_bytes()
    assert min(reads) <= 0.45
    assert min(trips) <= 1.2


def test_fresh_cli_import_under_0_35s():
    """Every CLI call pays this before its command runs."""
    env = dict(os.environ, PYTHONPATH=str(Path(pcgap.__file__).resolve().parents[1]))
    elapsed = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pcgap.cli; pcgap.cli.build_parser()"],
                       env=env, check=True, timeout=60)
        elapsed.append(time.perf_counter() - t0)
    assert min(elapsed) <= 0.35


def best_time(runs, work):
    elapsed = []
    for _ in range(runs):
        t0 = time.perf_counter()
        work()
        elapsed.append(time.perf_counter() - t0)
    return min(elapsed)


def test_street_4x_voxel_miou_under_0_25s():
    # 204,400 points each
    real, synth = build_street_scene(10, scale=4.0), build_street_scene(20, scale=4.0)
    assert best_time(3, lambda: voxel_miou(real, synth, 0.5)) <= 0.25


def test_street_normals_and_cylinders_under_2_1s(street_scene_pair):
    """The M3C2 passes on the 1x street pair, class by class: normals at
    every real point, then the real and the synthetic cylinder means at
    the cores with a valid normal."""
    parts_r, parts_s = (partition_by_class(cloud) for cloud in street_scene_pair)
    pairs = [(NnIndex(parts_r[c].xyz), NnIndex(parts_s[c].xyz))
             for c in parts_r if len(parts_r[c]) and len(parts_s[c])]

    def m3c2_passes():
        for index_r, index_s in pairs:
            normals, valid = estimate_normals(index_r, index_r.points, 0.5)
            for index in (index_r, index_s):
                cylinder_means(index, index_r.points[valid], normals[valid], 0.25, 1.0)

    assert len(pairs) == 9
    assert best_time(3, m3c2_passes) <= 2.1


def test_room_scan_72k_rays_with_sidecar_under_0_45s(tmp_path):
    """The room scan as ``simulate`` and ``noise`` run it: 72,000 rays from
    4,500 firing steps of 16 channels cast, the cloud and its origins
    sidecar written, and the sidecar read back."""
    mesh = build_room_mesh()
    trajectory = Trajectory([0.0, 1.2], [(2.0, 4.5, 1.6), (8.0, 3.5, 1.4)], [0.2, -0.2])
    config = ScanConfig(channels=16, vertical_fov_deg=(-30.0, 30.0), points_per_second=60_000)
    cloud_path, origins_path = tmp_path / "room.xyzl", tmp_path / "room.xyzl.origins"

    def scan_and_sidecar():
        scan = simulate_scan(mesh, trajectory, config)
        write_cloud(scan.cloud, cloud_path, FORMAT_XYZL)
        write_ray_origins(scan.ray_origins, origins_path)
        return scan, read_ray_origins(origins_path)

    scan, origins = scan_and_sidecar()
    assert len(scan.cloud) == 72_000 and np.array_equal(origins, scan.ray_origins)
    assert best_time(3, scan_and_sidecar) <= 0.45
