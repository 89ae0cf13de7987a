"""Million-element and ground-mesh build-time checks and raycast and XYZL
throughput floors; long-running, so opt in with PCGAP_PERF=1
(e.g. ``PCGAP_PERF=1 pytest tests/test_perf.py -m perf``)."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pcgap
from pcgap.io import FORMAT_XYZL, ClassedMesh, read_cloud, write_cloud
from pcgap.spatial import Bvh, NnIndex

from conftest import build_street_scene, height_field_mesh, sensor_rays

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
    assert bvh.raycast((50.0, 50.0, -10.0), (0.0, 0.0, 1.0)) is not None


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
