"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any failure shows as a normal pytest failure.
"""

import json
import time

import numpy as np
import pytest

from pcgap.cli import main
from pcgap.core import LabeledPointCloud
from pcgap.dataset import Region, SplitSpec, evaluate_segmentation, ratio_correlation, split
from pcgap.io import FORMAT_XYZL, read_mesh, write_cloud
from pcgap.metric import (
    MetricParams,
    compose_score,
    dogss_pcl,
    m3c2_class_distance,
    offset_sensitivity,
    scalar_offsets_to_vectors,
    voxel_miou,
)
from pcgap.simulate import NoiseModel, ScanConfig, Trajectory, apply_range_noise, simulate_scan
from pcgap.spatial import Bvh, NnIndex, ray_triangles, voxelize

from conftest import build_street_scene, random_cloud, room_mesh_obj_text


def _report(name: str, detail: str = ""):
    print(f"\nACCEPTANCE {name}: PASS" + (f" ({detail})" if detail else ""))


def test_criterion_1_metric_composition_reproduction():
    """Published component values compose to the published d and m."""
    t0 = time.time()
    params = MetricParams(lambda2=0.4, validation="relaxed")

    d, f_miou, m = compose_score(0.04, 0.31, 0.2907, params)
    assert d == pytest.approx(0.148, abs=0.005)
    assert m == pytest.approx(0.09, abs=0.01)

    d_t, f_t, m_t = compose_score(1.01, 1.34, 0.02, params)
    assert d_t == pytest.approx(1.14, abs=0.01)
    assert m_t == pytest.approx(0.73, abs=0.03)

    elapsed = time.time() - t0
    assert elapsed < 1.0  # stated runtime: milliseconds
    _report("1 metric composition",
            f"d={d:.4f} m={m:.4f} | translated d={d_t:.4f} m={m_t:.4f} in {elapsed*1e3:.1f}ms")


def test_criterion_2_offset_monotonicity():
    """0 / 0.1 / 0.3 m offsets: m strictly up, mIoU strictly down, < 60 s."""
    real = build_street_scene(10)
    synth = build_street_scene(20)
    assert len(real) <= 200_000
    assert len(np.unique(real.labels)) >= 5

    t0 = time.time()
    reports = offset_sensitivity(
        real, synth, scalar_offsets_to_vectors([0.0, 0.1, 0.3]), MetricParams()
    )
    elapsed = time.time() - t0

    ms = [r.m_dogss_pcl for r in reports]
    mious = [r.miou for r in reports]
    assert ms[0] < ms[1] < ms[2]
    assert mious[0] > mious[1] > mious[2]
    assert elapsed < 60.0
    _report("2 offset monotonicity",
            f"m={ms[0]:.3f}<{ms[1]:.3f}<{ms[2]:.3f}, "
            f"mIoU={mious[0]:.3f}>{mious[1]:.3f}>{mious[2]:.3f} in {elapsed:.1f}s")


def test_criterion_3_m3c2_plane_oracle():
    """Two 10k-point parallel planes: median equals the offset within 1 mm."""
    rng = np.random.default_rng(30)

    def plane(z):
        xy = rng.uniform(0, 10, size=(10_000, 2))
        return LabeledPointCloud(np.column_stack([xy, np.full(10_000, z)]), np.full(10_000, 6))

    t0 = time.time()
    res_offset = m3c2_class_distance(plane(0.0), plane(0.05))
    res_zero = m3c2_class_distance(plane(0.0), plane(0.0))
    elapsed = time.time() - t0

    assert res_offset.median == pytest.approx(0.05, abs=0.001)
    assert res_zero.median == pytest.approx(0.0, abs=0.001)
    assert elapsed < 10.0
    _report("3 M3C2 plane oracle",
            f"median(0.05m)={res_offset.median:.5f}, median(0)={res_zero.median:.5f} "
            f"in {elapsed:.1f}s")


def test_criterion_4_brute_force_equivalence():
    """NN, raycast, voxelization, split identical to brute force on 500+
    randomized instances each (<= 2k elements)."""
    rng = np.random.default_rng(40)
    n_instances = 500

    # nearest neighbor
    for _ in range(n_instances):
        pts = rng.normal(size=(int(rng.integers(2, 2000)), 3))
        if rng.random() < 0.2:  # force exact duplicates to exercise ties
            dup = rng.integers(0, len(pts), size=max(2, len(pts) // 10))
            pts[dup] = pts[dup[0]]
        index = NnIndex(pts)
        for q in rng.normal(size=(3, 3)):
            d2 = np.einsum("ij,ij->i", pts - q, pts - q)
            bi = int(np.argmin(d2))
            assert index.nearest(q) == (bi, float(np.sqrt(d2[bi])))

    # raycast
    for _ in range(n_instances):
        n_tris = int(rng.integers(1, 120))
        verts = rng.uniform(-4, 4, size=(3 * n_tris, 3))
        from pcgap.io import ClassedMesh

        mesh = ClassedMesh(verts, np.arange(3 * n_tris).reshape(n_tris, 3),
                           rng.integers(1, 13, size=n_tris).astype(np.uint8))
        bvh = Bvh(mesh)
        v0 = verts[mesh.triangles[:, 0]]
        v1 = verts[mesh.triangles[:, 1]]
        v2 = verts[mesh.triangles[:, 2]]
        for _ in range(3):
            origin = rng.uniform(-6, 6, size=3)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            t = ray_triangles(origin, direction, v0, v1, v2)
            j = int(np.argmin(t))
            hit_t, hit_id, _ = bvh.raycast_many(origin, direction)
            if t[j] == np.inf:
                assert hit_id[0] == -1
            else:
                assert (hit_t[0], hit_id[0]) == (t[j], j)

    # voxelization: the occupied (voxel, class) pairs of a cloud, and the
    # per-class voxel IoU of a pair on the first cloud's grid
    def occupied(xyz, labels, edge, origin):
        keys = np.floor((xyz - origin) / edge).astype(np.int64)
        return set(zip(map(tuple, keys.tolist()), labels.tolist()))

    for _ in range(n_instances):
        cloud = random_cloud(rng, int(rng.integers(1, 2000)), span=6.0)
        edge = float(rng.uniform(0.2, 1.5))
        origin = rng.uniform(-2, 2, size=3)
        _, cells = voxelize(cloud, edge, origin)
        got = set(zip(map(tuple, cells.tolist()), cloud.labels.tolist()))
        assert got == occupied(cloud.xyz, cloud.labels, edge, origin)

        other = random_cloud(rng, int(rng.integers(1, 2000)), span=6.0)
        other = other.translate(rng.uniform(-3, 3, 3))
        grid = np.floor(cloud.xyz.min(axis=0) / edge) * edge
        pairs_r = occupied(cloud.xyz, cloud.labels, edge, grid)
        pairs_s = occupied(other.xyz, other.labels, edge, grid)
        per_class = voxel_miou(cloud, other, edge).per_class
        for cls, iou in per_class.items():
            vr = {v for v, c in pairs_r if c == cls}
            vs = {v for v, c in pairs_s if c == cls}
            assert iou == (len(vr & vs) / len(vr | vs) if vr | vs else None)

    # split
    for _ in range(n_instances):
        cloud = random_cloud(rng, int(rng.integers(1, 2000)), span=8.0)
        regions = []
        for k in range(int(rng.integers(1, 4))):
            x0, y0 = rng.uniform(-8, 6, size=2)
            regions.append(Region(f"r{k}", rect=(x0, y0, x0 + rng.uniform(0.5, 6), y0 + rng.uniform(0.5, 6))))
        spec = SplitSpec(tuple(regions))
        parts = split(cloud, spec)
        assigned = np.full(len(cloud), -1)
        for i in range(len(cloud)):
            x, y = cloud.xyz[i, :2]
            for ri, region in enumerate(regions):
                x0, y0, x1, y1 = region.rect
                if x0 <= x <= x1 and y0 <= y <= y1:
                    assigned[i] = ri
                    break
        for ri, region in enumerate(regions):
            assert parts[region.name] == cloud.select(assigned == ri)

    _report("4 brute-force equivalence", f"{n_instances} instances per operation")


def test_criterion_5_pearson_reproduction():
    """Published IoU trend rows reproduce the printed correlations."""
    ratios = [0.0, 0.25, 0.5, 0.75, 1.0]

    road = ratio_correlation(list(zip(ratios, [0.93, 0.94, 0.90, 0.92, 0.55])))
    assert road == pytest.approx(-0.74, abs=0.01)
    assert round(road, 1) == -0.7

    miou = ratio_correlation(list(zip(ratios, [0.45, 0.45, 0.46, 0.39, 0.29])))
    assert round(miou, 1) == -0.8

    pedestrian = ratio_correlation(list(zip(ratios, [0.0, 0.0, 0.0, 0.0, 0.0])))
    assert pedestrian is None

    _report("5 Pearson reproduction",
            f"road={road:.4f} (rounds to -0.7), miou={miou:.4f} (rounds to -0.8), "
            "pedestrian=undefined")


def test_criterion_6_noise_statistics(tmp_path):
    """sigma = 0.02 on 100k points: along-ray std in [0.0195, 0.0205],
    transverse < 1e-9; sigma = 0 is a byte-identical no-op on point data."""
    rng = np.random.default_rng(60)
    n = 100_000
    xy = rng.uniform(0, 50, size=(n, 2))
    points = np.column_stack([xy, np.zeros(n)])
    origins = points + rng.normal(size=(n, 3)) * [3, 3, 0] + [0, 0, 30.0]
    from pcgap.simulate import SimulatedScan

    scan = SimulatedScan(LabeledPointCloud(points, np.full(n, 2)), origins)

    noisy = apply_range_noise(scan, NoiseModel(0.02, seed=61))
    disp = noisy.cloud.xyz - scan.cloud.xyz
    rays = scan.cloud.xyz - scan.ray_origins
    units = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    along = np.einsum("ij,ij->i", disp, units)
    transverse = disp - along[:, None] * units

    std = float(np.std(along))
    assert 0.0195 <= std <= 0.0205
    assert float(np.abs(transverse).max()) < 1e-9

    # sigma = 0: byte-identical point data through the file layer
    a, b = tmp_path / "a.xyzl", tmp_path / "b.xyzl"
    write_cloud(scan.cloud, a, FORMAT_XYZL)
    write_cloud(apply_range_noise(scan, NoiseModel(0.0, seed=62)).cloud, b, FORMAT_XYZL)
    assert a.read_bytes() == b.read_bytes()

    _report("6 noise statistics",
            f"std={std:.5f}, max transverse={float(np.abs(transverse).max()):.2e}")


def test_criterion_7_end_to_end_desk_pipeline(tmp_path):
    """OBJ room -> simulate -> noise -> compare; thresholds from the ordering
    of the published aligned/translated results."""
    t0 = time.time()
    obj_path = tmp_path / "room.obj"
    obj_path.write_text(room_mesh_obj_text())
    mesh = read_mesh(obj_path)

    trajectory = Trajectory.from_samples([
        {"t": 0.0, "x": 2.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
        {"t": 1.2, "x": 8.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
    ])
    config = ScanConfig(channels=16, vertical_fov_deg=(-30.0, 30.0),
                        rotation_rate_hz=10.0, points_per_second=24_000,
                        max_range_m=50.0)
    scan = simulate_scan(mesh, trajectory, config)
    noisy = apply_range_noise(scan, NoiseModel(0.02, seed=8))

    params = MetricParams()
    aligned = dogss_pcl(scan.cloud, noisy.cloud, params)
    translated_cloud = scan.cloud.translate(scalar_offsets_to_vectors([1.0])[0])
    translated = dogss_pcl(scan.cloud, translated_cloud, params)
    elapsed = time.time() - t0

    assert aligned.m_dogss_pcl < 0.15
    assert translated.m_dogss_pcl > 0.5
    assert translated.m_dogss_pcl > aligned.m_dogss_pcl
    assert elapsed < 120.0
    _report("7 end-to-end desk pipeline",
            f"{len(scan.cloud)} pts, m(aligned)={aligned.m_dogss_pcl:.3f} < 0.15, "
            f"m(translated)={translated.m_dogss_pcl:.3f} > 0.5 in {elapsed:.1f}s")


def test_criterion_8_stochastic_substitute():
    """Absolute network IoU values are out of desk scale; the substitute is
    criterion 5 plus tally conservation on fabricated predictions."""
    rng = np.random.default_rng(80)
    for _ in range(20):
        n = int(rng.integers(1, 5000))
        truth = LabeledPointCloud(np.zeros((n, 3)), rng.integers(1, 13, size=n))
        pred = rng.integers(1, 13, size=n)
        report = evaluate_segmentation(truth, pred)
        tp = sum(e.tp for e in report.per_class.values())
        fp = sum(e.fp for e in report.per_class.values())
        fn = sum(e.fn for e in report.per_class.values())
        assert tp + fp == n
        assert tp + fn == n
    _report("8 stochastic substitute", "Sum(tp)+Sum(fp) = Sum(tp)+Sum(fn) = N on 20 fixtures")


def test_criterion_9_determinism(tmp_path):
    """Stochastic CLI commands rerun with the same seed produce byte-identical
    output files."""
    rng = np.random.default_rng(90)
    real_path = tmp_path / "real.xyzl"
    synth_path = tmp_path / "synth.xyzl"
    write_cloud(random_cloud(rng, 3000), real_path, FORMAT_XYZL)
    write_cloud(random_cloud(rng, 3000), synth_path, FORMAT_XYZL)

    obj_path = tmp_path / "room.obj"
    obj_path.write_text(room_mesh_obj_text())
    traj_path = tmp_path / "traj.json"
    traj_path.write_text(json.dumps([
        {"t": 0.0, "x": 2.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
        {"t": 0.3, "x": 8.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
    ]))
    scan_cfg = tmp_path / "scan.json"
    scan_cfg.write_text(json.dumps({
        "channels": 8, "vertical_fov_deg": [-25.0, 25.0], "rotation_rate_hz": 10.0,
        "points_per_second": 8000, "max_range_m": 50.0,
    }))

    def run_twice(cmd_builder, outputs):
        blobs = []
        for tag in ("a", "b"):
            assert main(cmd_builder(tag)) == 0
            blobs.append(b"".join((tmp_path / o.format(tag)).read_bytes() for o in outputs))
        assert blobs[0] == blobs[1]

    run_twice(
        lambda tag: ["mix", "--real", str(real_path), "--synthetic", str(synth_path),
                     "--fraction", "0.5", "--count", "2000", "--seed", "5",
                     "--out", str(tmp_path / f"mix-{tag}.xyzl")],
        ["mix-{}.xyzl", "mix-{}.xyzl.provenance.txt"],
    )
    run_twice(
        lambda tag: ["simulate", "--mesh", str(obj_path), "--trajectory", str(traj_path),
                     "--scan-config", str(scan_cfg), "--seed", "5", "--sigma", "0.02",
                     "--out", str(tmp_path / f"sim-{tag}.xyzl")],
        ["sim-{}.xyzl", "sim-{}.xyzl.origins"],
    )
    sim_cloud = tmp_path / "sim-a.xyzl"
    run_twice(
        lambda tag: ["noise", "--cloud", str(sim_cloud), "--origins",
                     str(tmp_path / "sim-a.xyzl.origins"), "--sigma", "0.03",
                     "--seed", "6", "--out", str(tmp_path / f"noise-{tag}.xyzl")],
        ["noise-{}.xyzl"],
    )
    _report("9 determinism", "mix, simulate, noise byte-identical across reruns")
