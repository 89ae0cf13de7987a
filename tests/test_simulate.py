import re

import numpy as np
import pytest

from pcgap.errors import ConfigError, DegenerateDataError
from pcgap.io import ClassedMesh
from pcgap.simulate import (
    NoiseModel,
    ScanConfig,
    SimulatedScan,
    Trajectory,
    apply_range_noise,
    simulate_scan,
)

from conftest import build_room_mesh


@pytest.fixture(scope="module")
def room():
    return build_room_mesh()


def straight_line(duration=0.5, x0=2.0, x1=8.0):
    return Trajectory.from_samples(
        [
            {"t": 0.0, "x": x0, "y": 4.0, "z": 1.5, "yaw": 0.0},
            {"t": duration, "x": x1, "y": 4.0, "z": 1.5, "yaw": 0.0},
        ]
    )


SMALL_SCAN = ScanConfig(
    channels=8,
    vertical_fov_deg=(-25.0, 25.0),
    rotation_rate_hz=10.0,
    points_per_second=8000,
    max_range_m=50.0,
)


class TestTrajectory:
    def test_requires_increasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory([0.0, 0.0], [[0, 0, 0], [1, 0, 0]], [0.0, 0.0])

    def test_linear_position_interpolation(self):
        traj = straight_line(1.0, 0.0, 10.0)
        pos, yaw = traj.pose(0.25)
        assert np.allclose(pos, [[2.5, 4.0, 1.5]])

    def test_shortest_arc_yaw(self):
        # 350 deg -> 10 deg should pass through 360, not unwind backwards
        traj = Trajectory(
            [0.0, 1.0],
            [[0, 0, 0], [0, 0, 0]],
            [np.radians(350.0), np.radians(10.0)],
        )
        _, yaw = traj.pose(0.5)
        assert np.degrees(yaw[0]) == pytest.approx(360.0)

    def test_bad_samples(self):
        with pytest.raises(ValueError, match="sample"):
            Trajectory.from_samples([{"t": 0.0, "x": 1.0}])


class TestConfigChecks:
    """Library callers meet the same refusals as ``simulate``'s JSON inputs."""

    @pytest.mark.parametrize("kwargs,key", [
        ({"channels": 16.0}, "channels"),
        ({"points_per_second": 0}, "points_per_second"),
        ({"sensor_offset": (0.0, 0.0)}, "sensor_offset"),
        ({"vertical_fov_deg": (-25.0, np.nan)}, r"vertical_fov_deg\[1\]"),
        ({"rotation_rate_hz": np.inf}, "rotation_rate_hz"),
        ({"max_range_m": -1.0}, "max_range_m"),
        ({"max_range_m": 10**400}, "max_range_m"),
        ({"sensor_offset": (0, 0, -10**400)}, r"sensor_offset\[2\]"),
    ])
    def test_scan_config(self, kwargs, key):
        with pytest.raises(ValueError, match=f"^{key}: "):
            ScanConfig(**kwargs)

    def test_scan_config_unknown_key(self):
        with pytest.raises(ValueError, match="^chanels: unknown config key$"):
            ScanConfig.from_json_dict({"chanels": 4})

    @pytest.mark.parametrize("kwargs,message", [
        ({"sigma": True}, "sigma: expected a number, got True"),
        ({"sigma": "0.02"}, "sigma: expected a number, got '0.02'"),
        ({"seed": True}, "seed: expected an integer, got True"),
        ({"seed": 1.5}, "seed: expected an integer, got 1.5"),
        ({"seed": -1}, "seed: must be >= 0, got -1"),
    ])
    def test_noise_model(self, kwargs, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            NoiseModel(**kwargs)

    def test_trajectory_integer_too_large_for_a_float(self):
        samples = [{"t": 0, "x": 0, "y": 0, "z": 0}, {"t": 1, "x": 0, "y": 0, "z": 10**400}]
        with pytest.raises(ValueError, match=r"^\[1\]\.z: number too large"):
            Trajectory.from_samples(samples)

    def test_trajectory_non_finite(self):
        with pytest.raises(ValueError, match=r"^\[1\]\.y: must be finite"):
            Trajectory([0.0, 1.0], [[0, 0, 0], [1, np.nan, 0]], [0.0, 0.0])


class TestSimulateScan:
    def test_points_lie_on_mesh(self, room):
        scan = simulate_scan(room, straight_line(), SMALL_SCAN)
        assert len(scan.cloud) > 1000
        # every point is on a wall/floor/ceiling/patch plane of the room
        xyz = scan.cloud.xyz
        dists = []
        for p in xyz:
            best = min(
                abs(p[0] - 0), abs(p[0] - 10), abs(p[1] - 0), abs(p[1] - 8),
                abs(p[2] - 0), abs(p[2] - 4), abs(p[1] - 0.01), abs(p[1] - 7.99),
                abs(p[1] - 5.0),
            )
            dists.append(best)
        assert max(dists) < 1e-9

    def test_classes_from_triangles(self, room):
        scan = simulate_scan(room, straight_line(), SMALL_SCAN)
        present = set(scan.cloud.labels.tolist())
        assert present <= {2, 3, 6, 7, 8, 9, 10}
        assert {2, 6, 7} <= present  # floor, walls, ceiling always visible

    def test_ray_budget(self, room):
        duration = 0.5
        scan = simulate_scan(room, straight_line(duration), SMALL_SCAN)
        assert len(scan.cloud) <= SMALL_SCAN.points_per_second * duration

    def test_max_range_filters(self, room):
        tiny = ScanConfig(
            channels=8, vertical_fov_deg=(-25.0, 25.0), rotation_rate_hz=10.0,
            points_per_second=8000, max_range_m=0.5,
        )
        # sensor at room center: nearest surface is farther than 0.5 m
        scan = simulate_scan(room, straight_line(0.2, 5.0, 5.0), tiny)
        assert len(scan.cloud) == 0

    def test_deterministic(self, room):
        a = simulate_scan(room, straight_line(), SMALL_SCAN)
        b = simulate_scan(room, straight_line(), SMALL_SCAN)
        assert a.cloud == b.cloud
        assert np.array_equal(a.ray_origins, b.ray_origins)

    def test_trajectory_too_short(self, room):
        with pytest.raises(DegenerateDataError, match="rotation period"):
            simulate_scan(room, straight_line(0.05), SMALL_SCAN)

    def test_empty_mesh(self):
        mesh = ClassedMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.uint8))
        with pytest.raises(DegenerateDataError, match="empty"):
            simulate_scan(mesh, straight_line(), SMALL_SCAN)

    def test_single_horizontal_channel(self, room):
        cfg = ScanConfig(
            channels=1, vertical_fov_deg=(0.0, 0.0), rotation_rate_hz=10.0,
            points_per_second=3600, max_range_m=50.0,
        )
        scan = simulate_scan(room, straight_line(0.2, 5.0, 5.0), cfg)
        # all rays horizontal from z = 1.5: only walls and wall patches are hit
        assert len(scan.cloud) > 0
        assert np.allclose(scan.cloud.xyz[:, 2], 1.5)
        assert set(scan.cloud.labels.tolist()) <= {3, 6, 8, 9}


@pytest.fixture(scope="module")
def scan(room):
    return simulate_scan(room, straight_line(), SMALL_SCAN)


class TestRangeNoise:

    def test_sigma_zero_is_identity(self, scan):
        out = apply_range_noise(scan, NoiseModel(0.0, 123))
        assert out.cloud == scan.cloud
        assert np.array_equal(out.ray_origins, scan.ray_origins)

    def test_labels_unchanged(self, scan):
        out = apply_range_noise(scan, NoiseModel(0.05, 123))
        assert np.array_equal(out.cloud.labels, scan.cloud.labels)

    def test_displacement_collinear_with_ray(self, scan):
        out = apply_range_noise(scan, NoiseModel(0.05, 123))
        disp = out.cloud.xyz - scan.cloud.xyz
        rays = scan.cloud.xyz - scan.ray_origins
        units = rays / np.linalg.norm(rays, axis=1, keepdims=True)
        along = np.einsum("ij,ij->i", disp, units)
        transverse = disp - along[:, None] * units
        assert np.abs(transverse).max() < 1e-9

    def test_seeded_determinism(self, scan):
        a = apply_range_noise(scan, NoiseModel(0.02, 9))
        b = apply_range_noise(scan, NoiseModel(0.02, 9))
        assert a.cloud == b.cloud

    def test_different_seed_differs(self, scan):
        a = apply_range_noise(scan, NoiseModel(0.02, 9))
        b = apply_range_noise(scan, NoiseModel(0.02, 10))
        assert a.cloud != b.cloud

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            NoiseModel(-0.1, 0)

    def test_mismatched_origins_rejected(self, scan):
        with pytest.raises(ValueError, match="origin"):
            SimulatedScan(scan.cloud, scan.ray_origins[:-1])
