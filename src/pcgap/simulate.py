"""Labeled LiDAR scan simulation over a class-tagged mesh.

A rotating multi-beam sensor is driven along a timed trajectory; rays are
cast against the mesh and every hit inherits the class of the triangle it
struck. Range noise is a separate, seeded post-processing step that moves
points only along their own ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import LabeledPointCloud
from .errors import ConfigError, DegenerateDataError, config_number, config_object
from .spatial import Bvh

_TWO_PI = 2.0 * math.pi
_SAMPLE_KEYS = ("t", "x", "y", "z", "yaw")


@dataclass(frozen=True)
class ScanConfig:
    """Generic rotating-lidar parameterization (no vendor profile)."""

    channels: int = 64
    vertical_fov_deg: tuple[float, float] = (-25.0, 15.0)
    rotation_rate_hz: float = 10.0
    points_per_second: int = 600_000
    max_range_m: float = 120.0
    sensor_offset: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        for key, size in (("vertical_fov_deg", 2), ("sensor_offset", 3)):
            value = getattr(self, key)
            items = tuple(value) if isinstance(value, (list, tuple, np.ndarray)) else ()
            if len(items) != size:
                raise ConfigError(f"{key}: expected {size} numbers, got {value!r}")
            object.__setattr__(self, key, items)
        for key in ("channels", "points_per_second"):
            if config_number(getattr(self, key), key, integer=True) < 1:
                raise ConfigError(f"{key}: must be >= 1, got {getattr(self, key)!r}")
        values = {
            "rotation_rate_hz": self.rotation_rate_hz,
            "max_range_m": self.max_range_m,
            **{f"vertical_fov_deg[{i}]": v for i, v in enumerate(self.vertical_fov_deg)},
            **{f"sensor_offset[{i}]": v for i, v in enumerate(self.sensor_offset)},
        }
        for key, value in values.items():
            if not math.isfinite(config_number(value, key)):
                raise ConfigError(f"{key}: must be finite, got {value!r}")
        for key in ("rotation_rate_hz", "max_range_m"):
            if values[key] <= 0:
                raise ConfigError(f"{key}: must be > 0, got {values[key]!r}")
        lo, hi = self.vertical_fov_deg
        if self.channels > 1 and not lo < hi:
            raise ConfigError("vertical_fov_deg: min must be below max")

    @classmethod
    def from_json_dict(cls, raw) -> "ScanConfig":
        """A config from a JSON object of this class's fields; an unknown
        key, or a value of the wrong type, length or range, is a
        ConfigError naming it."""
        unknown = set(config_object(raw, "scan config root")) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown scan config keys: {sorted(unknown)}")
        return cls(**raw)

    def to_json_dict(self) -> dict:
        return {
            "channels": self.channels,
            "vertical_fov_deg": list(self.vertical_fov_deg),
            "rotation_rate_hz": self.rotation_rate_hz,
            "points_per_second": self.points_per_second,
            "max_range_m": self.max_range_m,
            "sensor_offset": list(self.sensor_offset),
        }


def _wrap_pi(angle: np.ndarray) -> np.ndarray:
    return (angle + math.pi) % _TWO_PI - math.pi


class Trajectory:
    """Timed 2D poses (position + yaw); roll and pitch are fixed to zero.

    Pose at arbitrary time comes from linear interpolation of position and
    shortest-arc interpolation of yaw.
    """

    def __init__(self, times: Sequence[float], positions, yaws: Sequence[float]):
        t = np.asarray(times, dtype=np.float64)
        p = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        y = np.asarray(yaws, dtype=np.float64)
        if t.ndim != 1 or len(t) == 0:
            raise ValueError("trajectory needs at least one sample")
        if len(t) != len(p) or len(t) != len(y):
            raise ValueError("times, positions, and yaws must have equal length")
        table = np.column_stack([t, p, y])
        bad = np.argwhere(~np.isfinite(table))
        if bad.size:
            i, k = bad[0]
            raise ConfigError(f"[{i}].{_SAMPLE_KEYS[k]}: must be finite, got {float(table[i, k])!r}")
        if len(t) > 1 and not (np.diff(t) > 0).all():
            raise ValueError("trajectory times must be strictly increasing")
        self.times = t
        self.positions = p
        # continuous yaw: each step wrapped to the shortest arc
        if len(y) > 1:
            steps = _wrap_pi(np.diff(y))
            y = np.concatenate(([y[0]], y[0] + np.cumsum(steps)))
        self.yaws = y

    @classmethod
    def from_samples(cls, samples: Sequence[Mapping]) -> "Trajectory":
        """A trajectory from ``{t, x, y, z, yaw}`` objects (yaw 0 when
        absent); a sample that is not an object, or a value that is missing
        or not a number, is a ConfigError naming it as ``[i].key``."""
        if not isinstance(samples, (list, tuple)) or not samples:
            raise ConfigError("trajectory needs a non-empty array of samples")
        rows = []
        for i, sample in enumerate(samples):
            sample = {"yaw": 0.0, **config_object(sample, f"[{i}]")}
            for key in _SAMPLE_KEYS:
                if key not in sample:
                    raise ConfigError(f"[{i}].{key}: missing from the trajectory sample")
            rows.append([config_number(sample[key], f"[{i}].{key}") for key in _SAMPLE_KEYS])
        t, x, y, z, yaw = np.array(rows, dtype=np.float64).T
        return cls(t, np.column_stack([x, y, z]), yaw)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def pose(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(positions, yaws) at times t, clamped to the sampled span."""
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        pos = np.column_stack(
            [np.interp(t, self.times, self.positions[:, k]) for k in range(3)]
        )
        yaw = np.interp(t, self.times, self.yaws)
        return pos, yaw


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian range noise: per-point displacement along the ray."""

    sigma: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and >= 0")


@dataclass(frozen=True)
class SimulatedScan:
    """A labeled cloud plus the per-point ray origins needed for range noise."""

    cloud: LabeledPointCloud
    ray_origins: np.ndarray

    def __post_init__(self):
        origins = np.ascontiguousarray(self.ray_origins, dtype=np.float64)
        if origins.shape != (len(self.cloud), 3):
            raise ValueError("one ray origin per point required")
        origins.setflags(write=False)
        object.__setattr__(self, "ray_origins", origins)


def _channel_elevations(config: ScanConfig) -> np.ndarray:
    lo, hi = (math.radians(v) for v in config.vertical_fov_deg)
    if config.channels == 1:
        return np.array([(lo + hi) / 2.0])
    return np.linspace(lo, hi, config.channels)


def simulate_scan(
    mesh,
    trajectory: Trajectory,
    config: ScanConfig = ScanConfig(),
) -> SimulatedScan:
    """Cast the rotating scan pattern along the trajectory.

    Rays fire at uniform azimuth steps; all channels fire together at each
    step. Hits farther than max_range are discarded. The scan is
    deterministic: only range noise draws random numbers.
    """
    if len(mesh.triangles) == 0:
        raise DegenerateDataError("cannot scan an empty mesh")
    period = 1.0 / config.rotation_rate_hz
    if trajectory.duration < period:
        raise DegenerateDataError(
            f"trajectory spans {trajectory.duration:.3f}s, "
            f"shorter than one rotation period ({period:.3f}s)"
        )
    steps_per_rotation = int(config.points_per_second / (config.rotation_rate_hz * config.channels))
    if steps_per_rotation < 1:
        raise ValueError("points_per_second too low for the channel count and rotation rate")

    # firing times cover [t0, t_end); the end point is excluded so the ray
    # budget never exceeds points_per_second * duration
    step_dt = period / steps_per_rotation
    n_steps = int(math.floor(trajectory.duration / step_dt))
    t_fire = trajectory.times[0] + step_dt * np.arange(n_steps)

    positions, yaws = trajectory.pose(t_fire)
    spin = (_TWO_PI * (np.arange(n_steps) % steps_per_rotation)) / steps_per_rotation
    azimuth = spin + yaws

    offset = np.asarray(config.sensor_offset, dtype=np.float64)
    cos_y, sin_y = np.cos(yaws), np.sin(yaws)
    sensor = positions.copy()
    sensor[:, 0] += cos_y * offset[0] - sin_y * offset[1]
    sensor[:, 1] += sin_y * offset[0] + cos_y * offset[1]
    sensor[:, 2] += offset[2]

    elevations = _channel_elevations(config)
    cos_e, sin_e = np.cos(elevations), np.sin(elevations)

    # (steps, channels, 3) ray grid flattened in firing order
    cos_a, sin_a = np.cos(azimuth), np.sin(azimuth)
    dirs = np.empty((n_steps, config.channels, 3))
    dirs[:, :, 0] = cos_a[:, None] * cos_e[None, :]
    dirs[:, :, 1] = sin_a[:, None] * cos_e[None, :]
    dirs[:, :, 2] = sin_e[None, :]
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    origins = np.repeat(sensor[:, None, :], config.channels, axis=1)

    flat_o = origins.reshape(-1, 3)
    flat_d = dirs.reshape(-1, 3)
    bvh = Bvh(mesh)
    t_hit, _, cls_hit = bvh.raycast_many(flat_o, flat_d)
    hit = t_hit <= config.max_range_m

    points = flat_o[hit] + t_hit[hit, None] * flat_d[hit]
    labels = cls_hit[hit]
    cloud = LabeledPointCloud(points, labels)
    return SimulatedScan(cloud, flat_o[hit])


def apply_range_noise(scan: SimulatedScan, noise: NoiseModel) -> SimulatedScan:
    """Move each point along its own ray by an independent N(0, sigma) draw.

    Labels and ray origins are unchanged; sigma = 0 returns the input data
    untouched. Identical seed and input produce identical output.
    """
    if noise.sigma == 0 or len(scan.cloud) == 0:
        return scan
    rays = scan.cloud.xyz - scan.ray_origins
    norms = np.linalg.norm(rays, axis=1, keepdims=True)
    if (norms == 0).any():
        raise ValueError("zero-length ray encountered; origins do not match points")
    units = rays / norms
    rng = np.random.default_rng(noise.seed)
    displacement = rng.normal(0.0, noise.sigma, size=len(scan.cloud))
    moved = scan.cloud.xyz + displacement[:, None] * units
    cloud = LabeledPointCloud(moved, scan.cloud.labels)
    return SimulatedScan(cloud, scan.ray_origins)
