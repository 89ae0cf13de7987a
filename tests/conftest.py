"""Shared fixtures: deterministic scene builders used across the suite."""

import numpy as np
import pytest

from pcgap.core import LabeledPointCloud
from pcgap.io import ClassedMesh


def sample_box(rng, n, x0, x1, y0, y1, z0, z1, cls):
    pts = np.column_stack(
        [rng.uniform(x0, x1, n), rng.uniform(y0, y1, n), rng.uniform(z0, z1, n)]
    )
    return pts, np.full(n, cls)


def build_street_scene(seed: int, scale: float = 1.0) -> LabeledPointCloud:
    """Desk-scale street scene: ground, road, two walls, roof slab, window and
    door patches, installations, furniture poles, and a vegetation blob."""
    rng = np.random.default_rng(seed)
    n = lambda base: max(int(base * scale), 10)
    parts = [
        sample_box(rng, n(12000), 0, 20, 0, 20, 0.0, 0.02, 2),
        sample_box(rng, n(8000), 0, 20, 8, 12, 0.0, 0.02, 1),
        sample_box(rng, n(9000), 0, 20, 1.98, 2.0, 0, 6, 6),
        sample_box(rng, n(9000), 0, 20, 17.98, 18.0, 0, 6, 6),
        sample_box(rng, n(5000), 0, 20, 0, 2, 5.98, 6.0, 7),
        sample_box(rng, n(900), 3, 4.2, 1.96, 1.98, 2, 3.2, 9),
        sample_box(rng, n(900), 8, 9.2, 1.96, 1.98, 2, 3.2, 9),
        sample_box(rng, n(900), 13, 14.2, 1.96, 1.98, 2, 3.2, 9),
        sample_box(rng, n(900), 16, 17.2, 1.96, 1.98, 0, 2.2, 8),
        sample_box(rng, n(1200), 5, 6, 1.7, 1.98, 3.6, 4.4, 10),
        sample_box(rng, n(600), 3.95, 4.05, 5.95, 6.05, 0, 3.5, 3),
        sample_box(rng, n(600), 9.95, 10.05, 13.95, 14.05, 0, 3.5, 3),
        sample_box(rng, n(600), 15.95, 16.05, 5.95, 6.05, 0, 3.5, 3),
        sample_box(rng, n(1500), 6, 7, 15, 16, 2, 3, 11),
    ]
    xyz = np.concatenate([p for p, _ in parts])
    labels = np.concatenate([l for _, l in parts])
    return LabeledPointCloud(xyz, labels)


def _quad(V, T, C, cls, a, b, c, d):
    i = len(V)
    V.extend([a, b, c, d])
    T.extend([(i, i + 1, i + 2), (i, i + 2, i + 3)])
    C.extend([cls, cls])


def build_room_mesh() -> ClassedMesh:
    """Closed 10 x 8 x 4 m room with all seven weighted classes represented.

    Facade patches sit 1 cm inside the room so rays strike them before the
    wall behind.
    """
    V, T, C = [], [], []
    X, Y, Z = 10.0, 8.0, 4.0
    _quad(V, T, C, 2, (0, 0, 0), (X, 0, 0), (X, Y, 0), (0, Y, 0))
    _quad(V, T, C, 7, (0, 0, Z), (0, Y, Z), (X, Y, Z), (X, 0, Z))
    _quad(V, T, C, 6, (0, 0, 0), (0, 0, Z), (X, 0, Z), (X, 0, 0))
    _quad(V, T, C, 6, (0, Y, 0), (X, Y, 0), (X, Y, Z), (0, Y, Z))
    _quad(V, T, C, 6, (0, 0, 0), (0, Y, 0), (0, Y, Z), (0, 0, Z))
    _quad(V, T, C, 6, (X, 0, 0), (X, 0, Z), (X, Y, Z), (X, Y, 0))
    e = 0.01
    _quad(V, T, C, 8, (2, e, 0), (3, e, 0), (3, e, 2.2), (2, e, 2.2))
    _quad(V, T, C, 9, (5, e, 1.2), (6.4, e, 1.2), (6.4, e, 2.6), (5, e, 2.6))
    _quad(V, T, C, 9, (7.5, Y - e, 1.2), (8.9, Y - e, 1.2), (8.9, Y - e, 2.6), (7.5, Y - e, 2.6))
    _quad(V, T, C, 10, (8, e, 2.8), (9, e, 2.8), (9, e, 3.4), (8, e, 3.4))
    _quad(V, T, C, 3, (4, 5, 0), (4.6, 5, 0), (4.6, 5, 1.6), (4, 5, 1.6))
    _quad(V, T, C, 3, (4.6, 5, 0), (4, 5, 0), (4, 5, 1.6), (4.6, 5, 1.6))
    return ClassedMesh(np.array(V, dtype=np.float64), np.array(T), np.array(C, dtype=np.uint8))


def height_field_mesh(rng, cells: int, cell_m: float = 0.5, step_m: float = 0.25) -> ClassedMesh:
    """Tessellated ground over a ``cells`` x ``cells`` grid: two triangles per
    cell sharing its diagonal, consecutive ids, a road band (class 1) across
    the middle and ground (class 2) elsewhere. Heights follow a smooth
    random relief rounded to ``step_m``, so many neighbouring cells are
    coplanar and grid-aligned rays meet exact ties on their shared edges."""
    n = cells + 1
    x, y = np.meshgrid(np.arange(n) * cell_m, np.arange(n) * cell_m, indexing="ij")
    fx, fy = rng.uniform(0.1, 0.6, size=2)
    px, py = rng.uniform(0, 2 * np.pi, size=2)
    z = np.round((np.sin(fx * x + px) + np.cos(fy * y + py)) / step_m) * step_m
    verts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    i, j = np.meshgrid(np.arange(cells), np.arange(cells), indexing="ij")
    a = (i * n + j).ravel()
    tris = np.stack([np.column_stack([a, a + n, a + n + 1]),
                     np.column_stack([a, a + n + 1, a + 1])], axis=1).reshape(-1, 3)
    road = np.abs(j.ravel() - cells // 2) < max(1, cells // 8)
    classes = np.repeat(np.where(road, 1, 2), 2).astype(np.uint8)
    return ClassedMesh(verts, tris, classes)


def sensor_rays(rng, mesh, n_steps: int, channels: int = 16):
    """Rays of a 16-channel spinning sensor (-25 to 15 deg) fired once from
    each of ``n_steps`` random spots 1.8 m above the relief."""
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    pos = rng.uniform(lo, hi, size=(n_steps, 3))
    pos[:, 2] = hi[2] + 1.8
    azimuth = rng.uniform(0, 2 * np.pi, size=(n_steps, 1))
    elevation = np.radians(np.linspace(-25, 15, channels))[None, :]
    dirs = np.stack([np.cos(azimuth) * np.cos(elevation), np.sin(azimuth) * np.cos(elevation),
                     np.broadcast_to(np.sin(elevation), (n_steps, channels))], axis=-1)
    return np.repeat(pos, channels, axis=0), dirs.reshape(-1, 3)


_CLASS_GROUPS = {2: "GroundSurface", 3: "CityFurniture", 6: "WallSurface", 7: "RoofSurface",
                 8: "Door", 9: "Window", 10: "BuildingInstallation"}


def room_mesh_obj_text() -> str:
    """The room mesh as OBJ text (one group per class, quads left for the
    reader to fan-triangulate)."""
    mesh = build_room_mesh()
    lines = ["# classed room"]
    for x, y, z in mesh.vertices:
        lines.append(f"v {float(x)!r} {float(y)!r} {float(z)!r}")
    by_class: dict[int, list[int]] = {}
    # triangles were emitted quad by quad: rebuild the quads (i, i+1, i+2, i+3)
    for t in range(0, len(mesh.triangles), 2):
        cls = int(mesh.triangle_classes[t])
        by_class.setdefault(cls, []).append(int(mesh.triangles[t][0]))
    counter = {}
    for cls, quad_starts in sorted(by_class.items()):
        for start in quad_starts:
            counter[cls] = counter.get(cls, 0) + 1
            lines.append(f"g {_CLASS_GROUPS[cls]}_{counter[cls]:02d}")
            lines.append(f"f {start + 1} {start + 2} {start + 3} {start + 4}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def street_scene_pair():
    """Independent samplings of the same scene geometry, ~51k points each."""
    return build_street_scene(10), build_street_scene(20)


@pytest.fixture(scope="session")
def room_mesh():
    return build_room_mesh()


def random_cloud(rng, n, span=10.0, classes=(1, 2, 3, 6, 12)) -> LabeledPointCloud:
    xyz = rng.uniform(-span, span, size=(n, 3))
    labels = rng.choice(classes, size=n)
    return LabeledPointCloud(xyz, labels)
