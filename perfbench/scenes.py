"""Seeded inputs for the benchmark workloads, written in the formats pcgap reads.

Everything the program sees is generated here from the workload seed: the
street-scene pair, the tessellated ground and room meshes (OBJ), their
trajectories and scan configs, the split spec and the prediction labels.
The seed varies the scene sampling, the ground relief and the trajectory
poses; sizes are the same for every seed.
"""

from __future__ import annotations

import json
import math

import numpy as np

# (count at 1x, x0, x1, y0, y1, z0, z1, class id): a desk-scale street with
# ground, road, two walls, a roof slab, windows, a door, an installation,
# three poles and a vegetation blob.
STREET_BOXES = (
    (12000, 0, 20, 0, 20, 0.0, 0.02, 2),
    (8000, 0, 20, 8, 12, 0.0, 0.02, 1),
    (9000, 0, 20, 1.98, 2.0, 0, 6, 6),
    (9000, 0, 20, 17.98, 18.0, 0, 6, 6),
    (5000, 0, 20, 0, 2, 5.98, 6.0, 7),
    (900, 3, 4.2, 1.96, 1.98, 2, 3.2, 9),
    (900, 8, 9.2, 1.96, 1.98, 2, 3.2, 9),
    (900, 13, 14.2, 1.96, 1.98, 2, 3.2, 9),
    (900, 16, 17.2, 1.96, 1.98, 0, 2.2, 8),
    (1200, 5, 6, 1.7, 1.98, 3.6, 4.4, 10),
    (600, 3.95, 4.05, 5.95, 6.05, 0, 3.5, 3),
    (600, 9.95, 10.05, 13.95, 14.05, 0, 3.5, 3),
    (600, 15.95, 16.05, 5.95, 6.05, 0, 3.5, 3),
    (1500, 6, 7, 15, 16, 2, 3, 11),
)

CLASS_GROUPS = {1: "RoadSurface", 2: "GroundSurface", 3: "CityFurniture", 6: "WallSurface",
                7: "RoofSurface", 8: "Door", 9: "Window", 10: "BuildingInstallation"}


def street_scene(seed: int, scale: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Uniform samples of each box, drawn box by box from one generator."""
    rng = np.random.default_rng(seed)
    xyz, labels = [], []
    for base, x0, x1, y0, y1, z0, z1, cls in STREET_BOXES:
        n = max(int(base * scale), 10)
        xyz.append(np.column_stack(
            [rng.uniform(x0, x1, n), rng.uniform(y0, y1, n), rng.uniform(z0, z1, n)]
        ))
        labels.append(np.full(n, cls, dtype=np.uint8))
    return np.concatenate(xyz), np.concatenate(labels)


def write_ply(path, xyz: np.ndarray, labels: np.ndarray) -> None:
    """Binary little-endian PLY: double x, y, z and a uchar class_id."""
    rec = np.dtype([("x", "<f8"), ("y", "<f8"), ("z", "<f8"), ("c", "u1")])
    table = np.empty(len(xyz), dtype=rec)
    table["x"], table["y"], table["z"] = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    table["c"] = labels
    header = ("ply\nformat binary_little_endian 1.0\n"
              f"element vertex {len(xyz)}\n"
              "property double x\nproperty double y\nproperty double z\n"
              "property uchar class_id\nend_header\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(table.tobytes())


def write_xyzl(path, xyz: np.ndarray, labels: np.ndarray) -> None:
    rows = np.column_stack([xyz, labels.astype(np.float64)])
    np.savetxt(path, rows, fmt="%.17g %.17g %.17g %d")


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


def _write_obj(path, vertices: np.ndarray, faces: list[tuple[int, list]]) -> None:
    """OBJ with one group per (class id, face index list) entry, 1-based."""
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in vertices.tolist()]
    for k, (cls, face_list) in enumerate(faces):
        lines.append(f"g {CLASS_GROUPS[cls]}_{k:02d}")
        lines.extend("f " + " ".join(str(i + 1) for i in f) for f in face_list)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


GROUND_CELLS = 120
GROUND_CELL_M = 0.5


def ground_mesh(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Height-field of GROUND_CELLS^2 cells, two triangles each, with seeded
    sinusoidal relief; a road strip runs along x through the middle.

    Returns (vertices, triangles, classes) in the order the OBJ lists them.
    """
    rng = np.random.default_rng(seed + 1000)
    n = GROUND_CELLS + 1
    g = np.arange(n) * GROUND_CELL_M
    gx, gy = np.meshgrid(g, g, indexing="ij")
    z = np.zeros_like(gx)
    for _ in range(4):
        kx, ky = rng.uniform(0.05, 0.4, 2)
        phase = rng.uniform(0, 2 * math.pi)
        z += rng.uniform(0.05, 0.2) * np.sin(kx * gx + ky * gy + phase)
    vertices = np.column_stack([gx.ravel(), gy.ravel(), z.ravel()])

    i, j = np.meshgrid(np.arange(GROUND_CELLS), np.arange(GROUND_CELLS), indexing="ij")
    i, j = i.ravel(), j.ravel()
    a, b, c, d = i * n + j, (i + 1) * n + j, (i + 1) * n + j + 1, i * n + j + 1
    road = np.abs(j + 0.5 - GROUND_CELLS / 2) < GROUND_CELLS / 10
    tris, classes = [], []
    for cls, cells in ((1, road), (2, ~road)):
        t = np.column_stack([a[cells], b[cells], c[cells], a[cells], c[cells], d[cells]])
        tris.append(t.reshape(-1, 3))
        classes.append(np.full(2 * int(cells.sum()), cls, dtype=np.uint8))
    return vertices, np.concatenate(tris), np.concatenate(classes)


def write_ground_obj(path, seed: int) -> None:
    vertices, tris, classes = ground_mesh(seed)
    faces = [(cls, tris[classes == cls].tolist()) for cls in (1, 2)]
    _write_obj(path, vertices, faces)


ROOM = (10.0, 8.0, 4.0)


def room_quads() -> list[tuple[int, list]]:
    """Closed 10 x 8 x 4 m room, 12 quads (24 triangles) with every weighted
    class; facade patches sit 1 cm inside so rays strike them first."""
    X, Y, Z = ROOM
    e = 0.01
    return [
        (2, [(0, 0, 0), (X, 0, 0), (X, Y, 0), (0, Y, 0)]),
        (7, [(0, 0, Z), (0, Y, Z), (X, Y, Z), (X, 0, Z)]),
        (6, [(0, 0, 0), (0, 0, Z), (X, 0, Z), (X, 0, 0)]),
        (6, [(0, Y, 0), (X, Y, 0), (X, Y, Z), (0, Y, Z)]),
        (6, [(0, 0, 0), (0, Y, 0), (0, Y, Z), (0, 0, Z)]),
        (6, [(X, 0, 0), (X, 0, Z), (X, Y, Z), (X, Y, 0)]),
        (8, [(2, e, 0), (3, e, 0), (3, e, 2.2), (2, e, 2.2)]),
        (9, [(5, e, 1.2), (6.4, e, 1.2), (6.4, e, 2.6), (5, e, 2.6)]),
        (9, [(7.5, Y - e, 1.2), (8.9, Y - e, 1.2), (8.9, Y - e, 2.6), (7.5, Y - e, 2.6)]),
        (10, [(8, e, 2.8), (9, e, 2.8), (9, e, 3.4), (8, e, 3.4)]),
        (3, [(4, 5, 0), (4.6, 5, 0), (4.6, 5, 1.6), (4, 5, 1.6)]),
        (3, [(4.6, 5, 0), (4, 5, 0), (4, 5, 1.6), (4.6, 5, 1.6)]),
    ]


def room_triangles() -> tuple[np.ndarray, np.ndarray]:
    """(T, 3, 3) triangle corners and (T,) classes, fan-triangulated."""
    corners, classes = [], []
    for cls, q in room_quads():
        corners += [(q[0], q[1], q[2]), (q[0], q[2], q[3])]
        classes += [cls, cls]
    return np.array(corners, dtype=np.float64), np.array(classes, dtype=np.uint8)


def write_room_obj(path) -> None:
    quads = room_quads()
    vertices = np.array([v for _, q in quads for v in q], dtype=np.float64)
    faces = [(cls, [[4 * k, 4 * k + 1, 4 * k + 2, 4 * k + 3]]) for k, (cls, _) in enumerate(quads)]
    _write_obj(path, vertices, faces)


def ground_triangles(seed: int) -> tuple[np.ndarray, np.ndarray]:
    vertices, tris, classes = ground_mesh(seed)
    return vertices[tris], classes


# ---------------------------------------------------------------------------
# trajectories and scan configs
# ---------------------------------------------------------------------------

# 16 channels at 10 Hz; the rates give about 3k rays over the ground and
# 72k rays in the room.
GROUND_SCAN = {"channels": 16, "vertical_fov_deg": [-25.0, 15.0], "rotation_rate_hz": 10.0,
               "points_per_second": 5_000, "max_range_m": 80.0}
ROOM_SCAN = {"channels": 16, "vertical_fov_deg": [-30.0, 30.0], "rotation_rate_hz": 10.0,
             "points_per_second": 60_000, "max_range_m": 50.0}


def ground_trajectory(seed: int) -> list[dict]:
    """A 0.6 s drive straight along the road, in a seeded lane on a grid line,
    from a seeded start: rays fired along the road meet cell boundaries
    edge-on, as a car's scanner on a gridded map does."""
    rng = np.random.default_rng(seed + 2000)
    x0 = 15.0 + rng.uniform(-3, 3)
    y = GROUND_CELLS * GROUND_CELL_M / 2 + GROUND_CELL_M * int(rng.integers(-2, 3))
    return [{"t": 0.0, "x": x0, "y": y, "z": 1.8, "yaw": 0.0},
            {"t": 0.6, "x": x0 + 8.0, "y": y, "z": 1.8, "yaw": 0.0}]


def room_trajectory(seed: int) -> list[dict]:
    """A 1.2 s walk across the room, ends and headings jittered."""
    rng = np.random.default_rng(seed + 3000)
    ys = 4.0 + rng.uniform(-1.0, 1.0, 2)
    zs = 1.5 + rng.uniform(-0.2, 0.2, 2)
    yaws = rng.uniform(-0.3, 0.3, 2)
    return [{"t": 0.0, "x": 2.0, "y": float(ys[0]), "z": float(zs[0]), "yaw": float(yaws[0])},
            {"t": 1.2, "x": 8.0, "y": float(ys[1]), "z": float(zs[1]), "yaw": float(yaws[1])}]


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


# ---------------------------------------------------------------------------
# dataset inputs
# ---------------------------------------------------------------------------

# Two overlapping rectangles and a polygon that overlaps the second: the
# split's first-match rule decides the shared points.
SPLIT_SPEC = {"regions": [
    {"name": "west", "rect": [0.0, 0.0, 8.0, 20.0]},
    {"name": "middle", "rect": [6.0, 0.0, 14.0, 12.0]},
    {"name": "northeast", "polygon": [[12.0, 10.0], [20.0, 10.0], [20.0, 20.0], [15.0, 20.0]]},
]}


def predictions(seed: int, truth: np.ndarray, error_share: float = 0.2) -> np.ndarray:
    """Truth labels with a seeded share replaced by uniform draws from 1..12."""
    rng = np.random.default_rng(seed + 4000)
    pred = truth.astype(np.int64).copy()
    wrong = rng.random(len(pred)) < error_share
    pred[wrong] = rng.integers(1, 13, int(wrong.sum()))
    return pred
