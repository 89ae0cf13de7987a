import warnings

import numpy as np
import pytest

from pcgap.core import LabeledPointCloud
from pcgap.io import ClassedMesh
from pcgap.spatial import (
    Bvh,
    NnIndex,
    estimate_normals,
    grid_origin,
    ray_triangles,
    voxel_key_of,
    voxelize,
)

from conftest import random_cloud


def estimate_normal(index, at, scale):
    """The normal at one query position, or None when it is degenerate."""
    normals, valid = estimate_normals(index, np.reshape(at, (1, 3)), scale)
    return normals[0] if valid[0] else None


def brute_nearest(points, q):
    d2 = np.einsum("ij,ij->i", points - q, points - q)
    i = int(np.argmin(d2))
    return i, float(np.sqrt(d2[i]))


class TestNnIndex:
    def test_three_four_five(self):
        idx = NnIndex(np.zeros((1, 3)))
        i, d = idx.nearest((3.0, 4.0, 0.0))
        assert (i, d) == (0, 5.0)

    def test_duplicate_points_lowest_index(self):
        pts = np.array([[5.0, 5, 5], [1.0, 1, 1], [1.0, 1, 1], [1.0, 1, 1]])
        i, d = NnIndex(pts).nearest((1.0, 1.0, 1.0))
        assert (i, d) == (1, 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(1000, 3))
        idx = NnIndex(pts)
        for q in rng.normal(size=(100, 3)):
            assert idx.nearest(q) == brute_nearest(pts, q)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            NnIndex(LabeledPointCloud.empty().xyz)

    def test_within_cylinder(self):
        # points along z; cylinder along z catches only |z| <= 1, radius 0.5
        pts = np.array(
            [[0, 0, -2.0], [0, 0, -1.0], [0, 0, 0.0], [0.4, 0, 0.5], [0.6, 0, 0.5], [0, 0, 2.0]]
        )
        idx = NnIndex(pts)
        got = idx.within_cylinder((0, 0, 0), (0, 0, 1), radius=0.5, half_depth=1.0)
        assert got.tolist() == [1, 2, 3]

    def test_within_cylinder_axis_any_direction(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(500, 3))
        axis = np.array([1.0, 2.0, -0.5])
        axis /= np.linalg.norm(axis)
        center = np.array([0.2, -0.1, 0.3])
        got = NnIndex(pts).within_cylinder(center, axis, 0.7, 1.2)
        rel = pts - center
        ax = rel @ axis
        rad2 = np.einsum("ij,ij->i", rel, rel) - ax**2
        expect = np.flatnonzero((np.abs(ax) <= 1.2) & (rad2 <= 0.49))
        assert got.tolist() == expect.tolist()


class TestNormals:
    def test_flat_plane(self):
        rng = np.random.default_rng(13)
        xy = rng.uniform(0, 2, size=(500, 2))
        plane = np.column_stack([xy, np.zeros(500)])
        n = estimate_normal(NnIndex(plane), (1.0, 1.0, 0.0), 0.5)
        assert np.allclose(n, [0, 0, 1])

    def test_plane_recovery_within_1e9(self):
        # random oriented noiseless planes
        rng = np.random.default_rng(14)
        for _ in range(10):
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            u = np.cross(normal, [1, 0, 0])
            if np.linalg.norm(u) < 1e-6:
                u = np.cross(normal, [0, 1, 0])
            u /= np.linalg.norm(u)
            v = np.cross(normal, u)
            coeffs = rng.uniform(-1, 1, size=(400, 2))
            pts = coeffs[:, :1] * u + coeffs[:, 1:] * v
            got = estimate_normal(NnIndex(pts), (0.0, 0.0, 0.0), 0.8)
            # |sin(angle)| via the cross product resolves angles far below
            # what arccos of a dot product can
            assert np.linalg.norm(np.cross(got, normal)) < 1e-9

    def test_tilted_plane_sign_rule(self):
        # plane x = z has normal (1, 0, -1)/sqrt(2); sign rule flips z >= 0
        t = np.linspace(0, 1, 30)
        g = np.stack(np.meshgrid(t, t), -1).reshape(-1, 2)
        pts = np.column_stack([g[:, 0], g[:, 1], g[:, 0]])
        n = estimate_normal(NnIndex(pts), pts[450], 0.4)
        assert np.allclose(n, [-np.sqrt(0.5), 0.0, np.sqrt(0.5)], atol=1e-9)

    def test_vertical_plane_tie_break(self):
        # plane x = 0: normal (+-1, 0, 0); z == 0 and y == 0 force x >= 0
        rng = np.random.default_rng(15)
        yz = rng.uniform(0, 2, size=(400, 2))
        pts = np.column_stack([np.zeros(400), yz])
        n = estimate_normal(NnIndex(pts), (0.0, 1.0, 1.0), 0.6)
        assert np.allclose(n, [1, 0, 0])

    def test_two_points_no_normal(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        assert estimate_normal(NnIndex(pts), (0.5, 0, 0), 2.0) is None

    def test_collinear_no_normal(self):
        t = np.linspace(0, 1, 50)
        pts = np.column_stack([t, t, t])
        assert estimate_normal(NnIndex(pts), (0.5, 0.5, 0.5), 0.5) is None

    def test_far_query_no_neighbors(self):
        pts = np.zeros((5, 3))
        assert estimate_normal(NnIndex(pts), (100.0, 0, 0), 0.5) is None


class TestVoxelize:
    def test_floor_rule(self):
        cloud = LabeledPointCloud(np.array([[0.49, 0, 0], [0.5, 0, 0]]), np.array([1, 1]))
        grid = voxelize(cloud, 0.5, (0, 0, 0))
        assert set(grid.cells) == {(0, 0, 0), (1, 0, 0)}

    def test_negative_coordinates(self):
        cloud = LabeledPointCloud(np.array([[-0.01, 0, 0]]), np.array([1]))
        grid = voxelize(cloud, 0.5, (0, 0, 0))
        assert set(grid.cells) == {(-1, 0, 0)}

    def test_counts_conserved(self):
        rng = np.random.default_rng(16)
        cloud = random_cloud(rng, 10_000)
        grid = voxelize(cloud, 0.5)
        assert grid.total_points() == 10_000

    def test_class_sets(self):
        cloud = LabeledPointCloud(
            np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [0.9, 0.9, 0.9]]),
            np.array([1, 6, 1]),
        )
        grid = voxelize(cloud, 0.5, (0, 0, 0))
        assert grid.occupied[(0, 0, 0)] == frozenset({1, 6})
        assert grid.class_voxels(1) == {(0, 0, 0), (1, 1, 1)}

    def test_rejects_bad_edge(self):
        with pytest.raises(ValueError, match="positive"):
            voxelize(LabeledPointCloud.empty(), 0.0)

    def test_translation_covariance(self):
        rng = np.random.default_rng(17)
        cloud = random_cloud(rng, 2000)
        for vec in ([0.5, -1.25, 3.75], [10.0, 0.25, -0.5]):
            v = np.array(vec)
            a = voxelize(cloud, 0.5, (0, 0, 0))
            b = voxelize(cloud.translate(v), 0.5, v)
            assert set(a.cells) == set(b.cells)

    def test_default_origin_alignment(self):
        cloud = LabeledPointCloud(np.array([[1.3, 2.7, -0.4]]), np.array([1]))
        origin = grid_origin(cloud.xyz, 0.5)
        assert origin.tolist() == [1.0, 2.5, -0.5]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(18)
        cloud = random_cloud(rng, 500)
        origin = np.array([-2.0, 1.0, 0.0])
        grid = voxelize(cloud, 0.7, origin)
        expect: dict = {}
        for i in range(len(cloud)):
            key = tuple(int(np.floor((cloud.xyz[i][k] - origin[k]) / 0.7)) for k in range(3))
            expect.setdefault(key, {}).setdefault(int(cloud.labels[i]), 0)
            expect[key][int(cloud.labels[i])] += 1
        assert {k: dict(v) for k, v in grid.cells.items()} == expect


def make_random_mesh(rng, n_tris=200, span=5.0):
    verts = rng.uniform(-span, span, size=(3 * n_tris, 3))
    tris = np.arange(3 * n_tris).reshape(n_tris, 3)
    classes = rng.integers(1, 13, size=n_tris).astype(np.uint8)
    return ClassedMesh(verts, tris, classes)


def brute_raycast(mesh, origin, direction):
    v = mesh.vertices
    t = ray_triangles(
        origin, direction,
        v[mesh.triangles[:, 0]], v[mesh.triangles[:, 1]], v[mesh.triangles[:, 2]],
    )
    j = int(np.argmin(t))
    if t[j] == np.inf:
        return None
    return float(t[j]), j


class TestBvh:
    def test_hit_distance(self):
        mesh = ClassedMesh(
            np.array([[-1.0, -1, 10], [1.0, -1, 10], [0.0, 2, 10]]),
            np.array([[0, 1, 2]]),
            np.array([6], dtype=np.uint8),
        )
        hit = Bvh(mesh).raycast((0, 0, 0), (0, 0, 1))
        assert hit.t == 10.0
        assert hit.class_id == 6
        assert np.allclose(hit.point, [0, 0, 10])

    def test_grid_aligned_ray_from_box_face_warns_nothing(self):
        # x direction 0 from x = 0 on the box face: the slab test meets 0 * inf
        mesh = ClassedMesh(
            np.array([[0.0, 0, 10], [2.0, 0, 10], [0.0, 2, 10]]),
            np.array([[0, 1, 2]]),
            np.array([6], dtype=np.uint8),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            hit = Bvh(mesh).raycast((0.0, 0.5, 0.0), (0.0, 0.0, 1.0))
        assert hit.t == 10.0
        assert hit.triangle == 0

    def test_parallel_ray_misses(self):
        mesh = ClassedMesh(
            np.array([[-1.0, -1, 10], [1.0, -1, 10], [0.0, 2, 10]]),
            np.array([[0, 1, 2]]),
            np.array([6], dtype=np.uint8),
        )
        assert Bvh(mesh).raycast((0, 0, 0), (1, 0, 0)) is None

    def test_min_t_skips_surface_at_origin(self):
        mesh = ClassedMesh(
            np.array([[-1.0, -1, 0], [1.0, -1, 0], [0.0, 2, 0]]),
            np.array([[0, 1, 2]]),
            np.array([1], dtype=np.uint8),
        )
        # emitter sits on the triangle plane; the hit at t = 0 is discarded
        assert Bvh(mesh).raycast((0, 0, 0), (0, 0, 1)) is None

    def test_non_unit_direction_rejected(self):
        mesh = make_random_mesh(np.random.default_rng(0), 4)
        with pytest.raises(ValueError, match="unit"):
            Bvh(mesh).raycast((0, 0, 0), (0, 0, 2))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(19)
        mesh = make_random_mesh(rng, 200)
        bvh = Bvh(mesh)
        for _ in range(1000):
            origin = rng.uniform(-8, 8, size=3)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            hit = bvh.raycast(origin, direction)
            expect = brute_raycast(mesh, origin, direction)
            if expect is None:
                assert hit is None
            else:
                assert hit is not None
                assert (hit.t, hit.triangle) == expect

    def test_raycast_many_matches_single(self):
        rng = np.random.default_rng(20)
        mesh = make_random_mesh(rng, 60)
        bvh = Bvh(mesh)
        origins = rng.uniform(-6, 6, size=(300, 3))
        dirs = rng.normal(size=(300, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        t, tid, cls = bvh.raycast_many(origins, dirs)
        for i in range(300):
            hit = bvh.raycast(origins[i], dirs[i])
            if hit is None:
                assert t[i] == np.inf and tid[i] == -1
            else:
                assert (t[i], tid[i], cls[i]) == (hit.t, hit.triangle, hit.class_id)

    def test_shared_edge_tie_lowest_id(self):
        # two triangles sharing the edge x in [0,1], y = 0 in plane z = 1
        verts = np.array([
            [0.0, 0, 1], [1.0, 0, 1], [0.5, 1, 1],   # triangle 0 (y >= 0 side)
            [0.0, 0, 1], [1.0, 0, 1], [0.5, -1, 1],  # triangle 1 (y <= 0 side)
        ])
        mesh = ClassedMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]), np.array([1, 2], dtype=np.uint8))
        hit = Bvh(mesh).raycast((0.5, 0.0, 0.0), (0, 0, 1))
        assert hit is not None
        assert hit.triangle == 0  # both hit at t = 1; lowest id wins

    def test_empty_mesh_rejected(self):
        mesh = ClassedMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.uint8))
        with pytest.raises(ValueError, match="empty"):
            Bvh(mesh)
