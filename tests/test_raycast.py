"""Batched BVH casting against an all-triangle scan, and the Moller-Trumbore
kernel against its ``np.cross`` form, bit for bit."""

import numpy as np
import pytest

from pcgap import spatial
from pcgap.io import ClassedMesh
from pcgap.spatial import MIN_RAY_T, Bvh, ray_triangles

from conftest import build_room_mesh, height_field_mesh, sensor_rays


def cross_form_ray_triangles(origin, direction, v0, v1, v2):
    """Moller-Trumbore written with ``np.cross`` and ``.sum(axis=-1)``; the
    reference for :func:`ray_triangles` and for the brute-force scan."""
    e1 = v1 - v0
    e2 = v2 - v0
    pvec = np.cross(direction, e2)
    det = (e1 * pvec).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_det = 1.0 / det
        tvec = origin - v0
        u = (tvec * pvec).sum(axis=-1) * inv_det
        qvec = np.cross(tvec, e1)
        v = (direction * qvec).sum(axis=-1) * inv_det
        t = (e2 * qvec).sum(axis=-1) * inv_det
        hit = (
            (np.abs(det) > 1e-12)
            & (u >= 0.0)
            & (v >= 0.0)
            & (u + v <= 1.0)
            & (t > MIN_RAY_T)
        )
    return np.where(hit, t, np.inf)


def brute_cast(mesh, origins, directions):
    """Nearest (t, triangle id, class id) per ray over every triangle; ties go
    to the lowest id, misses are (inf, -1, 0)."""
    v = mesh.vertices
    v0, v1, v2 = (v[mesh.triangles[:, k]] for k in range(3))
    n = len(origins)
    t_out, id_out = np.full(n, np.inf), np.full(n, -1, dtype=np.int64)
    chunk = max(1, 200_000 // len(v0))
    for s in range(0, n, chunk):
        t = cross_form_ray_triangles(origins[s : s + chunk, None], directions[s : s + chunk, None],
                                     v0, v1, v2)
        j = np.argmin(t, axis=1)
        tj = t[np.arange(len(j)), j]
        t_out[s : s + chunk] = tj
        id_out[s : s + chunk] = np.where(tj < np.inf, j, -1)
    cls = np.where(id_out >= 0, mesh.triangle_classes[np.maximum(id_out, 0)], 0)
    return t_out, id_out, cls


def assert_same_hits(mesh, origins, directions):
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    t, tid, cls = Bvh(mesh).raycast_many(origins, directions)
    et, eid, ecls = brute_cast(mesh, origins, directions)
    np.testing.assert_array_equal(tid, eid)
    np.testing.assert_array_equal(t, et)
    np.testing.assert_array_equal(cls, ecls)
    assert (t.dtype, tid.dtype, cls.dtype) == (np.float64, np.int64, np.uint8)
    return tid


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def grid_rays(mesh, cell_m=0.5, stride=3):
    """Rays with zero direction components that start on cell faces (and on
    the mesh's outer box faces), plus vertical rays onto grid vertices, edge
    midpoints and cell diagonals, where neighbouring triangles tie."""
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    top = hi[2] + 2.0
    g = np.arange(lo[0], hi[0] + cell_m / 2, cell_m * stride)
    origins, dirs = [], []
    for x in g:
        for y in g:
            for dx, dy in ((0.0, 0.0), (cell_m / 2, 0.0), (0.0, cell_m / 2), (cell_m / 4, cell_m / 4)):
                origins.append((x + dx, y + dy, top))
                dirs.append((0.0, 0.0, -1.0))
        # along y on the face x = const, and along x on the face y = const
        for slope in (0.25, 0.5):
            origins += [(x, lo[1], top), (lo[0], x, top), (x, hi[1], top), (hi[0], x, top)]
            dirs += [(0.0, 1.0, -slope), (1.0, 0.0, -slope), (0.0, -1.0, -slope), (-1.0, 0.0, -slope)]
        # horizontal rays at a terrace height, from the outer box face
        origins += [(x, lo[1], 0.0), (lo[0], x, 0.0)]
        dirs += [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
    return np.array(origins), unit(dirs)


class TestHeightField:
    @pytest.mark.parametrize("cells,seed,steps", [(18, 0, 40), (50, 1, 40), (122, 2, 16)])
    def test_sensor_rays_match_brute_force(self, cells, seed, steps):
        rng = np.random.default_rng(seed)
        mesh = height_field_mesh(rng, cells)
        assert 600 <= len(mesh.triangles) <= 30_000
        tid = assert_same_hits(mesh, *sensor_rays(rng, mesh, steps))
        assert (tid >= 0).any() and (tid < 0).any()

    @pytest.mark.parametrize("cells,seed", [(18, 3), (50, 4), (122, 5)])
    def test_grid_aligned_rays_and_ties_match_brute_force(self, cells, seed):
        mesh = height_field_mesh(np.random.default_rng(seed), cells)
        origins, dirs = grid_rays(mesh, stride=max(1, cells // 7))
        tid = assert_same_hits(mesh, origins, dirs)
        assert (tid >= 0).sum() > len(tid) // 2
        # some vertical rays land on a tie that the lowest id must win
        t = cross_form_ray_triangles(origins[:80, None], dirs[:80, None],
                                     *(mesh.vertices[mesh.triangles[:, k]] for k in range(3)))
        assert ((t == t.min(axis=1, keepdims=True)) & (t < np.inf)).sum(axis=1).max() >= 2

    @pytest.mark.parametrize("budget", [2, 40])
    def test_small_budget_matches_brute_force(self, monkeypatch, budget):
        # batches and leaf passes cut to a few rows: a ray's leaves are met in
        # different passes, so pruning by its best hit so far meets exact ties
        monkeypatch.setattr(spatial, "_CANDIDATE_BUDGET", budget)
        monkeypatch.setattr(spatial, "_LEAF_TILE", budget)
        rng = np.random.default_rng(6)
        mesh = height_field_mesh(rng, 30)
        o1, d1 = sensor_rays(rng, mesh, 8)
        o2, d2 = grid_rays(mesh, stride=4)
        assert_same_hits(mesh, np.vstack([o1, o2]), np.vstack([d1, d2]))


@pytest.mark.parametrize("tile", [1, 7])
@pytest.mark.parametrize("name", ["room", "ground"])
def test_leaf_tiles_give_the_untiled_result(monkeypatch, name, tile):
    """Leaf passes cut into tiles of one ray, or of a few rays that split
    a ray's leaves, give the hits of one untiled pass bit for bit."""
    rng = np.random.default_rng(13)
    if name == "room":
        mesh = build_room_mesh()
        steps = rng.uniform((0.5, 0.5, 0.5), (9.5, 7.5, 3.5), size=(100, 3))
        origins = np.repeat(steps, 16, axis=0)  # 16 channels per firing step
        dirs = unit(rng.normal(size=(1600, 3)))
    else:
        mesh = height_field_mesh(rng, 40)
        origins, dirs = sensor_rays(rng, mesh, 60)
        grid_o, grid_d = grid_rays(mesh, stride=5)
        origins, dirs = np.vstack([origins, grid_o]), np.vstack([dirs, grid_d])
    bvh = Bvh(mesh)
    monkeypatch.setattr(spatial, "_LEAF_TILE", 10**9)
    want = bvh.raycast_many(origins, dirs)
    monkeypatch.setattr(spatial, "_LEAF_TILE", tile)
    got = bvh.raycast_many(origins, dirs)
    assert (want[1] >= 0).any()
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBatchEdgeCases:
    @pytest.mark.parametrize("n_tris,seed", [(600, 7), (1500, 8), (3000, 9)])
    def test_random_soup_matches_brute_force(self, n_tris, seed):
        rng = np.random.default_rng(seed)
        verts = rng.uniform(-5, 5, size=(3 * n_tris, 3))
        mesh = ClassedMesh(verts, np.arange(3 * n_tris).reshape(n_tris, 3),
                           rng.integers(1, 13, size=n_tris).astype(np.uint8))
        origins = rng.uniform(-7, 7, size=(400, 3))
        tid = assert_same_hits(mesh, origins, unit(rng.normal(size=(400, 3))))
        assert (tid >= 0).any() and (tid < 0).any()

    def test_single_leaf_room_matches_brute_force(self, room_mesh):
        rng = np.random.default_rng(10)
        origins = rng.uniform((0.5, 0.5, 0.5), (9.5, 7.5, 3.5), size=(500, 3))
        tid = assert_same_hits(room_mesh, origins, unit(rng.normal(size=(500, 3))))
        assert (tid >= 0).all()

    def test_zero_rays(self):
        mesh = height_field_mesh(np.random.default_rng(11), 20)
        t, tid, cls = Bvh(mesh).raycast_many(np.zeros((0, 3)), np.zeros((0, 3)))
        assert t.shape == tid.shape == cls.shape == (0,)
        assert (t.dtype, tid.dtype, cls.dtype) == (np.float64, np.int64, np.uint8)

    def test_all_miss(self):
        rng = np.random.default_rng(12)
        mesh = height_field_mesh(rng, 20)
        origins, dirs = sensor_rays(rng, mesh, 30)
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.1  # every ray climbs away from the relief
        t, tid, cls = Bvh(mesh).raycast_many(origins, unit(dirs))
        assert np.all(t == np.inf) and np.all(tid == -1) and np.all(cls == 0)


def assert_bit_identical(origin, direction, v0, v1, v2):
    got = ray_triangles(origin, direction, v0, v1, v2)
    want = cross_form_ray_triangles(origin, direction, v0, v1, v2)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestKernelArithmetic:
    def test_random_rays_and_triangles(self):
        rng = np.random.default_rng(13)
        v0, v1, v2 = rng.uniform(-3, 3, size=(3, 500, 3))
        origins = rng.uniform(-5, 5, size=(200, 1, 3))
        dirs = unit(rng.normal(size=(200, 1, 3)))
        assert_bit_identical(origins, dirs, v0, v1, v2)
        assert_bit_identical(origins[0, 0], dirs[0, 0], v0, v1, v2)

    def test_rays_aimed_at_vertices_and_edges(self):
        rng = np.random.default_rng(14)
        v0, v1, v2 = rng.uniform(-3, 3, size=(3, 300, 3))
        for target in (v0, v1, v2, (v0 + v1) / 2, (v1 + v2) / 2, (v0 + v2) / 2):
            origins = rng.uniform(-6, 6, size=(300, 3))
            assert_bit_identical(origins, unit(target - origins), v0, v1, v2)

    def test_edge_on_and_parallel_rays(self):
        rng = np.random.default_rng(15)
        v0, v1, v2 = rng.uniform(-3, 3, size=(3, 300, 3))
        normal = unit(np.cross(v1 - v0, v2 - v0))
        in_plane = unit(np.cross(normal, rng.normal(size=(300, 3))))
        # edge-on: from inside the plane; parallel: from off the plane
        assert_bit_identical(v0 + 0.5 * (v1 - v0), in_plane, v0, v1, v2)
        assert_bit_identical(v0 + normal, in_plane, v0, v1, v2)
        assert_bit_identical(v0, unit(v1 - v0), v0, v1, v2)
        # nearly parallel, around the determinant threshold
        for tilt in (1e-14, 1e-12, 1e-10):
            assert_bit_identical(v0 - normal, unit(in_plane + tilt * normal), v0, v1, v2)
        # an axis-aligned triangle and an exactly parallel ray: det = 0
        tri = np.array([[0.0, 0, 1], [1.0, 0, 1], [0.0, 1, 1]])
        assert_bit_identical(np.zeros(3), np.array([1.0, 0, 0]), *tri)

    def test_hits_near_min_ray_t(self):
        # the plane z = 0 a few ulps either side of MIN_RAY_T along the ray
        tri = np.array([[-1.0, -1, 0], [2.0, -1, 0], [-1.0, 2, 0]])
        depth = MIN_RAY_T + np.arange(-8, 9) * np.spacing(MIN_RAY_T)
        for d in (np.array([0.0, 0, 1]), unit(np.array([0.3, -0.2, 1.0]))):
            origins = -depth[:, None] * d[None, :]
            got = ray_triangles(origins, d, *tri)
            assert_bit_identical(origins, d, *tri)
            assert np.isinf(got[0]) and np.isfinite(got[-1])


def centred_soup(rng, centres):
    """One triangle per row of ``centres``, each of random shape with its
    centroid exactly on its centre: corners c + a, c + b, c - (a + b), with
    offsets in eighths so that every sum is exact."""
    a, b = rng.integers(-8, 9, size=(2, len(centres), 3)) / 8.0
    verts = np.stack([centres + a, centres + b, centres - (a + b)], axis=1).reshape(-1, 3)
    n = len(centres)
    return ClassedMesh(verts, np.arange(3 * n).reshape(n, 3), np.full(n, 2, dtype=np.uint8))


def random_soup(rng, n):
    return ClassedMesh(rng.uniform(-5, 5, size=(3 * n, 3)), np.arange(3 * n).reshape(n, 3),
                       rng.integers(1, 13, size=n).astype(np.uint8))


STRUCTURE_MESHES = {
    "height-field-18": lambda rng: height_field_mesh(rng, 18),
    "height-field-122": lambda rng: height_field_mesh(rng, 122),
    "soup-600": lambda rng: random_soup(rng, 600),
    "soup-3000": lambda rng: random_soup(rng, 3000),
    "room": lambda rng: build_room_mesh(),
    "one-triangle": lambda rng: random_soup(rng, 1),
    "identical-centroids": lambda rng: centred_soup(rng, np.zeros((500, 3))),
    "tied-centroids": lambda rng: centred_soup(rng, rng.integers(0, 4, size=(3000, 3)).astype(float)),
}


@pytest.mark.parametrize("name", sorted(STRUCTURE_MESHES))
def test_bvh_structure(name):
    mesh = STRUCTURE_MESHES[name](np.random.default_rng(16))
    bvh = Bvh(mesh)
    n = len(mesh.triangles)
    corners = mesh.vertices[mesh.triangles]
    centroids = (corners[:, 0] + corners[:, 1] + corners[:, 2]) / 3.0
    left, right, ids = bvh._left, bvh._right, bvh._leaf_ids
    leaf = left < 0

    # breadth first: the k-th split node's children are 2k + 1 and 2k + 2
    assert np.array_equal(left[~leaf], 2 * np.arange((~leaf).sum()) + 1)
    assert np.array_equal(right, np.where(leaf, -1, left + 1))
    assert np.array_equal(bvh._leaf_row, np.where(leaf, np.cumsum(leaf) - 1, -1))

    # leaf rows ascend, padded with n_tris, and hold every triangle once
    assert ids.shape[0] == leaf.sum()
    assert np.all((ids[:, 1:] > ids[:, :-1]) | (ids[:, 1:] == n))
    assert np.array_equal(np.sort(ids[ids < n]), np.arange(n))

    members = [None] * left.size
    for node in np.flatnonzero(leaf):
        row = ids[bvh._leaf_row[node]]
        members[node] = row[row < n]
        assert 1 <= members[node].size <= spatial._LEAF_SIZE
    for node in np.flatnonzero(~leaf)[::-1]:
        lo, hi = members[left[node]], members[right[node]]
        members[node] = np.concatenate([lo, hi])
        size = members[node].size
        assert size > spatial._LEAF_SIZE and lo.size == size // 2
        # the median split along the widest centroid extent, ties to the lower id
        axis = np.argmax(np.ptp(centroids[members[node]], axis=0))
        boundary = centroids[lo, axis].max()
        assert boundary <= centroids[hi, axis].min()
        tied_hi = hi[centroids[hi, axis] == boundary]
        assert tied_hi.size == 0 or lo[centroids[lo, axis] == boundary].max() < tied_hi.min()

    # each box is the tight box of its triangles, so it contains its children's
    for node, tris in enumerate(members):
        np.testing.assert_array_equal(bvh._node_min[node], corners[tris].min(axis=(0, 1)))
        np.testing.assert_array_equal(bvh._node_max[node], corners[tris].max(axis=(0, 1)))
    assert np.all(bvh._node_min[~leaf] <= np.minimum(bvh._node_min[left[~leaf]], bvh._node_min[right[~leaf]]))
    assert np.all(bvh._node_max[~leaf] >= np.maximum(bvh._node_max[left[~leaf]], bvh._node_max[right[~leaf]]))

    again = Bvh(mesh)
    for attr in ("_node_min", "_node_max", "_left", "_right", "_leaf_row", "_leaf_ids", "_v0", "_e1", "_e2"):
        a, b = getattr(bvh, attr), getattr(again, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr


@pytest.mark.parametrize("name", ["identical-centroids", "tied-centroids"])
def test_tied_centroids_match_brute_force(name):
    rng = np.random.default_rng(17)
    mesh = STRUCTURE_MESHES[name](rng)
    lo, hi = mesh.vertices.min(axis=0) - 1.0, mesh.vertices.max(axis=0) + 1.0
    tid = assert_same_hits(mesh, rng.uniform(lo, hi, size=(400, 3)), unit(rng.normal(size=(400, 3))))
    assert (tid >= 0).any()
