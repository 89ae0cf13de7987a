"""Batched BVH casting against an all-triangle scan, and the Moller-Trumbore
kernel against its ``np.cross`` form, bit for bit."""

import numpy as np
import pytest

from pcgap import spatial
from pcgap.io import ClassedMesh
from pcgap.spatial import MIN_RAY_T, Bvh

from conftest import build_room_mesh, height_field_mesh, ray_triangles, sensor_rays


def cross_form_ray_triangles(origin, direction, v0, v1, v2):
    """Moller-Trumbore written with ``np.cross`` and ``.sum(axis=-1)``; the
    reference for the kernel and for the brute-force scan."""
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


def firing_steps(rng, mesh, centres):
    """16 rays from each centre, as one firing step's channels: the six axis
    directions, then rays aimed at mesh vertices and at midpoints of triangle
    edges, which neighbouring triangles share."""
    corners = mesh.vertices[mesh.triangles]
    targets = np.vstack([mesh.vertices, (corners + np.roll(corners, 1, axis=1)).reshape(-1, 3) / 2])
    axes = np.vstack([np.eye(3), -np.eye(3)])
    dirs = [np.vstack([axes, unit(targets[rng.choice(len(targets), 10, replace=False)] - c)])
            for c in centres]
    return np.repeat(centres, 16, axis=0), np.vstack(dirs)


def room_steps(rng, n_random=40):
    """Firing steps of the room: centres (10a, 8a, 4a) sit on the diagonal
    edge of every wall, floor and ceiling quad along each axis, so axis rays
    land on edges that two triangles share; the rest are random, the last
    one an ulp from the one before it, so that only bits tell them apart."""
    mesh = build_room_mesh()
    diagonal = np.array([10.0, 8.0, 4.0]) * (np.arange(1, 8) / 8.0)[:, None]
    centres = np.vstack([diagonal, rng.uniform((0.5, 0.5, 0.5), (9.5, 7.5, 3.5), size=(n_random, 3))])
    centres = np.vstack([centres, np.nextafter(centres[-1], np.inf)])
    return mesh, *firing_steps(rng, mesh, centres)


def assert_matches_ray_triangles(mesh, origins, dirs):
    """Cast the rays and check them against the brute-force scan of
    ``ray_triangles`` bit for bit. Returns each ray's count of triangles tied
    at its nearest t, the set of rays per origin that the kernel was given (a
    spy on it: 16 where a firing step's 16 channels share one) and the most
    ray-triangle tests that one kernel call made."""
    shares, tests = set(), [0]
    kernel = spatial._moller_trumbore

    def spy(o, d, v0, e1, e2):
        t = kernel(o, d, v0, e1, e2)
        shares.add(np.broadcast(*d).size // np.broadcast(*o).size)
        tests[0] = max(tests[0], t.size)
        return t

    with pytest.MonkeyPatch.context() as m:
        m.setattr(spatial, "_moller_trumbore", spy)
        t, tid, cls = Bvh(mesh).raycast_many(origins, dirs)
    every = ray_triangles(origins[:, None], dirs[:, None], *(mesh.vertices[mesh.triangles[:, k]] for k in range(3)))
    want_t = every.min(axis=1)
    want_id = np.where(want_t < np.inf, np.argmin(every, axis=1), -1)  # the first minimum: the lowest id
    want_cls = np.where(want_id >= 0, mesh.triangle_classes[np.maximum(want_id, 0)], 0).astype(np.uint8)
    for got, want in ((t, want_t), (tid, want_id), (cls, want_cls)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return ((every == want_t[:, None]) & (every < np.inf)).sum(axis=1), shares, tests[0]


class TestSharedOrigins:
    # 1000: tiles of two whole runs (768 tests); 100: below one run's 384 tests,
    # so each run is split across tiles and tested ray by ray
    @pytest.mark.parametrize("tile,share", [(spatial._LEAF_TILE, 16), (1000, 16), (100, 1)])
    def test_runs_of_one_origin_match_ray_triangles(self, monkeypatch, tile, share):
        monkeypatch.setattr(spatial, "_LEAF_TILE", tile)
        tied, shares, tests = assert_matches_ray_triangles(*room_steps(np.random.default_rng(18)))
        assert shares == {share} and tests <= tile
        assert (tied >= 2).sum() >= 20  # ties that the lowest id must win

    @pytest.mark.parametrize("tile,want", [(spatial._LEAF_TILE, {1}), (2 * 16 * 24, {16, 1})])
    def test_uneven_runs_take_the_per_ray_form(self, monkeypatch, tile, want):
        """A tile of two runs ahead of the short step still shares; the
        tile that holds it, and every later one, is tested ray by ray."""
        monkeypatch.setattr(spatial, "_LEAF_TILE", tile)
        mesh, origins, dirs = room_steps(np.random.default_rng(19))
        keep = np.arange(len(origins)) != 37  # the third step fires 15 rays
        tied, shares, _ = assert_matches_ray_triangles(mesh, origins[keep], dirs[keep])
        assert shares == want and (tied >= 2).any()

    @pytest.mark.parametrize("n", [100, 5000])
    def test_one_origin_keeps_tiles_within_leaf_tile(self, n):
        """A parked sensor: every ray has one origin. A run that fits a tile
        shares it; a longer one is tested ray by ray, in tiles of at most
        ``_LEAF_TILE`` tests."""
        mesh = build_room_mesh()
        origins = np.repeat([[3.0, 2.0, 1.5]], n, axis=0)
        dirs = unit(np.random.default_rng(21).normal(size=(n, 3)))
        _, shares, tests = assert_matches_ray_triangles(mesh, origins, dirs)
        assert shares == ({n} if n * 24 <= spatial._LEAF_TILE else {1})
        assert tests <= spatial._LEAF_TILE

    def test_multi_leaf_mesh(self):
        """Two rooms 100 m apart, a leaf each: rays fired away from the other
        room meet their own room's leaf alone, in the shared form; the rays
        of both rooms together meet both leaves, in the per-ray form."""
        room = build_room_mesh()
        mesh = ClassedMesh(np.vstack([room.vertices, room.vertices + [100.0, 0, 0]]),
                           np.vstack([room.triangles, room.triangles + len(room.vertices)]),
                           np.concatenate([room.triangle_classes, room.triangle_classes]))
        assert Bvh(mesh)._leaf_ids.shape[0] == 2
        rng = np.random.default_rng(20)
        west, west_dirs = firing_steps(rng, room, rng.uniform((0.5, 0.5, 0.5), (9.5, 7.5, 3.5), size=(30, 3)))
        west_dirs[:, 0] = -np.abs(west_dirs[:, 0]) - 0.01
        west_dirs = unit(west_dirs)
        east, east_dirs = west + [100.0, 0, 0], -west_dirs
        for origins, dirs, share in ((west, west_dirs, 16), (east, east_dirs, 16),
                                     (np.vstack([west, east]), np.vstack([west_dirs, east_dirs]), 1)):
            tied, shares, _ = assert_matches_ray_triangles(mesh, origins, dirs)
            assert shares == {share} and (tied >= 1).sum() > len(tied) // 2


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
    "soup-65": lambda rng: random_soup(rng, 65),  # halves of 32 and 33: both split
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
    ids = bvh._leaf_ids
    n_leaves = ids.shape[0]

    # a complete tree: the leaves are the whole last level, nodes n_leaves - 1 onwards
    assert n_leaves & (n_leaves - 1) == 0
    assert bvh._node_min.shape == bvh._node_max.shape == (2 * n_leaves - 1, 3)

    # leaf rows ascend, padded with n, and hold every triangle once
    assert np.all((ids[:, 1:] > ids[:, :-1]) | (ids[:, 1:] == n))
    assert np.array_equal(np.sort(ids[ids < n]), np.arange(n))

    members = [None] * (2 * n_leaves - 1)
    for row in range(n_leaves):
        members[n_leaves - 1 + row] = ids[row][ids[row] < n]
    leaf_sizes = [m.size for m in members[n_leaves - 1:]]
    if n <= spatial._LEAF_SIZE:
        assert leaf_sizes == [n]  # the root is the one leaf
    else:
        assert spatial._LEAF_SIZE // 2 <= min(leaf_sizes) and max(leaf_sizes) <= spatial._LEAF_SIZE
    for node in range(n_leaves - 2, -1, -1):
        lo, hi = members[2 * node + 1], members[2 * node + 2]
        members[node] = np.concatenate([lo, hi])
        assert lo.size == members[node].size // 2
        # the median split along the widest centroid extent, ties to the lower id
        axis = np.argmax(np.ptp(centroids[members[node]], axis=0))
        boundary = centroids[lo, axis].max()
        assert boundary <= centroids[hi, axis].min()
        tied_hi = hi[centroids[hi, axis] == boundary]
        assert tied_hi.size == 0 or lo[centroids[lo, axis] == boundary].max() < tied_hi.min()

    # a level splits, all of it, only while one of its nodes holds too many
    for first in 2 ** np.arange(n_leaves.bit_length() - 1) - 1:
        assert max(m.size for m in members[first:2 * first + 1]) > spatial._LEAF_SIZE

    # each box is the tight box of its triangles
    for node, tris in enumerate(members):
        np.testing.assert_array_equal(bvh._node_min[node], corners[tris].min(axis=(0, 1)))
        np.testing.assert_array_equal(bvh._node_max[node], corners[tris].max(axis=(0, 1)))

    again = Bvh(mesh)
    for attr in ("_node_min", "_node_max", "_leaf_ids", "_v0", "_e1", "_e2"):
        a, b = getattr(bvh, attr), getattr(again, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr


@pytest.mark.parametrize("name", ["identical-centroids", "tied-centroids"])
def test_tied_centroids_match_brute_force(name):
    rng = np.random.default_rng(17)
    mesh = STRUCTURE_MESHES[name](rng)
    lo, hi = mesh.vertices.min(axis=0) - 1.0, mesh.vertices.max(axis=0) + 1.0
    tid = assert_same_hits(mesh, rng.uniform(lo, hi, size=(400, 3)), unit(rng.normal(size=(400, 3))))
    assert (tid >= 0).any()
