"""Slab-covered cylinder gathers and the M3C2 built on them, checked against
brute force: ``NnIndex.within_cylinder`` per core, with the same normals."""

import numpy as np
import pytest

import pcgap.spatial as spatial
from pcgap.core import LabeledPointCloud
from pcgap.metric import M3c2Params, m3c2_class_distance
from pcgap.spatial import NnIndex, _slab_count, cylinder_means, cylinder_pairs, estimate_normals


def exact_units(v):
    """Unit rows that ``within_cylinder``'s own normalization leaves unchanged,
    so the gather and the oracle test against bit-identical axes."""
    v = np.asarray(v, dtype=np.float64).reshape(-1, 3)
    for _ in range(4):
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
    fixed = np.array([np.array_equal(a / np.linalg.norm(a), a) for a in v])
    return v, fixed


def gathered_members(index, centers, axes, radius, half_depth):
    members = [[] for _ in range(len(centers))]
    for lo, _, row, point in cylinder_pairs(index, centers, axes, radius, half_depth):
        for r, p in zip(row, point):
            members[lo + r].append(int(p))
    return [np.array(sorted(m), dtype=np.int64) for m in members]


def assert_matches_oracle(points, centers, axes, radius, half_depth):
    index = NnIndex(points)
    got = gathered_members(index, centers, axes, radius, half_depth)
    for i, (c, a) in enumerate(zip(centers, axes)):
        want = index.within_cylinder(c, a, radius, half_depth)
        assert np.array_equal(got[i], want), f"cylinder {i}"
        assert len(set(got[i].tolist())) == len(got[i])  # no pair twice


def plane(rng, n, noise=0.0):
    normal = rng.normal(size=3)
    normal /= np.linalg.norm(normal)
    u = np.cross(normal, [1.0, 0.0, 0.0] if abs(normal[0]) < 0.9 else [0.0, 1.0, 0.0])
    u /= np.linalg.norm(u)
    w = np.cross(normal, u)
    st = rng.uniform(-2.0, 2.0, size=(n, 2))
    offset = rng.normal(0.0, noise, n) if noise else 0.0
    return rng.uniform(-5, 5, 3) + st[:, :1] * u + st[:, 1:] * w + np.outer(offset, normal)


def sphere_cap(rng, n):
    radius = rng.uniform(0.8, 3.0)
    theta = rng.uniform(0.0, 0.9, n)
    phi = rng.uniform(0.0, 2 * np.pi, n)
    dirs = np.column_stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    return rng.uniform(-5, 5, 3) + radius * dirs


def blob(rng, n):
    return rng.normal(0.0, rng.uniform(0.2, 1.0), size=(n, 3)) + rng.uniform(-5, 5, 3)


SHAPES = (plane, sphere_cap, blob)


def random_geometry(rng):
    """Radius and half-depth over h/r from 0.3 (one ball) to 30 (the cap)."""
    radius = rng.uniform(0.05, 0.6)
    half_depth = radius * float(np.exp(rng.uniform(np.log(0.3), np.log(30.0))))
    return radius, half_depth


class TestSlabCount:
    def test_circumscribed_ball_when_shallow(self):
        assert _slab_count(0.25, 0.25) == 1
        assert _slab_count(0.5, 0.1) == 1

    def test_smallest_odd_at_least_ratio(self):
        assert _slab_count(0.25, 1.0) == 5
        assert _slab_count(0.25, 0.75) == 3
        assert _slab_count(0.25, 0.76) == 5
        assert _slab_count(0.1, 0.65) == 7

    def test_capped(self):
        assert _slab_count(0.01, 1.0) == spatial._MAX_SLABS
        assert spatial._MAX_SLABS % 2 == 1


class TestCylinderPairs:
    @pytest.mark.parametrize("seed", range(120))
    def test_random_instances_match_within_cylinder(self, seed):
        rng = np.random.default_rng(1000 + seed)
        shape = SHAPES[seed % len(SHAPES)]
        points = shape(rng, int(rng.integers(50, 400)))
        radius, half_depth = random_geometry(rng)
        centers = points[rng.choice(len(points), size=30, replace=False)]
        normals, valid = estimate_normals(NnIndex(points), centers, 0.5)
        axes = np.where(valid[:, None], normals, rng.normal(size=(30, 3)))
        axes, fixed = exact_units(axes)
        assert_matches_oracle(points, centers[fixed], axes[fixed], radius, half_depth)

    @pytest.mark.parametrize(
        "radius,half_depth", [(0.25, 1.0), (0.25, 0.75), (0.5, 0.25), (0.0625, 1.0)]
    )
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_points_on_slab_boundaries_and_rim(self, radius, half_depth, axis):
        k = _slab_count(radius, half_depth)
        thick = 2.0 * half_depth / k
        cuts = -half_depth + thick * np.arange(k + 1)  # slab boundaries as computed
        local = []
        for z in cuts:
            for rho in (0.0, radius / 2, radius, radius + 2.0**-30):
                local.append((rho, 0.0, z))
                local.append((0.0, -rho, z))
            local.append((0.0, 0.0, np.nextafter(z, np.inf)))
            local.append((0.0, 0.0, np.nextafter(z, -np.inf)))
        for z in (-half_depth, half_depth):
            local.append((radius, 0.0, z))  # rim corner
            local.append((0.0, 0.0, z + 2.0**-30))  # just beyond the end
        local = np.array(local)
        # put the cylinder axis on the chosen coordinate axis, center at 0
        points = np.roll(local, axis + 1, axis=1)
        ax = np.zeros((1, 3))
        ax[0, axis] = 1.0
        assert_matches_oracle(points, np.zeros((1, 3)), ax, radius, half_depth)
        assert_matches_oracle(points, np.zeros((1, 3)), -ax, radius, half_depth)

    def test_means_match_members(self):
        rng = np.random.default_rng(5)
        points = plane(rng, 800, noise=0.01)
        index = NnIndex(points)
        centers = points[:40]
        normals, valid = estimate_normals(index, centers, 0.5)
        means, counts = cylinder_means(index, centers[valid], normals[valid], 0.25, 1.0)
        for c, n, mean, count in zip(centers[valid], normals[valid], means, counts):
            members = index.within_cylinder(c, n, 0.25, 1.0)
            assert count == len(members)
            assert np.allclose(mean, points[members].mean(axis=0), rtol=0, atol=1e-12)

    def test_blocks_respect_budget(self, monkeypatch):
        rng = np.random.default_rng(6)
        points = plane(rng, 3000, noise=0.02)
        index = NnIndex(points)
        centers = points[:500]
        normals, valid = estimate_normals(index, centers, 0.5)
        centers, normals = centers[valid], normals[valid]
        whole = gathered_members(index, centers, normals, 0.25, 1.0)
        held = []
        gather = NnIndex.within_radius_many

        def spy(self, queries, radius):
            pairs = gather(self, queries, radius)
            held.append(len(pairs[0]))
            return pairs

        monkeypatch.setattr(spatial, "_CANDIDATE_BUDGET", 2000)
        monkeypatch.setattr(NnIndex, "within_radius_many", spy)
        blocked = gathered_members(index, centers, normals, 0.25, 1.0)
        assert len(held) > 5
        assert max(held) <= 2000
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))

        # coincident points make the pair bound exact: 100 pairs per query
        held.clear()
        stacked = NnIndex(np.full((100, 3), 2.0))
        estimate_normals(stacked, np.full((95, 3), 2.0), 0.5)
        assert held == [2000] * 4 + [1500]

    def test_ball_count_bound_covers_exact_counts(self):
        rng = np.random.default_rng(7)
        for shape in SHAPES:
            points = shape(rng, 2000)
            tree_index = NnIndex(points)
            for radius in (0.05, 0.3, 1.5):
                bound = spatial._ball_count_bound(points, radius)
                centers = np.concatenate([points[:200], rng.uniform(-12, 12, (200, 3))])
                exact = tree_index._tree.query_ball_point(centers, radius, return_length=True)
                assert np.all(bound(centers) >= exact)


def brute_force_m3c2(real, synth, params):
    """Per-core M3C2 from ``within_cylinder`` on both sides."""
    n_cores = len(real)
    if n_cores == 0:
        return None, 0, 0
    if len(synth) == 0:
        return None, 0, n_cores
    index_r, index_s = NnIndex(real.xyz), NnIndex(synth.xyz)
    normals, valid = estimate_normals(index_r, real.xyz, params.normal_scale)
    signed = []
    for core, n, ok in zip(real.xyz, normals, valid):
        if not ok:
            continue
        geometry = (params.projection_radius, params.max_depth)
        in_r = index_r.within_cylinder(core, n, *geometry)
        in_s = index_s.within_cylinder(core, n, *geometry)
        if len(in_r) and len(in_s):
            sep = (synth.xyz[in_s].mean(axis=0) - real.xyz[in_r].mean(axis=0)) @ n
            signed.append(sep)
    if not signed:
        return None, 0, n_cores
    return float(np.median(signed)), len(signed), n_cores - len(signed)


def labeled(xyz):
    return LabeledPointCloud(np.asarray(xyz, dtype=np.float64).reshape(-1, 3), np.full(len(xyz), 6))


class TestM3c2BruteForce:
    @pytest.mark.parametrize("seed", range(80))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(2000 + seed)
        shape = SHAPES[seed % len(SHAPES)]
        real_xyz = shape(rng, int(rng.integers(20, 250)))
        shift = rng.normal(0.0, 0.1, 3)
        synth_xyz = real_xyz[rng.random(len(real_xyz)) < 0.7] + shift
        synth_xyz = synth_xyz + rng.normal(0.0, 0.01, synth_xyz.shape)
        radius, half_depth = random_geometry(rng)
        params = M3c2Params(rng.uniform(0.2, 1.0), radius, half_depth)
        real, synth = labeled(real_xyz), labeled(synth_xyz)
        got = m3c2_class_distance(real, synth, params)
        median, inliers, outliers = brute_force_m3c2(real, synth, params)
        assert (got.inliers, got.outliers) == (inliers, outliers)
        if median is None:
            assert got.median is None
        else:
            assert abs(got.median - median) <= 1e-12

    def test_invalid_normal_cores_are_outliers(self):
        # a line has rank-1 covariance everywhere; three far points have too
        # few neighbors
        line = np.column_stack([np.linspace(0, 2, 40), np.zeros(40), np.zeros(40)])
        lonely = np.array([[10.0, 0, 0], [20.0, 0, 0], [30.0, 0, 0]])
        square = np.stack(np.meshgrid(np.linspace(0, 1, 8), np.linspace(0, 1, 8)), -1).reshape(-1, 2)
        patch = np.column_stack([square + 50.0, np.zeros(64)])
        real = labeled(np.concatenate([line, lonely, patch]))
        synth = labeled(np.concatenate([line, lonely, patch]) + [0.0, 0.0, 0.05])
        params = M3c2Params()
        got = m3c2_class_distance(real, synth, params)
        assert (got.median, got.inliers, got.outliers) == pytest.approx(
            brute_force_m3c2(real, synth, params), abs=1e-12
        )
        assert got.inliers == 64
        assert got.outliers == 43

    def test_empty_synthetic_class(self):
        real = labeled(plane(np.random.default_rng(3), 100))
        got = m3c2_class_distance(real, LabeledPointCloud.empty())
        assert (got.median, got.inliers, got.outliers) == (None, 0, 100)
