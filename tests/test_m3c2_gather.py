"""Slab-covered cylinder gathers and the M3C2 built on them, checked against
brute force: ``NnIndex.within_cylinder`` per core, with the same normals;
and the column-wise normal, cylinder and pair-bound kernels, checked bit
for bit against the row-vector kernels they replaced."""

import math
import sys
import threading

import numpy as np
import pytest

import pcgap.spatial as spatial
from pcgap.core import LabeledPointCloud, partition_by_class
from pcgap.metric import M3c2Params, m3c2_class_distance
from pcgap.spatial import NnIndex, _slab_count, cylinder_means, estimate_normals

from conftest import build_street_scene


def exact_units(v):
    """Unit rows that ``within_cylinder``'s own normalization leaves unchanged,
    so the gather and the oracle test against bit-identical axes."""
    v = np.asarray(v, dtype=np.float64).reshape(-1, 3)
    for _ in range(4):
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
    fixed = np.array([np.array_equal(a / np.linalg.norm(a), a) for a in v])
    return v, fixed


def member_blocks(index, centers, axes, radius, half_depth):
    """The ``(core, slab, point)`` member blocks of ``cylinder_pairs``, in
    the order the lanes ran them."""
    blocks = []
    spatial.cylinder_pairs(index, centers, axes, radius, half_depth,
                           lambda core, slab, point: blocks.append((core, slab, point)))
    return blocks


def slab_members(blocks, k):
    """``{(core, slab): points}`` of member blocks, each sequence in its
    block's order; every (core, slab) must come whole in one block, its
    slab one of the ``k``."""
    members = {}
    for core, slab, point in blocks:
        assert core.dtype == slab.dtype == point.dtype == np.int64
        assert core.shape == slab.shape == point.shape
        assert np.all((0 <= slab) & (slab < k))
        if not point.size:
            continue
        order = np.argsort(core * k + slab, kind="stable")
        core, slab, point = core[order], slab[order], point[order]
        cuts = np.flatnonzero((np.diff(core) != 0) | (np.diff(slab) != 0)) + 1
        firsts = np.r_[0, cuts]
        for c, s, run in zip(core[firsts].tolist(), slab[firsts].tolist(), np.split(point, cuts)):
            assert (c, s) not in members, f"core {c}, slab {s} split over two blocks"
            members[c, s] = run
    return members


def gathered_members(index, centers, axes, radius, half_depth):
    members = [[] for _ in range(len(centers))]
    for core, _, point in member_blocks(index, centers, axes, radius, half_depth):
        for c, p in zip(core, point):
            members[c].append(int(p))
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


def two_planes(rng, n, gap, noise=0.0):
    """A plane of ``n`` points and its copy ``gap`` along its normal, which
    it also returns."""
    first = plane(rng, n, noise)
    normal = np.linalg.svd(first - first.mean(axis=0))[2][2]
    return np.concatenate([first, first + gap * normal]), normal


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

    @pytest.mark.parametrize("radius,half_depth", [(0.25, 1.0), (0.25, 0.75), (0.1, 0.9)])
    def test_side_members_of_two_planes(self, radius, half_depth):
        # each plane lies 0.5 m along the axis of the other's cylinders, in
        # off-center slabs (one side, then the other) that only side balls reach
        rng = np.random.default_rng(13)
        points, normal = two_planes(rng, 800, 0.5)
        axis, fixed = exact_units(normal)
        assert fixed.all()
        centers = points[np.r_[0:50, 800:850]]
        axes = np.repeat(axis, len(centers), axis=0)
        assert_matches_oracle(points, centers, axes, radius, half_depth)
        k = _slab_count(radius, half_depth)
        blocks = assert_same_pairs(NnIndex(points), centers, axes, radius, half_depth)
        side = np.sign(np.concatenate([slab for _, slab, _ in blocks]) - k // 2)
        assert (side == -1).sum() > 100 and (side == 1).sum() > 100

    def test_lone_plane_joins_no_side_ball(self, monkeypatch):
        rng = np.random.default_rng(14)
        points = plane(rng, 2000, noise=0.01)
        index = NnIndex(points)
        normals, valid = estimate_normals(index, points[:300], 0.5)
        joined, gather = [], NnIndex.within_radius_many

        def spy(self, queries, radius):
            joined.append((len(queries), radius))
            return gather(self, queries, radius)

        monkeypatch.setattr(NnIndex, "within_radius_many", spy)
        blocks = member_blocks(index, points[:300][valid], normals[valid], 0.25, 1.0)
        # one ball per cylinder, all at the center slab's reach
        assert sum(n for n, _ in joined) == valid.sum() > 250
        assert len({radius for _, radius in joined}) == 1
        assert all(np.all(slab == 2) for _, slab, _ in blocks)
        assert sum(point.size for _, _, point in blocks) > 250

    @pytest.mark.parametrize("budget", [1, 700])
    def test_means_do_not_depend_on_block_cuts(self, monkeypatch, budget):
        # nine slabs per cylinder; a budget of 1 gathers each cylinder alone,
        # where numpy's sum over its nine slab sums would pair them up
        rng = np.random.default_rng(11)
        points = rng.uniform(-1.0, 1.0, (3000, 3)) + [3.0, -7.0, 5.0]
        index = NnIndex(points)
        centers, axes = points[:100], rng.normal(size=(100, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        assert _slab_count(0.1, 0.9) == 9
        means, counts = cylinder_means(index, centers, axes, 0.1, 0.9)
        monkeypatch.setattr(spatial, "_CANDIDATE_BUDGET", budget)
        blocked_means, blocked_counts = cylinder_means(index, centers, axes, 0.1, 0.9)
        assert np.array_equal(blocked_counts, counts) and counts.min() > 0
        assert np.array_equal(blocked_means.view(np.int64), means.view(np.int64))

    def test_blocks_respect_budget(self, monkeypatch):
        # a second plane 0.5 m off holds side members, so both passes join
        rng = np.random.default_rng(6)
        points, _ = two_planes(rng, 1500, 0.5, noise=0.02)
        index = NnIndex(points)
        centers = points[:500]
        normals, valid = estimate_normals(index, centers, 0.5)
        centers, normals = centers[valid], normals[valid]
        whole = gathered_members(index, centers, normals, 0.25, 1.0)
        held = []
        gather = NnIndex.within_radius_many

        def spy(self, queries, radius):
            pairs = gather(self, queries, radius)
            held.append((radius, len(pairs[0])))
            return pairs

        monkeypatch.setattr(spatial, "_CANDIDATE_BUDGET", 2000)
        monkeypatch.setattr(NnIndex, "within_radius_many", spy)
        # a block holds one lane's share: two for the main lane, four per worker
        cap = 2000 // (4 * spatial._lane_count() - 2)
        blocked = gathered_members(index, centers, normals, 0.25, 1.0)
        reaches = {radius for radius, _ in held}
        assert len(reaches) == 2  # the center balls' pass and the side balls'
        for reach in reaches:
            pairs = [n for radius, n in held if radius == reach]
            assert len(pairs) > 5
            assert max(pairs) <= cap
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))

        # coincident points make the pair bound exact: 100 pairs per query,
        # so each block takes the whole queries a share holds, the last the rest
        held.clear()
        stacked = NnIndex(np.full((100, 3), 2.0))
        estimate_normals(stacked, np.full((95, 3), 2.0), 0.5)
        full, rest = divmod(9500, cap // 100 * 100)
        pairs = sorted((n for _, n in held), reverse=True)
        assert pairs == [cap // 100 * 100] * full + [rest] * (rest > 0)
        assert max(pairs) <= cap

    def test_lanes_under_rapid_thread_switching(self, monkeypatch):
        # more lanes than cores, a thread switch every microsecond and blocks
        # of a few cores: each block runs once, and every normal, count and
        # mean equals one lane's bit for bit
        rng = np.random.default_rng(12)
        points, _ = two_planes(rng, 750, 0.5, noise=0.02)
        index = NnIndex(points)

        def m3c2_gathers():
            normals, valid = estimate_normals(index, points, 0.5)
            return normals, valid, *cylinder_means(index, points[valid], normals[valid], 0.25, 1.0)

        monkeypatch.setattr(spatial, "_lane_count", lambda: 1)
        want = m3c2_gathers()
        calls, gather = [], spatial._gather

        def recorded(index, n, queries_of, radius, kernel):
            ran = []
            calls.append((n, ran))

            def once(lo, hi, query, point):
                ran.append((lo, hi))
                kernel(lo, hi, query, point)

            gather(index, n, queries_of, radius, once)

        monkeypatch.setattr(spatial, "_gather", recorded)
        monkeypatch.setattr(spatial, "_lane_count", lambda: 8)
        monkeypatch.setattr(spatial, "_CANDIDATE_BUDGET", 30_000)
        got, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: got.append(m3c2_gathers()), daemon=True)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        # the normals, then the center and the side balls of the cylinders
        assert not runner.is_alive() and len(got) == 1 and len(calls) == 3
        for n, ran in calls:
            starts, ends = zip(*sorted(ran))
            assert len(ran) > 8 and starts[0] == 0 and ends[-1] == n and starts[1:] == ends[:-1]
        for a, b in zip(got[0], want):
            assert a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))

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
    normals, valid = estimate_normals(index_r, real.xyz, params.normal_scale_m)
    signed = []
    for core, n, ok in zip(real.xyz, normals, valid):
        if not ok:
            continue
        geometry = (params.projection_radius_m, params.max_depth_m)
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
        assert (got.inlier_count, got.outlier_count) == (inliers, outliers)
        if median is None:
            assert got.m3c2_median is None
        else:
            assert abs(got.m3c2_median - median) <= 1e-12

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
        assert (got.m3c2_median, got.inlier_count, got.outlier_count) == pytest.approx(
            brute_force_m3c2(real, synth, params), abs=1e-12
        )
        assert got.inlier_count == 64
        assert got.outlier_count == 43

    def test_empty_synthetic_class(self):
        real = labeled(plane(np.random.default_rng(3), 100))
        got = m3c2_class_distance(real, LabeledPointCloud.empty())
        assert (got.m3c2_median, got.inlier_count, got.outlier_count) == (None, 0, 100)


# ---------------------------------------------------------------------------
# the row-vector kernels that the column-wise ones replaced, kept as the
# reference the new ones must match bit for bit
# ---------------------------------------------------------------------------


def row_ball_count_bound(points, radius):
    lo, hi = points.min(axis=0), points.max(axis=0)
    edge = 2.0 * radius * (1.0 + 1e-6)
    while True:
        origin = lo - edge
        shape = tuple(int(k) + 2 for k in (hi - origin) // edge)
        if math.prod(shape) <= 8 * points.shape[0] + 4096:
            break
        edge *= 2.0
    last = np.array(shape) - 1

    def cells(xyz):
        return np.floor((xyz - origin) / edge).astype(np.int64)

    counts = np.bincount(np.ravel_multi_index(cells(points).T, shape), minlength=math.prod(shape))

    def bound(centers):
        base = cells(centers - radius * (1.0 + 1e-7))
        total = np.zeros(centers.shape[0], dtype=np.int64)
        for step in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                     (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)):
            total += counts[np.ravel_multi_index(np.clip(base + step, 0, last).T, shape)]
        return total

    return bound


def pair_blocks(index, n, queries_of, radius):
    """The gathers' blocks and their joined pairs, in order."""
    blocks = []
    spatial._gather(index, n, queries_of, radius, lambda *block: blocks.append(block))
    return sorted(blocks, key=lambda block: block[0])


def row_estimate_normals(index, at, scale):
    at = np.asarray(at, dtype=np.float64).reshape(-1, 3)
    normals = np.zeros((at.shape[0], 3))
    valid = np.zeros(at.shape[0], dtype=bool)
    for lo, hi, q, p in pair_blocks(index, at.shape[0], lambda lo, hi: at[lo:hi], scale):
        m = hi - lo
        counts = np.bincount(q, minlength=m)
        pts = index.points[p]
        sums = np.column_stack([np.bincount(q, pts[:, d], m) for d in range(3)])
        means = sums / np.maximum(counts, 1)[:, None]
        centered = pts - means[q]
        cov = np.empty((m, 3, 3))
        for a, b in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
            cov[:, a, b] = cov[:, b, a] = np.bincount(q, centered[:, a] * centered[:, b], m)
        usable = np.flatnonzero(counts >= 3)
        cov = cov[usable] / counts[usable, None, None]
        eigvals, eigvecs = np.linalg.eigh(cov)
        rank_ok = eigvals[:, 1] > spatial._RANK_RATIO * eigvals[:, 2]
        rows = lo + usable[rank_ok]
        normals[rows] = spatial._orient_normals(eigvecs[rank_ok, :, 0])
        valid[rows] = True
    return normals, valid


def row_cylinder_pairs(index, centers, axes, radius, half_depth):
    """One ball per slab, on the axis, that just encloses the slab's piece
    of the cylinder: blocks ``(lo, hi, core, slab, point)`` of balls
    ``[lo, hi)``, ball ``core * K + slab``, each keeping the members of its slab."""
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    axes = np.asarray(axes, dtype=np.float64).reshape(-1, 3)
    k = _slab_count(radius, half_depth)
    thick = 2.0 * half_depth / k
    offsets = (np.arange(k) - (k - 1) / 2) * thick
    slack = 4.0 * np.spacing(float(np.abs(centers).max(initial=0.0)))
    reach = float(np.hypot(radius, thick / 2)) * (1.0 + 1e-9) + slack
    balls = (centers[:, None] + offsets[:, None] * axes[:, None]).reshape(-1, 3)

    for lo, hi, q, p in pair_blocks(index, len(balls), lambda lo, hi: balls[lo:hi], reach):
        core, slab = np.divmod(lo + q, k)
        rel = index.points[p] - centers[core]
        axial = np.einsum("ij,ij->i", rel, axes[core])
        radial2 = np.maximum(np.einsum("ij,ij->i", rel, rel) - axial**2, 0.0)
        home = np.clip(np.floor((axial + half_depth) / thick), 0, k - 1)
        keep = (home == slab) & (np.abs(axial) <= half_depth) & (radial2 <= radius * radius)
        yield lo, hi, core[keep], slab[keep], p[keep]


def row_cylinder_means(index, centers, axes, radius, half_depth):
    """Means and counts from the one-ball-per-slab gather: per ball in the
    indexed tree's order, then slab by slab."""
    n, k = len(centers), _slab_count(radius, half_depth)
    sums, counts = np.zeros((n * k, 3)), np.zeros(n * k, dtype=np.int64)
    for lo, hi, core, slab, p in row_cylinder_pairs(index, centers, axes, radius, half_depth):
        ball = core * k + slab - lo
        counts[lo:hi] = np.bincount(ball, minlength=hi - lo)
        for d in range(3):
            sums[lo:hi, d] = np.bincount(ball, index.points[p, d], hi - lo)
    counts = counts.reshape(n, k).sum(axis=1)
    return sums.reshape(n, k, 3).cumsum(axis=1)[:, -1] / np.maximum(counts, 1)[:, None], counts


def reference(run):
    """``run()`` with the row-vector pair bound cutting the blocks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spatial, "_ball_count_bound", row_ball_count_bound)
        return run()


def _einsum_sums_x_z_then_y():
    a, b = np.random.default_rng(0).normal(size=(2, 4096, 3))
    return np.array_equal(np.einsum("ij,ij->i", a, b),
                          (a[:, 0] * b[:, 0] + a[:, 2] * b[:, 2]) + a[:, 1] * b[:, 1])


einsum_order = pytest.mark.skipif(
    not _einsum_sums_x_z_then_y(),
    reason="this numpy build's einsum sums three terms in another order than (x + z) + y, "
    "which the column-wise cylinder filter reproduces",
)


def assert_same_normals(index, at, scale):
    normals, valid = estimate_normals(index, at, scale)
    want_normals, want_valid = reference(lambda: row_estimate_normals(index, at, scale))
    assert np.array_equal(valid, want_valid)
    assert np.array_equal(normals.view(np.int64), want_normals.view(np.int64))
    return normals, valid


def assert_same_pairs(index, centers, axes, radius, half_depth):
    """Each (core, slab) gets the members of the one-ball-per-slab gather,
    in its order, and the means and counts are those of its sums bit for bit."""
    k = _slab_count(radius, half_depth)
    got = member_blocks(index, centers, axes, radius, half_depth)
    want = reference(lambda: list(row_cylinder_pairs(index, centers, axes, radius, half_depth)))
    got_members, want_members = slab_members(got, k), slab_members([b[2:] for b in want], k)
    assert got_members.keys() == want_members.keys()
    for cell, points in got_members.items():
        assert np.array_equal(points, want_members[cell]), f"core {cell[0]}, slab {cell[1]}"
    means, counts = cylinder_means(index, centers, axes, radius, half_depth)
    want_means, want_counts = reference(lambda: row_cylinder_means(index, centers, axes, radius, half_depth))
    assert counts.dtype == want_counts.dtype and np.array_equal(counts, want_counts)
    assert np.array_equal(means.view(np.int64), want_means.view(np.int64))
    return got


def assert_same_bounds(points, radius, centers):
    got = spatial._ball_count_bound(points, radius)(centers)
    want = row_ball_count_bound(points, radius)(centers)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


def assert_same_m3c2_kernels(real_xyz, synth_xyz, params=M3c2Params()):
    """Normals at every real point, then the real and synthetic cylinder
    pairs at the cores with a valid normal, as ``metric._real_side`` runs them."""
    index_r = NnIndex(real_xyz)
    normals, valid = assert_same_normals(index_r, real_xyz, params.normal_scale_m)
    cores, axes = real_xyz[valid], normals[valid]
    geometry = (params.projection_radius_m, params.max_depth_m)
    for index in (index_r, NnIndex(synth_xyz)):
        assert_same_pairs(index, cores, axes, *geometry)


@einsum_order
class TestColumnKernelsMatchRowKernels:
    def test_every_street_class(self, street_scene_pair):
        parts_r, parts_s = (partition_by_class(c) for c in street_scene_pair)
        checked = 0
        for cls, part in parts_r.items():
            if len(part) and len(parts_s[cls]):
                assert_same_m3c2_kernels(part.xyz, parts_s[cls].xyz)
                checked += 1
        assert checked == 9

    @pytest.mark.parametrize("seed", range(24))
    def test_random_clouds(self, seed):
        rng = np.random.default_rng(3000 + seed)
        shape = SHAPES[seed % len(SHAPES)]
        real_xyz = shape(rng, int(rng.integers(30, 600)))
        synth_xyz = real_xyz + rng.normal(0.0, 0.05, real_xyz.shape)
        radius, half_depth = random_geometry(rng)
        assert_same_m3c2_kernels(real_xyz, synth_xyz,
                                 M3c2Params(rng.uniform(0.2, 1.0), radius, half_depth))

    def test_utm_scale_coordinates(self):
        shift = np.array([691234.5, 5334567.25, 512.0])
        real, synth = build_street_scene(11, scale=0.1), build_street_scene(21, scale=0.1)
        for cls in (2, 6, 9):
            assert_same_m3c2_kernels(real.xyz[real.labels == cls] + shift,
                                     synth.xyz[synth.labels == cls] + shift)

    def test_many_blocks(self, monkeypatch):
        monkeypatch.setattr(spatial, "_CANDIDATE_BUDGET", 2000)
        rng = np.random.default_rng(8)
        real_xyz = plane(rng, 3000, noise=0.02)
        index = NnIndex(real_xyz)
        normals, valid = assert_same_normals(index, real_xyz, 0.5)
        blocks = assert_same_pairs(index, real_xyz[valid], normals[valid], 0.25, 1.0)
        assert len(blocks) > 20

    @pytest.mark.parametrize("scale", [1.0, 1e5])
    def test_points_on_rims_and_slab_faces(self, scale):
        # at these points membership turns on the last bit of the axial and
        # radial arithmetic, so it follows only from the same sums in the same order
        rng = np.random.default_rng(10)
        radius, half_depth = 0.25, 1.0
        thick = 2.0 * half_depth / _slab_count(radius, half_depth)
        centers = rng.uniform(-5, 5, (40, 3)) * scale
        axes, _ = exact_units(rng.normal(size=(40, 3)))
        side = np.cross(axes, rng.normal(size=(40, 3)))
        side /= np.linalg.norm(side, axis=1, keepdims=True)
        along = rng.uniform(-half_depth, half_depth, (40, 50))
        faces = -half_depth + thick * rng.integers(0, 6, (40, 50))
        rho = rng.uniform(0.0, radius, (40, 50, 1))
        points = np.concatenate([
            centers[:, None] + radius * side[:, None] + along[..., None] * axes[:, None],
            centers[:, None] + rho * side[:, None] + faces[..., None] * axes[:, None],
        ], axis=1).reshape(-1, 3)
        blocks = assert_same_pairs(NnIndex(points), centers, axes, radius, half_depth)
        assert sum(point.size for _, _, point in blocks) > 1000

    @pytest.mark.parametrize("radius", [0.01, 0.25, 3.0])
    def test_bounds_far_outside_the_point_box(self, radius):
        rng = np.random.default_rng(9)
        for shape in SHAPES:
            points = shape(rng, 1500)
            centers = np.concatenate([
                points[:100],
                rng.uniform(-20, 20, (100, 3)),
                rng.normal(0.0, 1.0, (100, 3)) * [1e3, 1e6, 1e9],
                [[1e12, -1e12, 0.0], [-3e15, 0.0, 2e15]],
            ])
            assert_same_bounds(points, radius, centers)
            assert_same_bounds(points + [691234.5, 5334567.25, 512.0], radius,
                               centers + [691234.5, 5334567.25, 512.0])
