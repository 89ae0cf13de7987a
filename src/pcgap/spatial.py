"""Acceleration structures and geometric primitives.

Nearest-neighbor index (kd-tree backed), cylinder queries, covariance-based
normal estimation, half-open voxel grids, and a median-split BVH for
ray-triangle casting. All structures are immutable after build and queries
are pure, so they are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.spatial import cKDTree

MIN_RAY_T = 1e-6  # meters; avoids self-intersection at the emitter origin
_PARALLEL_EPS = 1e-12
_RANK_RATIO = 1e-12
_CANDIDATE_BUDGET = 1_000_000  # (query, point) candidate rows held by one gather pass
_BOUND_BLOCK = 65_536  # items whose pair bounds are computed at once
_MAX_SLABS = 9


class NnIndex:
    """Exact nearest-neighbor index over a fixed point set.

    ``nearest`` reproduces brute-force argmin of the Euclidean distance with
    ties broken by lowest point index.
    """

    def __init__(self, xyz: np.ndarray):
        xyz = np.ascontiguousarray(xyz, dtype=np.float64)
        if xyz.ndim != 2 or xyz.shape[1] != 3 or xyz.shape[0] == 0:
            raise ValueError("index requires a non-empty (N, 3) point array")
        xyz.setflags(write=False)
        self.points = xyz
        self._tree = cKDTree(xyz)

    def __len__(self) -> int:
        return self.points.shape[0]

    def nearest(self, point) -> tuple[int, float]:
        """Index and distance of the closest point; ties go to the lowest index."""
        p = np.asarray(point, dtype=np.float64).reshape(3)
        d0, _ = self._tree.query(p)
        # collect every point at the minimal distance, then re-select exactly
        # the way a brute-force argmin over squared distances would
        radius = d0 * (1.0 + 1e-12) + 1e-300
        cand = np.sort(np.asarray(self._tree.query_ball_point(p, radius), dtype=np.int64))
        diff = self.points[cand] - p
        d2 = np.einsum("ij,ij->i", diff, diff)
        pick = int(np.argmin(d2))
        return int(cand[pick]), float(np.sqrt(d2[pick]))

    def nearest_distances(self, points: np.ndarray) -> np.ndarray:
        """Distance from each query point to its nearest indexed point."""
        d, _ = self._tree.query(np.asarray(points, dtype=np.float64), workers=-1)
        return np.atleast_1d(d)

    def within_radius_many(self, points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Every (query row, point index) pair with distance <= radius, as two
        flat int64 arrays in an unspecified but deterministic order."""
        # a median split is slower to build and no faster to join here
        queries = cKDTree(np.asarray(points, dtype=np.float64).reshape(-1, 3), balanced_tree=False)
        pairs = queries.sparse_distance_matrix(self._tree, radius, output_type="ndarray")
        return pairs["i"].astype(np.int64), pairs["j"].astype(np.int64)

    def count_within_radius_many(self, points: np.ndarray, radius: float) -> np.ndarray:
        return np.atleast_1d(
            self._tree.query_ball_point(
                np.asarray(points, dtype=np.float64), radius, workers=-1, return_length=True
            )
        )

    def within_cylinder(self, center, axis, radius: float, half_depth: float) -> np.ndarray:
        """Indices of points inside a finite cylinder.

        The cylinder is centered at ``center`` with its axis along ``axis``
        (normalized internally), extending ``half_depth`` both ways.
        Boundaries are inclusive.
        """
        center = np.asarray(center, dtype=np.float64).reshape(3)
        axis = np.asarray(axis, dtype=np.float64).reshape(3)
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise ValueError("cylinder axis must be non-zero")
        axis = axis / norm
        reach = float(np.hypot(radius, half_depth)) * (1.0 + 1e-12)
        cand = np.asarray(self._tree.query_ball_point(center, reach), dtype=np.int64)
        if cand.size == 0:
            return cand
        rel = self.points[cand] - center
        axial = rel @ axis
        radial2 = np.maximum(np.einsum("ij,ij->i", rel, rel) - axial**2, 0.0)
        keep = (np.abs(axial) <= half_depth) & (radial2 <= radius * radius)
        return np.sort(cand[keep])


def build_index(cloud) -> NnIndex:
    """Index a labeled cloud's coordinates; rejects empty clouds."""
    if len(cloud) == 0:
        raise ValueError("cannot build an index over an empty cloud")
    return NnIndex(cloud.xyz)


# ---------------------------------------------------------------------------
# blocked pair gathers: radius neighborhoods and finite cylinders
# ---------------------------------------------------------------------------


def _ball_count_bound(points: np.ndarray, radius: float):
    """Return ``bound(centers)``: an upper bound on the number of points
    within ``radius`` of each center, without a tree query.

    Points are counted per cell of a dense grid whose cells are at least as
    wide as a ball, so each ball's bounding box meets at most 2 x 2 x 2
    cells; a ball holds at most the points of those cells. Cells widen as
    needed to keep the grid within a few cells per point.
    """
    lo, hi = points.min(axis=0), points.max(axis=0)
    edge = 2.0 * radius * (1.0 + 1e-6)
    while True:
        # an empty outer layer on every side takes the balls beyond the points
        origin = lo - edge
        shape = tuple(int(k) + 2 for k in (hi - origin) // edge)
        if math.prod(shape) <= 8 * points.shape[0] + 4096:
            break
        edge *= 2.0
    last = np.array(shape) - 1

    def cells(xyz):
        return np.floor((xyz - origin) / edge).astype(np.int64)

    counts = np.bincount(np.ravel_multi_index(cells(points).T, shape), minlength=math.prod(shape))

    def bound(centers: np.ndarray) -> np.ndarray:
        base = cells(centers - radius * (1.0 + 1e-7))
        total = np.zeros(centers.shape[0], dtype=np.int64)
        for step in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                     (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)):
            total += counts[np.ravel_multi_index(np.clip(base + step, 0, last).T, shape)]
        return total

    return bound


def _pair_blocks(index: NnIndex, n: int, queries_of, radius: float):
    """Yield ``(lo, hi, query, point)`` over contiguous blocks ``[lo, hi)``
    of ``n`` items. ``queries_of(lo, hi)`` stacks the block's query balls
    as ``k`` runs of ``hi - lo`` rows, one ball per item in each run;
    ``query`` indexes those rows.

    Blocks are cut so that each provably holds at most ``_CANDIDATE_BUDGET``
    pairs by :func:`_ball_count_bound`; an item over the budget on its own
    is gathered alone.
    """
    bound = _ball_count_bound(index.points, radius)
    load = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _BOUND_BLOCK):
        hi = min(lo + _BOUND_BLOCK, n)
        load[lo:hi] = bound(queries_of(lo, hi)).reshape(-1, hi - lo).sum(axis=0)
    ends = np.cumsum(load)
    lo = 0
    while lo < n:
        held_before = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, held_before + _CANDIDATE_BUDGET, side="right")), lo + 1)
        yield lo, hi, *index.within_radius_many(queries_of(lo, hi), radius)
        lo = hi


def _slab_count(radius: float, half_depth: float) -> int:
    """Number of balls stacked along a cylinder's axis: the smallest odd
    integer >= half_depth / radius, capped at ``_MAX_SLABS``. Odd keeps one
    ball centered on the cylinder's center; 1 is the circumscribed ball."""
    k = min(math.ceil(half_depth / radius), _MAX_SLABS)
    return k + 1 - k % 2


def cylinder_pairs(index: NnIndex, centers: np.ndarray, axes: np.ndarray,
                   radius: float, half_depth: float):
    """Indexed points inside each of many finite cylinders, block by block.

    Cylinder ``i`` is centered at ``centers[i]`` along the unit axis
    ``axes[i]``; membership is the inclusive test of
    :meth:`NnIndex.within_cylinder`. Yields ``(lo, hi, row, point)`` with
    ``row`` counted from ``lo``; each member pair appears exactly once.

    The axis span ``[-half_depth, half_depth]`` is cut into K equal slabs
    (see :func:`_slab_count`), each covered by one query ball on the axis
    that just encloses the slab's piece of the cylinder. A candidate counts
    only in the slab its axial coordinate falls in, so no pair repeats, and
    far fewer candidates are gathered than with the one circumscribed ball.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    axes = np.asarray(axes, dtype=np.float64).reshape(-1, 3)
    k = _slab_count(radius, half_depth)
    thick = 2.0 * half_depth / k
    offsets = (np.arange(k) - (k - 1) / 2) * thick
    # slack for rounding in the ball centers, which matters at large coordinates
    slack = 4.0 * np.spacing(float(np.abs(centers).max(initial=0.0)))
    reach = float(np.hypot(radius, thick / 2)) * (1.0 + 1e-9) + slack

    def balls(lo, hi):
        return (centers[lo:hi] + offsets[:, None, None] * axes[lo:hi]).reshape(-1, 3)

    for lo, hi, q, p in _pair_blocks(index, centers.shape[0], balls, reach):
        slab, row = np.divmod(q, hi - lo)
        core = lo + row
        rel = index.points[p] - centers[core]
        axial = np.einsum("ij,ij->i", rel, axes[core])
        radial2 = np.maximum(np.einsum("ij,ij->i", rel, rel) - axial**2, 0.0)
        home = np.clip(np.floor((axial + half_depth) / thick), 0, k - 1)
        keep = (home == slab) & (np.abs(axial) <= half_depth) & (radial2 <= radius * radius)
        yield lo, hi, row[keep], p[keep]


def cylinder_means(index: NnIndex, centers: np.ndarray, axes: np.ndarray,
                   radius: float, half_depth: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean position and count of the indexed points in each cylinder of
    :func:`cylinder_pairs`; the mean of an empty cylinder is zero."""
    n = len(centers)
    sums = np.zeros((n, 3))
    counts = np.zeros(n, dtype=np.int64)
    for lo, hi, row, p in cylinder_pairs(index, centers, axes, radius, half_depth):
        pts = index.points[p]
        counts[lo:hi] = np.bincount(row, minlength=hi - lo)
        for d in range(3):
            sums[lo:hi, d] = np.bincount(row, pts[:, d], hi - lo)
    return sums / np.maximum(counts, 1)[:, None], counts


# ---------------------------------------------------------------------------
# normal estimation
# ---------------------------------------------------------------------------


def _orient_normals(normals: np.ndarray) -> np.ndarray:
    """Fix sign so z >= 0, breaking ties by y >= 0 then x >= 0."""
    z, y, x = normals[:, 2], normals[:, 1], normals[:, 0]
    flip = (z < 0) | ((z == 0) & (y < 0)) | ((z == 0) & (y == 0) & (x < 0))
    out = normals.copy()
    out[flip] *= -1.0
    return out


def estimate_normals(index: NnIndex, at: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Covariance normals at many query positions.

    For each query, fits the neighborhood of indexed points within ``scale``
    and takes the unit eigenvector of the smallest covariance eigenvalue.
    Returns ``(normals, valid)``; rows with a degenerate neighborhood
    (fewer than 3 points, or covariance rank < 2) are invalid.

    Queries are processed in vectorized blocks of at most
    ``_CANDIDATE_BUDGET`` neighbor pairs.
    """
    at = np.asarray(at, dtype=np.float64).reshape(-1, 3)
    normals = np.zeros((at.shape[0], 3))
    valid = np.zeros(at.shape[0], dtype=bool)
    for lo, hi, q, p in _pair_blocks(index, at.shape[0], lambda lo, hi: at[lo:hi], scale):
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
        rank_ok = eigvals[:, 1] > _RANK_RATIO * eigvals[:, 2]
        rows = lo + usable[rank_ok]
        normals[rows] = _orient_normals(eigvecs[rank_ok, :, 0])
        valid[rows] = True
    return normals, valid


def estimate_normal(index: NnIndex, at, scale: float) -> np.ndarray | None:
    """Single-point form of :func:`estimate_normals`; None when degenerate."""
    normals, valid = estimate_normals(index, np.asarray(at, dtype=np.float64).reshape(1, 3), scale)
    if not valid[0]:
        return None
    return normals[0]


# ---------------------------------------------------------------------------
# voxel grid
# ---------------------------------------------------------------------------


def grid_origin(xyz: np.ndarray, edge: float) -> np.ndarray:
    """Bounding-box minimum aligned down to a multiple of the edge length."""
    if edge <= 0:
        raise ValueError("voxel edge must be positive")
    xyz = np.asarray(xyz, dtype=np.float64)
    if xyz.size == 0:
        return np.zeros(3)
    return np.floor(xyz.min(axis=0) / edge) * edge


@dataclass(frozen=True)
class VoxelGrid:
    """Half-open cubic cells ``[k*edge, (k+1)*edge)`` anchored at ``origin``.

    ``cells`` maps voxel coordinate triples to per-class point counts;
    ``occupied`` reduces that to the set of classes present per voxel.
    """

    origin: tuple[float, float, float]
    edge: float
    cells: Mapping[tuple[int, int, int], Mapping[int, int]]

    @property
    def occupied(self) -> dict[tuple[int, int, int], frozenset[int]]:
        return {v: frozenset(c.keys()) for v, c in self.cells.items()}

    def class_voxels(self, class_id: int) -> set[tuple[int, int, int]]:
        return {v for v, c in self.cells.items() if int(class_id) in c}

    def total_points(self) -> int:
        return sum(sum(c.values()) for c in self.cells.values())


def voxel_key_of(xyz: np.ndarray, edge: float, origin) -> np.ndarray:
    """Integer voxel coordinates, floor rule, one row per point."""
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    return np.floor((np.asarray(xyz, dtype=np.float64) - origin) / edge).astype(np.int64)


def voxelize(cloud, edge: float, origin=None) -> VoxelGrid:
    """Register every point of a labeled cloud under its class in one voxel."""
    if edge <= 0:
        raise ValueError("voxel edge must be positive")
    if origin is None:
        origin = grid_origin(cloud.xyz, edge)
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    cells: dict[tuple[int, int, int], dict[int, int]] = {}
    if len(cloud):
        keys = voxel_key_of(cloud.xyz, edge, origin)
        rows = np.column_stack([keys, cloud.labels.astype(np.int64)])
        uniq, counts = np.unique(rows, axis=0, return_counts=True)
        for (i, j, k, cid), n in zip(uniq, counts):
            cells.setdefault((int(i), int(j), int(k)), {})[int(cid)] = int(n)
    return VoxelGrid(tuple(float(o) for o in origin), float(edge), cells)


# ---------------------------------------------------------------------------
# BVH ray casting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RayHit:
    t: float
    triangle: int
    class_id: int
    point: np.ndarray


def ray_triangles(origin: np.ndarray, direction: np.ndarray,
                  v0: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Moller-Trumbore distances from rays to triangles (inf = miss).

    Inputs broadcast over leading axes, e.g. one ray against (T, 3) triangles
    or (R, 1, 3) rays against (T, 3) triangles. Boundary comparisons are
    inclusive so rays hitting a shared edge register on both triangles; hits
    closer than MIN_RAY_T are discarded.
    """
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
            (np.abs(det) > _PARALLEL_EPS)
            & (u >= 0.0)
            & (v >= 0.0)
            & (u + v <= 1.0)
            & (t > MIN_RAY_T)
        )
    return np.where(hit, t, np.inf)


def _check_unit(direction: np.ndarray) -> np.ndarray:
    direction = np.asarray(direction, dtype=np.float64)
    norms = np.linalg.norm(direction, axis=-1)
    if not np.all(np.abs(norms - 1.0) <= 1e-9):
        raise ValueError("ray directions must be unit length")
    return direction


_LEAF_SIZE = 8
_SMALL_MESH_TRIS = 512


class Bvh:
    """Median-split bounding-volume hierarchy over a class-tagged triangle soup.

    ``raycast`` returns the nearest intersection with t > MIN_RAY_T, matching
    a brute-force scan over all triangles (ties broken by lowest triangle id).
    """

    def __init__(self, mesh):
        if len(mesh.triangles) == 0:
            raise ValueError("cannot build a BVH over an empty mesh")
        tri = np.asarray(mesh.triangles, dtype=np.int64)
        verts = np.asarray(mesh.vertices, dtype=np.float64)
        self.v0 = np.ascontiguousarray(verts[tri[:, 0]])
        self.v1 = np.ascontiguousarray(verts[tri[:, 1]])
        self.v2 = np.ascontiguousarray(verts[tri[:, 2]])
        self.tri_class = np.asarray(mesh.triangle_classes, dtype=np.uint8)
        self.n_tris = tri.shape[0]
        self._build()

    def _build(self):
        tri_min = np.minimum(np.minimum(self.v0, self.v1), self.v2)
        tri_max = np.maximum(np.maximum(self.v0, self.v1), self.v2)
        centroids = (self.v0 + self.v1 + self.v2) / 3.0

        order = np.arange(self.n_tris)
        node_min, node_max, node_left, node_right = [], [], [], []
        node_start, node_count = [], []

        def new_node():
            node_min.append(None)
            node_max.append(None)
            node_left.append(-1)
            node_right.append(-1)
            node_start.append(-1)
            node_count.append(0)
            return len(node_min) - 1

        stack = [(new_node(), 0, self.n_tris)]
        while stack:
            node, lo, hi = stack.pop()
            ids = order[lo:hi]
            node_min[node] = tri_min[ids].min(axis=0)
            node_max[node] = tri_max[ids].max(axis=0)
            if hi - lo <= _LEAF_SIZE:
                node_start[node] = lo
                node_count[node] = hi - lo
                continue
            cen = centroids[ids]
            extent = cen.max(axis=0) - cen.min(axis=0)
            axis = int(np.argmax(extent))
            mid = (hi - lo) // 2
            part = np.argpartition(cen[:, axis], mid)
            order[lo:hi] = ids[part]
            left, right = new_node(), new_node()
            node_left[node] = left
            node_right[node] = right
            stack.append((left, lo, lo + mid))
            stack.append((right, lo + mid, hi))

        self._order = order
        self._node_min = np.array(node_min)
        self._node_max = np.array(node_max)
        self._left = np.array(node_left, dtype=np.int64)
        self._right = np.array(node_right, dtype=np.int64)
        self._start = np.array(node_start, dtype=np.int64)
        self._count = np.array(node_count, dtype=np.int64)

    def _slab_entry(self, node: int, origin: np.ndarray, inv_dir: np.ndarray) -> float:
        """Entry distance of the ray into the node box, or inf when missed."""
        t1 = (self._node_min[node] - origin) * inv_dir
        t2 = (self._node_max[node] - origin) * inv_dir
        tmin = np.minimum(t1, t2)
        tmax = np.maximum(t1, t2)
        enter = np.nanmax(tmin)
        leave = np.nanmin(tmax)
        if leave < max(enter, 0.0):
            return np.inf
        return max(enter, 0.0)

    def _leaf_best(self, node: int, origin, direction) -> tuple[float, int]:
        lo = self._start[node]
        ids = self._order[lo : lo + self._count[node]]
        t = ray_triangles(origin, direction, self.v0[ids], self.v1[ids], self.v2[ids])
        best_t, best_id = np.inf, -1
        for k in range(len(ids)):
            tk, idk = t[k], int(ids[k])
            if tk < best_t or (tk == best_t and idk < best_id):
                best_t, best_id = tk, idk
        return best_t, best_id

    def raycast(self, origin, direction) -> RayHit | None:
        """Nearest hit along a unit-direction ray, or None on miss."""
        origin = np.asarray(origin, dtype=np.float64).reshape(3)
        direction = _check_unit(np.asarray(direction, dtype=np.float64).reshape(3))
        with np.errstate(divide="ignore"):
            inv_dir = 1.0 / direction
        best_t, best_id = np.inf, -1
        stack = [0]
        # a zero direction component starting on a box face gives 0 * inf = nan
        # in the slab test, which nanmax/nanmin skip
        with np.errstate(invalid="ignore"):
            while stack:
                node = stack.pop()
                entry = self._slab_entry(node, origin, inv_dir)
                if entry > best_t or entry == np.inf:
                    continue
                if self._count[node] > 0:
                    t, tid = self._leaf_best(node, origin, direction)
                    if t < best_t or (t == best_t and -1 < tid < best_id):
                        best_t, best_id = t, tid
                    continue
                stack.append(int(self._left[node]))
                stack.append(int(self._right[node]))
        if best_id < 0:
            return None
        point = origin + best_t * direction
        return RayHit(float(best_t), best_id, int(self.tri_class[best_id]), point)

    def _raycast_small_batch(self, origins: np.ndarray, directions: np.ndarray):
        """All-pairs kernel; exact match of per-ray traversal for small meshes."""
        n = origins.shape[0]
        t_out = np.full(n, np.inf)
        id_out = np.full(n, -1, dtype=np.int64)
        chunk = max(1, 2_000_000 // max(self.n_tris, 1))
        for s in range(0, n, chunk):
            e = min(s + chunk, n)
            t = ray_triangles(
                origins[s:e, None, :], directions[s:e, None, :], self.v0, self.v1, self.v2
            )
            best = np.argmin(t, axis=1)  # first minimum = lowest triangle id
            best_t = t[np.arange(e - s), best]
            found = best_t < np.inf
            t_out[s:e][found] = best_t[found]
            id_out[s:e][found] = best[found]
        return t_out, id_out

    def raycast_many(self, origins: np.ndarray, directions: np.ndarray):
        """Vector form: returns (t, triangle id, class id) arrays; misses are
        (inf, -1, 0)."""
        origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
        directions = _check_unit(np.asarray(directions, dtype=np.float64).reshape(-1, 3))
        n = origins.shape[0]
        if self.n_tris <= _SMALL_MESH_TRIS:
            t_out, id_out = self._raycast_small_batch(origins, directions)
        else:
            t_out = np.full(n, np.inf)
            id_out = np.full(n, -1, dtype=np.int64)
            for i in range(n):
                hit = self.raycast(origins[i], directions[i])
                if hit is not None:
                    t_out[i] = hit.t
                    id_out[i] = hit.triangle
        cls_out = np.where(id_out >= 0, self.tri_class[np.maximum(id_out, 0)], 0).astype(np.uint8)
        return t_out, id_out, cls_out


def build_bvh(mesh) -> Bvh:
    return Bvh(mesh)


def raycast(bvh: Bvh, origin, direction) -> RayHit | None:
    return bvh.raycast(origin, direction)
