"""Acceleration structures and geometric primitives.

Nearest-neighbor index (kd-tree backed), cylinder queries, covariance-based
normal estimation, voxel coordinates on half-open cells, and a median-split
BVH for ray-triangle casting. All structures are immutable after build and
queries are pure, so they are safe to share across threads.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import DegenerateDataError

MIN_RAY_T = 1e-6  # meters; avoids self-intersection at the emitter origin
_PARALLEL_EPS = 1e-12
_RANK_RATIO = 1e-12
_SIGN_EPS = 1e-12  # normal components this small are rounding noise
_CANDIDATE_BUDGET = 1_000_000  # (query, point) candidate rows held by one gather pass
_BOUND_BLOCK = 65_536  # items whose pair bounds are computed at once
_QUERY_BLOCK = 4_096  # nearest-point queries a lane takes at once
_MAX_SLABS = 9
_LEAF_SIZE = 32  # most triangles in a BVH leaf
# ray-triangle tests per leaf-pass tile: each float64 temporary stays within 128 KiB,
# glibc's default mmap threshold, so it is reused from the heap, not mapped afresh
_LEAF_TILE = 16_384
_MAX_VOXEL_COORD = 2**62  # voxel coordinates this large still cast to int64 exactly


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
        # x, y and z as contiguous rows, for the per-component pair gathers
        self.columns = xyz.T.copy()
        self.columns.setflags(write=False)
        # scipy is imported where a tree is built: only ``compare`` needs
        # one, and every other command starts faster without it
        from scipy.spatial import cKDTree

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

    def nearest_distances(self, points: np.ndarray, upper_bound: float = np.inf, lanes: int = 0) -> np.ndarray:
        """Distance from each query point to its nearest indexed point, inf where none lies
        within ``upper_bound``. Blocks of ``_QUERY_BLOCK`` queries run on ``lanes`` lanes
        (0: one per CPU the process may use; see :func:`_on_lanes`), one query thread each."""
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        d = np.empty(len(points))

        def query(lo):
            d[lo:lo + _QUERY_BLOCK] = self._tree.query(points[lo:lo + _QUERY_BLOCK],
                                                       distance_upper_bound=upper_bound, workers=1)[0]

        _on_lanes(lanes or _lane_count(), range(0, len(points), _QUERY_BLOCK), query)
        return d

    def within_radius_many(self, points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Every (query row, point index) pair with distance <= radius, as two
        flat int64 arrays in an unspecified but deterministic order."""
        from scipy.spatial import cKDTree

        # a median split is slower to build and no faster to join here
        queries = cKDTree(np.asarray(points, dtype=np.float64).reshape(-1, 3), balanced_tree=False)
        pairs = queries.sparse_distance_matrix(self._tree, radius, output_type="ndarray")
        return pairs["i"].astype(np.int64), pairs["j"].astype(np.int64)

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


# ---------------------------------------------------------------------------
# blocked pair gathers: radius neighborhoods and finite cylinders
# ---------------------------------------------------------------------------


def _ball_count_bound(points: np.ndarray, radius: float):
    """Return ``bound(centers)``: an upper bound on the number of points
    within ``radius`` of each center, without a tree query.

    Points are counted per cell of a dense grid whose cells are at least as
    wide as a ball, so each ball's bounding box meets at most 2 x 2 x 2
    cells; a ball holds at most the points of those cells, which a window
    sum over the grid gives in one lookup. Cells widen as needed to keep the
    grid within a few cells per point.
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
        return np.floor((xyz - origin) / edge)

    counts = np.bincount(np.ravel_multi_index(cells(points).astype(np.int64).T, shape),
                         minlength=math.prod(shape))
    # window[b + 1] sums the 2 x 2 x 2 cells from b, each clipped into the
    # grid, for b in [-1, last]: the edge padding repeats the clipped cells
    window = np.pad(counts.reshape(shape), 1, mode="edge")
    window = window[:-1] + window[1:]
    window = window[:, :-1] + window[:, 1:]
    window = window[:, :, :-1] + window[:, :, 1:]

    def bound(centers: np.ndarray) -> np.ndarray:
        # clipped as floats: a center far outside the grid has no int64 cell
        base = np.clip(cells(centers - radius * (1.0 + 1e-7)), -1, last).astype(np.int64) + 1
        return window[tuple(base.T)]

    return bound


def _lane_count() -> int:
    """Lanes the gathers and queries run on: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _on_lanes(lanes: int, tasks, run) -> None:
    """Call ``run(task)`` for each of the sequence ``tasks``: the calling
    thread and a worker thread per further lane, up to one lane per task,
    each take the next task (the work releases the GIL). The first error
    stops the lanes and is raised again on the calling thread."""
    import threading

    pending, lock, failed = iter(tasks), threading.Lock(), []

    def lane():
        try:
            while not failed:
                with lock:
                    task = next(pending, None)
                if task is None:
                    return
                run(task)
        except BaseException as exc:  # raised again on the calling thread
            failed.append(exc)

    workers = [threading.Thread(target=lane) for _ in range(min(lanes, len(tasks)) - 1)]
    for worker in workers:
        worker.start()
    lane()
    for worker in workers:
        worker.join()
    if failed:
        raise failed[0]


def _gather(index: NnIndex, n: int, queries_of, radius: float, kernel) -> None:
    """Call ``kernel(lo, hi, query, point)`` on blocks ``[lo, hi)`` of ``n``
    balls and their pairs within ``radius``; ``query`` indexes the rows of
    ``queries_of(lo, hi)``, the blocks' ball centers. The blocks run on one
    lane per CPU (see :func:`_on_lanes`). A block provably holds at most a
    share of ``_CANDIDATE_BUDGET`` pairs by :func:`_ball_count_bound`: two
    shares for the main lane and four per worker, whose own malloc arena
    keeps what its last block freed. At twice these shares, a street
    compare and its series on 2 CPUs peaked at 101 MB, not 93, in no less time."""
    if n == 0:
        return
    lanes = _lane_count()
    share = max(_CANDIDATE_BUDGET // (4 * lanes - 2), 1)
    bound = _ball_count_bound(index.points, radius)
    load = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _BOUND_BLOCK):
        hi = min(lo + _BOUND_BLOCK, n)
        load[lo:hi] = bound(queries_of(lo, hi))
    held = np.append(0, np.cumsum(load))  # held[i]: the bound on items [0, i)
    starts = [0]
    while (lo := starts[-1]) < n:
        starts.append(max(int(np.searchsorted(held, held[lo] + share, side="right")) - 1, lo + 1))
    _on_lanes(lanes, list(zip(starts, starts[1:])),
              lambda block: kernel(*block, *index.within_radius_many(queries_of(*block), radius)))


def _slab_count(radius: float, half_depth: float) -> int:
    """Number of equal slabs a cylinder's axis span is cut into: the
    smallest odd integer >= half_depth / radius, capped at ``_MAX_SLABS``.
    Odd keeps one slab centered on the cylinder's center."""
    k = min(math.ceil(half_depth / radius), _MAX_SLABS)
    return k + 1 - k % 2


def cylinder_pairs(index: NnIndex, centers: np.ndarray, axes: np.ndarray,
                   radius: float, half_depth: float, kernel) -> None:
    """Indexed points inside each of many finite cylinders, block by block.

    Cylinder ``i`` is centered at ``centers[i]`` along the unit axis
    ``axes[i]``; membership is the inclusive test of
    :meth:`NnIndex.within_cylinder`. Its axis span is cut into K equal slabs
    (see :func:`_slab_count`), and a member belongs to the slab its axial
    coordinate falls in. Calls ``kernel(core, slab, point)`` on blocks of
    members, each (core, slab) whole in one call, in the indexed tree's order.

    Candidates come from a ball on each center that just encloses the center
    slab's piece of the cylinder and, when K > 1, a ball on each side that
    just encloses the slabs beyond it, joined only where a nearest-point
    query finds a point within its reach (most hold none). A candidate
    counts only in the ball that serves its slab, so no pair repeats.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    axes = np.asarray(axes, dtype=np.float64).reshape(-1, 3)
    k = _slab_count(radius, half_depth)
    thick = 2.0 * half_depth / k
    # slack for rounding in the ball centers, which matters at large coordinates
    slack = 4.0 * np.spacing(float(np.abs(centers).max(initial=0.0)))
    center_cols, axis_cols = centers.T.copy(), axes.T.copy()

    def members(core, p, side):
        """The kernel on the members whose slab lies on ``side`` (-1, 0 or 1) of the center slab."""
        axial, radial2 = np.zeros(p.size), np.zeros(p.size)
        # dot products sum as (x + z) + y, as numpy's SIMD einsum does, so
        # that membership is exactly that of the row-vector form
        for d in (0, 2, 1):
            rel = index.columns[d][p]
            rel -= center_cols[d][core]
            axial += rel * axis_cols[d][core]
            radial2 += np.square(rel, out=rel)
        radial2 -= axial * axial  # a negative rounding remainder passes as 0 would
        keep = (radial2 <= radius * radius) & (np.abs(axial) <= half_depth)
        # within the depth only the far end cap needs clipping into the last slab
        home = np.floor((axial + half_depth) / thick, out=axial)
        np.minimum(home, k - 1, out=home)
        keep &= np.sign(np.subtract(home, k // 2, out=radial2), out=radial2) == side
        kernel(core[keep], home[keep].astype(np.int64), p[keep])

    along = (half_depth + thick / 2) / 2
    side_reach = float(np.hypot(radius, (half_depth - thick / 2) / 2)) * (1.0 + 1e-9) + slack
    held = np.zeros(2 * len(centers), dtype=bool)  # side balls 2 * core (toward -axis) and 2 * core + 1

    def sides(balls):
        return centers[balls // 2] + ((balls % 2 * 2 - 1) * along)[:, None] * axes[balls // 2]

    def center(lo, hi, q, p):
        members(lo + q, p, 0)
        if k > 1:  # screened on this lane: query threads would each keep a malloc arena
            near = index.nearest_distances(sides(np.arange(2 * lo, 2 * hi)), side_reach * (1.0 + 1e-6), 1)
            held[2 * lo:2 * hi] = np.isfinite(near)

    reach = float(np.hypot(radius, thick / 2)) * (1.0 + 1e-9) + slack
    _gather(index, len(centers), lambda lo, hi: centers[lo:hi], reach, center)
    cast = np.flatnonzero(held)
    _gather(index, cast.size, lambda lo, hi: sides(cast[lo:hi]), side_reach,
            lambda lo, hi, q, p: members(cast[lo:hi][q] // 2, p, cast[lo:hi][q] % 2 * 2 - 1))


def cylinder_means(index: NnIndex, centers: np.ndarray, axes: np.ndarray,
                   radius: float, half_depth: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean position and count of the indexed points in each cylinder of
    :func:`cylinder_pairs`; the mean of an empty cylinder is zero."""
    n, k = len(centers), _slab_count(radius, half_depth)
    sums = np.zeros((n * k, 3))
    counts = np.zeros(n * k, dtype=np.int64)

    def kernel(core, slab, p):
        # per (core, slab), in the indexed tree's order; each is whole in one
        # call, so lanes write disjoint cells and no sum follows the cuts
        first = core.min(initial=n)
        cell = (core - first) * k + slab
        size = np.bincount(cell)
        hit = np.flatnonzero(size)
        counts[first * k + hit] = size[hit]
        for d in range(3):
            sums[first * k + hit, d] = np.bincount(cell, index.columns[d][p])[hit]

    cylinder_pairs(index, centers, axes, radius, half_depth, kernel)
    counts = counts.reshape(n, k).sum(axis=1)
    # then slab by slab, in slab order
    return sums.reshape(n, k, 3).cumsum(axis=1)[:, -1] / np.maximum(counts, 1)[:, None], counts


# ---------------------------------------------------------------------------
# normal estimation
# ---------------------------------------------------------------------------


def _orient_normals(normals: np.ndarray) -> np.ndarray:
    """Fix sign so z >= 0, breaking ties by y >= 0 then x >= 0; components within
    _SIGN_EPS of zero (rounding noise, like z on a vertical wall) count as zero."""
    x, y, z = np.where(np.abs(normals) <= _SIGN_EPS, 0.0, normals).T
    flip = (z < 0) | ((z == 0) & (y < 0)) | ((z == 0) & (y == 0) & (x < 0))
    return np.where(flip[:, None], -normals, normals)


def estimate_normals(index: NnIndex, at: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Covariance normals at many query positions.

    For each query, fits the neighborhood of indexed points within ``scale``
    and takes the unit eigenvector of the smallest covariance eigenvalue.
    Returns ``(normals, valid)``; rows with a degenerate neighborhood
    (fewer than 3 points, or covariance rank < 2) are invalid.

    Queries are processed in vectorized blocks (see :func:`_gather`).
    """
    at = np.asarray(at, dtype=np.float64).reshape(-1, 3)
    normals = np.zeros((at.shape[0], 3))
    valid = np.zeros(at.shape[0], dtype=bool)

    def kernel(lo, hi, q, p):
        m = hi - lo
        counts = np.bincount(q, minlength=m)
        centered = []
        for column in index.columns:
            values = column[p]
            values -= (np.bincount(q, values, m) / np.maximum(counts, 1))[q]
            centered.append(values)
        usable = np.flatnonzero(counts >= 3)
        cov = np.empty((usable.size, 3, 3))
        for a, b in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
            moment = np.bincount(q, centered[a] * centered[b], m)
            cov[:, a, b] = cov[:, b, a] = moment[usable] / counts[usable]
        eigvals, eigvecs = np.linalg.eigh(cov)
        rank_ok = eigvals[:, 1] > _RANK_RATIO * eigvals[:, 2]
        rows = lo + usable[rank_ok]
        normals[rows] = _orient_normals(eigvecs[rank_ok, :, 0])
        valid[rows] = True

    _gather(index, at.shape[0], lambda lo, hi: at[lo:hi], scale, kernel)
    return normals, valid


# ---------------------------------------------------------------------------
# voxel grid
# ---------------------------------------------------------------------------


def voxelize(cloud, edge: float, origin=None) -> tuple[np.ndarray, np.ndarray]:
    """Grid origin and voxel coordinates ``(i, j, k)`` of a cloud's points,
    one int64 row each, in the half-open cells ``[k*edge, (k+1)*edge)`` from
    ``origin``: by default the bounding-box minimum aligned down to ``edge``.

    A coordinate beyond +-2**62 voxels, where int64 keys could wrap, is a
    DegenerateDataError naming ``voxel_size_m``.
    """
    if edge <= 0:
        raise ValueError("voxel edge must be positive")
    # an overflow to inf, in the origin or the coordinates, is refused below
    with np.errstate(over="ignore"):
        if origin is None:
            origin = np.floor(cloud.xyz.min(axis=0) / edge) * edge if len(cloud) else np.zeros(3)
        origin = np.asarray(origin, dtype=np.float64).reshape(3)
        cells = np.floor((cloud.xyz - origin) / edge)
    if cells.size and not np.abs(cells).max() <= _MAX_VOXEL_COORD:
        raise DegenerateDataError(f"voxel_size_m: {edge!r} m voxels reach coordinate "
                                  f"{np.abs(cells).max():.3g}, beyond 64-bit voxel keys")
    return origin, cells.astype(np.int64)


# ---------------------------------------------------------------------------
# BVH ray casting
# ---------------------------------------------------------------------------


def _moller_trumbore(o, d, v0, e1, e2) -> np.ndarray:
    """Moller-Trumbore distances (inf = miss) on component-first inputs.

    Each argument is an (x, y, z) triple of arrays, all broadcasting
    together: ray origins ``o`` and directions ``d``, triangle corners
    ``v0`` and edges ``e1 = v1 - v0``, ``e2 = v2 - v0``. Every product and
    sum follows ``np.cross`` and ``.sum(axis=-1)`` term by term, so the
    result is bit-identical to the row-vector form of the test.
    """
    (ox, oy, oz), (dx, dy, dz) = o, d
    (ax, ay, az), (e1x, e1y, e1z), (e2x, e2y, e2z) = v0, e1, e2
    px = dy * e2z - dz * e2y
    py = dz * e2x - dx * e2z
    pz = dx * e2y - dy * e2x
    det = e1x * px + e1y * py + e1z * pz
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_det = 1.0 / det
        tx, ty, tz = ox - ax, oy - ay, oz - az
        u = (tx * px + ty * py + tz * pz) * inv_det
        qx = ty * e1z - tz * e1y
        qy = tz * e1x - tx * e1z
        qz = tx * e1y - ty * e1x
        v = (dx * qx + dy * qy + dz * qz) * inv_det
        t = (e2x * qx + e2y * qy + e2z * qz) * inv_det
        hit = (
            (np.abs(det) > _PARALLEL_EPS)
            & (u >= 0.0)
            & (v >= 0.0)
            & (u + v <= 1.0)
            & (t > MIN_RAY_T)
        )
    return np.where(hit, t, np.inf)


def ray_triangles(origin: np.ndarray, direction: np.ndarray,
                  v0: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Moller-Trumbore distances from rays to triangles (inf = miss).

    Inputs broadcast over leading axes, e.g. one ray against (T, 3) triangles
    or (R, 1, 3) rays against (T, 3) triangles. Boundary comparisons are
    inclusive so rays hitting a shared edge register on both triangles; hits
    closer than MIN_RAY_T are discarded.
    """
    v0 = np.asarray(v0, dtype=np.float64)
    # (..., 3) vectors as (3, ...) stacks of x, y, z arrays
    return _moller_trumbore(*(np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)
                              for a in (origin, direction, v0, v1 - v0, v2 - v0)))


class Bvh:
    """Median-split bounding-volume hierarchy over a class-tagged triangle soup.

    The tree is complete: every node of a level splits until none holds more
    than ``_LEAF_SIZE`` triangles, so node ``k``'s children are ``2k + 1``
    and ``2k + 2`` and the leaves are the last level. Casting returns the
    nearest intersection with t > MIN_RAY_T, matching a brute-force scan
    over all triangles (ties broken by lowest triangle id).
    """

    def __init__(self, mesh):
        if len(mesh.triangles) == 0:
            raise ValueError("cannot build a BVH over an empty mesh")
        tri = np.asarray(mesh.triangles, dtype=np.int64)
        verts = np.asarray(mesh.vertices, dtype=np.float64)
        v0, v1, v2 = verts[tri[:, 0]], verts[tri[:, 1]], verts[tri[:, 2]]
        self.tri_class = np.asarray(mesh.triangle_classes, dtype=np.uint8)
        n = tri.shape[0]
        centroids = ((v0 + v1 + v2) / 3.0).T
        # r[a, t]: place of triangle t in centroid order along axis a, ties to the lower id
        by_rank = np.argsort(centroids, axis=1, kind="stable")
        r = np.empty_like(by_rank)
        np.put_along_axis(r, by_rank, np.arange(n)[None], axis=1)
        ranked = np.take_along_axis(centroids, by_rank, axis=1)
        # one level per pass, ``r`` holding the level's ranks node by node; each
        # node's left child takes the lower half along its widest centroid extent
        sizes = np.array([n])
        while sizes.max() > _LEAF_SIZE:
            starts = np.cumsum(sizes) - sizes
            extent = (np.take_along_axis(ranked, np.maximum.reduceat(r, starts, axis=1), axis=1)
                      - np.take_along_axis(ranked, np.minimum.reduceat(r, starts, axis=1), axis=1))
            node = np.repeat(np.arange(sizes.size), sizes)
            key = node * n + np.take_along_axis(r, np.argmax(extent, axis=0)[node][None], axis=0)[0]
            r = np.take(r, np.argsort(key), axis=1)
            sizes = np.column_stack([sizes // 2, sizes - sizes // 2]).ravel()
        # one row of triangle ids per leaf, ascending, padded with triangle
        # n, which has zero area (det = 0, never hit)
        col = np.arange(sizes.max())
        at = np.where(col < sizes[:, None], (np.cumsum(sizes) - sizes)[:, None] + col, -1)
        self._leaf_ids = np.sort(np.append(by_rank[0, r[0]], n)[at], axis=1)
        del r, by_rank, ranked, centroids  # freed before the box pass, which peaks
        # boxes as (min, -max), so that one minimum serves both: a leaf's from
        # its triangles, then each level's from the pairs of the level below
        tri_box = np.vstack([np.hstack([np.minimum(np.minimum(v0, v1), v2),
                                        -np.maximum(np.maximum(v0, v1), v2)]), np.full(6, np.inf)])
        levels = [np.take(tri_box, self._leaf_ids.T, axis=0).min(axis=0)]
        while len(levels[0]) > 1:
            levels.insert(0, levels[0].reshape(-1, 2, 6).min(axis=1))
        box = np.concatenate(levels)
        self._node_min, self._node_max = box[:, :3].copy(), -box[:, 3:]
        # corners and edges are stored component-first
        pad = np.zeros((1, 3))
        self._v0, self._e1, self._e2 = (
            np.ascontiguousarray(np.concatenate([a, pad]).T) for a in (v0, v1 - v0, v2 - v0)
        )

    def raycast_many(self, origins: np.ndarray, directions: np.ndarray):
        """Vector form: returns (t, triangle id, class id) arrays; misses are
        (inf, -1, 0).

        All rays descend the tree together as a frontier of (ray, node)
        pairs, kept on a stack of batches of at most ``_CANDIDATE_BUDGET``
        pairs. Each batch is slab-tested at once; pairs that miss the node's
        box, or enter it beyond the ray's best hit so far, are dropped.
        Leaves are tested against every triangle they hold, in tiles of at
        most ``_LEAF_TILE`` ray-triangle tests. Rays stay in ascending order
        within every batch.
        """
        origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
        directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.abs(np.linalg.norm(directions, axis=1) - 1.0) <= 1e-9):
            raise ValueError("ray directions must be unit length")
        n = origins.shape[0]
        best_t = np.full(n, np.inf)
        best_id = np.full(n, -1, dtype=np.int64)
        with np.errstate(divide="ignore"):
            inv_dir = 1.0 / directions
        first_leaf = len(self._leaf_ids) - 1
        stack = []

        def push(ray, node):
            for lo in range(0, ray.size, _CANDIDATE_BUDGET):
                stack.append((ray[lo : lo + _CANDIDATE_BUDGET], node[lo : lo + _CANDIDATE_BUDGET]))

        push(np.arange(n), np.zeros(n, dtype=np.int64))
        # a zero direction component starting on a box face gives 0 * inf = nan
        # in the slab test, which nanmax/nanmin skip
        with np.errstate(invalid="ignore"):
            while stack:
                ray, node = stack.pop()
                t1 = (self._node_min[node] - origins[ray]) * inv_dir[ray]
                t2 = (self._node_max[node] - origins[ray]) * inv_dir[ray]
                entry = np.maximum(np.nanmax(np.minimum(t1, t2), axis=1), 0.0)
                leave = np.nanmin(np.maximum(t1, t2), axis=1)
                # strict: a box entered exactly at the best t may hold a tied lower id
                live = (leave >= entry) & ~(entry > best_t[ray])
                ray, node = ray[live], node[live]
                leaf = node >= first_leaf
                if leaf.any():
                    self._leaf_pass(origins, directions, ray[leaf], node[leaf] - first_leaf,
                                    best_t, best_id)
                push(np.repeat(ray[~leaf], 2), (2 * node[~leaf, None] + [1, 2]).ravel())
        cls_out = np.where(best_id >= 0, self.tri_class[np.maximum(best_id, 0)], 0).astype(np.uint8)
        return best_t, best_id, cls_out

    def _leaf_pass(self, origins, directions, ray, row, best_t, best_id):
        """Test (ray, leaf row) pairs against their leaves' triangles, a tile
        of at most ``_LEAF_TILE`` tests (one ray at least) at a time, and
        merge each ray's nearest hit into ``best_t`` / ``best_id``, ties to
        the lowest triangle id, so the tiling never changes a result."""
        step = max(1, _LEAF_TILE // self._leaf_ids.shape[1])
        for lo in range(0, ray.size, step):
            r, w = ray[lo : lo + step], row[lo : lo + step]
            # one leaf for the whole pass is broadcast rather than gathered
            ids = self._leaf_ids[w[:1] if (w == w[0]).all() else w]
            t = _moller_trumbore(origins[r].T[:, :, None], directions[r].T[:, :, None],
                                 self._v0[:, ids], self._e1[:, ids], self._e2[:, ids])
            # ids ascend along a row, so the first minimum is the lowest id
            k = np.argmin(t, axis=1)[:, None]
            t = np.take_along_axis(t, k, axis=1)[:, 0]
            tid = np.take_along_axis(ids, k, axis=1)[:, 0]
            # rays ascend, so a ray met in several leaves repeats in a run: keep its best
            if (r[1:] == r[:-1]).any():
                order = np.lexsort((tid, t, r))
                r, t, tid = r[order], t[order], tid[order]
                first = np.r_[True, r[1:] != r[:-1]]
                r, t, tid = r[first], t[first], tid[first]
            cur_t, cur_id = best_t[r], best_id[r]
            win = (t < cur_t) | ((t == cur_t) & (tid < cur_id))
            best_t[r[win]] = t[win]
            best_id[r[win]] = tid[win]
