"""The lane runner and the nearest-point queries on it: distances do not
depend on how many lanes run the query blocks, every kd-tree query of a
street ``compare`` and its offset series runs on one query thread, no lane
starts lanes of its own, and an error on any lane is raised again on the
calling thread."""

import threading

import numpy as np
import pytest
import scipy.spatial

import pcgap.spatial as spatial
from pcgap.cli import EXIT_OK, main
from pcgap.io import FORMAT_PLY_BINARY, write_cloud
from pcgap.spatial import NnIndex, _on_lanes


class QueryLog:
    """A kd-tree stand-in that records the thread and ``workers`` of each query."""

    def __init__(self, tree):
        self.tree, self.calls = tree, []

    def query(self, *args, **kwargs):
        self.calls.append((threading.get_ident(), kwargs.get("workers", 1)))
        return self.tree.query(*args, **kwargs)


@pytest.mark.parametrize("upper_bound", [np.inf, 0.3])
@pytest.mark.parametrize("block", [1, 7, spatial._QUERY_BLOCK])
@pytest.mark.parametrize("count", [0, 1, 3, 5000])
@pytest.mark.parametrize("lanes", [1, 2, 8])
def test_distances_do_not_depend_on_lanes(monkeypatch, lanes, count, block, upper_bound):
    rng = np.random.default_rng(count)
    index = NnIndex(rng.uniform(-2.0, 2.0, (4000, 3)) + [1e4, -3e3, 50.0])
    queries = rng.uniform(-2.5, 2.5, (count, 3)) + [1e4, -3e3, 50.0]
    want = index._tree.query(queries, distance_upper_bound=upper_bound, workers=1)[0]
    monkeypatch.setattr(spatial, "_QUERY_BLOCK", block)
    monkeypatch.setattr(spatial, "_lane_count", lambda: lanes)
    index._tree = log = QueryLog(index._tree)
    got = index.nearest_distances(queries, upper_bound)
    assert got.shape == (count,) and got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if upper_bound < np.inf and count == 5000:
        assert np.isinf(got).any() and np.isfinite(got).any()
    blocks = -(-count // block)
    assert len(log.calls) == blocks and {workers for _, workers in log.calls} <= {1}
    assert len({thread for thread, _ in log.calls}) <= min(lanes, blocks)


def test_one_point_gives_one_distance():
    index = NnIndex(np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]]))
    assert index.nearest_distances([0.0, 0.0, 1.0]).tolist() == [1.0]


def compare_street_on_two_lanes(monkeypatch, tmp_path, street_scene_pair):
    """A street ``compare`` and its 3-offset series, with two lanes."""
    paths = [tmp_path / "real.ply", tmp_path / "synth.ply"]
    for cloud, path in zip(street_scene_pair, paths):
        write_cloud(cloud, path, FORMAT_PLY_BINARY)
    monkeypatch.setattr(spatial, "_lane_count", lambda: 2)
    argv = ["compare", "--real", str(paths[0]), "--synthetic", str(paths[1]), "--out"]
    assert main(argv + [str(tmp_path / "gap.json")]) == EXIT_OK
    assert main(argv + [str(tmp_path / "series.json"), "--offset", "0,0.1,0.3"]) == EXIT_OK


def test_street_compare_queries_run_on_one_thread_each(monkeypatch, tmp_path, street_scene_pair):
    workers = []

    class Tree(scipy.spatial.cKDTree):
        def query(self, *args, **kwargs):
            workers.append(kwargs.get("workers", 1))
            return super().query(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", Tree)
    compare_street_on_two_lanes(monkeypatch, tmp_path, street_scene_pair)
    # c2c's blocks and the blocks of each side-ball screen
    assert len(workers) > 100 and set(workers) == {1}


def test_no_lane_starts_lanes(monkeypatch, tmp_path, street_scene_pair):
    # each thread's lane depth: 0 outside any lane, 1 while it runs a lane's task
    depth, entered, on_lanes = threading.local(), [], spatial._on_lanes

    def spy(lanes, tasks, run):
        entered.append(getattr(depth, "level", 0))

        def task(item):
            depth.level = getattr(depth, "level", 0) + 1
            try:
                run(item)
            finally:
                depth.level -= 1

        on_lanes(lanes, tasks, task)

    monkeypatch.setattr(spatial, "_on_lanes", spy)
    compare_street_on_two_lanes(monkeypatch, tmp_path, street_scene_pair)
    # c2c, normals, center balls, side-ball screens, side balls
    assert len(entered) > 20 and set(entered) == {0}


def test_an_error_on_any_lane_is_raised_on_the_calling_thread():
    ran, threads = [], threading.active_count()

    def run(task):
        ran.append(task)
        if task == 3:
            raise KeyError(task)

    with pytest.raises(KeyError):
        _on_lanes(4, range(1000), run)
    # each lane stops at its next task, and every worker has been joined
    assert 3 in ran and len(ran) < 1000 and threading.active_count() == threads
