"""In-memory span tracer that wraps pcgap's public names from outside.

A span is (name, start, end, parent index). Spans are opened by wrappers
installed over module attributes and class methods, so each one is the call
as its caller sees it: ``pcgap.metric.estimate_normals`` is the name metric
looks up, not the one in ``pcgap.spatial``. Wrappers are removed after each
traced pass. A target missing from the program is recorded as absent.

Per-point and per-ray functions (``NnIndex.nearest``, ``Bvh.raycast``) are
never wrapped: a span per call would dwarf the work it measures.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else (args[pos] if len(args) > pos else None)


def _count_read(tracer, args, kwargs, result):
    tracer.counters["io.bytes_read"] += _file_size(_arg(args, kwargs, 0, "path"))
    if result is not None and hasattr(result, "__len__"):
        tracer.counters["io.points_read"] += len(result)


def _count_bytes_read(tracer, args, kwargs, result):
    tracer.counters["io.bytes_read"] += _file_size(_arg(args, kwargs, 0, "path"))


def _count_write_rows(tracer, args, kwargs, result):
    tracer.counters["io.points_written"] += len(args[0])
    tracer.counters["io.bytes_written"] += _file_size(_arg(args, kwargs, 1, "path"))


def _count_json(tracer, args, kwargs, result):
    tracer.counters["io.bytes_written"] += _file_size(_arg(args, kwargs, 1, "path"))


def _count_rays(tracer, args, kwargs, result):
    t_hit = result[0]
    tracer.counters["spatial.rays_cast"] += len(t_hit)
    tracer.counters["spatial.rays_hit"] += int((t_hit < float("inf")).sum())


# (module, attribute path, span name, counter hook). Module-level names are
# patched in the namespace of the module that calls them.
TARGETS = (
    ("pcgap.io", "read_cloud", "io.read_cloud", _count_read),
    ("pcgap.io", "read_mesh", "io.read_mesh", _count_bytes_read),
    ("pcgap.io", "read_ray_origins", "io.read_ray_origins", _count_read),
    ("pcgap.io", "read_label_file", "io.read_label_file", _count_read),
    ("pcgap.io", "read_report", "io.read_report", _count_bytes_read),
    ("pcgap.io", "write_cloud", "io.write_cloud", _count_write_rows),
    ("pcgap.io", "write_ray_origins", "io.write_ray_origins", _count_write_rows),
    ("pcgap.io", "write_report", "io.write_report", None),
    ("pcgap.io", "dump_json", "io.dump_json", _count_json),
    ("pcgap.metric", "dogss_pcl", "metric.dogss_pcl", None),
    ("pcgap.metric", "offset_sensitivity", "metric.offset_sensitivity", None),
    ("pcgap.metric", "c2c_distance", "metric.c2c_distance", None),
    ("pcgap.metric", "compute_m3c2_per_class", "metric.compute_m3c2_per_class", None),
    ("pcgap.metric", "m3c2_class_distance", "metric.m3c2_class_distance", None),
    ("pcgap.metric", "voxel_miou", "metric.voxel_miou", None),
    ("pcgap.metric", "estimate_normals", "spatial.estimate_normals", None),
    ("pcgap.metric", "voxelize", "spatial.voxelize", None),
    ("pcgap.metric", "partition_by_class", "core.partition_by_class", None),
    ("pcgap.spatial", "NnIndex.__init__", "spatial.NnIndex.build", None),
    ("pcgap.spatial", "NnIndex.within_radius_many", "spatial.ball_query", None),
    ("pcgap.spatial", "NnIndex.count_within_radius_many", "spatial.ball_query", None),
    ("pcgap.spatial", "NnIndex.nearest_distances", "spatial.nearest_distances", None),
    ("pcgap.spatial", "Bvh.__init__", "spatial.Bvh.build", None),
    ("pcgap.spatial", "Bvh.raycast_many", "spatial.Bvh.raycast_many", _count_rays),
    ("pcgap.simulate", "simulate_scan", "simulate.simulate_scan", None),
    ("pcgap.simulate", "apply_range_noise", "simulate.apply_range_noise", None),
    ("pcgap.dataset", "mix", "dataset.mix", None),
    ("pcgap.dataset", "split", "dataset.split", None),
    ("pcgap.dataset", "evaluate_segmentation", "dataset.evaluate_segmentation", None),
)


class Tracer:
    """Collects spans and counters while installed; ``spans`` rows are
    [name, start, end, parent] with parent -1 at the top."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (TypeError, IndexError, AttributeError):
                    # a changed signature loses the counter, never the call
                    self.counters["trace.hook_errors"] += 1
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Patch every target found in ``modules`` (name -> module object)."""
        for module_name, path, span, hook in TARGETS:
            owner = modules.get(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None or (attr == "__init__" and fn is object.__init__):
                if f"{module_name}.{path}" not in self.absent:
                    self.absent.append(f"{module_name}.{path}")
                continue
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, span, hook))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)
