"""Output checks, written without pcgap so they do not share its defects.

Each ``check_<workload>`` returns {command label: [problem, ...]}; an empty
list means the command's outputs passed. Every seed gets the structural
checks (finite values, conservation, brute-force re-casts, membership);
the default seed is also compared against the references recorded in
``reference/``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import scenes
import workloads

CLASS_NAMES = ("RoadSurface", "GroundSurface", "CityFurniture", "Vehicle", "Pedestrian",
               "WallSurface", "RoofSurface", "Door", "Window", "BuildingInstallation",
               "SolitaryVegetationObject", "Noise")
GAP_FLOATS = ("d_c2c", "d_mm3c2", "miou", "f_miou", "d", "m_dogss_pcl")
REL_TOL = 1e-9


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_rows(path, cols: int) -> np.ndarray:
    return np.loadtxt(path, ndmin=2).reshape(-1, cols)


def _run_checks(checks: dict) -> dict:
    """Run {label: fn -> problems}; a missing or malformed output is a problem."""
    out = {}
    for label, fn in checks.items():
        try:
            out[label] = fn()
        except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            out[label] = [f"unreadable output ({type(exc).__name__}: {exc})"]
    return out


# ---------------------------------------------------------------------------
# street-compare
# ---------------------------------------------------------------------------


def gap_problems(doc: dict, class_counts: dict) -> list[str]:
    """Finite values, m in (0, 1), and inliers + outliers = real class count
    for every weighted class."""
    problems = []
    if doc.get("report_type") != "gap":
        return [f"report_type {doc.get('report_type')!r}"]
    for key in GAP_FLOATS:
        value = doc.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{key} not finite: {value!r}")
    m = doc.get("m_dogss_pcl")
    if isinstance(m, (int, float)) and not 0.0 < m < 1.0:
        problems.append(f"m_dogss_pcl {m} outside (0, 1)")
    weights = doc.get("params", {}).get("class_weights", {})
    for name, stats in doc.get("per_class", {}).items():
        for key in ("m3c2_median", "iou"):
            v = stats.get(key)
            if v is not None and not math.isfinite(v):
                problems.append(f"{name}.{key} not finite")
        if weights.get(name, 0) > 0:
            total = stats["inlier_count"] + stats["outlier_count"]
            if total != class_counts.get(name, 0):
                problems.append(f"{name}: inliers + outliers = {total}, "
                                f"real points = {class_counts.get(name, 0)}")
    return problems


def gap_matches(doc: dict, ref: dict) -> list[str]:
    """Exact counts, floats within REL_TOL of the recorded reference."""
    problems = [f"{k}: {doc.get(k)} != reference {ref[k]}"
                for k in GAP_FLOATS if not _close(doc.get(k), ref[k])]
    if not all(_close(a, b) for a, b in zip(doc.get("offset", []), ref["offset"])):
        problems.append("offset differs from reference")
    for name, r in ref["per_class"].items():
        d = doc.get("per_class", {}).get(name, {})
        for key in ("inlier_count", "outlier_count"):
            if d.get(key) != r[key]:
                problems.append(f"{name}.{key}: {d.get(key)} != reference {r[key]}")
        for key in ("m3c2_median", "iou"):
            if not _close(d.get(key), r[key]):
                problems.append(f"{name}.{key}: {d.get(key)} != reference {r[key]}")
    return problems


def check_street(work: Path, seed: int, reference: dict | None) -> dict:
    labels = scenes.street_scene(seed)[1]
    counts = {CLASS_NAMES[c - 1]: int(n) for c, n in zip(*np.unique(labels, return_counts=True))}
    diag = 1.0 / math.sqrt(3.0)

    def single():
        doc = load_json(work / "gap.json")
        problems = gap_problems(doc, counts)
        if reference is not None:
            problems += gap_matches(doc, reference["gap.json"])
        return problems

    def series():
        doc = load_json(work / "series.json")
        reports = doc.get("reports", [])
        if doc.get("report_type") != "gap_series" or len(reports) != len(workloads.OFFSETS):
            return [f"expected a gap_series of {len(workloads.OFFSETS)} reports"]
        problems = []
        for i, (rep, mag) in enumerate(zip(reports, workloads.OFFSETS)):
            problems += [f"[{i}] {p}" for p in gap_problems(rep, counts)]
            if not all(_close(v, mag * diag) for v in rep.get("offset", [])):
                problems.append(f"[{i}] offset {rep.get('offset')} is not {mag} m on the diagonal")
        single_doc = load_json(work / "gap.json")
        if reports[0] != single_doc:
            problems.append("offset-0 report differs from the single compare report")
        ms = [r.get("m_dogss_pcl", 0) for r in reports]
        mious = [r.get("miou", 0) for r in reports]
        if not all(a < b for a, b in zip(ms, ms[1:])):
            problems.append(f"m does not rise across offsets: {ms}")
        if not all(a > b for a, b in zip(mious, mious[1:])):
            problems.append(f"mIoU does not fall across offsets: {mious}")
        if reference is not None:
            for i, (rep, ref) in enumerate(zip(reports, reference["series.json"]["reports"])):
                problems += [f"[{i}] {p}" for p in gap_matches(rep, ref)]
        return problems

    def report():
        docs = [("gap.json", load_json(work / "gap.json"))]
        docs += [(f"series.json[{i}]", r)
                 for i, r in enumerate(load_json(work / "series.json").get("reports", []))]
        with open(work / "summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        columns = ("m_dogss_pcl", "d", "d_mm3c2", "d_c2c", "miou", "f_miou")
        if not rows or rows[0] != ["report", "offset_m", *columns] or len(rows) != len(docs) + 1:
            return ["summary.csv header or row count is wrong"]
        problems = []
        for row, (name, doc) in zip(rows[1:], docs):
            if row[0] != name or float(row[1]) != float(np.linalg.norm(doc["offset"])):
                problems.append(f"{name}: wrong name or offset")
            if [float(v) for v in row[2:]] != [doc[c] for c in columns]:
                problems.append(f"{name}: values differ from its report")
        plot = load_json(work / "plot.json").get("series", {})
        if sorted(plot) != sorted(columns) or any(len(v) != len(docs) for v in plot.values()):
            problems.append("plot.json series do not match the reports")
        return problems

    return _run_checks({"compare": single, "compare_series": series, "report": report})


# ---------------------------------------------------------------------------
# lidar-scan
# ---------------------------------------------------------------------------


def brute_force_cast(origins: np.ndarray, dirs: np.ndarray, tris: np.ndarray):
    """Nearest Moller-Trumbore hit of every ray against every triangle.

    Returns (t, triangle index) with (inf, -1) for a miss; ties go to the
    lowest triangle index. Boundaries are inclusive, hits nearer than 1e-6 m
    are ignored.
    """
    v0, e1, e2 = tris[:, 0], tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    t_best = np.full(len(origins), np.inf)
    id_best = np.full(len(origins), -1)
    chunk = max(1, 2_000_000 // len(tris))
    for s in range(0, len(origins), chunk):
        o, d = origins[s:s + chunk, None, :], dirs[s:s + chunk, None, :]
        p = np.cross(d, e2)
        det = np.einsum("rtk,tk->rt", p, e1)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / det
            q_src = o - v0
            u = np.einsum("rtk,rtk->rt", q_src, p) * inv
            q = np.cross(q_src, e1)
            v = np.einsum("rtk,rtk->rt", d, q) * inv
            t = np.einsum("tk,rtk->rt", e2, q) * inv
            ok = (np.abs(det) > 1e-12) & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-6)
        t = np.where(ok, t, np.inf)
        best = np.argmin(t, axis=1)
        t_min = t[np.arange(len(best)), best]
        t_best[s:s + chunk] = t_min
        id_best[s:s + chunk] = np.where(np.isfinite(t_min), best, -1)
    return t_best, id_best


def recast_problems(scan: np.ndarray, origins: np.ndarray, tris, tri_classes,
                    max_range: float) -> list[str]:
    """Re-cast each (origin -> point) ray; t and class must match."""
    if len(scan) != len(origins):
        return [f"{len(scan)} points but {len(origins)} ray origins"]
    if len(scan) == 0:
        return []
    rays = scan[:, :3] - origins
    t_scan = np.linalg.norm(rays, axis=1)
    if not (t_scan > 0).all() or not (t_scan <= max_range).all():
        return ["a point lies at zero or beyond the maximum range from its origin"]
    t_bf, tri = brute_force_cast(origins, rays / t_scan[:, None], tris)
    problems = []
    off = ~(np.abs(t_bf - t_scan) <= 1e-9 * np.maximum(1.0, t_scan))
    if off.any():
        problems.append(f"{int(off.sum())} point(s) not at the first hit along their ray")
    wrong = (tri < 0) | (tri_classes[np.maximum(tri, 0)] != scan[:, 3])
    if wrong.any():
        problems.append(f"{int(wrong.sum())} point(s) carry the wrong class")
    return problems


GROUND_SAMPLE = 256


def fired_rays(scan: dict, trajectory: list) -> tuple[np.ndarray, np.ndarray]:
    """Origins and unit directions of every ray the scan pattern fires, in
    firing order: all channels at each uniform azimuth step, poses
    interpolated along the trajectory (shortest-arc yaw)."""
    rate, channels = scan["rotation_rate_hz"], scan["channels"]
    steps = int(scan["points_per_second"] / (rate * channels))
    times = np.array([s["t"] for s in trajectory], dtype=np.float64)
    step_dt = (1.0 / rate) / steps
    n = int(math.floor((times[-1] - times[0]) / step_dt))
    t = times[0] + step_dt * np.arange(n)
    yaws = np.array([s.get("yaw", 0.0) for s in trajectory], dtype=np.float64)
    yaws = yaws[0] + np.concatenate(([0.0], np.cumsum((np.diff(yaws) + math.pi) % (2 * math.pi)
                                                       - math.pi)))
    pos = np.column_stack([np.interp(t, times, [s[k] for s in trajectory]) for k in "xyz"])
    azimuth = 2 * math.pi * (np.arange(n) % steps) / steps + np.interp(t, times, yaws)
    lo, hi = (math.radians(v) for v in scan["vertical_fov_deg"])
    elev = np.linspace(lo, hi, channels) if channels > 1 else np.array([(lo + hi) / 2])
    dirs = np.stack([np.cos(azimuth)[:, None] * np.cos(elev), np.sin(azimuth)[:, None] * np.cos(elev),
                     np.broadcast_to(np.sin(elev), (n, channels))], axis=2).reshape(-1, 3)
    return np.repeat(pos, channels, axis=0), dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def check_lidar(work: Path, seed: int, reference: dict | None) -> dict:
    rays = {"ground": workloads.planned_rays(scenes.GROUND_SCAN, scenes.ground_trajectory(seed)),
            "room": workloads.planned_rays(scenes.ROOM_SCAN, scenes.room_trajectory(seed))}

    def digests(names) -> list[str]:
        if reference is None:
            return []
        return [f"{n}: digest differs from reference"
                for n in names if workloads.digest(work / n) != reference["digests"][n]]

    def ground():
        scan = _load_rows(work / "ground.xyzl", 4)
        origins = _load_rows(work / "ground.xyzl.origins", 3)
        if not 0 < len(scan) <= rays["ground"] or len(origins) != len(scan):
            return [f"{len(scan)} hits and {len(origins)} origins for {rays['ground']} rays"]
        pick = np.random.default_rng(seed).choice(len(scan), min(GROUND_SAMPLE, len(scan)),
                                                  replace=False)
        tris, classes = scenes.ground_triangles(seed)
        return (recast_problems(scan[pick], origins[pick], tris, classes,
                                scenes.GROUND_SCAN["max_range_m"])
                + digests(("ground.xyzl", "ground.xyzl.origins")))

    def room():
        scan = _load_rows(work / "room.xyzl", 4)
        origins = _load_rows(work / "room.xyzl.origins", 3)
        if len(scan) != rays["room"]:
            return [f"{len(scan)} hits for {rays['room']} rays inside a closed room"]
        tris, classes = scenes.room_triangles()
        problems = recast_problems(scan, origins, tris, classes, scenes.ROOM_SCAN["max_range_m"])
        # every ray hits inside the room, so row i is the i-th fired ray
        want_o, want_d = fired_rays(scenes.ROOM_SCAN, scenes.room_trajectory(seed))
        ray = scan[:, :3] - origins
        off = ~((np.abs(origins - want_o).max(axis=1) <= 1e-9)
                & (np.abs(ray / np.linalg.norm(ray, axis=1)[:, None] - want_d).max(axis=1) <= 1e-9))
        if off.any():
            problems.append(f"{int(off.sum())} point(s) off the ray fired for their row")
        return problems + digests(("room.xyzl", "room.xyzl.origins"))

    def noise():
        clean = _load_rows(work / "room.xyzl", 4)
        origins = _load_rows(work / "room.xyzl.origins", 3)
        noisy = _load_rows(work / "room_noisy.xyzl", 4)
        if noisy.shape != clean.shape or len(origins) != len(clean):
            return [f"{len(noisy)} noisy points for {len(clean)} scan points"]
        if not np.array_equal(noisy[:, 3], clean[:, 3]):
            return ["noise changed labels"]
        ray = clean[:, :3] - origins
        t = np.linalg.norm(ray, axis=1)
        unit = ray / t[:, None]
        moved = noisy[:, :3] - origins
        along = np.einsum("ij,ij->i", moved, unit)
        across = np.linalg.norm(moved - along[:, None] * unit, axis=1)
        problems = []
        if not (across <= 1e-9 * np.maximum(1.0, t)).all():
            problems.append(f"{int((across > 1e-9 * np.maximum(1.0, t)).sum())} point(s) left their ray")
        step = along - t
        sigma, n = workloads.NOISE_SIGMA, len(step)
        if abs(step.mean()) > 6 * sigma / math.sqrt(n) or abs(step.std() / sigma - 1) > 0.02:
            problems.append(f"displacement mean {step.mean():.3g}, std {step.std():.4g} "
                            f"do not fit N(0, {sigma})")
        return problems + digests(("room_noisy.xyzl",))

    return _run_checks({"simulate_ground": ground, "simulate_room": room, "noise": noise})


# ---------------------------------------------------------------------------
# xyzl-dataset
# ---------------------------------------------------------------------------


def _row_set(xyz: np.ndarray, labels: np.ndarray) -> set:
    return set(map(tuple, np.column_stack([xyz, labels]).tolist()))


def _in_region(xy: np.ndarray, region: dict) -> np.ndarray:
    """Inclusive rectangle, or even-odd polygon with edges counted inside."""
    x, y = xy[:, 0], xy[:, 1]
    if "rect" in region:
        x0, y0, x1, y1 = region["rect"]
        return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
    poly = np.asarray(region["polygon"], dtype=np.float64)
    inside = np.zeros(len(xy), dtype=bool)
    edge = np.zeros(len(xy), dtype=bool)
    for (ax, ay), (bx, by) in zip(poly, np.roll(poly, -1, axis=0)):
        cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        edge |= (cross == 0) & (np.minimum(ax, bx) <= x) & (x <= np.maximum(ax, bx)) \
            & (np.minimum(ay, by) <= y) & (y <= np.maximum(ay, by))
        spans = (ay > y) != (by > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            inside ^= spans & (x < ax + (y - ay) * (bx - ax) / (by - ay))
    return inside | edge


def check_dataset(work: Path, seed: int, reference: dict | None) -> dict:
    real = scenes.street_scene(seed, workloads.DATASET_SCALE)
    synth = scenes.street_scene(seed + 10, workloads.DATASET_SCALE)
    n = len(real[0])

    def digests(names) -> list[str]:
        if reference is None:
            return []
        return [f"{p}: digest differs from reference"
                for p in names if workloads.digest(work / p) != reference["digests"][p]]

    def mix():
        out = _load_rows(work / "mix.xyzl", 4)
        with open(work / "mix.xyzl.provenance.txt", encoding="utf-8") as fh:
            prov = [line.strip() for line in fh]
        n_real = math.floor(workloads.MIX_FRACTION * n + 0.5)
        if len(out) != n or prov != ["real"] * n_real + ["synthetic"] * (n - n_real):
            return [f"{len(out)} points / {len(prov)} provenance lines, "
                    f"expected {n_real} real then {n - n_real} synthetic"]
        manifest = load_json(work / "mix.xyzl.manifest.json").get("config", {})
        problems = []
        if (manifest.get("real_points"), manifest.get("synthetic_points")) != (n_real, n - n_real):
            problems.append("manifest counts disagree with provenance")
        for part, source, name in ((out[:n_real], real, "real"), (out[n_real:], synth, "synthetic")):
            rows = set(map(tuple, part.tolist()))
            if len(rows) != len(part):
                problems.append(f"{name} part repeats points (drawn with replacement)")
            if not rows <= _row_set(*source):
                problems.append(f"{name} part holds points not in the {name} cloud")
        return problems + digests(("mix.xyzl", "mix.xyzl.provenance.txt"))

    def split():
        regions = scenes.SPLIT_SPEC["regions"]
        source = _row_set(*real)
        taken = np.zeros(n, dtype=bool)
        seen: set = set()
        problems = []
        for region in regions:
            rows = _load_rows(work / "parts" / f"{region['name']}.xyzl", 4)
            mine = _in_region(real[0][:, :2], region) & ~taken
            taken |= mine
            got = set(map(tuple, rows.tolist()))
            if len(rows) != int(mine.sum()):
                problems.append(f"{region['name']}: {len(rows)} points, expected {int(mine.sum())}")
            if not got <= source or not _in_region(rows[:, :2], region).all():
                problems.append(f"{region['name']}: holds points outside the cloud or region")
            if got & seen:
                problems.append(f"{region['name']}: shares points with an earlier region")
            seen |= got
        return problems + digests(tuple(f"parts/{r['name']}.xyzl" for r in regions))

    def eval_seg():
        doc = load_json(work / "eval.json")
        truth = real[1].astype(np.int64)
        pred = scenes.predictions(seed, real[1])
        conf = np.bincount((truth - 1) * 12 + (pred - 1), minlength=144).reshape(12, 12)
        got = np.asarray(doc.get("confusion"), dtype=np.int64)
        problems = []
        if got.shape != (12, 12) or not np.array_equal(got, conf):
            problems.append("confusion matrix differs from the labels")
        tp = sum(c["tp"] for c in doc["per_class"].values())
        fp = sum(c["fp"] for c in doc["per_class"].values())
        fn = sum(c["fn"] for c in doc["per_class"].values())
        if not tp + fp == tp + fn == n:
            problems.append(f"sum tp+fp = {tp + fp}, tp+fn = {tp + fn}, N = {n}")
        ious = []
        for i, name in enumerate(CLASS_NAMES):
            c = doc["per_class"][name]
            want = (int(conf[i, i]), int(conf[:, i].sum() - conf[i, i]), int(conf[i].sum() - conf[i, i]))
            support = sum(want)
            iou = want[0] / support if support else 0.0
            if (c["tp"], c["fp"], c["fn"]) != want or c["iou"] != iou:
                problems.append(f"{name}: tallies or IoU differ from the labels")
            if name != "Noise":
                ious.append(iou)
        if not _close(doc.get("miou"), float(np.mean(ious))):
            problems.append("mIoU is not the mean of the 11 class IoUs")
        return problems + digests(("eval.json",))

    return _run_checks({"mix": mix, "split": split, "eval_seg": eval_seg})


CHECKS = {"street-compare": check_street, "lidar-scan": check_lidar,
          "xyzl-dataset": check_dataset}


def reference_record(workload: str, work: Path) -> dict:
    """What the default-seed reference stores for a workload's outputs."""
    if workload == "street-compare":
        return {name: load_json(work / name) for name in ("gap.json", "series.json")}
    names = [p for cmd in workloads.commands(workload, 0) for p in cmd.outputs]
    return {"digests": {p: workloads.digest(work / p) for p in names}}
