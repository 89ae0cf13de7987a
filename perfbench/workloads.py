"""The three workloads: the inputs each one generates and the CLI commands it runs.

Every command is an argv for ``pcgap.cli.main``, run with the work
directory as the current directory so outputs and manifests hold relative
paths only. A workload runs three commands per pass; their wall times are
the end-to-end metrics ``cmd1_s``, ``cmd2_s`` and ``cmd3_s``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import scenes

NAMES = ("street-compare", "lidar-scan", "xyzl-dataset")

OFFSETS = (0.0, 0.1, 0.3)
NOISE_SIGMA = 0.02
MIX_FRACTION = 0.5
DATASET_SCALE = 1  # street scene multiple for xyzl-dataset


@dataclass(frozen=True)
class Command:
    label: str          # command name in reports, e.g. "simulate_room"
    argv: tuple         # arguments for pcgap.cli.main
    outputs: tuple      # files whose digests are recorded after each run
    reps: int = 1       # runs per pass; cheap commands repeat for a steadier median
    normalize: bool = True  # scale wall time by the reference task (calib.py)
    reference: str = "rows"  # calib.py task run before the first and after every run


def commands(workload: str, seed: int) -> tuple[Command, Command, Command]:
    if workload == "street-compare":
        offsets = ",".join(str(o) for o in OFFSETS)
        return (
            Command("compare", ("compare", "--real", "real.ply", "--synthetic", "synth.ply",
                                "--out", "gap.json"), ("gap.json",), normalize=False),
            Command("compare_series", ("compare", "--real", "real.ply", "--synthetic", "synth.ply",
                                       "--offset", offsets, "--out", "series.json"),
                    ("series.json",), normalize=False),
            Command("report", ("report", "gap.json", "series.json", "--out", "summary.csv",
                               "--plot-data", "plot.json"), ("summary.csv", "plot.json"), reps=100,
                    reference="io"),
        )
    if workload == "lidar-scan":
        return (
            Command("simulate_ground", ("simulate", "--mesh", "ground.obj", "--trajectory",
                                        "ground_traj.json", "--scan-config", "ground_scan.json",
                                        "--out", "ground.xyzl"),
                    ("ground.xyzl", "ground.xyzl.origins"), reference="numpy"),
            Command("simulate_room", ("simulate", "--mesh", "room.obj", "--trajectory",
                                      "room_traj.json", "--scan-config", "room_scan.json",
                                      "--out", "room.xyzl"),
                    ("room.xyzl", "room.xyzl.origins"), reference="numpy"),
            Command("noise", ("noise", "--cloud", "room.xyzl", "--sigma", str(NOISE_SIGMA),
                              "--seed", str(seed), "--out", "room_noisy.xyzl"),
                    ("room_noisy.xyzl",), reference="numpy"),
        )
    if workload == "xyzl-dataset":
        n = street_size(DATASET_SCALE)
        parts = tuple(f"parts/{r['name']}.xyzl" for r in scenes.SPLIT_SPEC["regions"])
        return (
            Command("mix", ("mix", "--real", "real.xyzl", "--synthetic", "synth.xyzl",
                            "--fraction", str(MIX_FRACTION), "--count", str(n),
                            "--seed", str(seed), "--out", "mix.xyzl"),
                    ("mix.xyzl", "mix.xyzl.provenance.txt")),
            Command("split", ("split", "--cloud", "real.xyzl", "--spec", "split.json",
                              "--out-dir", "parts"), parts),
            Command("eval_seg", ("eval-seg", "--truth", "real.xyzl", "--pred", "pred.txt",
                                 "--out", "eval.json"), ("eval.json",)),
        )
    raise ValueError(f"unknown workload {workload!r}")


def digest(path) -> str | None:
    """SHA-256 of a file, None when it cannot be read."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except OSError:
        return None
    return h.hexdigest()


def street_size(scale: int) -> int:
    return sum(max(int(box[0] * scale), 10) for box in scenes.STREET_BOXES)


def planned_rays(scan: dict, trajectory: list) -> int:
    """Rays the simulator fires: whole azimuth steps over the trajectory span."""
    period = 1.0 / scan["rotation_rate_hz"]
    steps = int(scan["points_per_second"] / (scan["rotation_rate_hz"] * scan["channels"]))
    duration = trajectory[-1]["t"] - trajectory[0]["t"]
    return int(math.floor(duration / (period / steps))) * scan["channels"]


def make_inputs(workload: str, work: Path, seed: int) -> dict:
    """Write the workload's inputs into ``work``; returns their sizes."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "street-compare":
        real, synth = scenes.street_scene(seed), scenes.street_scene(seed + 10)
        scenes.write_ply(work / "real.ply", *real)
        scenes.write_ply(work / "synth.ply", *synth)
        return {"real_points": len(real[0]), "synthetic_points": len(synth[0]),
                "m3c2_candidate_pairs (computed)": m3c2_candidate_pairs(real, synth)}
    if workload == "lidar-scan":
        scenes.write_ground_obj(work / "ground.obj", seed)
        scenes.write_room_obj(work / "room.obj")
        ground_traj, room_traj = scenes.ground_trajectory(seed), scenes.room_trajectory(seed)
        scenes.write_json(work / "ground_traj.json", ground_traj)
        scenes.write_json(work / "room_traj.json", room_traj)
        scenes.write_json(work / "ground_scan.json", scenes.GROUND_SCAN)
        scenes.write_json(work / "room_scan.json", scenes.ROOM_SCAN)
        return {"ground_triangles": 2 * scenes.GROUND_CELLS ** 2,
                "room_triangles": 2 * len(scenes.room_quads()),
                "ground_rays": planned_rays(scenes.GROUND_SCAN, ground_traj),
                "room_rays": planned_rays(scenes.ROOM_SCAN, room_traj)}
    if workload == "xyzl-dataset":
        real = scenes.street_scene(seed, DATASET_SCALE)
        synth = scenes.street_scene(seed + 10, DATASET_SCALE)
        scenes.write_xyzl(work / "real.xyzl", *real)
        scenes.write_xyzl(work / "synth.xyzl", *synth)
        np.savetxt(work / "pred.txt", scenes.predictions(seed, real[1]), fmt="%d")
        scenes.write_json(work / "split.json", scenes.SPLIT_SPEC)
        return {"real_points": len(real[0]), "synthetic_points": len(synth[0]),
                "labels": len(real[0])}
    raise ValueError(f"unknown workload {workload!r}")


# M3C2 defaults of the program: projection radius 0.25 m, half depth 1 m.
M3C2_REACH = math.hypot(0.25, 1.0)
WEIGHTED_CLASSES = (2, 3, 6, 7, 8, 9, 10)


def m3c2_candidate_pairs(real, synth) -> int:
    """(core, point) pairs within cylinder reach, real and synthetic side,
    over the weighted classes: the rows M3C2's cylinder gathers must test."""
    from scipy.spatial import cKDTree

    total = 0
    for cls in WEIGHTED_CLASSES:
        cores = cKDTree(real[0][real[1] == cls])
        for xyz, labels in (real, synth):
            pts = xyz[labels == cls]
            if len(pts) and cores.n:
                total += int(cores.count_neighbors(cKDTree(pts), M3C2_REACH))
    return total
