"""Checks that test themselves: corrupted outputs must fail their check.

    python3 perfbench/selftest.py

Runs each workload once at the default seed, confirms that its outputs
pass every check, then corrupts one output at a time (a flipped label, a
changed inlier count, a shifted point, ...) and confirms that the check of
the command that wrote it fails, with and without the recorded reference.
It also confirms that BENCHMARK.json names exactly the metrics run.py
reports and that a traced name missing from the program is reported as
absent. Exits non-zero if any of this does not hold.
"""

from __future__ import annotations

import json
import shutil
import sys
import types
from pathlib import Path

import checks
import run
import workloads
from tracer import TARGETS, Tracer


def _flip_label(path: Path, row: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    x, y, z, label = lines[row].split()
    lines[row] = f"{x} {y} {z} {1 + int(label) % 11}\n"
    path.write_text("".join(lines))


def _shift_point(path: Path, row: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    x, y, z, label = lines[row].split()
    lines[row] = f"{float(x) + 1e-3!r} {y} {z} {label}\n"
    path.write_text("".join(lines))


def _bump_inliers(path: Path, row: int) -> None:
    doc = json.loads(path.read_text())
    doc["per_class"]["WallSurface"]["inlier_count"] += 1
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _bump_tp(path: Path, row: int) -> None:
    doc = json.loads(path.read_text())
    doc["per_class"]["Window"]["tp"] += 1
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# (workload, output file, corruption, command whose check must fail)
CASES = (
    ("street-compare", "gap.json", _bump_inliers, "compare"),
    ("lidar-scan", "room.xyzl", _flip_label, "simulate_room"),
    ("lidar-scan", "room.xyzl", _shift_point, "simulate_room"),
    ("lidar-scan", "room_noisy.xyzl", _shift_point, "noise"),
    ("xyzl-dataset", "parts/west.xyzl", _shift_point, "split"),
    ("xyzl-dataset", "mix.xyzl", _flip_label, "mix"),
    ("xyzl-dataset", "eval.json", _bump_tp, "eval_seg"),
)


def check_benchmark_json(root: Path) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != {k: u for k, (u, _) in run.PER_LAYER.items()}:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    return problems


def check_absent() -> list[str]:
    tracer = Tracer()
    tracer.install({"pcgap.io": types.SimpleNamespace()})
    missing = [t for t in tracer.absent if t.startswith("pcgap.io.")]
    tracer.uninstall()
    if len(missing) != sum(t[0] == "pcgap.io" for t in TARGETS):
        return ["a missing traced name was not reported as absent"]
    return []


def main() -> int:
    root = Path.cwd()
    failures = check_benchmark_json(root) + check_absent()
    seed = run.DEFAULT_SEED
    for workload in workloads.NAMES:
        work = run.BENCH / "out" / "work" / f"selftest-{workload}"
        try:
            done = run.run_workload(root, workload, seed, 0, 0, work, probes=1)
            if done["failed"]:
                failures.append(f"{workload}: clean outputs failed: {done['problems']}")
            for case_workload, name, corrupt, label in CASES:
                if case_workload != workload:
                    continue
                backup = (work / name).read_bytes()
                corrupt(work / name, 17)
                for ref in (None, run.load_reference(seed, workload)):
                    problems = checks.CHECKS[workload](work, seed, ref)[label]
                    verdict = "caught" if problems else "MISSED"
                    kind = "with reference" if ref else "structural"
                    print(f"{workload:<15} {corrupt.__name__:<14} {name:<18} {kind:<15} {verdict}"
                          + (f": {problems[0]}" if problems else ""))
                    if not problems:
                        failures.append(f"{workload}: {corrupt.__name__} on {name} not caught")
                (work / name).write_bytes(backup)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print("SELFTEST FAILED:", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
