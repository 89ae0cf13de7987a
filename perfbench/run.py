"""pcgap benchmark: run one seeded workload through the CLI and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload street-compare --seed 10 --seconds 30 --trace 0

The workload's inputs are generated from the seed into perfbench/out/work/,
its commands run in one fresh interpreter (child.py), and every output is
checked (checks.py). Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. Each run also leaves a record with the
environment under perfbench/out/runs/. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 10
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150
REFERENCE = BENCH / "reference" / f"seed{DEFAULT_SEED}.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = "import pcgap.cli; pcgap.cli.build_parser()"

# end-to-end metric -> unit; cmdN_s is the wall time of the workload's Nth command
END_TO_END = {"setup_s": "s", "cmd1_s": "s", "cmd2_s": "s", "cmd3_s": "s", "peak_rss_mb": "MB"}

LABELS = tuple(cmd.label for name in workloads.NAMES for cmd in workloads.commands(name, 0))

# per-layer metric -> (unit, how it is derived); "span:" sums the outermost
# spans of those names, "self:" their self time, "calls:" counts them
PER_LAYER = {
    "cli.self_s": ("s", "self:cli.main"),
    "cli.warnings": ("count", "warnings"),
    "io.read_s": ("s", "span:io.read_cloud,io.read_mesh,io.read_ray_origins,"
                       "io.read_label_file,io.read_report"),
    "io.write_s": ("s", "span:io.write_cloud,io.write_ray_origins,io.write_report,io.dump_json"),
    "io.points_read": ("count", "counter"),
    "io.points_written": ("count", "counter"),
    "io.bytes_read": ("bytes", "counter"),
    "io.bytes_written": ("bytes", "counter"),
    "core.partition_s": ("s", "span:core.partition_by_class"),
    "spatial.index_build_s": ("s", "span:spatial.NnIndex.build"),
    "spatial.index_builds": ("count", "calls:spatial.NnIndex.build"),
    "spatial.ball_query_s": ("s", "span:spatial.ball_query"),
    "spatial.ball_query_calls": ("count", "calls:spatial.ball_query"),
    "spatial.normals_s": ("s", "span:spatial.estimate_normals"),
    "spatial.voxelize_s": ("s", "span:spatial.voxelize"),
    "spatial.bvh_build_s": ("s", "span:spatial.Bvh.build"),
    "spatial.raycast_s": ("s", "span:spatial.Bvh.raycast_many"),
    "spatial.rays_cast": ("count", "counter"),
    "spatial.rays_hit": ("count", "counter"),
    "spatial.us_per_ray.simulate_ground": ("us", "per_ray"),
    "spatial.us_per_ray.simulate_room": ("us", "per_ray"),
    "metric.c2c_s": ("s", "span:metric.c2c_distance"),
    "metric.m3c2_s": ("s", "span:metric.compute_m3c2_per_class"),
    "metric.m3c2_self_s": ("s", "self:metric.m3c2_class_distance"),
    "metric.voxel_iou_s": ("s", "span:metric.voxel_miou"),
    "metric.dogss_pcl_calls": ("count", "calls:metric.dogss_pcl"),
    "metric.m3c2_cores": ("count", "report"),
    "metric.m3c2_inliers": ("count", "report"),
    "metric.m3c2_inlier_ratio": ("ratio", "report"),
    "metric.m3c2_candidate_pairs": ("count", "computed"),
    "simulate.scan_s": ("s", "span:simulate.simulate_scan"),
    "simulate.scan_self_s": ("s", "self:simulate.simulate_scan"),
    "simulate.noise_s": ("s", "span:simulate.apply_range_noise"),
    "dataset.mix_s": ("s", "span:dataset.mix"),
    "dataset.split_s": ("s", "span:dataset.split"),
    "dataset.eval_s": ("s", "span:dataset.evaluate_segmentation"),
    **{f"trace.coverage.{label}": ("ratio", "coverage") for label in LABELS},
    "trace.overhead_s": ("s", "overhead"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, crashed child)."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(root: Path, env: dict) -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc(),
            "threads": {k: env.get(k) for k in THREAD_VARS},
            "git_commit": git_commit(root), "src_sha256": src_digest(root)}


def child_env(root: Path) -> dict:
    """The program's src/ only, with thread pools capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for key in THREAD_VARS:
        env.setdefault(key, str(nproc()))
    return env


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def setup_times(env: dict, probes: int) -> list[tuple]:
    """(wall, reference before, reference after) of fresh interpreters that
    import pcgap and build the parser; the reference is calib's fresh
    interpreter that imports numpy and scipy.spatial."""
    times = []
    before = calib.import_s(env)
    for _ in range(probes):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, timeout=60)
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            raise BenchError(f"importing pcgap failed: {done.stderr.decode()[-400:]}")
        after = calib.import_s(env)
        times.append((wall, before, after))
        before = after
    return times


def run_child(workload: str, seed: int, seconds: float, trace: int, work: Path,
              env: dict) -> dict:
    out = work / "child_result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    with open(work / "child.log", "wb") as log:
        try:
            done = subprocess.run(cmd, cwd=work, env=env, stdout=log, stderr=log,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"workload process exceeded {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0 or not out.exists():
        tail = (work / "child.log").read_text(errors="replace")[-800:]
        raise BenchError(f"workload process exited {done.returncode}:\n{tail}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(seed: int, workload: str) -> dict | None:
    """The recorded default-seed outputs of a workload, None for other seeds."""
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def failures(result: dict, problems: dict) -> tuple[int, int, dict]:
    """(attempted, failed, per label) over every command execution.

    An execution fails when it exits non-zero, when its outputs failed their
    check, or when its outputs differ from those of the last pass.
    """
    final = {row["label"]: row["digests"] for row in result["passes"][-1]["commands"]}
    attempted = failed = 0
    per_label: dict = {}
    for p in result["passes"]:
        for row in p["commands"]:
            bad_output = bool(problems.get(row["label"])) or row["digests"] != final[row["label"]]
            n_bad = len(row["exit_codes"]) if bad_output else sum(rc != 0 for rc in row["exit_codes"])
            attempted += len(row["exit_codes"])
            failed += n_bad
            a, f = per_label.get(row["label"], (0, 0))
            per_label[row["label"]] = (a + len(row["exit_codes"]), f + n_bad)
    return attempted, failed, per_label


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def command_samples(result: dict, traced: bool) -> dict:
    """label -> (wall, reference before, reference after) of every run of
    that command in (un)traced passes; the references are the reference
    task runs just before and just after that run."""
    samples: dict = {}
    for p in result["passes"]:
        if p["traced"] == traced:
            for row in p["commands"]:
                refs = row["reference_s"]
                samples.setdefault(row["label"], []).extend(zip(row["wall_s"], refs, refs[1:]))
    return samples


def end_to_end(result: dict, setup: list[tuple], cmds: list) -> tuple[dict, dict]:
    """Medians with sample counts (normalized where the command asks for it),
    and the raw wall-time medians."""
    samples = command_samples(result, traced=False)
    chosen = {"setup_s": (setup, "import")}
    chosen.update((f"cmd{slot}_s", (samples[cmd.label], cmd.normalize and cmd.reference))
                  for slot, cmd in enumerate(cmds, start=1))
    values = {name: (statistics.median(calib.normalized(*s, kind) if kind else s[0] for s in got),
                     len(got))
              for name, (got, kind) in chosen.items()}
    raw = {name: statistics.median(s[0] for s in got) for name, (got, _) in chosen.items()}
    values["peak_rss_mb"] = (result["peak_rss_kb"] / 1024.0, 1)
    return values, raw


def _pass_layer_metrics(spans: list, lo: int, hi: int, rows: list) -> dict:
    children: dict = {}
    for i in range(lo, hi):
        children.setdefault(spans[i][3], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return dur(i) - sum(dur(c) for c in children.get(i, ()))

    def command(i):
        while spans[i][0] != "cli.main":
            i = spans[i][3]
        return spans[i][4]

    def outermost(names):
        """Spans of these names not nested in another of them."""
        found = []
        for i in range(lo, hi):
            if spans[i][0] in names:
                j = spans[i][3]
                while j >= 0 and spans[j][0] not in names:
                    j = spans[j][3]
                if j < 0:
                    found.append(i)
        return found

    counters: dict = {}
    label_counters: dict = {}
    for row in rows:
        label_counters[row["label"]] = row["counters"]
        for k, v in row["counters"].items():
            counters[k] = counters.get(k, 0) + v
    values = {}
    for name, (unit, how) in PER_LAYER.items():
        kind, _, arg = how.partition(":")
        names = set(arg.split(","))
        if kind == "span":
            values[name] = sum(dur(i) for i in outermost(names))
        elif kind == "self":
            values[name] = sum(self_time(i) for i in range(lo, hi) if spans[i][0] in names)
        elif kind == "calls":
            values[name] = sum(1 for i in range(lo, hi) if spans[i][0] in names)
        elif kind == "counter":
            values[name] = counters.get(name, 0)
        elif kind == "warnings":
            values[name] = sum(row["warnings"] for row in rows)
        elif kind == "per_ray":
            label = name.rsplit(".", 1)[1]
            rays = label_counters.get(label, {}).get("spatial.rays_cast", 0)
            cast = sum(dur(i) for i in range(lo, hi)
                       if spans[i][0] == "spatial.Bvh.raycast_many" and command(i) == label)
            values[name] = 1e6 * cast / rays if rays else 0.0
        elif kind == "coverage":
            label = name.rsplit(".", 1)[1]
            top = [i for i in range(lo, hi) if spans[i][0] == "cli.main" and spans[i][4] == label]
            wall = sum(dur(i) for i in top)
            values[name] = (wall - sum(self_time(i) for i in top)) / wall if wall else 0.0
    return values


def per_layer(result: dict, work: Path, info: dict, workload: str) -> dict:
    spans = result["spans"]
    per_pass = [_pass_layer_metrics(spans, *p["spans"], p["commands"])
                for p in result["passes"] if p["traced"]]
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}

    kinds = {cmd.label: cmd.normalize and cmd.reference for cmd in workloads.commands(workload, 0)}

    def pass_s(p):
        got = command_samples({"passes": [p]}, p["traced"])
        return sum(calib.normalized(*s, kinds[label]) if kinds[label] else s[0]
                   for label, samples in got.items() for s in samples)

    passes = result["passes"]
    values["trace.overhead_s"] = statistics.median(
        pass_s(p) - pass_s(prev) for prev, p in zip(passes, passes[1:])
        if p["traced"] and not prev["traced"])

    m3c2 = {"metric.m3c2_cores": 0, "metric.m3c2_inliers": 0, "metric.m3c2_inlier_ratio": 0.0,
            "metric.m3c2_candidate_pairs": 0}
    if workload == "street-compare":
        gap = checks.load_json(work / "gap.json")
        weights = gap["params"]["class_weights"]
        cls = [s for name, s in gap["per_class"].items() if weights.get(name, 0) > 0]
        cores = sum(s["inlier_count"] + s["outlier_count"] for s in cls)
        inliers = sum(s["inlier_count"] for s in cls)
        m3c2 = {"metric.m3c2_cores": cores, "metric.m3c2_inliers": inliers,
                "metric.m3c2_inlier_ratio": inliers / cores if cores else 0.0,
                "metric.m3c2_candidate_pairs": info["m3c2_candidate_pairs (computed)"]}
    values.update(m3c2)
    return values


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int,
                 work: Path, probes: int = SETUP_PROBES) -> dict:
    """Generate inputs, run the workload, check it; everything a report needs."""
    if not (root / "src" / "pcgap" / "__init__.py").is_file():
        raise BenchError(f"no pcgap sources under {root / 'src'}; run from a checkout root")
    env = child_env(root)
    if work.exists():
        shutil.rmtree(work)
    info = workloads.make_inputs(workload, work, seed)
    setup = setup_times(env, probes) if not trace else []
    result = run_child(workload, seed, seconds, trace, work, env)
    if not Path(result["pcgap_file"]).resolve().is_relative_to((root / "src").resolve()):
        raise BenchError(f"imported pcgap from {result['pcgap_file']}, not from {root / 'src'}")
    problems = checks.CHECKS[workload](work, seed, load_reference(seed, workload))
    attempted, failed, per_label = failures(result, problems)
    labels = [c.label for c in workloads.commands(workload, seed)]
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "env": environment(root, env), "inputs": info, "labels": labels,
            "setup_s": setup, "result": result, "problems": problems,
            "attempted": attempted, "failed": failed, "per_label": per_label}


def report_lines(run: dict, metrics: dict) -> list[str]:
    env, res = run["env"], run["result"]
    lines = [
        f"# pcgap benchmark  workload={run['workload']} seed={run['seed']} trace={run['trace']}"
        f" passes={len(res['passes'])}",
        "# env " + " ".join(f"{k}={v}" for k, v in env.items()),
        "# inputs " + ", ".join(f"{k}={v}" for k, v in run["inputs"].items()),
        f"# {'metric':<36} {'command':<16} {'value':>14} {'unit':<6} samples",
    ]
    for name, (value, n) in metrics.items():
        unit = END_TO_END.get(name) or PER_LAYER[name][0]
        label = run["labels"][int(name[3]) - 1] if name.startswith("cmd") else "-"
        if name == "metric.m3c2_candidate_pairs":
            unit += " (computed)"
        raw = run.get("raw_medians", {}).get(name)
        lines.append(f"  {name:<36} {label:<16} {value:>14.6g} {unit:<6} n={n}"
                     + (f"  (raw wall median {raw:.6g} s)" if raw is not None else ""))
    for label, (a, f) in run["per_label"].items():
        lines.append(f"  {'error_rate':<36} {label:<16} {f / a:>14.6g} {'ratio':<6} n={a}")
    for label, probs in run["problems"].items():
        lines += [f"# CHECK FAILED {label}: {p}" for p in probs]
    if res["absent"]:
        lines.append("# absent (not traced): " + ", ".join(res["absent"]))
    return lines


def write_record(run: dict, metrics: dict) -> None:
    runs = BENCH / "out" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    stem = f"{run['workload']}-seed{run['seed']}-trace{run['trace']}-{stamp}-{os.getpid()}"
    record = {k: v for k, v in run.items() if k != "result"}
    record["metrics"] = {k: {"value": v, "samples": n} for k, (v, n) in metrics.items()}
    record["passes"] = [{k: v for k, v in p.items() if k != "spans"} for p in run["result"]["passes"]]
    record["peak_rss_kb"] = run["result"]["peak_rss_kb"]
    record["absent"] = run["result"]["absent"]
    with open(runs / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if run["trace"]:
        with open(runs / f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(run["result"]["spans"], fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help=f"store this run's outputs as the seed-{DEFAULT_SEED} reference")
    args = ap.parse_args(argv)

    root = Path.cwd()
    work = BENCH / "out" / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        run = run_workload(root, args.workload, args.seed, args.seconds, args.trace, work)
        if args.trace:
            values = per_layer(run["result"], work, run["inputs"], args.workload)
            n = sum(p["traced"] for p in run["result"]["passes"])
            metrics = {name: (values[name], n) for name in PER_LAYER}
        else:
            cmds = workloads.commands(args.workload, args.seed)
            metrics, run["raw_medians"] = end_to_end(run["result"], run["setup_s"], cmds)
        if args.record_reference:
            if args.seed != DEFAULT_SEED or run["failed"]:
                raise BenchError("a reference is recorded only from a clean default-seed run")
            ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            ref[args.workload] = checks.reference_record(args.workload, work)
            REFERENCE.parent.mkdir(exist_ok=True)
            REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    write_record(run, metrics)
    print("\n".join(report_lines(run, metrics)))
    units = {**END_TO_END, **{k: u for k, (u, _) in PER_LAYER.items()}}
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
