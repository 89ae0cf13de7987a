"""Workload process: runs one workload's CLI commands in passes, in-process.

Usage (from run.py, with the work directory as cwd and the checkout's src/
on PYTHONPATH):

    python3 child.py --workload NAME --seed N --seconds S --trace 0|1 --out RESULT.json

Passes repeat while another pass still fits in ``--seconds`` (at least one).
With ``--trace 1`` passes alternate untraced and traced, starting untraced,
so each traced command has an untraced twin for the overhead. The result
file holds per-command wall times, exit codes, output digests and the times
of the command's reference task (calib.py, one before the first run and one
after every run) per pass, the spans of traced passes, and the process's
peak RSS.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import time
import traceback
import warnings

import calib
import workloads
from tracer import Tracer


def _run(main, argv) -> tuple[float, int]:
    """Wall time and exit code of one CLI call. Argparse exits become their
    code; an exception that escapes the CLI is logged and counts as exit 1,
    so one failing command does not stop the workload."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = 1
    return time.perf_counter() - t0, rc


def run_pass(main, cmds, tracer: Tracer | None) -> list[dict]:
    rows = []
    for cmd in cmds:
        walls, codes, warned = [], [], 0
        refs = [calib.reference_s(cmd.reference)]
        for _ in range(cmd.reps):
            if tracer is None:
                wall, rc = _run(main, cmd.argv)
            else:
                with warnings.catch_warnings(record=True) as caught:
                    i = tracer.open("cli.main")
                    tracer.spans[i].append(cmd.label)
                    try:
                        wall, rc = _run(main, cmd.argv)
                    finally:
                        tracer.close(i)
                warned += len(caught)
            walls.append(wall)
            codes.append(rc)
            refs.append(calib.reference_s(cmd.reference))
        counters = {}
        if tracer is not None:
            counters = dict(tracer.counters)
            tracer.counters.clear()
        rows.append({"label": cmd.label, "wall_s": walls, "exit_codes": codes,
                     "warnings": warned, "counters": counters, "reference_s": refs,
                     "digests": {p: workloads.digest(p) for p in cmd.outputs}})
    return rows


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import pcgap
    from pcgap import cli, dataset, io, metric, simulate, spatial

    modules = {m.__name__: m for m in (io, metric, spatial, simulate, dataset)}
    cmds = workloads.commands(args.workload, args.seed)
    tracer = Tracer() if args.trace else None

    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer.install(modules)
            first_span = len(tracer.spans)
        try:
            rows = run_pass(cli.main, cmds, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "wall_s": time.perf_counter() - t0, "commands": rows,
                       "spans": [first_span, len(tracer.spans)] if traced else None})
        elapsed = time.perf_counter() - start
        need_traced = bool(args.trace) and len(passes) < 2
        if not need_traced and elapsed + passes[-1]["wall_s"] > args.seconds:
            break

    result = {
        "pcgap_file": pcgap.__file__,
        "passes": passes,
        "spans": tracer.spans if tracer else [],
        "absent": tracer.absent if tracer else [],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
