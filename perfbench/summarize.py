"""Aggregate run records into medians, quartiles and run-to-run spreads.

    python3 perfbench/summarize.py [RECORD.json ...] [--out perfbench/trajectory/NAME.json]

Without record arguments it reads every record under perfbench/out/runs/.
The spread of a metric is (Q3 - Q1) / median over the runs of one workload,
quartiles as ``statistics.quantiles(values, n=4)`` gives them. ``--out``
writes the summary, with the environment and program digest of the runs,
as a trajectory point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def summarize(records: list[dict]) -> dict:
    groups: dict = {}
    for rec in records:
        key = f"{rec['workload']} trace={rec['trace']}"
        g = groups.setdefault(key, {"seeds": [], "attempted": 0, "failed": 0, "metrics": {}})
        g["seeds"].append(rec["seed"])
        g["attempted"] += rec["attempted"]
        g["failed"] += rec["failed"]
        g["labels"] = rec["labels"]
        for name, m in rec["metrics"].items():
            g["metrics"].setdefault(name, []).append(m["value"])
    for g in groups.values():
        for name, values in g["metrics"].items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            g["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "runs": len(values),
                                  "spread": (q3 - q1) / med if med else 0.0}
    return groups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("records", nargs="*")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    paths = args.records or sorted(str(p) for p in (BENCH / "out" / "runs").glob("*.json")
                                   if not p.name.endswith(".spans.json"))
    records = [json.loads(Path(p).read_text()) for p in paths]
    if not records:
        print("no run records", file=sys.stderr)
        return 1
    groups = summarize(records)
    for key, g in sorted(groups.items()):
        print(f"# {key}  seeds={g['seeds']}  failed={g['failed']}/{g['attempted']}")
        for name, m in g["metrics"].items():
            print(f"  {name:<36} median={m['median']:<12.6g} q1={m['q1']:<12.6g} "
                  f"q3={m['q3']:<12.6g} spread={m['spread']:.4f}  runs={m['runs']}")
    if args.out:
        envs = {json.dumps(r["env"], sort_keys=True) for r in records}
        point = {"env": [json.loads(e) for e in sorted(envs)], "workloads": groups}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
