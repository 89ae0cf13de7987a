"""Fixed reference tasks that measure how fast this machine runs right now.

Shared virtual machines switch between speed states that last seconds to minutes;
on the 2-core machine this benchmark was written on, the slow state runs
interpreter-bound Python about 1.7x slower than the fast one. A command's wall
time divided by the time of a reference task run next to it cancels that common
factor. The tasks are benchmark code, so a change to pcgap never changes them.

There are four, each close in kind to the work it normalizes:

- ``rows``: parse text rows into floats, build and sort an array (mix, split
  and eval-seg, which parse and format XYZL text);
- ``numpy``: tiny numpy calls in a Python loop, whole-array numpy on 300k
  rows, and text rows parsed and formatted (simulate and noise: a per-ray
  Python loop of small numpy calls on the BVH path, all-pairs array work on
  the small-mesh path, XYZL read and write);
- ``io``: build an argparse parser, read a JSON file, write a CSV and a JSON
  file (``report``, a few milliseconds of parsing and small-file IO, run
  between every two of its runs);
- ``import``: a fresh interpreter that imports numpy and scipy.spatial (set-up,
  which is mostly those imports).
"""

from __future__ import annotations

import argparse
import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Each task's time in the fast state of a shared 2-core x86-64 virtual machine,
# Python 3.11, numpy 2.4, scipy 1.17; a normalized time reads as seconds there.
NOMINAL_S = {"rows": 0.055, "numpy": 0.18, "io": 0.0045, "import": 0.60}

IMPORT_CODE = "import numpy, scipy.spatial"

_ROWS = ["%.17g %.17g %.17g %d" % (x / 7, x / 3, x / 11, x % 12) for x in range(40000)]
_DOC = {"reports": [{f"k{i}": [i / 7, i / 3, "x" * 10] for i in range(60)} for _ in range(4)]}
_IO_IN, _IO_CSV, _IO_JSON = "calib_in.json", "calib_out.csv", "calib_out.json"


def _rows_task() -> float:
    t0 = time.perf_counter()
    parsed = []
    for row in _ROWS:
        x, y, z, label = row.split()
        parsed.append((float(x), float(y), float(z), int(label)))
    table = np.array(parsed)
    table.sort(axis=0)
    return time.perf_counter() - t0


def _rows() -> float:
    """Mean of four runs of the rows task, in seconds."""
    return sum(_rows_task() for _ in range(4)) / 4


def _numpy() -> float:
    """One run of the numpy task, in seconds."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for lo, hi in rng.uniform(-1.0, 1.0, (2000, 2, 3)):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (lo - hi) / hi
        np.nanmax(np.minimum(lo, t))
        np.nanmin(np.maximum(hi, t))
        np.cross(lo, hi)
        (t > 0).any()
    a, b = rng.uniform(-1.0, 1.0, (2, 300000, 3))
    for _ in range(3):
        c = np.cross(a, b)
        np.abs(np.einsum("ij,ij->i", c, a)).argmin()
        (c * b).sum(axis=1).max()
    table = np.array([[float(v) for v in row.split()] for row in _ROWS[:10000]])
    "\n".join("%.6f %.6f %.6f %d" % tuple(r) for r in table[:5000])
    return time.perf_counter() - t0


def _io() -> float:
    """One run of the io task in the current directory, in seconds."""
    if not Path(_IO_IN).exists():
        Path(_IO_IN).write_text(json.dumps(_DOC), encoding="utf-8")
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    for n in range(7):
        p = sub.add_parser(f"c{n}")
        for a in range(6):
            p.add_argument(f"--a{a}")
    parser.parse_args(["c3", "--a1", "x"])
    with open(_IO_IN, encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(_IO_CSV, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for report in doc["reports"]:
            for key, values in report.items():
                writer.writerow([key] + values)
    with open(_IO_JSON, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return time.perf_counter() - t0


def import_s(env: dict) -> float:
    """Wall time of a fresh interpreter running IMPORT_CODE, in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - t0


TASKS = {"rows": _rows, "numpy": _numpy, "io": _io}


def reference_s(kind: str = "rows") -> float:
    """Time of one in-process reference task (``rows``, ``numpy`` or ``io``), in seconds."""
    return TASKS[kind]()


def normalized(wall: float, before: float, after: float, kind: str = "rows") -> float:
    """Wall time rescaled to the nominal machine speed."""
    return wall * NOMINAL_S[kind] / ((before + after) / 2)
