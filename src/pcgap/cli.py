"""Subcommand front end: compare, simulate, noise, mix, split, eval-seg, report.

Every run writes its primary output plus a manifest (command, config echo,
input digests, seed, version) so results are reproducible from the manifest
alone. Exit codes are stable API: 0 ok, 2 config/validation, 3 I/O,
4 degenerate computation. Errors print one machine-parsable JSON line to
stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields
from functools import partial
from io import StringIO
from pathlib import Path

import numpy as np

from . import __version__, dataset, io, metric, simulate
from .core import NON_NOISE_CLASSES
from .errors import (ConfigError, DegenerateDataError, FormatError, ParseError, check_number, config_object,
                     config_tuple)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4


def _manifest(out_path) -> str:
    return str(out_path) + ".manifest.json"


def _write_manifest(out_path, command: str, config: dict, digests: dict, seed=None) -> None:
    """``digests``: each input's SHA-256, taken by its reader from the bytes it parsed."""
    manifest = {
        "command": command,
        "config": config,
        "inputs": digests,
        "seed": seed,
        "version": __version__,
    }
    io.dump_json(manifest, _manifest(out_path))


def _distinct_outputs(outputs: dict, inputs: dict) -> None:
    """Refuse, before anything is written, a command whose outputs ``{flag: path}``
    name one file twice or name one of its ``inputs`` ``{flag: path}`` (path None: no file)."""
    seen = {Path(path).resolve(): flag for flag, path in reversed(inputs.items()) if path is not None}
    for flag, path in outputs.items():
        if path is not None and (other := seen.setdefault(Path(path).resolve(), flag)) != flag:
            raise ConfigError(f"{flag} {path} names the same file as {other}")


def _read_json(path, digests: dict, parse):
    """``parse`` of the JSON of an input file (``digests``: see :func:`io.read_input`);
    bytes that are not UTF-8 JSON text (an integer past Python's digit limit among them),
    or a ValueError of ``parse``, are a ConfigError naming the file."""
    try:
        raw = json.loads(io.read_input(path, digests).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad text or bytes, or too deeply nested
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return parse(raw)
    except ValueError as exc:  # a ConfigError is one too
        raise ConfigError(f"{path}: {exc}") from exc


#: The compare flag of each number and mode key of MetricParams, as (key,
#: dest, choices): the key without its ``_m`` unit suffix, so ``voxel_size_m``
#: is ``--voxel-size``, and the key's modes as choices.
_PARAM_FLAGS = [(f.name, f.name.removesuffix("_m"), f.metadata.get("modes"))
                for f in fields(metric.MetricParams) if f.type == "float" or "modes" in f.metadata]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _offset_magnitudes(text: str) -> list[float]:
    """The comma-separated ``--offset`` magnitudes: at least one, all finite."""
    try:
        magnitudes = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        magnitudes = []
    if not magnitudes or not all(map(math.isfinite, magnitudes)):
        raise ConfigError(f"--offset must list finite magnitudes in meters, got {text!r}")
    return magnitudes


def cmd_compare(args) -> int:
    _distinct_outputs({"--out": args.out, "--out's manifest": _manifest(args.out)},
                      {"--real": args.real, "--synthetic": args.synthetic, "--config": args.config})
    # parameters and seed from the config file, then flags; an error of the file's own keys names it
    digests = {}
    raw = _read_json(args.config, digests, partial(config_object, key="config root")) if args.config else {}
    flags = {key: getattr(args, dest) for key, dest, _ in _PARAM_FLAGS} | {"seed": args.seed}
    flags = {key: value for key, value in flags.items() if value is not None}
    try:
        params, seed = metric.MetricParams.from_json_dict(raw | flags)
    except ConfigError as exc:
        try:
            metric.MetricParams.from_json_dict({k: v for k, v in raw.items() if k not in flags})
        except ConfigError as own:
            if str(own) == str(exc):
                raise ConfigError(f"{args.config}: {exc}") from exc
        raise
    magnitudes = _offset_magnitudes(args.offset) if args.offset is not None else None
    real = io.read_cloud(args.real, digests)
    synth = io.read_cloud(args.synthetic, digests)
    for flag, path, cloud in (("--real", args.real, real), ("--synthetic", args.synthetic, synth)):
        if not len(cloud):
            raise ConfigError(f"{flag} {path}: the cloud has no points to compare")

    config = {**params.to_json_dict(), "seed": seed}
    if magnitudes is not None:
        config["offsets_m"] = magnitudes
        vectors = metric.scalar_offsets_to_vectors(magnitudes)
        reports = metric.offset_sensitivity(real, synth, vectors, params)
        payload = {
            "report_type": "gap_series",
            "reports": [r.to_json_dict() for r in reports],
        }
        io.dump_json(payload, args.out)
    else:
        report = metric.dogss_pcl(real, synth, params)
        io.write_report(report, args.out)

    _write_manifest(args.out, "compare", config, digests, seed=seed)
    return EXIT_OK


def _range_noise(scan, sigma: float, seed: int, origins_path: str):
    """``scan`` with range noise; a sigma that moves a point beyond the float
    range is a ConfigError naming ``--sigma``, a point on its own ray origin
    a ValueError naming ``origins_path``."""
    try:
        return simulate.apply_range_noise(scan, simulate.NoiseModel(sigma, seed))
    except ConfigError as exc:
        raise ConfigError(f"--{exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{origins_path}: {exc}") from exc


def cmd_simulate(args) -> int:
    if args.sigma is not None and args.sigma > 0 and args.seed is None:
        raise ConfigError("--seed is required when applying noise (--sigma > 0)")
    origins_path = args.origins or (str(args.out) + ".origins")
    _distinct_outputs({"--out": args.out, "--out's manifest": _manifest(args.out), "--origins": origins_path},
                      {"--mesh": args.mesh, "--trajectory": args.trajectory,
                       "--scan-config": args.scan_config})
    digests = {}
    trajectory = _read_json(args.trajectory, digests, simulate.Trajectory.from_samples)
    scan_cfg = simulate.ScanConfig()
    if args.scan_config:
        scan_cfg = _read_json(args.scan_config, digests, simulate.ScanConfig.from_json_dict)
    mesh = io.read_mesh(args.mesh, digests)

    seed = 0 if args.seed is None else args.seed
    try:
        scan = simulate.simulate_scan(mesh, trajectory, scan_cfg)
    except MemoryError as exc:  # rays are points_per_second times the trajectory's duration
        raise ConfigError(f"{args.scan_config or '--scan-config'}: points_per_second: "
                          f"{scan_cfg.points_per_second} rays/s over {trajectory.duration:g} s "
                          f"are too many to cast ({exc})") from exc
    if args.sigma is not None and args.sigma > 0:
        scan = _range_noise(scan, args.sigma, seed, origins_path)

    io.write_cloud(scan.cloud, args.out, fmt=args.format)
    io.write_ray_origins(scan.ray_origins, origins_path)
    _write_manifest(
        args.out,
        "simulate",
        {"scan": scan_cfg.to_json_dict(), "sigma": args.sigma, "format": args.format},
        digests,
        seed=seed,
    )
    return EXIT_OK


def cmd_noise(args) -> int:
    origins_path = args.origins or (str(args.cloud) + ".origins")
    _distinct_outputs({"--out": args.out, "--out's manifest": _manifest(args.out)},
                      {"--cloud": args.cloud, "--origins": origins_path})
    digests = {}
    cloud = io.read_cloud(args.cloud, digests)
    origins = io.read_ray_origins(origins_path, digests)
    if origins.shape[0] != len(cloud):
        raise ConfigError(
            f"{origins_path}: {origins.shape[0]} origins for {len(cloud)} points"
        )
    scan = simulate.SimulatedScan(cloud, origins)
    noisy = _range_noise(scan, args.sigma, args.seed, origins_path)
    io.write_cloud(noisy.cloud, args.out, fmt=args.format)
    _write_manifest(
        args.out, "noise", {"sigma": args.sigma, "format": args.format}, digests, seed=args.seed,
    )
    return EXIT_OK


def cmd_mix(args) -> int:
    provenance_path = str(args.out) + ".provenance.txt"
    _distinct_outputs({"--out": args.out, "--out's manifest": _manifest(args.out),
                       "--out's provenance": provenance_path},
                      {"--real": args.real, "--synthetic": args.synthetic})
    digests = {}
    real = io.read_cloud(args.real, digests)
    synth = io.read_cloud(args.synthetic, digests)
    try:
        result = dataset.mix(real, synth, dataset.RatioMix(args.fraction, args.count, args.seed))
    except MemoryError as exc:
        raise ConfigError(f"--count {args.count}: too many points to draw ({exc})") from exc
    io.write_cloud(result.cloud, args.out, fmt=args.format)
    io.write_provenance(result.provenance, provenance_path)
    n_real, n_synth = result.counts()
    _write_manifest(
        args.out,
        "mix",
        {
            "real_fraction": args.fraction,
            "target_count": args.count,
            "real_points": n_real,
            "synthetic_points": n_synth,
            "real_with_replacement": result.real_with_replacement,
            "synthetic_with_replacement": result.synthetic_with_replacement,
            "format": args.format,
        },
        digests,
        seed=args.seed,
    )
    return EXIT_OK


def cmd_split(args) -> int:
    digests = {}
    spec = _read_json(args.spec, digests, dataset.SplitSpec.from_json_dict)  # it names the outputs
    out_dir = Path(args.out_dir)
    paths = {f"region {r.name!r}": out_dir / f"{r.name}.xyzl" for r in spec.regions}
    _distinct_outputs({**paths, "--out-dir's manifest": _manifest(out_dir / "split")},
                      {"--cloud": args.cloud, "--spec": args.spec})
    cloud = io.read_cloud(args.cloud, digests)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = {}
    for (name, part), path in zip(dataset.split(cloud, spec).items(), paths.values()):
        io.write_cloud(part, path, fmt=io.FORMAT_XYZL)
        counts[name] = len(part)
    _write_manifest(out_dir / "split", "split", {"regions": counts}, digests)
    return EXIT_OK


def cmd_eval_seg(args) -> int:
    _distinct_outputs({"--out": args.out, "--out's manifest": _manifest(args.out)},
                      {"--truth": args.truth, "--pred": args.pred})
    digests = {}
    truth = io.read_cloud(args.truth, digests)
    pred = io.read_label_file(args.pred, digests)
    if len(pred) != len(truth):
        raise ConfigError(
            f"{args.pred}: {len(pred)} labels for {len(truth)} ground-truth points"
        )
    report = dataset.evaluate_segmentation(truth, pred, synthetic_ratio=args.ratio)
    io.write_report(report, args.out)
    _write_manifest(args.out, "eval-seg", {"ratio": args.ratio}, digests)
    return EXIT_OK


_GAP_COLUMNS = ("m_dogss_pcl", "d", "d_mm3c2", "d_c2c", "miou", "f_miou")


def _gap_rows(path: str, doc: dict) -> list[tuple[str, float, list]]:
    """Name, offset magnitude and column values of a gap report, or of
    each report of a gap series, which must hold at least one. Each number
    is checked by the one number rule under its key."""
    if doc["report_type"] == "gap":
        subs = [(path, "", doc)]
    elif isinstance(reports := doc.get("reports"), list) and reports:
        subs = [(f"{path}[{i}]", f"reports[{i}].", config_object(sub, f"reports[{i}]"))
                for i, sub in enumerate(reports)]
    else:
        raise ParseError(path, f"reports: expected a non-empty list of gap reports, found {reports!r}")
    return [(name, _offset_magnitude(sub.get("offset", [0.0, 0.0, 0.0]), key + "offset"),
             [float(check_number(sub[c], key + c)) for c in _GAP_COLUMNS]) for name, key, sub in subs]


def _offset_magnitude(offset, key: str) -> float:
    """Length of a report's offset vector, 3 numbers named ``key[i]``:
    numpy's norm, or ``math.hypot`` where the norm's sum of squares
    overflows; a length beyond the float range is a ValueError."""
    offset = [check_number(v, f"{key}[{k}]") for k, v in enumerate(config_tuple(offset, key, 3))]
    with np.errstate(over="ignore"):
        magnitude = float(np.linalg.norm(offset))
    magnitude = magnitude if math.isfinite(magnitude) else math.hypot(*offset)
    if not math.isfinite(magnitude):
        raise ValueError(f"offset {offset!r} has no finite length")
    return magnitude


def _parse_report(path: str, parse, doc: dict):
    """``parse(doc)``; a report that lacks a field, or holds one of the wrong
    type or too large for a float, is a ParseError naming the file."""
    try:
        return parse(doc)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(path, f"malformed report: {type(exc).__name__}: {exc}") from exc


def cmd_report(args) -> int:
    _distinct_outputs({"--out": args.out, "--plot-data": args.plot_data},
                      {f"report input {p}": p for p in args.reports})
    docs = [(str(p), io.read_report(p)) for p in args.reports]
    for path, doc in docs:
        if (kind := doc.get("report_type")) not in ("gap", "gap_series", "eval"):
            raise ParseError(path, f"report_type: expected gap, gap_series or eval, found {kind!r}")
    kinds = {"gap" if d["report_type"] == "gap_series" else d["report_type"] for _, d in docs}
    if len(kinds) > 1:
        offenders = ", ".join(f"{p} ({d.get('report_type')})" for p, d in docs)
        raise ConfigError(f"mixed report schemas: {offenders}")
    kind = kinds.pop()

    plot_series: dict = {}
    if kind == "gap":
        rows = []
        for path, doc in docs:
            rows += _parse_report(path, partial(_gap_rows, path), doc)
        table = [("report", "offset_m") + _GAP_COLUMNS] + [[name, m] + values for name, m, values in rows]
        plot_series = {
            col: [[magnitude, values[k]] for _, magnitude, values in rows]
            for k, col in enumerate(_GAP_COLUMNS)
        }
    else:
        reports = [_parse_report(p, dataset.EvalReport.from_json_dict, d) for p, d in docs]
        ratios = [r.synthetic_ratio for r in reports]
        have_ratios = all(r is not None for r in ratios)
        order = np.argsort(ratios, kind="stable") if have_ratios else np.arange(len(reports))
        reports = [reports[i] for i in order]
        ratios = [ratios[i] for i in order]
        names = [docs[i][0] for i in order]

        with_corr = have_ratios and len(set(ratios)) >= 2
        table = [["class"] + [
            f"iou@{r}" if have_ratios else name for r, name in zip(ratios, names)
        ] + ["avg"] + (["corr"] if with_corr else [])]
        rows = [(cls.canonical_name, [r.per_class[cls].iou for r in reports])
                for cls in NON_NOISE_CLASSES] + [("mIoU", [r.miou for r in reports])]
        xs = ratios if have_ratios else range(len(reports))
        for name, ious in rows:
            row = [name] + ious + [float(np.mean(ious))]
            if with_corr:
                corr = dataset.ratio_correlation(list(zip(ratios, ious)))
                row.append("-" if corr is None else corr)
            table.append(row)
            plot_series[name] = [[x, iou] for x, iou in zip(xs, ious)]

    text = StringIO()
    csv.writer(text).writerows(table)
    with io.output_file(args.out, "summary") as fh:
        fh.write(text.getvalue().encode("utf-8"))
    if args.plot_data:
        io.dump_json({"series": plot_series}, args.plot_data)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_cloud_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        default="auto",
        choices=("auto",) + io.CLOUD_FORMATS,
        help="output cloud format (auto: by file extension)",
    )


#: The subcommands, in the order ``pcgap -h`` lists them.
COMMANDS = ("compare", "simulate", "noise", "mix", "split", "eval-seg", "report")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The pcgap parser; given one of :data:`COMMANDS`, with that subcommand's parser alone."""
    parser = argparse.ArgumentParser(
        prog="pcgap",
        description="Domain-gap scoring, LiDAR scan simulation, and dataset tools "
        "for semantic point clouds.",
    )
    parser.add_argument("--version", action="version", version=f"pcgap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    if command in COMMANDS:  # usage lists them all; the full parser's errors name "command"
        sub.metavar = "{" + ",".join(COMMANDS) + "}"
    def add(name: str, help_text: str):
        return sub.add_parser(name, help=help_text) if command not in COMMANDS or name == command else None

    if p := add("compare", "score a synthetic cloud against its real twin"):
        p.add_argument("--real", required=True)
        p.add_argument("--synthetic", "--synth", dest="synthetic", required=True)
        p.add_argument("--config", help="config JSON (see README); flags override file values")
        p.add_argument("--offset", help="comma-separated offset magnitudes in meters, "
                       "applied along the unit diagonal (e.g. '0,0.1,0.3')")
        p.add_argument("--out", required=True)
        for _, dest, choices in _PARAM_FLAGS:
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=None if choices else float,
                           choices=choices)
        p.add_argument("--seed", type=int)
        p.set_defaults(func=cmd_compare)

    if p := add("simulate", "simulate a labeled scan over a classed mesh"):
        p.add_argument("--mesh", required=True)
        p.add_argument("--trajectory", required=True, help="JSON array of {t, x, y, z, yaw}")
        p.add_argument("--scan-config", dest="scan_config")
        p.add_argument("--sigma", type=float, help="apply range noise inline (meters)")
        p.add_argument("--seed", type=int, help="mandatory when --sigma > 0")
        p.add_argument("--origins", help="ray-origin sidecar path (default: OUT.origins)")
        p.add_argument("--out", required=True)
        _add_cloud_format(p)
        p.set_defaults(func=cmd_simulate)

    if p := add("noise", "apply seeded range noise to a simulated cloud"):
        p.add_argument("--cloud", required=True)
        p.add_argument("--origins", help="ray-origin sidecar (default: CLOUD.origins)")
        p.add_argument("--sigma", type=float, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=True)
        _add_cloud_format(p)
        p.set_defaults(func=cmd_noise)

    if p := add("mix", "mix real and synthetic clouds at a fixed ratio"):
        p.add_argument("--real", required=True)
        p.add_argument("--synthetic", "--synth", dest="synthetic", required=True)
        p.add_argument("--fraction", type=float, required=True, help="real fraction in [0, 1]")
        p.add_argument("--count", type=int, required=True, help="total output points")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=True)
        _add_cloud_format(p)
        p.set_defaults(func=cmd_mix)

    if p := add("split", "cut a cloud into named xy regions"):
        p.add_argument("--cloud", required=True)
        p.add_argument("--spec", required=True, help="SplitSpec JSON")
        p.add_argument("--out-dir", dest="out_dir", required=True)
        p.set_defaults(func=cmd_split)

    if p := add("eval-seg", "score per-point predictions against ground truth"):
        p.add_argument("--truth", required=True)
        p.add_argument("--pred", required=True, help="one label per line, cloud order")
        p.add_argument("--ratio", type=float, help="synthetic ratio tag for trend analysis")
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_eval_seg)

    if p := add("report", "summarize report JSONs into CSV"):
        p.add_argument("reports", nargs="+")
        p.add_argument("--out", required=True)
        p.add_argument("--plot-data", dest="plot_data", help="write (x, y) series JSON")
        p.set_defaults(func=cmd_report)

    return parser


def _fail(code: int, message: str) -> int:
    sys.stderr.write(json.dumps({"error": message, "exit_code": code}) + "\n")
    return code


#: The range rule of each number flag that has one (see :data:`errors.RULES`).
_FLAG_RULES = {"sigma": ">= 0", "seed": ">= 0", "ratio": "in [0, 1]", "fraction": "in [0, 1]", "count": ">= 1"}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)  # "pcgap -h report" lists them all
    try:
        for dest, value in vars(args).items():  # every number flag: finite and within its rule
            if isinstance(value, (int, float)):
                check_number(value, "--" + dest.replace("_", "-"), _FLAG_RULES.get(dest),
                             integer=isinstance(value, int))
        return args.func(args)
    except ValueError as exc:  # a ConfigError is one too
        return _fail(EXIT_CONFIG, str(exc))
    except DegenerateDataError as exc:
        return _fail(EXIT_DEGENERATE, str(exc))
    except (ParseError, FormatError, FileNotFoundError, OSError) as exc:
        return _fail(EXIT_IO, str(exc))


if __name__ == "__main__":
    sys.exit(main())
