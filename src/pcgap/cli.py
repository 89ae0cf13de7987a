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
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, dataset, io, metric, simulate
from .errors import ConfigError, DegenerateDataError, FormatError, ParseError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4


def _sha256(path) -> str:
    import hashlib  # only manifests need it; kept off the import path

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path, command: str, config: dict, inputs: list, seed=None) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "seed": seed,
        "version": __version__,
    }
    io.dump_json(manifest, str(out_path) + ".manifest.json")


def _read_json(path):
    """The parsed JSON of an input file; text that is not JSON is a
    ConfigError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _metric_params(args) -> tuple[metric.MetricParams, int]:
    """Parameters and seed from the config file, then flag overrides."""
    raw = _read_json(args.config) if args.config else {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{args.config}: config root must be a JSON object")
    flags = {
        "voxel_size_m": args.voxel_size,
        "lambda1": args.lambda1,
        "lambda2": args.lambda2,
        "lambda3": args.lambda3,
        "alpha": args.alpha,
        "epsilon": args.epsilon,
        "c2c_mode": args.c2c_mode,
        "eq3_weight_mode": args.eq3_weight_mode,
        "lambda_validation": args.lambda_validation,
        "seed": args.seed,
    }
    raw.update((key, value) for key, value in flags.items() if value is not None)
    return metric.MetricParams.from_json_dict(raw)


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
    params, seed = _metric_params(args)
    magnitudes = _offset_magnitudes(args.offset) if args.offset is not None else None
    real = io.read_cloud(args.real)
    synth = io.read_cloud(args.synthetic)

    if magnitudes is not None:
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

    config = {**params.to_json_dict(), "seed": seed}
    _write_manifest(args.out, "compare", config, [args.real, args.synthetic], seed=seed)
    return EXIT_OK


def cmd_simulate(args) -> int:
    origins_path = args.origins or (str(args.out) + ".origins")
    if Path(origins_path).resolve() == Path(args.out).resolve():
        raise ConfigError(f"--origins {origins_path} would overwrite the --out cloud")
    mesh = io.read_mesh(args.mesh)
    samples = _read_json(args.trajectory)
    try:
        trajectory = simulate.Trajectory.from_samples(samples)
    except ValueError as exc:
        raise ConfigError(f"{args.trajectory}: {exc}") from exc

    scan_cfg = simulate.ScanConfig()
    if args.scan_config:
        raw = _read_json(args.scan_config)
        try:
            scan_cfg = simulate.ScanConfig.from_json_dict(raw)
        except ValueError as exc:
            raise ConfigError(f"{args.scan_config}: {exc}") from exc

    if args.sigma is not None and args.sigma > 0 and args.seed is None:
        raise ConfigError("--seed is required when applying noise (--sigma > 0)")
    seed = 0 if args.seed is None else args.seed
    scan = simulate.simulate_scan(mesh, trajectory, scan_cfg)
    if args.sigma is not None and args.sigma > 0:
        scan = simulate.apply_range_noise(scan, simulate.NoiseModel(args.sigma, seed))

    io.write_cloud(scan.cloud, args.out, fmt=args.format)
    io.write_ray_origins(scan.ray_origins, origins_path)
    _write_manifest(
        args.out,
        "simulate",
        {"scan": scan_cfg.to_json_dict(), "sigma": args.sigma, "format": args.format},
        [args.mesh, args.trajectory] + ([args.scan_config] if args.scan_config else []),
        seed=seed,
    )
    return EXIT_OK


def cmd_noise(args) -> int:
    cloud = io.read_cloud(args.cloud)
    origins_path = args.origins or (str(args.cloud) + ".origins")
    origins = io.read_ray_origins(origins_path)
    if origins.shape[0] != len(cloud):
        raise ConfigError(
            f"{origins_path}: {origins.shape[0]} origins for {len(cloud)} points"
        )
    scan = simulate.SimulatedScan(cloud, origins)
    noisy = simulate.apply_range_noise(scan, simulate.NoiseModel(args.sigma, args.seed))
    io.write_cloud(noisy.cloud, args.out, fmt=args.format)
    _write_manifest(
        args.out, "noise", {"sigma": args.sigma, "format": args.format},
        [args.cloud, origins_path], seed=args.seed,
    )
    return EXIT_OK


def cmd_mix(args) -> int:
    real = io.read_cloud(args.real)
    synth = io.read_cloud(args.synthetic)
    result = dataset.mix(real, synth, dataset.RatioMix(args.fraction, args.count, args.seed))
    io.write_cloud(result.cloud, args.out, fmt=args.format)
    io.write_provenance(result.provenance, str(args.out) + ".provenance.txt")
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
        [args.real, args.synthetic],
        seed=args.seed,
    )
    return EXIT_OK


def cmd_split(args) -> int:
    cloud = io.read_cloud(args.cloud)
    spec = dataset.SplitSpec.from_json_dict(_read_json(args.spec))
    parts = dataset.split(cloud, spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = {}
    for name, part in parts.items():
        io.write_cloud(part, out_dir / f"{name}.xyzl", fmt=io.FORMAT_XYZL)
        counts[name] = len(part)
    _write_manifest(
        out_dir / "split", "split", {"regions": counts}, [args.cloud, args.spec]
    )
    return EXIT_OK


def cmd_eval_seg(args) -> int:
    truth = io.read_cloud(args.truth)
    pred = io.read_label_file(args.pred)
    if len(pred) != len(truth):
        raise ConfigError(
            f"{args.pred}: {len(pred)} labels for {len(truth)} ground-truth points"
        )
    report = dataset.evaluate_segmentation(truth, pred, synthetic_ratio=args.ratio)
    io.write_report(report, args.out)
    _write_manifest(args.out, "eval-seg", {"ratio": args.ratio}, [args.truth, args.pred])
    return EXIT_OK


_GAP_COLUMNS = ("m_dogss_pcl", "d", "d_mm3c2", "d_c2c", "miou", "f_miou")


def _gap_rows(path: str, doc: dict) -> list[tuple[str, float, list]]:
    """Name, offset magnitude and column values of a gap report, or of
    each report of a gap series."""
    kind = doc.get("report_type")
    if kind == "gap":
        subs = [(path, doc)]
    elif kind == "gap_series":
        subs = [(f"{path}[{i}]", sub) for i, sub in enumerate(doc.get("reports", []))]
    else:
        raise ConfigError(f"{path}: expected a gap report, found {kind!r}")
    return [
        (name, _offset_magnitude(sub.get("offset", [0.0, 0.0, 0.0])),
         [float(sub[c]) for c in _GAP_COLUMNS])
        for name, sub in subs
    ]


def _offset_magnitude(offset) -> float:
    """Length of a report's offset vector: numpy's norm, or ``math.hypot``
    where the norm's sum of squares overflows; a length beyond the float
    range is a ValueError."""
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
    except ConfigError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(path, f"malformed report: {type(exc).__name__}: {exc}") from exc


def cmd_report(args) -> int:
    docs = [(str(p), io.read_report(p)) for p in args.reports]
    kinds = {d.get("report_type", "gap") for _, d in docs}
    kinds = {"gap" if k == "gap_series" else k for k in kinds}
    if len(kinds) > 1:
        offenders = ", ".join(f"{p} ({d.get('report_type')})" for p, d in docs)
        raise ConfigError(f"mixed report schemas: {offenders}")
    kind = kinds.pop()

    plot_series: dict = {}
    if kind == "gap":
        rows = []
        for path, doc in docs:
            rows += _parse_report(path, partial(_gap_rows, path), doc)
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("report", "offset_m") + _GAP_COLUMNS)
            for name, magnitude, values in rows:
                writer.writerow([name, magnitude] + values)
        plot_series = {
            col: [[magnitude, values[k]] for _, magnitude, values in rows]
            for k, col in enumerate(_GAP_COLUMNS)
        }
    else:
        reports = [_parse_report(p, dataset.EvalReport.from_json_dict, d) for p, d in docs]
        ratios = [r.synthetic_ratio for r in reports]
        have_ratios = all(r is not None for r in ratios)
        order = np.argsort(ratios) if have_ratios else np.arange(len(reports))
        reports = [reports[i] for i in order]
        ratios = [ratios[i] for i in order]
        names = [docs[i][0] for i in order]

        with_corr = have_ratios and len(set(ratios)) >= 2
        header = ["class"] + [
            f"iou@{r}" if have_ratios else name for r, name in zip(ratios, names)
        ] + ["avg"] + (["corr"] if with_corr else [])
        from .core import NON_NOISE_CLASSES

        rows = [(cls.canonical_name, [r.per_class[cls].iou for r in reports])
                for cls in NON_NOISE_CLASSES] + [("mIoU", [r.miou for r in reports])]
        xs = ratios if have_ratios else range(len(reports))
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for name, ious in rows:
                row = [name] + ious + [float(np.mean(ious))]
                if with_corr:
                    corr = dataset.ratio_correlation(list(zip(ratios, ious)))
                    row.append("-" if corr is None else corr)
                writer.writerow(row)
                plot_series[name] = [[x, iou] for x, iou in zip(xs, ious)]

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcgap",
        description="Domain-gap scoring, LiDAR scan simulation, and dataset tools "
        "for semantic point clouds.",
    )
    parser.add_argument("--version", action="version", version=f"pcgap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="score a synthetic cloud against its real twin")
    p.add_argument("--real", required=True)
    p.add_argument("--synthetic", "--synth", dest="synthetic", required=True)
    p.add_argument("--config", help="config JSON (see README); flags override file values")
    p.add_argument("--offset", help="comma-separated offset magnitudes in meters, "
                   "applied along the unit diagonal (e.g. '0,0.1,0.3')")
    p.add_argument("--out", required=True)
    p.add_argument("--voxel-size", type=float, dest="voxel_size")
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--lambda3", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--c2c-mode", choices=metric.C2C_MODES, dest="c2c_mode")
    p.add_argument("--eq3-weight-mode", choices=metric.EQ3_WEIGHT_MODES, dest="eq3_weight_mode")
    p.add_argument("--lambda-validation", choices=metric.LAMBDA_VALIDATION_MODES,
                   dest="lambda_validation")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="simulate a labeled scan over a classed mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--trajectory", required=True, help="JSON array of {t, x, y, z, yaw}")
    p.add_argument("--scan-config", dest="scan_config")
    p.add_argument("--sigma", type=float, help="apply range noise inline (meters)")
    p.add_argument("--seed", type=int, help="mandatory when --sigma > 0")
    p.add_argument("--origins", help="ray-origin sidecar path (default: OUT.origins)")
    p.add_argument("--out", required=True)
    _add_cloud_format(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("noise", help="apply seeded range noise to a simulated cloud")
    p.add_argument("--cloud", required=True)
    p.add_argument("--origins", help="ray-origin sidecar (default: CLOUD.origins)")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_cloud_format(p)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("mix", help="mix real and synthetic clouds at a fixed ratio")
    p.add_argument("--real", required=True)
    p.add_argument("--synthetic", "--synth", dest="synthetic", required=True)
    p.add_argument("--fraction", type=float, required=True, help="real fraction in [0, 1]")
    p.add_argument("--count", type=int, required=True, help="total output points")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_cloud_format(p)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("split", help="cut a cloud into named xy regions")
    p.add_argument("--cloud", required=True)
    p.add_argument("--spec", required=True, help="SplitSpec JSON")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("eval-seg", help="score per-point predictions against ground truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True, help="one label per line, cloud order")
    p.add_argument("--ratio", type=float, help="synthetic ratio tag for trend analysis")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_seg)

    p = sub.add_parser("report", help="summarize report JSONs into CSV")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--plot-data", dest="plot_data", help="write (x, y) series JSON")
    p.set_defaults(func=cmd_report)

    return parser


def _fail(code: int, message: str) -> int:
    sys.stderr.write(json.dumps({"error": message, "exit_code": code}) + "\n")
    return code


def _check_float_flags(args) -> None:
    """Every float flag must be finite, ``--sigma`` >= 0, ``--ratio`` and
    ``--fraction`` in [0, 1] and ``--count`` positive; a bad value names
    its flag."""
    for dest, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{dest.replace('_', '-')} must be finite, got {value}")
    if getattr(args, "sigma", None) is not None and args.sigma < 0:
        raise ConfigError(f"--sigma must be >= 0, got {args.sigma}")
    for flag in ("ratio", "fraction"):
        value = getattr(args, flag, None)
        if value is not None and not 0 <= value <= 1:
            raise ConfigError(f"--{flag} must be in [0, 1], got {value}")
    if getattr(args, "count", None) is not None and args.count <= 0:
        raise ConfigError(f"--count must be positive, got {args.count}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_float_flags(args)
        return args.func(args)
    except ValueError as exc:  # a ConfigError is one too
        return _fail(EXIT_CONFIG, str(exc))
    except DegenerateDataError as exc:
        return _fail(EXIT_DEGENERATE, str(exc))
    except (ParseError, FormatError, FileNotFoundError, OSError) as exc:
        return _fail(EXIT_IO, str(exc))


if __name__ == "__main__":
    sys.exit(main())
