"""Ratio mixing, spatial splits, and segmentation statistics.

These are the stochastic-experiment utilities: build mixed real/synthetic
training sets at fixed ratios, cut clouds into named xy regions, and score
externally produced per-point predictions (IoU, mIoU, Pearson trends,
confusion summaries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import NON_NOISE_CLASSES, LabeledPointCloud, SemanticClass
from .errors import ConfigError

N_CLASSES = 12


# ---------------------------------------------------------------------------
# spatial splits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """A named xy region: axis-aligned rectangle or simple polygon.

    Rectangles are (xmin, ymin, xmax, ymax) with inclusive bounds; polygon
    membership uses the even-odd rule with boundary points counted inside.
    """

    name: str
    rect: tuple[float, float, float, float] | None = None
    polygon: np.ndarray | None = None

    def __post_init__(self):
        if not _is_file_name(self.name):
            raise ValueError(f"region name {self.name!r} is not a plain file name")
        if (self.rect is None) == (self.polygon is None):
            raise ValueError(f"region {self.name!r}: exactly one of rect/polygon required")
        if self.rect is not None:
            xmin, ymin, xmax, ymax = self.rect
            if not all(map(math.isfinite, self.rect)):
                raise ValueError(f"region {self.name!r}: rect coordinates must be finite")
            if not (xmin < xmax and ymin < ymax):
                raise ValueError(f"region {self.name!r}: zero-area rectangle")
        else:
            poly = np.asarray(self.polygon, dtype=np.float64).reshape(-1, 2)
            if len(poly) < 3:
                raise ValueError(f"region {self.name!r}: polygon needs >= 3 vertices")
            if not np.isfinite(poly).all():
                raise ValueError(f"region {self.name!r}: polygon coordinates must be finite")
            x, y = poly[:, 0], poly[:, 1]
            area2 = np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))
            if area2 == 0:
                raise ValueError(f"region {self.name!r}: zero-area polygon")
            poly.setflags(write=False)
            object.__setattr__(self, "polygon", poly)

    def contains(self, xy: np.ndarray) -> np.ndarray:
        xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
        if self.rect is not None:
            xmin, ymin, xmax, ymax = self.rect
            return (
                (xy[:, 0] >= xmin) & (xy[:, 0] <= xmax)
                & (xy[:, 1] >= ymin) & (xy[:, 1] <= ymax)
            )
        return _points_in_polygon(xy, self.polygon)


def _is_file_name(name) -> bool:
    """True when ``name`` can name a file inside a directory: not empty,
    ``.`` or ``..``, and without a path separator or NUL."""
    return str(name) not in ("", ".", "..") and not any(c in str(name) for c in "/\\\0")


def _points_in_polygon(xy: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd membership; points exactly on an edge count as inside."""
    x, y = xy[:, 0], xy[:, 1]
    inside = np.zeros(len(xy), dtype=bool)
    on_edge = np.zeros(len(xy), dtype=bool)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        # boundary: collinear and within the segment's bounding box
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        within = (
            (np.minimum(x1, x2) <= x) & (x <= np.maximum(x1, x2))
            & (np.minimum(y1, y2) <= y) & (y <= np.maximum(y1, y2))
        )
        on_edge |= (cross == 0) & within
        # even-odd crossing test on the half-open edge
        crosses = ((y1 > y) != (y2 > y))
        if np.any(crosses):
            with np.errstate(divide="ignore", invalid="ignore"):
                x_at = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (x < x_at)
    return inside | on_edge


@dataclass(frozen=True)
class SplitSpec:
    """Ordered named regions; a point belongs to the first region containing
    its xy projection, points outside all regions are excluded."""

    regions: tuple[Region, ...]

    def __post_init__(self):
        if not self.regions:
            raise ValueError("split spec needs at least one region")
        names = [r.name for r in self.regions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names: {names}")

    @classmethod
    def from_json_dict(cls, raw: Mapping) -> "SplitSpec":
        if not isinstance(raw, Mapping) or "regions" not in raw:
            raise ConfigError("split spec must be an object with a 'regions' array")
        regions = []
        for i, entry in enumerate(raw["regions"]):
            try:
                name = entry["name"]
                if not _is_file_name(name):
                    raise ConfigError(f"regions[{i}].name: {name!r} is not a plain file name")
                if "rect" in entry:
                    regions.append(Region(name, rect=tuple(float(v) for v in entry["rect"])))
                elif "polygon" in entry:
                    regions.append(Region(name, polygon=np.asarray(entry["polygon"], dtype=np.float64)))
                else:
                    raise ValueError("needs 'rect' or 'polygon'")
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"regions[{i}]: {exc}") from exc
        return cls(tuple(regions))


def split(cloud: LabeledPointCloud, spec: SplitSpec) -> dict[str, LabeledPointCloud]:
    """Partition a cloud into the spec's named regions (first match wins)."""
    xy = cloud.xyz[:, :2]
    assigned = np.full(len(cloud), -1, dtype=np.int64)
    for i, region in enumerate(spec.regions):
        mask = (assigned == -1) & region.contains(xy)
        assigned[mask] = i
    return {
        region.name: cloud.select(assigned == i)
        for i, region in enumerate(spec.regions)
    }


# ---------------------------------------------------------------------------
# ratio mixing
# ---------------------------------------------------------------------------


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class RatioMix:
    real_fraction: float
    target_count: int
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.real_fraction <= 1.0:
            raise ValueError("real_fraction must be in [0, 1]")
        if self.target_count <= 0:
            raise ValueError("target_count must be positive")

    @property
    def real_count(self) -> int:
        return _round_half_up(self.target_count * self.real_fraction)

    @property
    def synthetic_count(self) -> int:
        return self.target_count - self.real_count


@dataclass(frozen=True)
class MixResult:
    """Mixed cloud with per-point provenance (True = real)."""

    cloud: LabeledPointCloud
    provenance: np.ndarray
    real_with_replacement: bool
    synthetic_with_replacement: bool

    def counts(self) -> tuple[int, int]:
        n_real = int(self.provenance.sum())
        return n_real, len(self.cloud) - n_real


def mix(real: LabeledPointCloud, synthetic: LabeledPointCloud, spec: RatioMix) -> MixResult:
    """Uniformly sample both domains to the requested ratio and concatenate.

    Sampling is without replacement unless a source is smaller than its
    quota; that fallback is recorded on the result. Same seed, same output.
    """
    n_real, n_synth = spec.real_count, spec.synthetic_count
    if n_real > 0 and len(real) == 0:
        raise ValueError("real cloud is empty but the mix requires real points")
    if n_synth > 0 and len(synthetic) == 0:
        raise ValueError("synthetic cloud is empty but the mix requires synthetic points")

    rng = np.random.default_rng(spec.seed)

    def draw(cloud: LabeledPointCloud, count: int) -> tuple[LabeledPointCloud, bool]:
        if count == 0:
            return LabeledPointCloud.empty(), False
        replace = count > len(cloud)
        idx = rng.choice(len(cloud), size=count, replace=replace)
        return cloud.select(idx), replace

    real_part, real_rep = draw(real, n_real)
    synth_part, synth_rep = draw(synthetic, n_synth)
    merged = LabeledPointCloud.concat([real_part, synth_part])
    provenance = np.concatenate(
        [np.ones(n_real, dtype=bool), np.zeros(n_synth, dtype=bool)]
    )
    return MixResult(merged, provenance, real_rep, synth_rep)


# ---------------------------------------------------------------------------
# segmentation evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassEval:
    tp: int
    fp: int
    fn: int
    iou: float
    absent: bool


@dataclass(frozen=True)
class EvalReport:
    """Per-class tallies and IoU, unweighted mIoU over the 11 non-Noise
    classes, and the full true-by-predicted confusion matrix."""

    per_class: Mapping[SemanticClass, ClassEval]
    miou: float
    confusion: np.ndarray  # (12, 12), rows = true class, cols = predicted
    synthetic_ratio: float | None = None

    def __post_init__(self):
        r = self.synthetic_ratio
        number = isinstance(r, (int, float)) and not isinstance(r, bool)
        if r is not None and not (number and 0 <= r <= 1):
            raise ValueError(f"synthetic_ratio must be null or in [0, 1], got {r!r}")

    def to_json_dict(self) -> dict:
        return {
            "report_type": "eval",
            "synthetic_ratio": self.synthetic_ratio,
            "per_class": {
                cls.canonical_name: {
                    "tp": ev.tp,
                    "fp": ev.fp,
                    "fn": ev.fn,
                    "iou": ev.iou,
                    "absent": ev.absent,
                }
                for cls, ev in self.per_class.items()
            },
            "miou": self.miou,
            "confusion": self.confusion.tolist(),
        }

    @classmethod
    def from_json_dict(cls, raw: Mapping) -> "EvalReport":
        per_class = {}
        for c in SemanticClass:  # every class has an entry
            ev = raw["per_class"][c.canonical_name]
            per_class[c] = ClassEval(
                int(ev["tp"]), int(ev["fp"]), int(ev["fn"]), float(ev["iou"]), bool(ev["absent"])
            )
        return cls(
            per_class=per_class,
            miou=float(raw["miou"]),
            confusion=np.asarray(raw["confusion"], dtype=np.int64),
            synthetic_ratio=raw.get("synthetic_ratio"),
        )


def evaluate_segmentation(
    ground_truth: LabeledPointCloud,
    predictions: Sequence[int] | np.ndarray,
    synthetic_ratio: float | None = None,
) -> EvalReport:
    """Score index-aligned predicted labels against a labeled cloud.

    IoU per class is tp / (tp + fp + fn); classes never seen (tp+fp+fn = 0)
    report IoU 0 and are flagged absent. The mIoU averages the 11 non-Noise
    classes, absent ones included.
    """
    pred = np.asarray(predictions, dtype=np.int64)
    if pred.shape != (len(ground_truth),):
        raise ValueError(
            f"prediction length {pred.shape} does not match cloud size {len(ground_truth)}"
        )
    if pred.size and ((pred < 1) | (pred > N_CLASSES)).any():
        raise ValueError("predictions must be class ids in 1..12 (coerce on read)")

    true = ground_truth.labels.astype(np.int64)
    confusion = np.bincount(
        (true - 1) * N_CLASSES + (pred - 1), minlength=N_CLASSES * N_CLASSES
    ).reshape(N_CLASSES, N_CLASSES)

    tp = np.diag(confusion)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp

    per_class: dict[SemanticClass, ClassEval] = {}
    for cls in SemanticClass:
        i = cls.value - 1
        support = int(tp[i] + fp[i] + fn[i])
        iou = float(tp[i] / support) if support else 0.0
        per_class[cls] = ClassEval(int(tp[i]), int(fp[i]), int(fn[i]), iou, support == 0)

    miou = float(np.mean([per_class[c].iou for c in NON_NOISE_CLASSES]))
    return EvalReport(per_class, miou, confusion, synthetic_ratio)


# ---------------------------------------------------------------------------
# trend statistics
# ---------------------------------------------------------------------------


def ratio_correlation(series: Sequence[tuple[float, float]]) -> float | None:
    """Pearson coefficient between mix ratios and IoU values.

    Returns None (undefined) when either side has zero spread, e.g. a class
    stuck at IoU 0 across every ratio.
    """
    if len(series) < 2:
        raise ValueError("correlation needs at least two (ratio, value) pairs")
    ratios = np.asarray([p for p, _ in series], dtype=np.float64)
    values = np.asarray([v for _, v in series], dtype=np.float64)
    if np.unique(ratios).size < 2:
        raise ValueError("correlation needs at least two distinct ratios")
    dr = ratios - ratios.mean()
    dv = values - values.mean()
    sr = math.sqrt(float((dr**2).sum()))
    sv = math.sqrt(float((dv**2).sum()))
    if sr == 0.0 or sv == 0.0:
        return None
    return float((dr * dv).sum() / (sr * sv))


@dataclass(frozen=True)
class MisclassRow:
    true_class: SemanticClass
    predicted_class: SemanticClass
    proportion: float


def most_misclassified(report: EvalReport) -> list[MisclassRow]:
    """Per true class: the wrong prediction it most often receives.

    Proportion is that prediction's share of all wrong predictions for the
    class; classes with zero errors are omitted. Ties break to the lower id.
    """
    rows: list[MisclassRow] = []
    confusion = np.asarray(report.confusion)
    for cls in SemanticClass:
        i = cls.value - 1
        wrong = confusion[i].copy()
        wrong[i] = 0
        total = int(wrong.sum())
        if total == 0:
            continue
        j = int(np.argmax(wrong))  # first max = lowest class id
        rows.append(MisclassRow(cls, SemanticClass(j + 1), float(wrong[j] / total)))
    return rows
