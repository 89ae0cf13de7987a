import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgap.core import LabeledPointCloud, SemanticClass
from pcgap.dataset import (
    EvalReport,
    RatioMix,
    Region,
    SplitSpec,
    evaluate_segmentation,
    mix,
    ratio_correlation,
    split,
)
from pcgap.errors import ConfigError

from conftest import random_cloud


class TestRegions:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rect_rejected(self, value):
        with pytest.raises(ValueError, match="region 'r': rect coordinates must be finite"):
            Region("r", rect=(0, 0, value, 5))

    def test_polygon_of_two_vertices_rejected(self):
        with pytest.raises(ValueError, match=r"region 'p': polygon needs >= 3 vertices"):
            Region("p", polygon=[[0, 0], [1, 1]])

    def test_zero_area_rect_rejected(self):
        with pytest.raises(ValueError, match="zero-area"):
            Region("r", rect=(0, 0, 0, 5))

    def test_zero_area_polygon_rejected(self):
        with pytest.raises(ValueError, match="zero-area"):
            Region("p", polygon=[[0, 0], [1, 1], [2, 2]])

    @pytest.mark.parametrize("corner", [1e300, 1e160])
    def test_polygon_whose_products_overflow_rejected(self, corner):
        with pytest.raises(ValueError, match="polygon area and edge products must be finite"):
            Region("p", polygon=[[-corner, -corner], [corner, -corner], [0, corner]])

    def test_far_points_are_outside_without_a_warning(self):
        region = Region("p", polygon=[[-10, -10], [10, -10], [0, 10]])
        xy = np.array([[0, 0], [1.5e308, 1.5e308], [-1.5e308, 0], [0, -1.7e308], [1, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert region.contains(xy).tolist() == [True, False, False, False, True]

    def test_rect_inclusive_bounds(self):
        region = Region("r", rect=(0, 0, 1, 1))
        xy = np.array([[0, 0], [1, 1], [0.5, 0.5], [1.0001, 0.5]])
        assert region.contains(xy).tolist() == [True, True, True, False]

    def test_polygon_membership(self):
        region = Region("p", polygon=[[0, 0], [2, 0], [2, 2], [0, 2]])
        xy = np.array([[1, 1], [3, 1], [0, 1], [2, 2]])
        assert region.contains(xy).tolist() == [True, False, True, True]

    def test_concave_polygon(self):
        # L-shape: the notch at (1.5, 1.5) is outside
        region = Region("L", polygon=[[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
        xy = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]])
        assert region.contains(xy).tolist() == [True, True, True, False]

    def test_polygon_matches_scalar_reference(self):
        # vectorized membership equals a point-at-a-time even-odd walk
        def scalar_inside(x, y, poly):
            inside = False
            n = len(poly)
            for i in range(n):
                x1, y1 = poly[i]
                x2, y2 = poly[(i + 1) % n]
                cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
                if (cross == 0 and min(x1, x2) <= x <= max(x1, x2)
                        and min(y1, y2) <= y <= max(y1, y2)):
                    return True
                if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
                    inside = not inside
            return inside

        rng = np.random.default_rng(59)
        for _ in range(20):
            k = int(rng.integers(3, 9))
            angles = np.sort(rng.uniform(0, 2 * np.pi, k))
            radii = rng.uniform(1, 4, k)
            poly = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
            try:
                region = Region("p", polygon=poly)
            except ValueError:
                continue
            xy = rng.uniform(-5, 5, size=(200, 2))
            got = region.contains(xy)
            want = [scalar_inside(x, y, poly) for x, y in xy]
            assert got.tolist() == want


class TestSplit:
    def setup_method(self):
        self.spec = SplitSpec(
            (
                Region("train", rect=(0, 0, 5, 10)),
                Region("val", rect=(5, 0, 7, 10)),
                Region("test", rect=(7, 0, 10, 10)),
            )
        )

    def test_counts_sum_to_inside_points(self):
        rng = np.random.default_rng(60)
        cloud = random_cloud(rng, 3000, span=12.0)
        parts = split(cloud, self.spec)
        inside = (
            (cloud.xyz[:, 0] >= 0) & (cloud.xyz[:, 0] <= 10)
            & (cloud.xyz[:, 1] >= 0) & (cloud.xyz[:, 1] <= 10)
        ).sum()
        assert sum(len(p) for p in parts.values()) == inside

    def test_shared_edge_first_region_wins(self):
        cloud = LabeledPointCloud(np.array([[5.0, 5.0, 0.0]]), [1])
        parts = split(cloud, self.spec)
        assert len(parts["train"]) == 1  # x = 5 on train/val boundary
        assert len(parts["val"]) == 0

    def test_outside_points_excluded(self):
        cloud = LabeledPointCloud(np.array([[50.0, 50.0, 0.0]]), [1])
        parts = split(cloud, self.spec)
        assert all(len(p) == 0 for p in parts.values())

    def test_idempotent(self):
        rng = np.random.default_rng(61)
        cloud = random_cloud(rng, 2000, span=12.0)
        first = split(cloud, self.spec)
        for name, part in first.items():
            again = split(part, self.spec)
            assert again[name] == part
            for other, other_part in again.items():
                if other != name:
                    assert len(other_part) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(62)
        for trial in range(20):
            regions = []
            for k in range(rng.integers(1, 5)):
                x0, y0 = rng.uniform(-10, 8, size=2)
                regions.append(
                    Region(f"r{k}", rect=(x0, y0, x0 + rng.uniform(1, 6), y0 + rng.uniform(1, 6)))
                )
            spec = SplitSpec(tuple(regions))
            cloud = random_cloud(rng, 300, span=12.0)
            parts = split(cloud, spec)
            # brute force: first-match per point
            expect = {r.name: [] for r in regions}
            for i in range(len(cloud)):
                x, y = cloud.xyz[i, :2]
                for region in regions:
                    x0, y0, x1, y1 = region.rect
                    if x0 <= x <= x1 and y0 <= y <= y1:
                        expect[region.name].append(i)
                        break
            for region in regions:
                got = parts[region.name]
                want = cloud.select(np.array(expect[region.name], dtype=np.int64))
                assert got == want

    def test_spec_without_regions_rejected(self):
        with pytest.raises(ValueError, match="at least one region"):
            SplitSpec(())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SplitSpec((Region("a", rect=(0, 0, 1, 1)), Region("a", rect=(2, 2, 3, 3))))

    def test_from_json(self):
        spec = SplitSpec.from_json_dict(
            {
                "regions": [
                    {"name": "train", "rect": [0, 0, 5, 5]},
                    {"name": "test", "polygon": [[5, 0], [10, 0], [10, 5]]},
                ]
            }
        )
        assert [r.name for r in spec.regions] == ["train", "test"]


    @pytest.mark.parametrize("raw,key", [
        ({"regions": [{"name": "a", "rect": [0, 0, 1, 1]}], "extra": 1}, "extra"),
        ({"regions": [{"name": "a", "rect": [0, 0, 1, 1], "polgon": [[0, 0], [1, 0], [0, 1]]}]},
         "regions[0].polgon"),
    ], ids=["root", "region"])
    def test_unknown_key_rejected(self, raw, key):
        with pytest.raises(ConfigError, match=re.escape(f"{key}: unknown config key")):
            SplitSpec.from_json_dict(raw)

class TestMix:
    def setup_method(self):
        rng = np.random.default_rng(63)
        self.real = random_cloud(rng, 5000)
        self.synth = random_cloud(rng, 5000)

    def test_empty_synthetic_cloud_rejected(self):
        with pytest.raises(ValueError, match="synthetic cloud is empty"):
            mix(self.real, LabeledPointCloud.empty(), RatioMix(0.5, 10, seed=1))

    def test_all_real(self):
        result = mix(self.real, self.synth, RatioMix(1.0, 100, seed=1))
        assert result.counts() == (100, 0)

    def test_half_half(self):
        result = mix(self.real, self.synth, RatioMix(0.5, 10_000, seed=1))
        assert result.counts() == (5000, 5000)

    def test_round_half_up(self):
        result = mix(self.real, self.synth, RatioMix(0.75, 10, seed=1))
        assert result.counts() == (8, 2)  # round(7.5) -> 8, half-up

    @pytest.mark.parametrize(
        "fraction,target,expect_real",
        [(0.25, 10, 3), (0.5, 5, 3), (0.1, 5, 1), (0.0, 7, 0), (0.45, 10, 5)],
    )
    def test_rounding_rule(self, fraction, target, expect_real):
        import math

        assert RatioMix(fraction, target).real_count == expect_real
        assert RatioMix(fraction, target).real_count == int(math.floor(target * fraction + 0.5))

    def test_seeded_determinism(self):
        a = mix(self.real, self.synth, RatioMix(0.5, 1000, seed=42))
        b = mix(self.real, self.synth, RatioMix(0.5, 1000, seed=42))
        assert a.cloud == b.cloud
        assert np.array_equal(a.provenance, b.provenance)

    def test_with_replacement_fallback(self):
        small = self.real.select(np.arange(10))
        result = mix(small, self.synth, RatioMix(0.5, 100, seed=2))
        assert result.real_with_replacement
        assert not result.synthetic_with_replacement
        assert result.counts() == (50, 50)

    def test_provenance_matches_sources(self):
        result = mix(self.real, self.synth, RatioMix(0.3, 1000, seed=3))
        real_rows = {tuple(r) for r in self.real.xyz}
        for i in np.flatnonzero(result.provenance)[:50]:
            assert tuple(result.cloud.xyz[i]) in real_rows

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match="target_count"):
            RatioMix(0.5, 0)

    @pytest.mark.parametrize("args,message", [
        ((True, 10), "real_fraction: expected a number, got True"),
        (("0.5", 10), "real_fraction: expected a number, got '0.5'"),
        ((0.5, 10.5), "target_count: expected an integer, got 10.5"),
        ((0.5, 10, 1.5), "seed: expected an integer, got 1.5"),
        ((0.5, 10, -1), "seed: must be >= 0, got -1"),
    ])
    def test_bad_field_named(self, args, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RatioMix(*args)

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mix(LabeledPointCloud.empty(), self.synth, RatioMix(0.5, 10, seed=1))

    def test_empty_source_ok_when_excluded(self):
        result = mix(self.real, LabeledPointCloud.empty(), RatioMix(1.0, 10, seed=1))
        assert result.counts() == (10, 0)


class TestEvaluateSegmentation:
    @pytest.mark.parametrize("pred", [[3.7], np.array([3.7]), [True], np.array([True]), [0], [13], [np.nan]],
                             ids=["fraction", "fraction-array", "bool", "bool-array", "0", "13", "nan"])
    def test_predictions_that_are_not_class_ids_rejected(self, pred):
        cloud = LabeledPointCloud(np.zeros((1, 3)), [3])
        with pytest.raises(ValueError, match=r"^predictions: class ids must be whole numbers in 1\.\.12"):
            evaluate_segmentation(cloud, pred)

    def test_whole_float_predictions_score_as_their_class(self):
        cloud = LabeledPointCloud(np.zeros((2, 3)), [3, 4])
        report = evaluate_segmentation(cloud, [3.0, 4.0])
        assert report.confusion[2][2] == 1 and report.confusion[3][3] == 1

    def test_perfect_predictions(self):
        rng = np.random.default_rng(64)
        cloud = random_cloud(rng, 1000, classes=(1, 2, 6, 9))
        report = evaluate_segmentation(cloud, cloud.labels)
        for cls in (1, 2, 6, 9):
            assert report.per_class[SemanticClass(cls)].iou == 1.0

    def test_iou_arithmetic(self):
        # tp=5, fp=3, fn=2 for RoadSurface -> IoU 0.5
        true = np.array([1] * 7 + [2] * 3)  # 7 road, 3 ground
        pred = np.array([1] * 5 + [2] * 2 + [1] * 3)
        cloud = LabeledPointCloud(np.zeros((10, 3)), true)
        report = evaluate_segmentation(cloud, pred)
        road = report.per_class[SemanticClass.ROAD_SURFACE]
        assert (road.tp, road.fp, road.fn) == (5, 3, 2)
        assert road.iou == pytest.approx(0.5)

    def test_hand_confusion_fixture(self):
        # 3-class fixture tallied by hand
        true = np.array([1, 1, 1, 2, 2, 3, 3, 3, 3, 1])
        pred = np.array([1, 2, 1, 2, 1, 3, 3, 1, 2, 1])
        cloud = LabeledPointCloud(np.zeros((10, 3)), true)
        report = evaluate_segmentation(cloud, pred)
        assert report.confusion[0][:3].tolist() == [3, 1, 0]
        assert report.confusion[1][:3].tolist() == [1, 1, 0]
        assert report.confusion[2][:3].tolist() == [1, 1, 2]
        r1 = report.per_class[SemanticClass.ROAD_SURFACE]
        assert (r1.tp, r1.fp, r1.fn) == (3, 2, 1)

    def test_miou_over_eleven_classes(self):
        true = np.array([1, 2])
        pred = np.array([1, 2])
        cloud = LabeledPointCloud(np.zeros((2, 3)), true)
        report = evaluate_segmentation(cloud, pred)
        # two classes at IoU 1, nine absent at 0; Noise excluded
        assert report.miou == pytest.approx(2 / 11)

    def test_noise_excluded_from_miou_but_counted(self):
        true = np.array([12, 12, 1])
        pred = np.array([12, 1, 1])
        cloud = LabeledPointCloud(np.zeros((3, 3)), true)
        report = evaluate_segmentation(cloud, pred)
        assert report.per_class[SemanticClass.NOISE].fn == 1
        assert report.miou == pytest.approx((0.5) / 11)  # road iou 1/2

    def test_absent_class_flagged(self):
        cloud = LabeledPointCloud(np.zeros((1, 3)), [1])
        report = evaluate_segmentation(cloud, [1])
        assert report.per_class[SemanticClass.DOOR].absent
        assert report.per_class[SemanticClass.DOOR].iou == 0.0

    def test_length_mismatch(self):
        cloud = LabeledPointCloud(np.zeros((2, 3)), [1, 2])
        with pytest.raises(ValueError, match="length"):
            evaluate_segmentation(cloud, [1])

    @pytest.mark.parametrize("ratio", [-0.1, 1.5, 1e308, float("nan"), True, "0.5"])
    def test_synthetic_ratio_outside_unit_interval_refused(self, ratio):
        cloud = LabeledPointCloud(np.zeros((2, 3)), [1, 2])
        doc = evaluate_segmentation(cloud, [1, 2], synthetic_ratio=0.5).to_json_dict()
        with pytest.raises(ValueError, match="synthetic_ratio"):
            EvalReport.from_json_dict({**doc, "synthetic_ratio": ratio})
        with pytest.raises(ValueError, match="synthetic_ratio"):
            evaluate_segmentation(cloud, [1, 2], synthetic_ratio=ratio)

    def test_numpy_synthetic_ratio_is_a_number(self):
        # one number rule: a numpy float is a number, and the report writes it as JSON's own
        cloud = LabeledPointCloud(np.zeros((2, 3)), [1, 2])
        report = evaluate_segmentation(cloud, [1, 2], synthetic_ratio=np.float32(0.5))
        assert json.loads(json.dumps(report.to_json_dict()))["synthetic_ratio"] == 0.5

    def test_json_round_trip(self):
        cloud = LabeledPointCloud(np.zeros((3, 3)), [1, 2, 12])
        report = evaluate_segmentation(cloud, [1, 1, 12], synthetic_ratio=1)
        doc = report.to_json_dict()
        assert EvalReport.from_json_dict(doc).to_json_dict() == doc
        back = EvalReport.from_json_dict(doc).confusion
        assert back.dtype == np.int64 and back.shape == (12, 12) and (back == report.confusion).all()

    @pytest.mark.parametrize("confusion,message", [
        # once read as [[3, 1], [1, 2]]
        ([["3", True], [1.7, 2]], "confusion: expected a 12x12 matrix, got shape (2, 2)"),
        ([[0] * 12] * 11, "confusion: expected a 12x12 matrix, got shape (11, 12)"),
        ([[0] * 12] * 11 + [[0] * 11], "confusion: expected a 12x12 matrix, got shape (12,)"),
        ("12x12", "confusion: expected a 12x12 matrix, got shape ()"),
        ([["3"] + [0] * 11] + [[0] * 12] * 11, "confusion[0][0]: expected an integer, got '3'"),
        ([[0] * 12] * 11 + [[0] * 11 + [True]], "confusion[11][11]: expected an integer, got True"),
        ([[0] * 12] + [[1.7] + [0] * 11] * 11, "confusion[1][0]: expected an integer, got 1.7"),
    ])
    def test_confusion_refused_unless_a_12x12_matrix_of_integers(self, confusion, message):
        doc = evaluate_segmentation(LabeledPointCloud(np.zeros((2, 3)), [1, 2]), [1, 2]).to_json_dict()
        with pytest.raises(ConfigError, match=re.escape(message)):
            EvalReport.from_json_dict({**doc, "confusion": confusion})

    def test_largest_int64_counts_round_trip(self):
        doc = evaluate_segmentation(LabeledPointCloud(np.zeros((2, 3)), [1, 2]), [1, 2]).to_json_dict()
        doc["per_class"]["Door"]["fn"] = doc["confusion"][11][0] = 2**63 - 1
        assert EvalReport.from_json_dict(json.loads(json.dumps(doc))).to_json_dict() == doc

    @given(
        labels=st.lists(st.integers(1, 12), min_size=1, max_size=200),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation(self, labels, seed):
        rng = np.random.default_rng(seed)
        true = np.array(labels, dtype=np.int64)
        pred = rng.integers(1, 13, size=len(true))
        cloud = LabeledPointCloud(np.zeros((len(true), 3)), true)
        report = evaluate_segmentation(cloud, pred)
        tp = sum(e.tp for e in report.per_class.values())
        fp = sum(e.fp for e in report.per_class.values())
        fn = sum(e.fn for e in report.per_class.values())
        assert tp + fp == len(true)
        assert tp + fn == len(true)


class TestRatioCorrelation:
    def test_published_road_row(self):
        series = list(zip([0, 0.25, 0.5, 0.75, 1.0], [0.93, 0.94, 0.90, 0.92, 0.55]))
        corr = ratio_correlation(series)
        assert corr == pytest.approx(-0.74, abs=0.01)
        assert round(corr, 1) == -0.7

    def test_published_miou_row(self):
        series = list(zip([0, 0.25, 0.5, 0.75, 1.0], [0.45, 0.45, 0.46, 0.39, 0.29]))
        assert round(ratio_correlation(series), 1) == -0.8

    def test_perfectly_linear(self):
        series = [(p, 1.0 - p) for p in (0, 0.25, 0.5, 0.75, 1.0)]
        assert ratio_correlation(series) == pytest.approx(-1.0)

    def test_all_zero_undefined(self):
        series = [(p, 0.0) for p in (0, 0.25, 0.5, 0.75, 1.0)]
        assert ratio_correlation(series) is None

    @pytest.mark.parametrize("series", [[], [(0.5, 0.1)]])
    def test_fewer_than_two_pairs_rejected(self, series):
        with pytest.raises(ValueError, match="at least two"):
            ratio_correlation(series)

    def test_degenerate_ratios_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ratio_correlation([(0.5, 0.1), (0.5, 0.2)])

    def test_affine_ratio_rescale_invariant(self):
        rng = np.random.default_rng(65)
        ratios = np.array([0, 0.25, 0.5, 0.75, 1.0])
        values = rng.uniform(0, 1, size=5)
        base = ratio_correlation(list(zip(ratios, values)))
        percent = ratio_correlation(list(zip(100 * ratios + 7, values)))
        assert percent == pytest.approx(base, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(66)
        for _ in range(50):
            series = list(zip(rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)))
            corr = ratio_correlation(series)
            if corr is not None:
                assert -1.0 - 1e-12 <= corr <= 1.0 + 1e-12
