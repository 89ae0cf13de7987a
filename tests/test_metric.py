import math

import numpy as np
import pytest

from pcgap import metric
from pcgap.core import ClassWeights, LabeledPointCloud, SemanticClass, partition_by_class
from pcgap.errors import DegenerateDataError
from pcgap.metric import (
    DIAGONAL_DIRECTION,
    GapReport,
    M3c2ClassResult,
    M3c2Params,
    MetricParams,
    aggregate_mm3c2,
    blend_distance,
    c2c_distance,
    compose_score,
    compute_m3c2_per_class,
    dogss_pcl,
    m3c2_class_distance,
    offset_sensitivity,
    scalar_offsets_to_vectors,
    voxel_miou,
)
from pcgap.simulate import NoiseModel, ScanConfig, Trajectory, apply_range_noise, simulate_scan
from pcgap.spatial import NnIndex

from conftest import build_room_mesh, build_street_scene


def plane_cloud(seed, n, z, cls=6, span=10.0):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0, span, size=(n, 2))
    return LabeledPointCloud(np.column_stack([xy, np.full(n, z)]), np.full(n, cls))


class TestParams:
    def test_strict_accepts_published_defaults(self):
        p = MetricParams()
        assert (p.lambda1, p.lambda2, p.lambda3) == (0.6, 0.3, 0.1)

    def test_strict_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MetricParams(lambda1=0.6, lambda2=0.4, lambda3=0.1)

    def test_strict_rejects_bad_order(self):
        with pytest.raises(ValueError, match="lambda1 > lambda2"):
            MetricParams(lambda1=0.1, lambda2=0.3, lambda3=0.6)

    def test_relaxed_allows_reproduction_weights(self):
        p = MetricParams(lambda1=0.6, lambda2=0.4, lambda3=0.1, validation="relaxed")
        assert p.lambda2 == 0.4

    def test_alpha_must_be_negative(self):
        with pytest.raises(ValueError, match="alpha"):
            MetricParams(alpha=0.2)

    def test_epsilon_positive(self):
        with pytest.raises(ValueError, match="epsilon"):
            MetricParams(epsilon=0.0)


class TestC2c:
    def test_single_points(self):
        r = LabeledPointCloud(np.zeros((1, 3)), [6])
        s = LabeledPointCloud(np.array([[1.0, 0, 0]]), [1])
        for mode in ("directed-max", "directed-mean", "symmetric-max"):
            assert c2c_distance(r, s, mode) == 1.0

    def test_identity_zero(self):
        cloud = plane_cloud(1, 500, 0.0)
        assert c2c_distance(cloud, cloud) == 0.0

    def test_labels_ignored(self):
        r = LabeledPointCloud(np.zeros((1, 3)), [6])
        s = LabeledPointCloud(np.zeros((1, 3)), [3])
        assert c2c_distance(r, s) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = rng.normal(size=(rng.integers(1, 30), 3))
            b = rng.normal(size=(rng.integers(1, 30), 3))
            r = LabeledPointCloud(a, np.ones(len(a)))
            s = LabeledPointCloud(b, np.ones(len(b)))
            mins = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)).min(axis=1)
            assert c2c_distance(r, s, "directed-max") == pytest.approx(mins.max(), abs=1e-12)
            assert c2c_distance(r, s, "directed-mean") == pytest.approx(mins.mean(), abs=1e-12)

    def test_symmetric_is_max_of_directed(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(25, 3)) + 0.5
        r = LabeledPointCloud(a, np.ones(40))
        s = LabeledPointCloud(b, np.ones(25))
        expect = max(c2c_distance(r, s, "directed-max"), c2c_distance(s, r, "directed-max"))
        assert c2c_distance(r, s, "symmetric-max") == expect

    def test_translation_bound(self):
        # directed Hausdorff grows by at most the translation norm
        rng = np.random.default_rng(23)
        a = rng.normal(size=(200, 3))
        b = rng.normal(size=(150, 3))
        r = LabeledPointCloud(a, np.ones(200))
        s = LabeledPointCloud(b, np.ones(150))
        base = c2c_distance(r, s, "directed-max")
        for vec in ([0.3, 0, 0], [0, -0.7, 0.2], [1.0, 1.0, 1.0]):
            moved = c2c_distance(r, s.translate(vec), "directed-max")
            assert moved <= base + np.linalg.norm(vec) + 1e-12

    def test_empty_rejected(self):
        cloud = plane_cloud(1, 10, 0.0)
        with pytest.raises(ValueError, match="non-empty"):
            c2c_distance(cloud, LabeledPointCloud.empty())


class TestM3c2:
    def test_parallel_planes(self):
        r = plane_cloud(31, 10_000, 0.0)
        s = plane_cloud(32, 10_000, 0.05)
        res = m3c2_class_distance(r, s)
        assert res.median == pytest.approx(0.05, abs=1e-3)
        assert res.inliers + res.outliers == 10_000

    def test_identity_zero(self):
        r = plane_cloud(33, 5_000, 0.0)
        res = m3c2_class_distance(r, r)
        assert res.median == pytest.approx(0.0, abs=1e-3)

    def test_empty_synth_all_outliers(self):
        r = plane_cloud(34, 200, 0.0)
        res = m3c2_class_distance(r, LabeledPointCloud.empty())
        assert res.median is None
        assert res.outliers == 200
        assert res.inliers == 0

    def test_distant_synth_all_outliers(self):
        r = plane_cloud(35, 300, 0.0)
        s = plane_cloud(36, 300, 50.0)  # far outside the search cylinder
        res = m3c2_class_distance(r, s)
        assert res.median is None

    def test_signed_direction(self):
        # synthetic plane below the real one gives a negative median
        r = plane_cloud(37, 3_000, 0.0)
        s = plane_cloud(38, 3_000, -0.04)
        res = m3c2_class_distance(r, s)
        assert res.median == pytest.approx(-0.04, abs=1e-3)

    def test_median_shifts_with_normal_translation(self):
        r = plane_cloud(39, 3_000, 0.0)
        s = plane_cloud(40, 3_000, 0.0)
        base = m3c2_class_distance(r, s).median
        for dz in (0.02, 0.07, 0.2):
            shifted = m3c2_class_distance(r, s.translate((0, 0, dz))).median
            assert shifted - base == pytest.approx(dz, abs=1e-3)

    def test_wall_medians_do_not_follow_point_order(self):
        # on the room's vertical walls a normal's z is rounding noise, whose
        # sign follows the summation order of the covariance
        trajectory = Trajectory.from_samples([
            {"t": 0.0, "x": 2.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
            {"t": 0.3, "x": 8.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
        ])
        config = ScanConfig(channels=16, vertical_fov_deg=(-30.0, 30.0), rotation_rate_hz=10.0,
                            points_per_second=24_000, max_range_m=50.0)
        scan = simulate_scan(build_room_mesh(), trajectory, config, seed=7)
        real, synth = scan.cloud, apply_range_noise(scan, NoiseModel(0.02, seed=8)).cloud
        p = MetricParams()
        base = metric.compute_m3c2_per_class(real, synth, p.weights, p.m3c2)
        rng = np.random.default_rng(41)
        for _ in range(3):
            pr, ps = rng.permutation(len(real)), rng.permutation(len(synth))
            got = metric.compute_m3c2_per_class(
                LabeledPointCloud(real.xyz[pr], real.labels[pr]),
                LabeledPointCloud(synth.xyz[ps], synth.labels[ps]), p.weights, p.m3c2,
            )
            for cls, res in base.items():
                assert got[cls].inliers == res.inliers
                if res.median is not None:
                    assert got[cls].median == pytest.approx(res.median, rel=1e-9), cls


class TestMm3c2:
    def test_arithmetic(self):
        per_class = {
            SemanticClass.DOOR: M3c2ClassResult(0.02, 10, 0),
            SemanticClass.WINDOW: M3c2ClassResult(0.06, 10, 0),
        }
        weights = ClassWeights({SemanticClass.DOOR: 0.5, SemanticClass.WINDOW: 0.5})
        assert aggregate_mm3c2(per_class, weights) == pytest.approx(0.04)

    def test_absolute_medians(self):
        per_class = {
            SemanticClass.DOOR: M3c2ClassResult(-0.02, 10, 0),
            SemanticClass.WINDOW: M3c2ClassResult(0.06, 10, 0),
        }
        weights = ClassWeights({SemanticClass.DOOR: 0.5, SemanticClass.WINDOW: 0.5})
        assert aggregate_mm3c2(per_class, weights) == pytest.approx(0.04)

    def test_undefined_class_renormalizes(self):
        per_class = {
            SemanticClass.DOOR: M3c2ClassResult(0.03, 10, 0),
            SemanticClass.WINDOW: M3c2ClassResult(None, 0, 10),
        }
        weights = ClassWeights({SemanticClass.DOOR: 0.5, SemanticClass.WINDOW: 0.5})
        assert aggregate_mm3c2(per_class, weights) == pytest.approx(0.03)

    def test_all_undefined_raises(self):
        per_class = {SemanticClass.DOOR: M3c2ClassResult(None, 0, 5)}
        weights = ClassWeights({SemanticClass.DOOR: 1.0})
        with pytest.raises(DegenerateDataError, match="no comparable semantic content"):
            aggregate_mm3c2(per_class, weights)

    def test_identical_clouds_zero(self):
        cloud = plane_cloud(41, 2_000, 0.0, cls=6)
        weights = ClassWeights({SemanticClass.WALL_SURFACE: 1.0})
        per_class = compute_m3c2_per_class(cloud, cloud, weights, M3c2Params())
        assert aggregate_mm3c2(per_class, weights) == pytest.approx(0.0, abs=1e-6)


class TestVoxelMiou:
    def test_identity(self):
        scene = build_street_scene(42, scale=0.05)
        result = voxel_miou(scene, scene, 0.5)
        assert result.miou == pytest.approx(1.0)
        for cls, iou in result.per_class.items():
            if iou is not None:
                assert iou == 1.0

    def test_disjoint_sets(self):
        a = LabeledPointCloud(np.array([[0.1, 0.1, 0.1]]), [6])
        b = LabeledPointCloud(np.array([[5.0, 5.0, 5.0]]), [6])
        weights = ClassWeights({SemanticClass.WALL_SURFACE: 1.0})
        assert voxel_miou(a, b, 0.5, weights).miou == 0.0

    def test_absent_class_is_none_and_dropped(self):
        a = LabeledPointCloud(np.array([[0.1, 0.1, 0.1]]), [6])
        result = voxel_miou(a, a, 0.5)
        assert result.per_class[SemanticClass.DOOR] is None
        assert result.miou == 1.0  # renormalized over WallSurface only

    def test_half_overlap(self):
        # two voxels in R, one shared with S -> IoU = 1/3 (union has 3 voxels)
        a = LabeledPointCloud(np.array([[0.1, 0, 0], [0.7, 0, 0]]), [6, 6])
        b = LabeledPointCloud(np.array([[0.7, 0, 0], [1.3, 0, 0]]), [6, 6])
        weights = ClassWeights({SemanticClass.WALL_SURFACE: 1.0})
        assert voxel_miou(a, b, 0.5, weights).miou == pytest.approx(1 / 3)

    def test_grid_anchored_to_real(self):
        a = LabeledPointCloud(np.array([[10.3, 4.2, -1.1]]), [6])
        result = voxel_miou(a, a, 0.5)
        assert result.grid_origin == (10.0, 4.0, -1.5)

    def test_no_weighted_class_raises(self):
        a = LabeledPointCloud(np.array([[0.1, 0, 0]]), [4])  # Vehicle: weight 0
        with pytest.raises(DegenerateDataError):
            voxel_miou(a, a, 0.5)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(43)
        scene = build_street_scene(44, scale=0.02)
        perm = rng.permutation(len(scene))
        shuffled = scene.select(perm)
        a = voxel_miou(scene, scene, 0.5)
        b = voxel_miou(shuffled, shuffled, 0.5)
        assert a.miou == b.miou

    def test_joint_edge_translation_invariant(self):
        scene = build_street_scene(45, scale=0.02)
        moved = scene.translate((1.0, -2.5, 0.5))  # integer voxel multiples
        a = voxel_miou(scene, scene, 0.5)
        b = voxel_miou(moved, moved, 0.5)
        assert a.miou == pytest.approx(b.miou)


class TestCompose:
    def test_published_aligned_column(self):
        params = MetricParams(lambda2=0.4, validation="relaxed")
        d, f_miou, m = compose_score(0.04, 0.31, 0.2907, params)
        assert d == pytest.approx(0.148, abs=0.005)
        assert f_miou == pytest.approx(3.44, abs=0.005)
        assert m == pytest.approx(0.09, abs=0.01)

    def test_published_translated_column(self):
        params = MetricParams(lambda2=0.4, validation="relaxed")
        d, f_miou, m = compose_score(1.01, 1.34, 0.02, params)
        assert d == pytest.approx(1.14, abs=0.01)
        assert m == pytest.approx(0.73, abs=0.03)

    def test_best_attainable_score(self):
        params = MetricParams()
        d, f_miou, m = compose_score(0.0, 0.0, 1.0, params)
        assert d == 0.0
        assert m == pytest.approx(1 - math.exp(-0.2 * 0.1 / (1 + 1e-6)), rel=1e-12)
        assert m == pytest.approx(0.0198, abs=1e-3)
        assert m > 0.0

    def test_renormalized_mode(self):
        params = MetricParams(eq3_weight_mode="renormalized")
        d = blend_distance(0.1, 0.2, params)
        assert d == pytest.approx((0.6 * 0.1 + 0.3 * 0.2) / 0.9)

    def test_score_in_open_unit_interval(self):
        params = MetricParams()
        for dm in (0.0, 0.01, 1.0, 50.0):
            for dc in (0.0, 0.5, 10.0):
                for miou in (1e-3, 0.2, 1.0):
                    d, f_miou, m = compose_score(dm, dc, miou, params)
                    assert 0.0 < m <= 1.0
                    if abs(params.alpha) * (d + params.lambda3 * f_miou) < 700:
                        assert m < 1.0  # strict below the exp underflow threshold

    def test_monotone_in_distance(self):
        params = MetricParams()
        ms = [compose_score(dm, 0.3, 0.5, params)[2] for dm in np.linspace(0, 2, 9)]
        assert all(a < b for a, b in zip(ms, ms[1:]))

    def test_antitone_in_miou(self):
        params = MetricParams()
        ms = [compose_score(0.1, 0.3, miou, params)[2] for miou in np.linspace(0.05, 1.0, 9)]
        assert all(a > b for a, b in zip(ms, ms[1:]))


@pytest.fixture(scope="module")
def small_pair():
    return build_street_scene(46, scale=0.08), build_street_scene(47, scale=0.08)


class TestDogssPcl:

    def test_report_self_consistent(self, small_pair):
        real, synth = small_pair
        report = dogss_pcl(real, synth)
        params = report.params
        d = blend_distance(report.d_mm3c2, report.d_c2c, params)
        assert abs(d - report.d) < 1e-12
        f = 1.0 / (report.miou + params.epsilon)
        assert abs(f - report.f_miou) < 1e-12
        m = 1.0 - math.exp(params.alpha * (report.d + params.lambda3 * report.f_miou))
        assert abs(m - report.m_dogss_pcl) < 1e-12

    def test_aggregates_recomputable_from_per_class(self, small_pair):
        real, synth = small_pair
        report = dogss_pcl(real, synth)
        weights = report.params.weights
        defined = [c for c, s in report.per_class.items()
                   if s.m3c2_median is not None and weights.get(c) > 0]
        renorm = weights.restricted_to(defined)
        d_mm3c2 = sum(w * abs(report.per_class[c].m3c2_median) for c, w in renorm.items())
        assert abs(d_mm3c2 - report.d_mm3c2) < 1e-12
        with_iou = [c for c, s in report.per_class.items() if s.iou is not None]
        renorm = weights.restricted_to(with_iou)
        miou = sum(w * report.per_class[c].iou for c, w in renorm.items())
        assert abs(miou - report.miou) < 1e-12

    def test_identity_comparison(self, small_pair):
        real, _ = small_pair
        report = dogss_pcl(real, real)
        assert report.d_c2c == 0.0
        assert report.d_mm3c2 == pytest.approx(0.0, abs=1e-9)
        assert report.miou == pytest.approx(1.0)
        assert 0.0 < report.m_dogss_pcl < 0.03  # best attainable, not 0

    def test_empty_rejected(self):
        cloud = plane_cloud(1, 10, 0.0)
        with pytest.raises(ValueError, match="non-empty"):
            dogss_pcl(cloud, LabeledPointCloud.empty())


class TestOffsetSensitivity:
    def test_zero_offset_equals_plain(self):
        real = build_street_scene(48, scale=0.04)
        synth = build_street_scene(49, scale=0.04)
        plain = dogss_pcl(real, synth)
        [series] = offset_sensitivity(real, synth, [(0.0, 0.0, 0.0)])
        assert series.to_json_dict() == plain.to_json_dict()

    def test_series_builds_real_side_once(self, monkeypatch):
        real = build_street_scene(48, scale=0.04)
        synth = build_street_scene(49, scale=0.04)
        shift = scalar_offsets_to_vectors([0.2])[0]
        first, _ = offset_sensitivity(real, synth, [(0.0, 0.0, 0.0), shift])
        assert first.to_json_dict() == dogss_pcl(real, synth).to_json_dict()

        real_parts = [part.xyz for part in partition_by_class(real).values() if len(part)]
        real_builds = []
        init = NnIndex.__init__

        def spy(self, xyz):
            real_builds.append(any(np.array_equal(xyz, part) for part in real_parts))
            init(self, xyz)

        monkeypatch.setattr(NnIndex, "__init__", spy)
        real_voxelized = []
        voxelize = metric.voxelize

        def voxel_spy(cloud, edge, origin=None):
            real_voxelized.append(cloud is real)
            return voxelize(cloud, edge, origin)

        monkeypatch.setattr(metric, "voxelize", voxel_spy)
        counts = []
        for n_offsets in (1, 2, 4):
            real_builds.clear()
            real_voxelized.clear()
            offset_sensitivity(real, synth, [shift] * n_offsets)
            counts.append((sum(real_builds), sum(real_voxelized), len(real_voxelized)))
        assert counts[0][0] > 0
        assert [c[:2] for c in counts] == [(counts[0][0], 1)] * 3
        assert [c[2] for c in counts] == [2, 3, 5]  # one real, one per offset

    def test_two_voxel_shift_zeroes_miou(self):
        # slab scene: every class sits in a fixed z layer; shifting by two
        # voxel edges vertically moves every occupied voxel somewhere new
        rng = np.random.default_rng(50)
        n = 4000
        ground = np.column_stack([rng.uniform(0, 10, (n, 2)), rng.uniform(0, 0.02, n)])
        roof = np.column_stack([rng.uniform(0, 10, (n, 2)), rng.uniform(3.0, 3.02, n)])
        cloud = LabeledPointCloud(
            np.concatenate([ground, roof]),
            np.concatenate([np.full(n, 2), np.full(n, 7)]),
        )
        reports = offset_sensitivity(cloud, cloud, [(0, 0, 0), (0, 0, 1.0)])
        assert reports[0].miou == pytest.approx(1.0)
        assert reports[1].miou == 0.0

    def test_scalar_offsets_are_diagonal(self):
        vectors = scalar_offsets_to_vectors([0.0, 1.0])
        assert vectors[0] == (0.0, 0.0, 0.0)
        assert np.linalg.norm(vectors[1]) == pytest.approx(1.0)
        assert vectors[1] == tuple([1 / math.sqrt(3)] * 3)
