"""pcgap: domain-gap scoring, labeled LiDAR simulation, and dataset tools
for semantic point clouds."""

from .core import (
    ClassMapping,
    ClassWeights,
    LabeledPointCloud,
    SemanticClass,
    default_weights,
    map_class,
    partition_by_class,
)
from .dataset import (
    EvalReport,
    MixResult,
    RatioMix,
    Region,
    SplitSpec,
    evaluate_segmentation,
    mix,
    most_misclassified,
    ratio_correlation,
    split,
)
from .errors import ConfigError, DegenerateDataError, FormatError, ParseError, PcgapError
from .io import ClassedMesh, read_cloud, read_mesh, write_cloud, write_report
from .metric import (
    GapReport,
    M3c2Params,
    MetricParams,
    c2c_distance,
    compose_score,
    dogss_pcl,
    m3c2_class_distance,
    offset_sensitivity,
    voxel_miou,
)
from .simulate import NoiseModel, ScanConfig, SimulatedScan, Trajectory, apply_range_noise, simulate_scan
from .spatial import Bvh, NnIndex, VoxelGrid, voxelize

__version__ = "0.1.0"

__all__ = [
    "Bvh",
    "ClassMapping",
    "ClassWeights",
    "ClassedMesh",
    "ConfigError",
    "DegenerateDataError",
    "EvalReport",
    "FormatError",
    "GapReport",
    "LabeledPointCloud",
    "M3c2Params",
    "MetricParams",
    "MixResult",
    "NnIndex",
    "NoiseModel",
    "ParseError",
    "PcgapError",
    "RatioMix",
    "Region",
    "ScanConfig",
    "SemanticClass",
    "SimulatedScan",
    "SplitSpec",
    "Trajectory",
    "VoxelGrid",
    "apply_range_noise",
    "c2c_distance",
    "compose_score",
    "default_weights",
    "dogss_pcl",
    "evaluate_segmentation",
    "m3c2_class_distance",
    "map_class",
    "mix",
    "most_misclassified",
    "offset_sensitivity",
    "partition_by_class",
    "ratio_correlation",
    "read_cloud",
    "read_mesh",
    "simulate_scan",
    "split",
    "voxel_miou",
    "voxelize",
    "write_cloud",
    "write_report",
]
