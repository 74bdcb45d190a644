"""loadclust: shape-based clustering of daily electricity load curves.

The pipeline, end to end: hourly meter readings are grouped into 24-point
daily load curves, z-normalized so only shape matters, compared with a
Sakoe-Chiba-banded DTW distance (or plain pointwise metrics), clustered
hierarchically or with partitional baselines, and scored with the
within-cluster to between-cluster distance ratio, whose elbow over a
k-sweep picks the number of clusters.

Everything is deterministic: random draws come exclusively from
``numpy.random.default_rng`` (the PCG64 generator) under explicit seeds,
artifacts serialize floats in shortest round-trip form, and repeated runs
produce byte-identical files.
"""

from .ahc import Dendrogram, MergeStep, build_dendrogram, cut, cut_range
from .curves import (Dataset, LoadCurve, RawReading, SyntheticSpec,
                     default_archetypes, generate_synthetic,
                     normalize_dataset, reshape_readings, z_normalize)
from .distance import (DistanceMatrix, MetricConfig, UnnormalizedDataWarning,
                       dtw, load_matrix, pairwise_matrix, pointwise_distance,
                       save_matrix)
from .evaluation import (DegenerateClusteringError, DegenerateElbowWarning,
                         MethodSpec, SweepReport, elbow, fit, load_sweep,
                         prototypes, save_sweep, save_table, sweep,
                         sweep_table, wcbcr)
from .partitional import FitError, gmm_em, kmeans, kmedoids
from .results import (ClusteringResult, FitOptions, load_result,
                      result_to_json, save_result)

__version__ = "0.1.0"

__all__ = [
    "ClusteringResult",
    "Dataset",
    "DegenerateClusteringError",
    "DegenerateElbowWarning",
    "Dendrogram",
    "DistanceMatrix",
    "FitError",
    "FitOptions",
    "LoadCurve",
    "MergeStep",
    "MethodSpec",
    "MetricConfig",
    "RawReading",
    "SweepReport",
    "SyntheticSpec",
    "UnnormalizedDataWarning",
    "build_dendrogram",
    "cut",
    "cut_range",
    "default_archetypes",
    "dtw",
    "elbow",
    "fit",
    "generate_synthetic",
    "gmm_em",
    "kmeans",
    "kmedoids",
    "load_matrix",
    "load_result",
    "load_sweep",
    "normalize_dataset",
    "pairwise_matrix",
    "pointwise_distance",
    "prototypes",
    "reshape_readings",
    "result_to_json",
    "save_matrix",
    "save_result",
    "save_sweep",
    "save_table",
    "sweep",
    "sweep_table",
    "wcbcr",
    "z_normalize",
]
