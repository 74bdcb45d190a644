"""Cluster quality scoring (WCBCR), k-sweeps, and elbow selection.

The quality figure is the within-cluster to between-cluster ratio: summed
distance of every curve to its cluster prototype, divided by the summed
distance between prototype pairs. Lower is better: tight clusters that sit
far apart. The evaluation distance is always Euclidean, whatever metric the
clustering itself used, so scores are comparable across methods; this is
asserted by tests, not just intended.

The denominator counts each unordered prototype pair once. A literal sum
over ordered pairs would double it, but the ratio is only ever used for
comparison and elbow location, both invariant under that constant factor;
the convention is recorded in every report header so the numbers stay
interpretable.

Choosing k: sweep a k-range, then find the elbow of the score-vs-k curve.
The elbow rule is deterministic (no eyeballing): normalize the (k, score)
points to the unit square, measure each interior point's perpendicular
distance to the chord joining the first and last points, and take the k
with the largest deviation.

One run path: ``fit`` and ``sweep`` reach every method through one
dispatch, ``_fitter``, so a sweep row scores exactly the fit at its k.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .ahc import LINKAGES, _cutter, build_dendrogram
from .curves import check_k, check_types
from .distance import (MetricConfig, UnnormalizedDataWarning, check_matrix,
                       paired_distances, pairwise_matrix, total_distance)
from .io import naming, read_csv, read_sidecar, sidecar_path, write_csv
from .partitional import FitError, _kmedoids_fit, gmm_em, kmeans, kmedoids
from .results import MEDOID_INDEX, ClusteringResult, FitOptions, FitParams

METHODS = ("ahc", "kmeans", "kmeanspp", "kmedoids", "gmm")

#: Methods that cluster through a pairwise distance matrix.
MATRIX_METHODS = ("ahc", "kmedoids")

EVALUATION_METRIC = "euclidean"

SWEEP_HEADER = ["k", "wcbcr"]

#: Peak bytes per n² of a matrix method: the 4n² condensed matrix, then
#: ahc's 8n² build square, or the 8n² square a cut or a k-medoids fit reads
#: plus the member rows ``cluster_medoids`` gathers from it (under 8n²).
_SQUARE_BYTES = 20


def peak_bytes(n: int, k_max: int, method: str) -> int:
    """README's bound on the peak resident memory of a run of ``method``
    over ``n`` curves at k up to ``k_max``: about 30 MB for the interpreter
    and numpy, 8 MiB more for every method but ahc (its first draw loads
    ``numpy.random``, 5.7 MiB, and the mixture's BLAS and LAPACK calls
    add more), 4 KB per curve for the parsed and normalized curves, plus
    ``_SQUARE_BYTES`` n² for a matrix method and the freed heap glibc keeps
    resident (it trims only past twice its mmap threshold, which rises to
    the largest block freed, an 8n² square, up to 32 MiB), or 512 n k_max
    bytes for a vector method (the mixture's (k, n, 24) E-step pass, live
    and freed, and its (n, k) arrays)."""
    fixed = (30 if method == "ahc" else 38) * 2**20 + 4096 * n
    if method in MATRIX_METHODS:
        return fixed + _SQUARE_BYTES * n * n + min(16 * n * n, 64 * 2**20)
    return fixed + 512 * n * k_max


class DegenerateClusteringError(ValueError):
    """All prototypes coincide, so the between-cluster distance is zero."""


class DegenerateElbowWarning(UserWarning):
    """The score-vs-k curve has no elbow (flat or perfectly linear)."""


def prototypes(result: ClusteringResult, dataset) -> tuple:
    """The k prototype curves of a result, as 24-value tuples.

    Medoid-index results dereference into the dataset; vector results
    already carry their prototypes explicitly.
    """
    if len(dataset) != len(result.assignments):
        raise ValueError(
            f"result is for {len(result.assignments)} curves, "
            f"dataset has {len(dataset)}"
        )
    if result.prototype_kind == MEDOID_INDEX:
        return tuple(dataset[p].values for p in result.prototypes)
    return result.prototypes


def wcbcr(result: ClusteringResult, dataset) -> float:
    """Within-cluster to between-cluster distance ratio; lower is better.

    numerator   = sum over curves X of d(X, prototype of X's cluster)
    denominator = sum over unordered prototype pairs (i < j) of d(mu_i, mu_j)

    with d the Euclidean distance, always. Raises
    DegenerateClusteringError when every prototype coincides.
    """
    if result.k < 2:
        raise ValueError("wcbcr needs k >= 2 (between-cluster sum is empty)")
    if dataset.normalization == "raw":
        warnings.warn(
            "scoring a clustering of unnormalized curves; magnitude will "
            "dominate the ratio",
            UnnormalizedDataWarning,
            stacklevel=2,
        )
    protos = np.asarray(prototypes(result, dataset), dtype=float)
    curves = dataset.to_matrix()
    euclidean = MetricConfig(EVALUATION_METRIC)
    # one batch per sum, added strictly left to right: the bits of a +=
    # loop over curves and over prototype pairs (a, b), a < b
    within = paired_distances(curves, protos[np.asarray(result.assignments)],
                              euclidean)
    a, b = np.triu_indices(result.k, 1)
    between = paired_distances(protos[a], protos[b], euclidean)
    numerator = total_distance([within])
    denominator = total_distance([between])
    if denominator == 0.0:
        raise DegenerateClusteringError(
            "all cluster prototypes are identical; the clustering is degenerate"
        )
    return numerator / denominator


@dataclass(frozen=True)
class MethodSpec(FitParams):
    """One clustering configuration: which method, under which knobs.

    Every rule that pairs a method with a knob lives here, so the library
    and the CLI refuse the same specs. ``metric`` and ``linkage`` apply
    only where they mean something: the matrix methods take a metric
    (default dtw, window 4), ahc alone takes a linkage (default average),
    and ``size_weighted`` only with average linkage. Vector methods
    (kmeans, kmeanspp, gmm) are Euclidean by construction and reject an
    explicit metric. A ``covariance_kind`` other than the default is for
    gmm only. The fit hyperparameters are FitParams' and are checked at
    construction, for every method.
    """

    method: str
    metric: MetricConfig | None = None
    linkage: str | None = None
    size_weighted: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.method in MATRIX_METHODS:
            if self.metric is None:
                object.__setattr__(self, "metric", MetricConfig())
        elif self.metric is not None:
            raise ValueError(f"{self.method} does not take a metric (it is Euclidean)")
        if self.method == "ahc":
            if self.linkage is None:
                object.__setattr__(self, "linkage", "average")
            elif self.linkage not in LINKAGES:
                raise ValueError(f"unknown linkage {self.linkage!r}")
        elif self.linkage is not None:
            raise ValueError("linkage only applies to ahc")
        check_types("size_weighted", (self.size_weighted,), (bool,))
        if self.size_weighted and self.linkage != "average":
            raise ValueError("size_weighted only applies to ahc average linkage")
        if self.covariance_kind != FitParams.covariance_kind and self.method != "gmm":
            raise ValueError("covariance_kind only applies to gmm")
        super().__post_init__()

    def name(self) -> str:
        """Column label in reports, e.g. 'ahc-dtw-average' or 'kmedoids-dtw'."""
        if self.method == "ahc":
            base = f"ahc-{self.metric.kind}-{self.linkage}"
            return base + "-sizeweighted" if self.size_weighted else base
        if self.method == "kmedoids":
            return f"kmedoids-{self.metric.kind}"
        return self.method

    def options(self, k: int) -> FitOptions:
        return FitOptions(k=k, **{f.name: getattr(self, f.name)
                                  for f in fields(FitParams)})


def _fitter(dataset, spec: MethodSpec, k_min: int, k_max: int, matrix):
    """``fit_k(k)``, the fit of ``spec`` at any k in [k_min, k_max]: the one
    dispatch on ``spec.method``, behind ``fit`` and ``sweep``.

    A vector method refuses a ``matrix`` and calls ``kmeans`` or ``gmm_em``
    at each k. A matrix method checks the caller's matrix (``check_matrix``)
    or builds one (``pairwise_matrix``), once; ahc then builds its tree and
    cuts each k through one ``ahc._cutter``, and kmedoids squares the matrix
    and fits each k through ``_kmedoids_fit`` with one medoid memo (member
    set -> medoid, valid at any k), both freed with ``fit_k``. On a raw
    dataset kmedoids computes no matrix: ``kmedoids`` refuses raw data at
    every k.
    """
    if spec.method not in MATRIX_METHODS:
        if matrix is not None:
            raise ValueError(f"{spec.method} does not use a distance matrix")
        if spec.method == "gmm":
            return lambda k: gmm_em(dataset, spec.options(k))
        init = "random" if spec.method == "kmeans" else "plusplus"
        return lambda k: kmeans(dataset, spec.options(k), init=init)
    if matrix is not None:
        matrix = check_matrix(matrix, len(dataset), spec.metric)
    if spec.method == "kmedoids" and dataset.normalization == "raw":
        return lambda k: kmedoids(dataset, spec.options(k), spec.metric, matrix)
    if matrix is None:
        matrix = pairwise_matrix(dataset, spec.metric)
    if spec.method == "ahc":
        tree = build_dendrogram(matrix, spec.linkage, spec.size_weighted)
        return _cutter(tree, k_min, k_max, matrix)
    square, memo = matrix.to_square(), {}
    return lambda k: _kmedoids_fit(square, matrix.metric, spec.options(k), memo)


def fit(dataset, spec: MethodSpec, k: int, matrix=None) -> ClusteringResult:
    """Run one clustering at one k under a MethodSpec: ``sweep``'s fit at k.

    For the matrix methods, a precomputed ``matrix`` skips the expensive
    pairwise step. A ``matrix`` for another number of curves or another
    metric, or one given to a vector method, raises ValueError, and so
    does a k the dataset cannot hold (``check_k``, least 1 for ahc's
    one-cluster cut), before any distance is computed.
    """
    check_k(k, k, len(dataset), least=1 if spec.method == "ahc" else 2)
    return _fitter(dataset, spec, k, k, matrix)(k)


@dataclass(frozen=True)
class SweepReport:
    """WCBCR scores over a k-range for one method.

    ``rows`` are (k, wcbcr) pairs with strictly increasing k. A k whose fit
    failed is absent from rows and explained in ``diagnostics`` instead.
    """

    spec: MethodSpec
    rows: tuple
    evaluation_metric: str = EVALUATION_METRIC
    diagnostics: tuple = ()

    def __post_init__(self):
        rows = tuple(self.rows)
        check_types("a sweep k", (k for k, _ in rows), (int,))
        check_types("a wcbcr score", (w for _, w in rows), (int, float))
        rows = tuple((k, float(w)) for k, w in rows)
        for (ka, _), (kb, _) in zip(rows, rows[1:]):
            if kb <= ka:
                raise ValueError("rows must have strictly increasing k")
        for k, w in rows:
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"wcbcr at k={k} must be finite and >= 0, got {w}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))

    def ks(self) -> tuple:
        return tuple(k for k, _ in self.rows)

    def scores(self) -> tuple:
        return tuple(w for _, w in self.rows)


def sweep(dataset, spec: MethodSpec, k_min: int, k_max: int,
          matrix=None) -> SweepReport:
    """Fit a method at every k in [k_min, k_max] and score each clustering.

    Every k is fit through one ``_fitter``, which builds the matrix, an ahc
    tree and a matrix method's square and medoid memo once for the range,
    so each row has the bits of ``wcbcr(fit(dataset, spec, k, matrix),
    dataset)``. A precomputed ``matrix`` skips the pairwise step and is
    refused where ``fit`` would refuse it. A fit that fails at some k (an
    overflowing objective, a mixture failing every restart) becomes a
    diagnostic line, not an abort; deterministic throughout.
    """
    check_k(k_min, k_max, len(dataset))
    fit_k = _fitter(dataset, spec, k_min, k_max, matrix)
    rows, diagnostics = [], []
    for k in range(k_min, k_max + 1):
        try:
            rows.append((k, wcbcr(fit_k(k), dataset)))
        except (ValueError, FitError) as e:
            diagnostics.append(f"k={k}: {e}")
    return SweepReport(spec, tuple(rows), EVALUATION_METRIC, tuple(diagnostics))


def elbow(report: SweepReport) -> int:
    """The k at the elbow of the wcbcr-vs-k curve.

    Points are min-max normalized to the unit square; each interior point's
    perpendicular distance to the chord through the first and last points
    is measured; the k with the largest deviation wins, ties to the
    smallest k. A flat or perfectly linear curve has no elbow: that returns
    k_min under a DegenerateElbowWarning.

    Min-max normalization makes the answer invariant under any affine
    rescaling of the score column.
    """
    if len(report.rows) < 3:
        raise ValueError(f"elbow needs at least 3 rows, got {len(report.rows)}")
    ks = report.ks()
    ws = report.scores()
    k_lo, k_hi = ks[0], ks[-1]
    w_lo, w_hi = min(ws), max(ws)
    xs = [(k - k_lo) / (k_hi - k_lo) for k in ks]
    span = w_hi - w_lo
    ys = [0.0 if span == 0 else (w - w_lo) / span for w in ws]

    x1, y1 = xs[0], ys[0]
    x2, y2 = xs[-1], ys[-1]
    dx, dy = x2 - x1, y2 - y1
    chord = math.hypot(dx, dy)

    best_k = ks[0]
    best_d = -math.inf
    for i in range(1, len(ks) - 1):
        d = abs(dy * xs[i] - dx * ys[i] + x2 * y1 - y2 * x1) / chord
        if d > best_d:
            best_d = d
            best_k = ks[i]
    if best_d < 1e-12:
        warnings.warn(
            "wcbcr-vs-k curve is flat or linear; no elbow, returning k_min",
            DegenerateElbowWarning,
            stacklevel=2,
        )
        return ks[0]
    return best_k


# --- report files -----------------------------------------------------------

def save_sweep(report: SweepReport, path) -> None:
    """Write the report as CSV rows `k,wcbcr` plus a JSON metadata sidecar.

    The sidecar (at ``<path>.json``) records every field of the spec, the
    evaluation metric, the unordered-pair denominator convention, and the
    selected elbow k (null when the report is too short to have one).
    """
    spec = report.spec
    elbow_k = None
    if len(report.rows) >= 3:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateElbowWarning)
            elbow_k = elbow(report)
    write_csv(path, SWEEP_HEADER, report.rows, sidecar={
        "kind": "sweep-report",
        "method": spec.method,
        "name": spec.name(),
        "metric": spec.metric.kind if spec.metric else EVALUATION_METRIC,
        "window": spec.metric.window if spec.metric else None,
        "linkage": spec.linkage,
        "size_weighted": spec.size_weighted,
        **{f.name: getattr(spec, f.name) for f in fields(FitParams)},
        "evaluation_metric": report.evaluation_metric,
        "denominator_pairs": "unordered",
        "elbow_k": elbow_k,
        "diagnostics": list(report.diagnostics),
    })


def load_sweep(path) -> SweepReport:
    """Rebuild a report from its CSV (and sidecar, when present).

    Without a sidecar the rows still load, under a default ahc spec; the
    elbow command needs nothing more than the rows. A spec field other than
    method, metric, window, linkage and seed takes its default when an
    older sidecar lacks it. A defect is one ``io.naming`` ValueError naming
    the sidecar (values that make no valid spec, diagnostics that are not a
    list of strings) or the CSV (rows that make no valid ``SweepReport``).
    """
    rows = read_csv(path, SWEEP_HEADER, lambda row: (int(row[0]), float(row[1])))
    spec, diagnostics = MethodSpec("ahc"), []
    meta = read_sidecar(path, ("method", "metric", "window", "linkage", "seed"))
    if meta is not None:
        with naming(sidecar_path(path)):
            metric = (MetricConfig(meta["metric"], meta["window"])
                      if meta["method"] in MATRIX_METHODS else None)
            spec = MethodSpec(meta["method"], metric=metric,
                              linkage=meta["linkage"],
                              size_weighted=meta.get("size_weighted", False),
                              **{f.name: meta.get(f.name, f.default)
                                 for f in fields(FitParams)})
            diagnostics = meta.get("diagnostics", [])
            check_types("diagnostics", (diagnostics,), (list,))
            check_types("a diagnostic", diagnostics, (str,))
    with naming(path):
        return SweepReport(spec, rows, EVALUATION_METRIC, diagnostics)


def sweep_table(dataset, specs, k_min: int, k_max: int):
    """Run one sweep per spec and tabulate them side by side.

    Returns (names, rows, reports): column names from each spec, then one
    row per k of [k, score_1, ..., score_m] with None where a fit failed.
    """
    specs = tuple(specs)
    names = [s.name() for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"method names must be unique, got {names}")
    reports = [sweep(dataset, s, k_min, k_max) for s in specs]
    by_k = [dict(r.rows) for r in reports]
    rows = []
    for k in range(k_min, k_max + 1):
        rows.append([k] + [d.get(k) for d in by_k])
    return names, rows, reports


def save_table(names, rows, path) -> None:
    """One CSV, k in the first column and one method's wcbcr per column;
    a fit that failed is an empty cell."""
    write_csv(path, ["k", *names], rows)
