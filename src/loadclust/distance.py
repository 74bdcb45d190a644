"""Distances between load curves: banded DTW and pointwise metrics.

The workhorse is dynamic time warping constrained to a Sakoe-Chiba band.
For hourly load curves a small band (default: 4) lets a morning peak at 7am
match one at 9am without letting breakfast align with dinner, and cuts the
quadratic DP cost to O(n * window).

With ``window=1`` the band pins the alignment to the diagonal and DTW
*equals* the Euclidean distance, bitwise: both run the identical
left-to-right sum of squared differences. That identity guards the band
logic, so no kernel here may reorder a sum.

``dtw`` and ``pointwise_distance`` are the scalar reference definitions.
``pairwise_matrix`` and ``paired_distances`` compute the same values for a
whole batch of pairs at once: the kernels loop over hours (pointwise) or
band cells (dtw) in the scalar order, and each step applies the scalar
code's ``-``, ``*``, ``abs``, three-way min or ``+`` to every pair of the
batch as one elementwise array operation. IEEE arithmetic rounds each of
those operations the same way in numpy as in Python, so every entry equals
its scalar counterpart bit for bit, and the window-one identity carries
over. No numpy reduction (``sum``, ``dot``) is used on a distance, because
its pairwise summation would round differently.

DTW is not a metric: it violates the triangle inequality, so nothing
downstream may index or prune by it. It is symmetric and non-negative,
which is all the clustering here relies on.

``medoid`` is the one medoid rule, for hierarchy cuts and k-medoids
alike, and ``check_matrix`` the one rule for whether a matrix passed in by
a caller belongs to a run: same number of curves, same metric.
"""

from __future__ import annotations

import json
import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curves import HOURS_PER_DAY, check_types
from .io import naming

logger = logging.getLogger(__name__)

METRIC_KINDS = ("dtw", "euclidean", "manhattan", "cosine")


class UnnormalizedDataWarning(UserWarning):
    """Shape distances were requested on data that is not z-normalized."""


@dataclass(frozen=True)
class MetricConfig:
    """Which distance to compute, with its parameters.

    ``window`` is an int, not a bool or a float, capped at 24, the curve
    length, beyond which the band no longer constrains anything. It only
    matters for dtw: any other kind sets it to the default 4 once checked,
    so configs are equal exactly when they compute the same distance.
    """

    kind: str = "dtw"
    window: int = 4

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(
                f"unknown metric {self.kind!r}, expected one of {METRIC_KINDS}"
            )
        check_types("window", (self.window,), (int,))
        if not (1 <= self.window <= HOURS_PER_DAY):
            raise ValueError(
                f"window must be in [1, {HOURS_PER_DAY}], got {self.window!r}"
            )
        if self.kind != "dtw":
            object.__setattr__(self, "window", MetricConfig.window)

    def distance(self, x, y) -> float:
        if self.kind == "dtw":
            return dtw(x, y, self.window)
        return pointwise_distance(x, y, self.kind)

    def label(self) -> str:
        """Short human-readable form used in report headers."""
        if self.kind == "dtw":
            return f"dtw(w={self.window})"
        return self.kind


def _validate_series(x, name: str) -> list:
    xs = [float(v) for v in x]
    if not xs:
        raise ValueError(f"{name} must be non-empty")
    for v in xs:
        if not math.isfinite(v):
            raise ValueError(f"non-finite value in {name}")
    return xs


def dtw(x, y, window: int = 4) -> float:
    """Banded dynamic time warping distance between two series.

    The cost of aligning x_i with y_j is the squared difference; the return
    value is the square root of the cheapest monotone alignment's total
    cost, with alignment pairs restricted to the band |i - j| <= window - 1.
    window=1 admits only the diagonal path (Euclidean distance); any window
    reaching max(len(x), len(y)) is unconstrained DTW.

    For unequal lengths with |len(x) - len(y)| > window - 1 no admissible
    path reaches the final cell and the distance is ``inf``.

    Runs in O(len(x) * window) time and O(len(y)) memory: only two DP rows
    are ever alive, never the full table.
    """
    xs = _validate_series(x, "x")
    ys = _validate_series(y, "y")
    check_types("window", (window,), (int,))
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window!r}")
    n, m = len(xs), len(ys)
    if abs(n - m) > window - 1:
        return math.inf

    inf = math.inf
    prev = [inf] * (m + 1)
    curr = [inf] * (m + 1)
    prev[0] = 0.0
    for i in range(1, n + 1):
        lo = max(1, i - window + 1)
        hi = min(m, i + window - 1)
        # The cell left of the band start acts as this row's boundary; cells
        # right of the band end still hold inf from an earlier row, which is
        # exactly the out-of-band cost, so no further clearing is needed.
        curr[lo - 1] = inf
        for j in range(lo, hi + 1):
            d = xs[i - 1] - ys[j - 1]
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if curr[j - 1] < best:
                best = curr[j - 1]
            curr[j] = d * d + best
        prev, curr = curr, prev
    return math.sqrt(prev[m])


def pointwise_distance(x, y, kind: str = "euclidean") -> float:
    """Positionwise distance between two equal-length series.

    Euclidean and manhattan accumulate strictly left to right (see the
    module docstring for why). Cosine distance is 1 - cosine similarity,
    clamped to [0, 2]; if either vector's norm is below 1e-12 the distance
    is defined as 1.0, the same value as for orthogonal vectors, so
    degenerate all-zero curves cannot poison downstream linkage updates
    with NaN.
    """
    xs = _validate_series(x, "x")
    ys = _validate_series(y, "y")
    if len(xs) != len(ys):
        raise ValueError(
            f"pointwise metrics need equal lengths, got {len(xs)} and {len(ys)}"
        )
    if kind == "euclidean":
        acc = 0.0
        for a, b in zip(xs, ys):
            d = a - b
            acc += d * d
        return math.sqrt(acc)
    if kind == "manhattan":
        acc = 0.0
        for a, b in zip(xs, ys):
            acc += abs(a - b)
        return acc
    if kind == "cosine":
        dot = 0.0
        nx = 0.0
        ny = 0.0
        for a, b in zip(xs, ys):
            dot += a * b
            nx += a * a
            ny += b * b
        nx = math.sqrt(nx)
        ny = math.sqrt(ny)
        if nx < 1e-12 or ny < 1e-12:
            logger.debug("cosine distance of a near-zero vector defined as 1.0")
            return 1.0
        return min(2.0, max(0.0, 1.0 - dot / (nx * ny)))
    raise ValueError(f"unknown pointwise metric {kind!r}")


def paired_distances(xs: np.ndarray, ys: np.ndarray,
                     metric: MetricConfig) -> np.ndarray:
    """``metric.distance(xs[p], ys[p])`` for every row p, in one batch.

    ``xs`` and ``ys`` are equal-shape (pairs, length) arrays of finite
    values, such as rows of ``Dataset.to_matrix()``. Every entry equals the
    scalar function's, bit for bit.
    Overflow is silent, as it is for Python floats: a huge difference
    squares to inf in both.
    """
    if xs.ndim != 2 or xs.shape != ys.shape:
        raise ValueError(
            f"need two equal-shape 2-D arrays, got {xs.shape} and {ys.shape}"
        )
    # hour-major: each kernel step is one elementwise operation over a
    # contiguous row holding every pair's value for that hour
    a = np.ascontiguousarray(xs.T)
    b = np.ascontiguousarray(ys.T)
    with np.errstate(over="ignore"):
        if metric.kind == "dtw":
            return _dtw_columns(a, b, metric.window)
        return _pointwise_columns(a, b, metric.kind)


def _dtw_columns(a, b, window: int) -> np.ndarray:
    """``dtw`` on equal-length columns: the same two rolling DP rows and the
    same cell order, with one array element per pair in every cell."""
    n, pairs = a.shape
    prev = np.full((n + 1, pairs), math.inf)
    curr = np.full((n + 1, pairs), math.inf)
    prev[0] = 0.0
    # each DP row's view, taken once: the cell loop looks rows up in a list
    # instead of making two fresh ndarray views per cell
    prev_rows, curr_rows = list(prev), list(curr)
    for i in range(1, n + 1):
        lo = max(1, i - window + 1)
        hi = min(n, i + window - 1)
        cost = a[i - 1] - b[lo - 1:hi]
        np.multiply(cost, cost, out=cost)
        # min(prev[j-1], prev[j]) for the whole band row; the horizontal
        # predecessor curr[j-1] depends on the previous cell, so it is
        # folded in cell by cell. min is exact, so the grouping of the
        # three-way min cannot change a bit. The band's first cell has the
        # out-of-band inf on its left, which no min picks, so it is skipped.
        best = np.minimum(prev[lo - 1:hi], prev[lo:hi + 1])
        if lo == 1:
            # the next row reads curr[0] as its band's left boundary; once
            # the band has left column 1, no row reads a cell left of it
            curr[0] = math.inf
        np.add(cost[0], best[0], out=curr_rows[lo])
        for cst, bst, left, cell in zip(cost[1:], best[1:], curr_rows[lo:hi],
                                        curr_rows[lo + 1:hi + 1]):
            np.minimum(bst, left, out=bst)
            np.add(cst, bst, out=cell)
        prev, curr = curr, prev
        prev_rows, curr_rows = curr_rows, prev_rows
    return np.sqrt(prev[n])


def _pointwise_columns(a, b, kind: str) -> np.ndarray:
    """``pointwise_distance`` on columns, accumulating hour by hour."""
    acc = np.zeros(a.shape[1])
    if kind == "euclidean":
        for x, y in zip(a, b):
            d = x - y
            acc += d * d
        return np.sqrt(acc)
    if kind == "manhattan":
        for x, y in zip(a, b):
            acc += np.abs(x - y)
        return acc
    if kind == "cosine":
        nx = np.zeros_like(acc)
        ny = np.zeros_like(acc)
        for x, y in zip(a, b):
            acc += x * y
            nx += x * x
            ny += y * y
        nx = np.sqrt(nx)
        ny = np.sqrt(ny)
        degenerate = (nx < 1e-12) | (ny < 1e-12)
        if degenerate.any():
            logger.debug("cosine distance of %d pairs with a near-zero vector "
                         "defined as 1.0", int(degenerate.sum()))
        with np.errstate(divide="ignore", invalid="ignore"):
            v = 1.0 - acc / (nx * ny)
        # min(2.0, max(0.0, v)) with Python's comparison semantics
        v = np.where(v > 0.0, v, 0.0)
        v = np.where(v < 2.0, v, 2.0)
        return np.where(degenerate, 1.0, v)
    raise ValueError(f"unknown pointwise metric {kind!r}")


def condensed_index(n: int, i: int, j: int) -> int:
    """Position of pair (i, j), i < j, in a condensed distance vector.

    Row-major upper-triangle order, the same layout scipy's ``pdist`` uses:
    (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """
    if not (0 <= i < j < n):
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    return n * i - (i * (i + 1)) // 2 + (j - i - 1)


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise distances in condensed (upper-triangle) storage.

    One value per unordered pair, diagonal implicitly zero. ``metric``
    records how the entries were computed so downstream artifacts can state
    their provenance.
    """

    n: int
    condensed: np.ndarray
    metric: MetricConfig = field(default_factory=MetricConfig)

    def __post_init__(self):
        check_types("n", (self.n,), (int,))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        vec = np.asarray(self.condensed, dtype=float)
        expect = self.n * (self.n - 1) // 2
        if vec.shape != (expect,):
            raise ValueError(
                f"condensed vector for n={self.n} must have length {expect}, "
                f"got shape {vec.shape}"
            )
        if not (vec >= 0).all():  # NaN compares false, -0.0 and inf pass
            raise ValueError("distances must be non-negative and not NaN")
        vec.setflags(write=False)
        object.__setattr__(self, "condensed", vec)

    def get(self, i: int, j: int) -> float:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"index out of range for n={self.n}")
        if i == j:
            return 0.0
        if i > j:
            i, j = j, i
        return float(self.condensed[condensed_index(self.n, i, j)])

    def to_square(self) -> np.ndarray:
        sq = np.zeros((self.n, self.n), dtype=float)
        pos = 0
        for i in range(self.n - 1):
            row = self.condensed[pos:pos + self.n - 1 - i]
            sq[i, i + 1:] = row
            sq[i + 1:, i] = row
            pos += self.n - 1 - i
        return sq


def check_matrix(matrix: DistanceMatrix, n: int,
                 metric: MetricConfig | None) -> DistanceMatrix:
    """``matrix``, once it is known to hold n curves and, unless ``metric``
    is None, to have been built under ``metric``; else a one-line
    ValueError naming both sides."""
    if matrix.n != n:
        raise ValueError(f"matrix is for {matrix.n} curves, dataset has {n}")
    if metric is not None and matrix.metric != metric:
        raise ValueError(f"matrix was built with {matrix.metric.label()}, "
                         f"run asks for {metric.label()}")
    return matrix


#: The bytes a matrix run holds beside its matrix and one square, at most.
_SCRATCH_BYTES = 4 * 2**20


def _block_rows(n: int, bytes_per_cell: int) -> int:
    """Rows of n cells, ``bytes_per_cell`` each, in ``_SCRATCH_BYTES``; >= 1."""
    return max(1, _SCRATCH_BYTES // (bytes_per_cell * n))


def medoid(square: np.ndarray, members: np.ndarray) -> tuple[int, np.ndarray]:
    """The medoid of one cluster and each member's distance to it.

    ``square`` is symmetric with a zero diagonal and ``members`` holds the
    cluster's indices in ascending order. The medoid is the member with the
    smallest summed distance to its co-members, ties to the lowest index.
    Those sums are column sums of the member rows, added one row at a time
    in member order: the bits of a left-to-right loop (a row sum would add
    pairwise and round differently). numpy sums a first gather of
    ``_block_rows(n, 8)`` rows in that order, the rest in place, one by one.
    """
    rows = _block_rows(len(square), 8)
    sums = square[members[:rows]].sum(axis=0)
    for i in members[rows:]:
        sums += square[i]
    best = int(members[np.argmin(sums[members])])
    return best, square[members, best]


def total_distance(gaps) -> float:
    """The entries of the per-cluster distance arrays ``medoid`` returns,
    added strictly in cluster, then member order (``cumsum`` adds one at a
    time)."""
    return float(np.cumsum(np.concatenate(gaps))[-1])


def cluster_medoids(square: np.ndarray, labels, k: int,
                    memo: dict) -> tuple[list, float]:
    """Each cluster's ``medoid`` and the ``total_distance`` of every member
    to its medoid, for labels 0..k-1. ``memo`` (member index bytes ->
    ``medoid``, for this ``square`` only) spares a repeated set its sum."""
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")  # each cluster's members ascending
    bounds = np.searchsorted(labels[order], np.arange(k + 1))
    found = []
    for lo, hi in zip(bounds, bounds[1:]):
        members = order[lo:hi]
        if (key := members.tobytes()) not in memo:
            memo[key] = medoid(square, members)
        found.append(memo[key])
    medoids, gaps = zip(*found)
    return list(medoids), total_distance(gaps)


#: Pairs per batch in ``pairwise_matrix``. A batch's arrays are a few
#: (25, pairs) floats, so this keeps the kernel's working memory near 1 MB
#: at any n.
_BLOCK_PAIRS = 1024


def _pair_blocks(n: int):
    """Condensed order in batches: yields (start, i, j) with i[p], j[p] the
    pair at position start + p. Only the O(n) row starts are kept, never
    all O(n^2) indices."""
    rows = np.arange(n - 1)
    row_start = n * rows - rows * (rows + 1) // 2
    total = n * (n - 1) // 2
    for start in range(0, total, _BLOCK_PAIRS):
        pos = np.arange(start, min(start + _BLOCK_PAIRS, total))
        i = np.searchsorted(row_start, pos, side="right") - 1
        yield start, i, pos - row_start[i] + i + 1


def pairwise_matrix(dataset, metric: MetricConfig | None = None) -> DistanceMatrix:
    """All pairwise distances for a ``Dataset`` under one metric config.

    The curves come from the dataset's array, ``to_matrix()``, whose rows
    ``Dataset`` has already checked to be 24 finite values. The
    condensed vector is filled in fixed-size batches of consecutive pairs,
    each computed by the batched kernels, so every entry equals
    ``metric.distance`` on its pair bit for bit and the result is
    byte-reproducible.

    Shape metrics on a raw dataset almost always mean a missing
    normalization step; that raises ``UnnormalizedDataWarning`` but still
    computes, because magnitude-based comparison is occasionally wanted on
    purpose. Cosine is scale-invariant per curve, so raw data does not
    warrant the warning there.
    """
    cfg = metric or MetricConfig()
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least 2 curves for a distance matrix")
    if dataset.normalization == "raw" and cfg.kind != "cosine":
        warnings.warn(
            f"computing {cfg.kind} distances on unnormalized curves; "
            "shape comparison normally requires z-normalization first",
            UnnormalizedDataWarning,
            stacklevel=2,
        )
    # Stored hour-major. np.take along axis 1 gathers a batch hour-major
    # and C-contiguous, the layout paired_distances wants, so its .T costs
    # no copy there; cols[:, i] would come out pair-major and be copied.
    cols = np.ascontiguousarray(dataset.to_matrix().T)
    out = np.empty(n * (n - 1) // 2, dtype=float)
    for start, i, j in _pair_blocks(n):
        out[start:start + len(i)] = paired_distances(
            np.take(cols, i, axis=1).T, np.take(cols, j, axis=1).T, cfg)
    return DistanceMatrix(n, out, cfg)


#: How ``save_matrix`` encodes the body; ``load_matrix`` reads nothing else.
_ENCODING = "float64-le"


def save_matrix(matrix: DistanceMatrix, path) -> None:
    """Write a matrix as a one-line JSON header, then the condensed vector
    as raw little-endian float64s.

    The body holds each distance's IEEE bytes, so a reload is bit-identical
    (``-0.0`` included) and the file is byte-identical across runs for
    identical inputs. It takes 8 bytes per pair, about 4n^2 in all.
    """
    header = {
        "encoding": _ENCODING,
        "kind": "distance-matrix",
        "n": matrix.n,
        "metric": matrix.metric.kind,
        "window": matrix.metric.window,
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        f.write(np.ascontiguousarray(matrix.condensed, dtype="<f8"))  # no copy


def load_matrix(path) -> DistanceMatrix:
    """Read a matrix written by ``save_matrix``.

    Every defect is one ``io.naming`` ValueError naming the path: a header
    that is not a distance matrix's JSON, a missing or unknown ``encoding``
    (a cache in the old text format lands here), an ``n`` or ``window`` that
    is not a JSON integer, a body that is not exactly n(n-1)/2 float64s, or
    a NaN or negative entry. ``inf`` passes, as it does for a computed
    matrix (``pairwise_matrix`` on raw curves can overflow to it):
    ``build_dendrogram`` refuses it, k-medoids reads it as an infinitely
    distant pair.
    """
    with open(path, "rb") as f, naming(path):
        header = json.loads(f.readline())
        if not isinstance(header, dict) or header.get("kind") != "distance-matrix":
            raise ValueError("not a distance matrix dump")
        if header.get("encoding") != _ENCODING:
            raise ValueError(
                f"matrix encoding {header.get('encoding')!r} is not "
                f"{_ENCODING!r}; rebuild it with --save-matrix"
            )
        body = f.read()
        n = header.get("n")
        check_types("n", (n,), (int,))  # before any arithmetic on it
        expect = 8 * (n * (n - 1) // 2)
        if len(body) != expect:
            raise ValueError(f"body holds {len(body)} bytes, n={n} needs {expect}")
        metric = MetricConfig(header.get("metric"), header.get("window"))
        return DistanceMatrix(n, np.frombuffer(body, "<f8"), metric)
