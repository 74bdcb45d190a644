"""Agglomerative hierarchical clustering over a precomputed distance matrix.

Standard bottom-up scheme: start from singletons, repeatedly merge the
closest pair of live clusters, update the merged cluster's distance to every
survivor with the linkage rule, stop at one cluster. The full merge history
(the dendrogram) is kept so any number of clusters can be read off later
without reclustering; ``cut_range`` reads a whole k-range in one pass.

Linkage rules, with A and B the merged clusters and K any other:

- ``single``    D(A+B, K) = min(D(A,K), D(B,K))
- ``complete``  D(A+B, K) = max(D(A,K), D(B,K))
- ``average``   D(A+B, K) = (D(A,K) + D(B,K)) / 2

The average rule is the plain two-term mean of the merged halves, where each
side of a merge counts equally no matter how many curves it holds (the
weighted-group convention). Pass ``size_weighted=True`` for the
member-count-weighted mean instead, which equals the flat average over all
cross-cluster member pairs.

Determinism: when several pairs tie for the smallest distance, the one with
the lexicographically smallest (min id, max id) is merged. Runs are exactly
reproducible, including on matrices full of ties.

The hierarchy is built in O(n^2) memory and, in practice, close to O(n^2)
time: a working copy of the square matrix plus a per-row nearest-neighbour
cache (the "generic" algorithm of D. Müllner, *Modern hierarchical,
agglomerative clustering algorithms*, arXiv:1109.2378), every row's entry
exact from a vectorized pass before the first merge. Every height is
computed with the same floating-point operations, in the same order, as the
textbook pair-scan, so both give the same merges bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distance import DistanceMatrix, MetricConfig, medoid, total_distance
from .results import MEDOID_INDEX, ClusteringResult

LINKAGES = ("single", "complete", "average")

#: Rows per block of the build's nearest-neighbour start: a block's
#: temporaries take about 17 * _NN_BLOCK_ROWS * n bytes, never n x n.
_NN_BLOCK_ROWS = 256


@dataclass(frozen=True)
class MergeStep:
    """One merge: clusters ``left`` and ``right`` joined at ``height``.

    Ids follow the linkage-matrix convention: leaves are 0..n-1 and the
    i-th merge (0-based) creates cluster id n+i. ``left < right`` always;
    ``new_size`` is the member count of the created cluster.
    """

    left: int
    right: int
    height: float
    new_size: int

    def __post_init__(self):
        if self.left >= self.right:
            raise ValueError("merge step ids must satisfy left < right")
        if self.left < 0:
            raise ValueError("cluster ids are non-negative")
        if not (math.isfinite(self.height) and self.height >= 0):
            raise ValueError("merge height must be finite and >= 0")
        if self.new_size < 2:
            raise ValueError("a merged cluster has at least 2 members")


@dataclass(frozen=True)
class Dendrogram:
    """Complete merge history for ``n_leaves`` curves.

    ``merges`` has exactly n_leaves - 1 entries with non-decreasing heights,
    and every cluster id is consumed at most once. ``metric`` records which
    distance the hierarchy was built under, so cuts can state their
    provenance.
    """

    n_leaves: int
    linkage: str
    merges: tuple
    metric: MetricConfig = field(default_factory=MetricConfig)

    def __post_init__(self):
        if self.linkage not in LINKAGES:
            raise ValueError(f"unknown linkage {self.linkage!r}")
        merges = tuple(self.merges)
        if len(merges) != self.n_leaves - 1:
            raise ValueError(
                f"{self.n_leaves} leaves need {self.n_leaves - 1} merges, "
                f"got {len(merges)}"
            )
        consumed = set()
        for t, s in enumerate(merges):
            new_id = self.n_leaves + t
            if s.left >= new_id or s.right >= new_id:
                raise ValueError(f"merge {t} references a not-yet-created cluster")
            if s.left in consumed or s.right in consumed:
                raise ValueError(f"merge {t} consumes an already-merged cluster")
            consumed.add(s.left)
            consumed.add(s.right)
        for a, b in zip(merges, merges[1:]):
            if b.height < a.height:
                raise ValueError("merge heights must be non-decreasing")
        object.__setattr__(self, "merges", merges)

    def heights(self) -> np.ndarray:
        return np.asarray([s.height for s in self.merges], dtype=float)


def build_dendrogram(matrix: DistanceMatrix, linkage: str = "average",
                     size_weighted: bool = False) -> Dendrogram:
    """Build the full merge hierarchy for a distance matrix.

    ``size_weighted`` switches the average rule from the two-term mean to
    the member-count-weighted mean and is ignored by the other linkages.

    Working state: slot ``s`` of an n x n working matrix holds the cluster
    with id ``ids[s]``. Merging ids a < b writes the linkage row into b's
    slot, gives it id n+t and retires a's slot. Each live row caches
    ``nd[s]``, its smallest distance to a live partner with a *larger* id,
    and ``nn[s]``, that partner (the smallest id on ties). A row whose
    ``nn`` was just merged away keeps its old ``nd`` as a lower bound and is
    marked stale; it is rescanned only when it reaches the top of the
    selection. The new cluster has the largest id, so its own row is empty,
    and a row that is strictly closer to it than its ``nd`` takes it as its
    exact ``nn``. Every row starts exact: before the first merge ids equal
    slots, so one vectorized pass over blocks of rows takes each row's
    first minimum to the right of the diagonal, the smallest partner id.

    Why the tie rule survives: each merge takes the rows with the smallest
    ``nd`` and, among them, the one with the smallest id, rescanning it first
    if it is stale. Stale values never exceed the true row minimum, so when
    an exact row comes out on top its ``nd`` is the global minimum distance
    m. Any row with a smaller id that also reaches m would have an ``nd`` of
    at most m, so it would tie and be taken (or rescanned) first. The chosen
    row is therefore the smallest id that reaches m, and its ``nn`` the
    smallest partner id at m: the lexicographically smallest tied pair.
    Linkage rows are elementwise numpy versions of the scalar rules, so every
    height is bit-identical to a pair-by-pair scan.

    Working memory is one n x n float64, 8n^2 bytes (82 MB at n=3200), plus
    a start block of ``_NN_BLOCK_ROWS`` rows and O(n) per merge; the time
    is O(n^2) plus O(n) per stale rescan.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}, expected one of {LINKAGES}")
    n = matrix.n
    if n < 2:
        raise ValueError("need at least 2 curves to build a dendrogram")
    if not np.all(np.isfinite(matrix.condensed)):
        raise ValueError("distance matrix contains non-finite entries")

    dist = matrix.to_square()
    ids = np.arange(n)  # cluster id per slot, -1 once retired
    sizes = [1] * n
    nd = np.empty(n)
    nn = np.empty(n, dtype=np.intp)
    for lo in range(0, n, _NN_BLOCK_ROWS):
        hi = min(lo + _NN_BLOCK_ROWS, n)
        block = np.where(ids > ids[lo:hi, None], dist[lo:hi], math.inf)
        nn[lo:hi] = block.argmin(axis=1)
        nd[lo:hi] = block[np.arange(hi - lo), nn[lo:hi]]
    stale = np.zeros(n, dtype=bool)
    live = np.ones(n, dtype=bool)  # ids >= 0, kept rather than recomputed
    # boolean work rows, reused through out= on every merge
    tied, closer = np.empty(n, dtype=bool), np.empty(n, dtype=bool)

    merges = []
    # overflow to inf is silent, as it is for Python floats
    with np.errstate(over="ignore"):
        for t in range(n - 1):
            while True:
                h = nd.min()
                if h == math.inf:
                    raise ValueError("every remaining linkage distance "
                                     "overflowed to inf")
                np.equal(nd, h, out=tied)
                if np.count_nonzero(tied) == 1:
                    sa = int(tied.argmax())
                else:
                    at = np.flatnonzero(tied)
                    sa = int(at[np.argmin(ids[at])])
                if not stale[sa]:
                    break
                row = np.where(ids > ids[sa], dist[sa], math.inf)
                at = np.flatnonzero(row == row.min())
                nn[sa] = at[np.argmin(ids[at])]
                nd[sa] = row[nn[sa]]
                stale[sa] = False
            sb = int(nn[sa])
            new_size = sizes[sa] + sizes[sb]
            merges.append(MergeStep(int(ids[sa]), int(ids[sb]), float(h),
                                    new_size))

            da, db = dist[sa], dist[sb]
            if linkage == "single":
                row = np.where(da < db, da, db)
            elif linkage == "complete":
                row = np.where(da > db, da, db)
            elif size_weighted:
                row = (sizes[sa] * da + sizes[sb] * db) / new_size
            else:
                row = (da + db) / 2.0
            dist[sb] = row
            dist[:, sb] = row
            ids[sa] = -1
            ids[sb] = n + t
            live[sa] = False
            sizes[sb] = new_size
            nd[sa] = nd[sb] = math.inf
            stale |= np.equal(nn, sa, out=closer)
            stale |= np.equal(nn, sb, out=closer)
            np.less(row, nd, out=closer)
            closer &= live
            closer[sb] = False
            np.copyto(nd, row, where=closer)
            np.copyto(nn, sb, where=closer)
            stale &= ~closer

    return Dendrogram(n, linkage, tuple(merges), matrix.metric)


def cut(dendrogram: Dendrogram, k: int, matrix: DistanceMatrix) -> ClusteringResult:
    """Flat k-clustering read off the hierarchy: ``cut_range`` at one k."""
    return cut_range(dendrogram, k, k, matrix)[0]


def cut_range(dendrogram: Dendrogram, k_min: int, k_max: int,
              matrix: DistanceMatrix) -> list:
    """Flat k-clusterings for every k in [k_min, k_max], ascending, read
    off the hierarchy in one pass over one square of ``matrix``.

    The k clusters are the connected components after the first n-k merge
    steps, labelled 0..k-1 in order of first appearance over leaves
    0..n-1. Each prototype is the cluster's ``distance.medoid`` under
    ``matrix``, which must be the matrix the dendrogram was built from
    (same n and metric, else ValueError), and the objective is the
    ``distance.total_distance`` of every member to its medoid. Going from k
    to k-1 joins two clusters, so only the joined one needs a new medoid;
    each result has the bits of a fresh cut at its k. The members of every
    cluster the range holds are kept, at most n * (k_max - k_min + 1)
    indices.
    """
    n = dendrogram.n_leaves
    if not (1 <= k_min <= k_max <= n):
        got = k_min if k_min == k_max else f"[{k_min}, {k_max}]"
        raise ValueError(f"k must be in [1, {n}], got {got}")
    if matrix.n != n:
        raise ValueError(
            f"matrix is for {matrix.n} curves but the dendrogram has {n} leaves"
        )
    if not matrix.metric.same_distance(dendrogram.metric):
        raise ValueError(
            f"matrix is {matrix.metric} but the dendrogram was built "
            f"under {dendrogram.metric}"
        )
    square = matrix.to_square()

    leaves = {i: [i] for i in range(n)}  # cluster id -> its leaves
    for t in range(n - k_max):
        step = dendrogram.merges[t]
        leaves[n + t] = leaves.pop(step.left) + leaves.pop(step.right)
    live = [set(leaves)]  # the cluster ids at k = k_max, k_max - 1, ...
    for t in range(n - k_max, n - k_min):
        step = dendrogram.merges[t]
        leaves[n + t] = leaves[step.left] + leaves[step.right]
        live.append(live[-1] - {step.left, step.right} | {n + t})
    # medoids of every cluster some k in range holds, the largest first: its
    # member-row gather is the biggest block, and the smaller gathers then
    # reuse that memory. Smaller first, the allocator kept their freed
    # blocks while the big one was live: an n=3200 average-linkage sweep
    # peaked at 237 MB RSS, against 208 MB largest first.
    found = {}  # cluster id -> (leaves ascending, medoid, their distances to it)
    for c in sorted(leaves, key=lambda c: len(leaves[c]), reverse=True):
        members = np.sort(leaves[c])
        found[c] = (members, *medoid(square, members))
    results = []
    for k, ids in zip(range(k_max, k_min - 1, -1), live):
        ordered = sorted((found[c] for c in ids), key=lambda f: f[0][0])
        labels = np.empty(n, dtype=np.intp)
        for c, (members, _, _) in enumerate(ordered):
            labels[members] = c
        results.append(ClusteringResult(
            method="ahc",
            k=k,
            assignments=tuple(labels.tolist()),
            prototypes=tuple(c[1] for c in ordered),
            prototype_kind=MEDOID_INDEX,
            objective=total_distance([c[2] for c in ordered]),
            iterations=len(dendrogram.merges),
            converged=True,
            seed=None,
            metric=dendrogram.metric,
            linkage=dendrogram.linkage,
        ))
    return results[::-1]
