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

from .curves import check_k
from .distance import (DistanceMatrix, MetricConfig, _block_rows, check_matrix,
                       cluster_medoids)
from .results import MEDOID_INDEX, ClusteringResult

LINKAGES = ("single", "complete", "average")


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
    distance the hierarchy was built under and ``size_weighted`` whether
    its average rule was the member-count-weighted mean, so cuts can state
    their provenance.
    """

    n_leaves: int
    linkage: str
    merges: tuple
    metric: MetricConfig = field(default_factory=MetricConfig)
    size_weighted: bool = False

    def __post_init__(self):
        if self.linkage not in LINKAGES:
            raise ValueError(f"unknown linkage {self.linkage!r}")
        if self.size_weighted and self.linkage != "average":
            raise ValueError("size_weighted only applies to average linkage")
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
    the member-count-weighted mean; the other linkages ignore it, and their
    trees record it as False.

    Working state: slot ``s`` of an n x n working matrix holds the
    distances of cluster ``id_of[s]``; the rest is kept by cluster id,
    0..2n-2, where merge t creates id n+t. ``slot[i]`` is id i's slot, or
    the sentinel n once i is retired or while it is unborn. ``line`` holds
    one row in slot order plus an inf at slot n, so a row gathered into id
    order through ``slot`` reads inf at every id that is not live. Merging
    ids a < b writes the linkage row into b's slot, hands the slot to the
    new id and retires a and b. ``nd[i]`` bounds from below id i's smallest
    distance to a live partner with a *larger* id, and ``nn[i]`` is the
    partner it came from. While ``nn[i]`` is live the bound is exact and
    ``nn[i]`` the smallest such partner: distances between live clusters
    never change, and each new id, the largest yet, becomes ``nn`` of every
    row strictly closer to it than its ``nd``. A row whose ``nn`` is retired
    keeps its ``nd`` as a lower bound and is rescanned only when it is
    picked. Every row starts exact: before the first merge ids equal slots,
    so one vectorized pass over blocks of rows takes each row's first
    minimum to the right of the diagonal, the smallest partner id.

    Why the tie rule survives: each merge picks the first minimum of
    ``nd`` in id order, the smallest id with the smallest bound, and
    rescans it first if its ``nn`` is retired. Bounds never exceed the true
    row minimum, so when an exact row is picked its ``nd`` is the global
    minimum distance m. Any row with a smaller id that also reaches m would
    have an ``nd`` of at most m, so it would have been picked (or
    rescanned) first. The picked row is therefore the smallest id that
    reaches m, and its ``nn`` the smallest partner id at m: the
    lexicographically smallest tied pair. Linkage rows are elementwise
    numpy versions of the scalar rules, so every height is bit-identical to
    a pair-by-pair scan; a zero height takes its sign from numpy's ``min``
    over the bounds in slot order, as the reference builds do.

    Working memory is one n x n float64 (8n^2 bytes), O(n) state and start
    blocks of 17 bytes a cell (two masked copies and a mask) within the
    scratch budget; a merge is O(n) numpy work, plus O(n) per rescan.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}, expected one of {LINKAGES}")
    n = matrix.n
    if n < 2:
        raise ValueError("need at least 2 curves to build a dendrogram")
    if not np.all(np.isfinite(matrix.condensed)):
        raise ValueError("distance matrix contains non-finite entries")

    dist = matrix.to_square()
    line = np.full(n + 1, math.inf)  # a row in slot order; slot n reads inf
    slot = np.full(2 * n - 1, n)  # slot per cluster id, n unless live
    slot[:n] = id_of = np.arange(n)  # id_of: cluster id per slot
    sizes = [1] * n  # per id
    nd = np.full(2 * n - 1, math.inf)
    nn = np.zeros(2 * n - 1, dtype=np.intp)
    rows = _block_rows(n, 17)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        block = np.where(id_of > id_of[lo:hi, None], dist[lo:hi], math.inf)
        nn[lo:hi] = block.argmin(axis=1)
        nd[lo:hi] = block[np.arange(hi - lo), nn[lo:hi]]

    merges = []
    # overflow to inf is silent, as it is for Python floats
    with np.errstate(over="ignore"):
        for c in range(n, 2 * n - 1):  # the id this merge creates
            while True:
                a = int(nd[:c].argmin())
                h = nd[a]
                if h == math.inf:
                    raise ValueError("every remaining linkage distance "
                                     "overflowed to inf")
                if slot[nn[a]] < n:
                    break
                line[:n] = dist[slot[a]]
                row = line[slot[a + 1:c]]
                j = int(row.argmin())
                nn[a], nd[a] = a + 1 + j, row[j]
            if h == 0.0:  # 0.0 and -0.0 tie: the sign min gives in slot order
                h = nd[id_of].min()
            b = int(nn[a])
            sa, sb = slot[a], slot[b]
            sizes.append(sizes[a] + sizes[b])
            merges.append(MergeStep(a, b, float(h), sizes[c]))

            da, db = dist[sa], dist[sb]
            if linkage == "single":
                row = np.where(da < db, da, db)
            elif linkage == "complete":
                row = np.where(da > db, da, db)
            elif size_weighted:
                row = (sizes[a] * da + sizes[b] * db) / sizes[c]
            else:
                row = (da + db) / 2.0
            dist[sb] = dist[:, sb] = line[:n] = row
            slot[a] = slot[b] = n
            slot[c], id_of[sb] = sb, c
            nd[a] = nd[b] = math.inf
            row = line[slot[:c]]  # in id order
            closer = row < nd[:c]
            np.copyto(nd[:c], row, where=closer)
            np.copyto(nn[:c], c, where=closer)

    return Dendrogram(n, linkage, tuple(merges), matrix.metric,
                      size_weighted and linkage == "average")


def cut(dendrogram: Dendrogram, k: int, matrix: DistanceMatrix) -> ClusteringResult:
    """Flat k-clustering read off the hierarchy: ``cut_range`` at one k."""
    return cutter(dendrogram, k, k, matrix)(k)


def cut_range(dendrogram: Dendrogram, k_min: int, k_max: int,
              matrix: DistanceMatrix) -> list:
    """Flat k-clusterings for every k in [k_min, k_max], ascending, read
    off the hierarchy in one pass over one square of ``matrix``.

    The k clusters are the connected components after the first n-k merge
    steps, labelled 0..k-1 in order of first appearance over leaves
    0..n-1. ``distance.cluster_medoids`` gives each k its medoids and
    objective under ``matrix``, which must be the matrix the dendrogram
    was built from (same n and metric, by ``check_matrix``), through one memo
    for the whole range: going from k to k+1 splits one cluster in two, so
    each of the 2 * k_max - k_min member sets is summed once. Each result
    has the bits of a fresh cut at its k. The pass is ``cutter``'s, which
    ``cut`` and an ahc ``sweep`` also read, one k at a time.
    """
    cut_k = cutter(dendrogram, k_min, k_max, matrix)
    return [cut_k(k) for k in range(k_min, k_max + 1)]


def cutter(dendrogram: Dendrogram, k_min: int, k_max: int,
           matrix: DistanceMatrix):
    """``cut_k(k)``, the cut at any k in [k_min, k_max], built on demand
    from one walk of the merges, one square of ``matrix`` and one medoid
    memo, which ``cut_k`` keeps alive. A k whose result cannot be built
    (an objective that overflows) fails alone."""
    n = dendrogram.n_leaves
    check_k(k_min, k_max, n, least=1)
    square = check_matrix(matrix, n, dendrogram.metric).to_square()

    leaves = {i: [i] for i in range(n)}  # cluster id -> its leaves
    labelings = {}  # k -> labels, for every k in range
    for t in range(n - k_min + 1):  # n - t clusters before merge t
        if n - t <= k_max:
            labelings[n - t] = labels = np.empty(n, dtype=np.intp)
            for c, members in enumerate(sorted(leaves.values(), key=min)):
                labels[members] = c
        if n - t > k_min:
            step = dendrogram.merges[t]
            leaves[n + t] = leaves.pop(step.left) + leaves.pop(step.right)

    memo = {}  # member set -> medoid, shared by every k of the range

    def cut_k(k: int) -> ClusteringResult:
        medoids, objective = cluster_medoids(square, labelings[k], k, memo)
        return ClusteringResult(
            method="ahc", k=k, assignments=labelings[k], prototypes=medoids,
            prototype_kind=MEDOID_INDEX, objective=objective,
            iterations=len(dendrogram.merges), converged=True, seed=None,
            metric=dendrogram.metric, linkage=dendrogram.linkage,
            size_weighted=dendrogram.size_weighted)

    return cut_k
