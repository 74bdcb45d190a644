"""Agglomerative hierarchical clustering over a precomputed distance matrix.

Standard bottom-up scheme: start from singletons, repeatedly merge the
closest pair of live clusters, update the merged cluster's distance to every
survivor with the linkage rule, stop at one cluster. The full merge history
(the dendrogram) is kept so any number of clusters can be read off later
without reclustering.

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
agglomerative clustering algorithms*, arXiv:1109.2378). Every height is
computed with the same floating-point operations, in the same order, as the
textbook pair-scan, so both give the same merges bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distance import DistanceMatrix, MetricConfig, medoid_of
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

    def members(self, cluster_id: int) -> tuple:
        """Leaf indices under a cluster id, ascending."""
        n = self.n_leaves
        if not (0 <= cluster_id < 2 * n - 1):
            raise ValueError(f"cluster id {cluster_id} out of range")
        out = []
        stack = [cluster_id]
        while stack:
            cid = stack.pop()
            if cid < n:
                out.append(cid)
            else:
                step = self.merges[cid - n]
                stack.append(step.left)
                stack.append(step.right)
        return tuple(sorted(out))


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
    exact ``nn``. Every row starts stale with a bound of -inf.

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
    O(n) per merge; the time is O(n^2) plus O(n) per stale rescan.
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
    nd = np.full(n, -math.inf)
    nn = np.zeros(n, dtype=np.intp)
    stale = np.ones(n, dtype=bool)

    merges = []
    # overflow to inf is silent, as it is for Python floats
    with np.errstate(over="ignore"):
        for t in range(n - 1):
            while True:
                h = nd.min()
                if h == math.inf:
                    raise ValueError("every remaining linkage distance "
                                     "overflowed to inf")
                tied = np.flatnonzero(nd == h)
                sa = int(tied[np.argmin(ids[tied])])
                if not stale[sa]:
                    break
                row = np.where(ids > ids[sa], dist[sa], math.inf)
                tied = np.flatnonzero(row == row.min())
                nn[sa] = tied[np.argmin(ids[tied])]
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
            sizes[sb] = new_size
            nd[sa] = nd[sb] = math.inf
            stale |= (nn == sa) | (nn == sb)
            closer = (row < nd) & (ids >= 0)
            closer[sb] = False
            nd[closer] = row[closer]
            nn[closer] = sb
            stale[closer] = False

    return Dendrogram(n, linkage, tuple(merges), matrix.metric)


def cut(dendrogram: Dendrogram, k: int, matrix: DistanceMatrix) -> ClusteringResult:
    """Flat k-clustering read off the hierarchy.

    Undoes the last k-1 merges: the clusters are the connected components
    after applying only the first n-k merge steps. Labels are contiguous
    0..k-1 in order of first appearance over leaves 0..n-1; the prototype
    of each cluster is its medoid under ``matrix`` (the member minimizing
    the summed distance to its co-members, ties to the lowest index), which
    is why the matrix the dendrogram was built from is a required argument.

    The result's objective is the total member-to-medoid distance under the
    same matrix.
    """
    n = dendrogram.n_leaves
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if matrix.n != n:
        raise ValueError(
            f"matrix is for {matrix.n} curves but the dendrogram has {n} leaves"
        )

    parent = list(range(2 * n - 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t in range(n - k):
        step = dendrogram.merges[t]
        parent[find(step.left)] = n + t
        parent[find(step.right)] = n + t

    roots = {}
    assignments = []
    for i in range(n):
        r = find(i)
        if r not in roots:
            roots[r] = len(roots)
        assignments.append(roots[r])

    square = matrix.to_square()
    labels = np.asarray(assignments)
    prototypes = []
    gaps = []
    for c in range(k):
        members = np.flatnonzero(labels == c)
        medoid = medoid_of(square, members)
        prototypes.append(medoid)
        gaps.append(square[members, medoid])
    # cumsum adds strictly in order: the bits of a += loop over clusters
    # and their members
    objective = float(np.cumsum(np.concatenate(gaps))[-1])

    return ClusteringResult(
        method="ahc",
        k=k,
        assignments=tuple(assignments),
        prototypes=tuple(prototypes),
        prototype_kind=MEDOID_INDEX,
        objective=objective,
        iterations=len(dendrogram.merges),
        converged=True,
        seed=None,
        metric=dendrogram.metric,
        linkage=dendrogram.linkage,
    )


def save_dendrogram(dendrogram: Dendrogram, path) -> None:
    """CSV dump, one merge per row: step,left,right,height,new_size."""
    with open(path, "w") as f:
        f.write(f"# n_leaves={dendrogram.n_leaves}"
                f" linkage={dendrogram.linkage}"
                f" metric={dendrogram.metric.kind}"
                f" window={dendrogram.metric.window}\n")
        f.write("step,left,right,height,new_size\n")
        for t, s in enumerate(dendrogram.merges):
            f.write(f"{t},{s.left},{s.right},{repr(s.height)},{s.new_size}\n")


def load_dendrogram(path) -> Dendrogram:
    """Read a ``save_dendrogram`` file. A malformed metadata line or merge
    row raises ValueError prefixed with ``path:line:``."""
    with open(path) as f:
        meta = f.readline()
        if not meta.startswith("#"):
            raise ValueError(f"{path} is missing its metadata line")
        try:
            fields = dict(tok.split("=", 1) for tok in meta[1:].split())
            n_leaves = int(fields["n_leaves"])
            linkage = fields["linkage"]
            cfg = MetricConfig(fields["metric"], int(fields["window"]))
        except KeyError as e:
            raise ValueError(f"{path}:1: metadata line lacks {e}") from None
        except ValueError as e:
            raise ValueError(f"{path}:1: bad metadata line: {e}") from None
        header = f.readline().strip()
        if header != "step,left,right,height,new_size":
            raise ValueError(f"unexpected dendrogram header {header!r}")
        merges = []
        for lineno, line in enumerate(f, start=3):
            line = line.strip()
            if not line:
                continue
            try:
                _, left, right, height, size = line.split(",")
                merges.append(MergeStep(int(left), int(right),
                                        float(height), int(size)))
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: bad merge row {line!r}: {e}"
                                 ) from None
    return Dendrogram(n_leaves, linkage, tuple(merges), cfg)
