"""Shared fixtures and independent oracles for the test suite.

The oracles here recompute results by definition (exhaustive path
enumeration, from-scratch linkage recomputation, brute-force matching)
rather than sharing code with the library, so agreement between the two is
evidence, not tautology.
"""

from __future__ import annotations

import math
from datetime import date as Date
from itertools import permutations

import numpy as np
import pytest

from loadclust import Dataset, LoadCurve


def make_curve(values, hid="h", day=Date(2024, 1, 1), **kw) -> LoadCurve:
    return LoadCurve(tuple(float(v) for v in values), hid, day, **kw)


def embed_1d(points, normalized=False) -> Dataset:
    """Embed scalars in hour 0 of otherwise-zero curves.

    Euclidean distance between two such curves is exactly the absolute
    difference of the scalars, which lets 1-D hand calculations drive the
    full machinery.
    """
    curves = tuple(
        make_curve((float(p),) + (0.0,) * 23, hid=f"p{i}", normalized=normalized)
        for i, p in enumerate(points)
    )
    return Dataset(curves, "per-curve" if normalized else "raw")


def best_match_accuracy(assignments, truth) -> float:
    """Best accuracy over all label permutations (exact, small k only)."""
    truth = [int(t) for t in truth]
    assignments = [int(a) for a in assignments]
    k = max(max(truth), max(assignments)) + 1
    best = 0
    for perm in permutations(range(k)):
        hits = sum(1 for a, t in zip(assignments, truth) if perm[a] == t)
        best = max(best, hits)
    return best / len(truth)


# --- DTW oracle ---------------------------------------------------------------

def dtw_oracle(x, y, window: int) -> float:
    """Minimum over every banded monotone warping path, by enumeration.

    No memoization and no pruning: every admissible path from (1,1) to
    (n,m) is walked and its summed squared cost compared. Exponentially
    slower than the DP and completely independent of it.
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    n, m = len(xs), len(ys)
    w = int(window)
    best = math.inf

    def walk(i, j, acc):
        nonlocal best
        if abs(i - j) > w - 1:
            return
        d = xs[i - 1] - ys[j - 1]
        acc = acc + d * d
        if i == n and j == m:
            if acc < best:
                best = acc
            return
        if i < n:
            walk(i + 1, j, acc)
        if i < n and j < m:
            walk(i + 1, j + 1, acc)
        if j < m:
            walk(i, j + 1, acc)

    walk(1, 1, 0.0)
    return math.sqrt(best) if best < math.inf else math.inf


# --- linkage oracle -----------------------------------------------------------

def linkage_oracle(square, linkage: str):
    """Rebuild the merge sequence from scratch at every step.

    Inter-cluster distances are recomputed from the original matrix and the
    stored memberships each round, never carried forward: single and
    complete as the min/max over all cross pairs, average by recursing on
    the merge trees (splitting whichever cluster was created later, the
    definitional reading of the two-term update). Returns
    [(left, right, height, new_size), ...].
    """
    square = np.asarray(square, dtype=float)
    n = len(square)
    members = {i: (i,) for i in range(n)}
    children = {}
    live = set(range(n))

    def avg_rec(u, v):
        if u < n and v < n:
            return float(square[u][v])
        if v < n or (u >= n and u > v):
            l, r = children[u]
            return (avg_rec(l, v) + avg_rec(r, v)) / 2.0
        l, r = children[v]
        return (avg_rec(u, l) + avg_rec(u, r)) / 2.0

    def dist(p, q):
        if linkage == "single":
            return min(float(square[a][b]) for a in members[p] for b in members[q])
        if linkage == "complete":
            return max(float(square[a][b]) for a in members[p] for b in members[q])
        return avg_rec(p, q)

    merges = []
    for t in range(n - 1):
        best = math.inf
        pair = None
        ids = sorted(live)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                d = dist(a, b)
                if d < best:
                    best = d
                    pair = (a, b)
        a, b = pair
        new = n + t
        members[new] = tuple(sorted(members[a] + members[b]))
        children[new] = (a, b)
        merges.append((a, b, best, len(members[new])))
        live -= {a, b}
        live.add(new)
    return merges


def _closest_pair(live, dist):
    """Smallest-distance live pair; ties to lexicographically smallest ids.

    Pairs are scanned in ascending (a, b) order with a strict comparison,
    so the first minimum found is the lexicographically smallest tied pair.
    """
    best = math.inf
    pair = None
    ids = sorted(live)
    for a_pos, a in enumerate(ids):
        for b in ids[a_pos + 1:]:
            d = dist[(a, b)]
            if d < best:
                best = d
                pair = (a, b)
    return pair, best


def dict_build_oracle(matrix, linkage: str = "average",
                      size_weighted: bool = False):
    """The original O(n^3) ``build_dendrogram``: a dict of every live pair,
    rescanned in full before each merge.

    Kept verbatim as the bitwise reference for the library's
    nearest-neighbour-cache build: same merges, sizes and height bits.
    """
    from loadclust.ahc import LINKAGES, Dendrogram, MergeStep
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}, expected one of {LINKAGES}")
    n = matrix.n
    if n < 2:
        raise ValueError("need at least 2 curves to build a dendrogram")
    if not np.all(np.isfinite(matrix.condensed)):
        raise ValueError("distance matrix contains non-finite entries")

    dist = {}
    for i in range(n - 1):
        for j in range(i + 1, n):
            dist[(i, j)] = matrix.get(i, j)
    sizes = {i: 1 for i in range(n)}
    live = set(range(n))

    merges = []
    for t in range(n - 1):
        (a, b), h = _closest_pair(live, dist)
        new_id = n + t
        new_size = sizes[a] + sizes[b]
        merges.append(MergeStep(a, b, h, new_size))

        live.discard(a)
        live.discard(b)
        for r in live:
            da = dist.pop((min(a, r), max(a, r)))
            db = dist.pop((min(b, r), max(b, r)))
            if linkage == "single":
                d = da if da < db else db
            elif linkage == "complete":
                d = da if da > db else db
            elif size_weighted:
                d = (sizes[a] * da + sizes[b] * db) / new_size
            else:
                d = (da + db) / 2.0
            dist[(r, new_id)] = d
        del dist[(a, b)]
        sizes[new_id] = new_size
        live.add(new_id)

    return Dendrogram(n, linkage, tuple(merges), matrix.metric)


def wpgma_pair_weights(children, n, cluster_id):
    """Leaf weights 2^(-depth) inside a merge tree, summing to 1."""
    weights = {}

    def descend(cid, w):
        if cid < n:
            weights[cid] = weights.get(cid, 0.0) + w
        else:
            l, r = children[cid]
            descend(l, w / 2.0)
            descend(r, w / 2.0)

    descend(cluster_id, 1.0)
    return weights


def random_square(rng, n, integer=False):
    """Random symmetric distance matrix with a zero diagonal."""
    if integer:
        tri = rng.integers(1, 5, size=(n, n)).astype(float)
    else:
        tri = rng.uniform(0.1, 10.0, size=(n, n))
    square = np.triu(tri, 1)
    square = square + square.T
    return square


def square_to_matrix(square, metric=None):
    from loadclust import DistanceMatrix, MetricConfig
    square = np.asarray(square, dtype=float)
    n = len(square)
    vec = square[np.triu_indices(n, 1)]
    return DistanceMatrix(n, vec, metric or MetricConfig("euclidean"))


# --- canonical datasets --------------------------------------------------------

@pytest.fixture(scope="session")
def clean_dataset():
    """Zero-noise, zero-shift 3-archetype dataset: 30 exactly separable curves."""
    from loadclust import SyntheticSpec, generate_synthetic, normalize_dataset
    ds, labels = generate_synthetic(SyntheticSpec.default(3, 10), seed=0)
    return normalize_dataset(ds), labels


@pytest.fixture(scope="session")
def noisy_dataset():
    """The seed-0 noisy shifted dataset used by traces, sweeps, and goldens."""
    from loadclust import SyntheticSpec, generate_synthetic, normalize_dataset
    spec = SyntheticSpec.default(3, 10, noise_std=0.1, shift_range=2)
    ds, labels = generate_synthetic(spec, seed=0)
    return normalize_dataset(ds), labels


@pytest.fixture(scope="session")
def noisy_matrix(noisy_dataset):
    from loadclust import MetricConfig, pairwise_matrix
    dataset, _ = noisy_dataset
    return pairwise_matrix(dataset, MetricConfig("dtw", 4))
