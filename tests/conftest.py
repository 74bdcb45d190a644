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
from loadclust.curves import HOURS_PER_DAY


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


def lazy_build_oracle(matrix, linkage: str = "average",
                      size_weighted: bool = False):
    """The nearest-neighbour-cache ``build_dendrogram`` with a lazy start:
    every row starts stale with a bound of -inf and is rescanned one at a
    time before the first merge.

    Kept verbatim as the bitwise reference for the library's build, whose
    eager start sets every row's nearest partner in one pass: same merges,
    sizes and height bits.
    """
    from loadclust.ahc import LINKAGES, Dendrogram, MergeStep
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


def kmeans_single_oracle(X, k, seed, init, max_iterations, tolerance):
    """The original ``_kmeans_single``: every centroid and every distance
    column recomputed on every Lloyd iteration.

    Kept verbatim as the bitwise reference for the library's run, which
    recomputes only the clusters whose members moved: labels, centroid
    bytes, trace bits, iteration count and convergence flag must be equal.
    """
    from loadclust.partitional import _plusplus_indices, _repair_empty
    n = len(X)
    rng = np.random.default_rng(seed)
    if init == "random":
        idx = rng.choice(n, size=k, replace=False)
        centroids = X[np.sort(idx)].copy()
    else:
        centroids = X[_plusplus_indices(X, k, rng)].copy()

    labels = None
    trace = []
    converged = False
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        # assignment: nearest centroid, ties to the lowest centroid index
        d2 = np.sum((X[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        new_labels = _repair_empty(new_labels, k,
                                   d2[np.arange(n), new_labels])
        # update: coordinate-wise means
        for c in range(k):
            centroids[c] = X[new_labels == c].mean(axis=0)
        objective = float(np.sum((X - centroids[new_labels]) ** 2))
        trace.append(objective)

        if labels is not None and np.array_equal(new_labels, labels):
            converged = True
            labels = new_labels
            break
        if len(trace) >= 2 and trace[-2] - trace[-1] < tolerance:
            converged = True
            labels = new_labels
            break
        labels = new_labels
    return labels, centroids, trace, iterations, converged


def log_densities_oracle(X, weights, means, covs, kind):
    """The original ``_log_densities``, one component at a time.

    Kept verbatim as the bitwise reference for the library's diagonal
    branch, which evaluates every component in one pass.
    """
    n, d = X.shape
    k = len(weights)
    out = np.empty((n, k))
    log2pi = math.log(2.0 * math.pi)
    for c in range(k):
        diff = X - means[c]
        if kind == "diagonal":
            var = covs[c]
            quad = np.sum(diff * diff / var, axis=1)
            logdet = float(np.sum(np.log(var)))
        else:
            L = np.linalg.cholesky(covs[c])
            y = np.linalg.solve(L, diff.T)
            quad = np.sum(y * y, axis=0)
            logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        out[:, c] = math.log(weights[c]) - 0.5 * (d * log2pi + logdet + quad)
    return out


def _gmm_init_oracle(X, k, seed, options):
    """The original ``_gmm_init``, on a fresh oracle Lloyd run."""
    labels, centroids, _, _, _ = kmeans_single_oracle(
        X, k, seed, "plusplus", options.max_iterations, options.tolerance)
    n, d = X.shape
    reg = options.covariance_regularizer
    weights = np.bincount(labels, minlength=k).astype(float) / n
    means = centroids.copy()
    if options.covariance_kind == "diagonal":
        covs = np.empty((k, d))
        for c in range(k):
            covs[c] = X[labels == c].var(axis=0) + reg
    else:
        covs = np.empty((k, d, d))
        for c in range(k):
            diff = X[labels == c] - means[c]
            covs[c] = (diff.T @ diff) / len(diff) + reg * np.eye(d)
    return weights, means, covs


def _reinit_collapsed(X, weights, means, covs, kind, reg, collapsed, lse):
    """Respawn collapsed components on the lowest-density points."""
    order = np.argsort(lse, kind="stable")
    global_var = X.var(axis=0) + reg
    for pos, c in enumerate(sorted(collapsed)):
        point = X[int(order[pos % len(order)])]
        means[c] = point
        if kind == "diagonal":
            covs[c] = global_var.copy()
        else:
            covs[c] = np.diag(global_var)
        weights[c] = 1.0 / len(weights)
    weights /= weights.sum()
    return weights, means, covs


def gmm_single_oracle(X, k, seed, options):
    """The original ``_gmm_single``, with the E-step written out twice and
    the respawn of collapsed components the library has since dropped.

    Kept verbatim as the bitwise reference for the library's EM run: on a
    run that never collapses, or that collapses and ends without a usable
    model, the library must give the same None-or-not outcome, trace bits,
    iteration count, convergence flag and assignments. Where a respawned
    run would still end usable, the library discards it instead.
    """
    from loadclust.partitional import _COLLAPSE_WEIGHT, _logsumexp_rows
    n, d = X.shape
    kind = options.covariance_kind
    reg = options.covariance_regularizer
    try:
        weights, means, covs = _gmm_init_oracle(X, k, seed, options)
    except np.linalg.LinAlgError:
        return None

    trace = []
    prev_ll = -math.inf
    converged = False
    reinits = 0
    iterations = 0
    final = None
    for _ in range(options.max_iterations):
        iterations += 1
        try:
            logp = log_densities_oracle(X, weights, means, covs, kind)
        except (np.linalg.LinAlgError, ValueError):
            return None
        lse = _logsumexp_rows(logp)
        avg_ll = float(lse.mean())
        if not math.isfinite(avg_ll):
            return None
        resp = np.exp(logp - lse[:, None])
        assignments = np.argmax(logp, axis=1)  # first occurrence: lowest index wins ties
        trace.append(avg_ll)
        final = (weights.copy(), means.copy(), covs.copy(), assignments, avg_ll)

        empty = set(range(k)) - set(int(a) for a in assignments)
        collapsed = set(np.flatnonzero(weights < _COLLAPSE_WEIGHT)) | empty
        if collapsed:
            weights, means, covs = _reinit_collapsed(
                X, weights, means, covs, kind, reg, collapsed, lse)
            reinits += 1
            if reinits > 1:
                # a second collapse means this model will not settle
                converged = False
                try:
                    logp = log_densities_oracle(X, weights, means, covs, kind)
                except (np.linalg.LinAlgError, ValueError):
                    return None
                lse = _logsumexp_rows(logp)
                avg_ll = float(lse.mean())
                if not math.isfinite(avg_ll):
                    return None
                assignments = np.argmax(logp, axis=1)
                if set(int(a) for a in assignments) != set(range(k)):
                    return None
                trace.append(avg_ll)
                final = (weights, means, covs, assignments, avg_ll)
                break
            prev_ll = -math.inf
            continue

        if avg_ll - prev_ll < options.tolerance and prev_ll > -math.inf:
            converged = True
            break
        prev_ll = avg_ll

        # M-step
        nk = resp.sum(axis=0)
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        if kind == "diagonal":
            covs = np.empty((k, d))
            for c in range(k):
                diff = X - means[c]
                covs[c] = (resp[:, c] @ (diff * diff)) / nk[c] + reg
        else:
            covs = np.empty((k, d, d))
            for c in range(k):
                diff = X - means[c]
                covs[c] = (diff.T * resp[:, c]) @ diff / nk[c] + reg * np.eye(d)

    weights, means, covs, assignments, avg_ll = final
    if set(int(a) for a in assignments) != set(range(k)):
        # the iteration budget ran out mid-collapse; no usable model
        return None
    return assignments, means, trace, iterations, converged, avg_ll


def kmedoids_single_oracle(S, k, seed, max_iterations):
    """The original ``_kmedoids_single``, with its own medoid loop of
    pairwise row sums over the ``np.ix_`` member block.

    Kept verbatim as the reference for the library's run, which takes its
    medoids from ``distance.cluster_medoids``: labels, medoids, iteration
    count and convergence flag must be equal, and the trace equal up to the
    rounding of the two summation orders.
    """
    from loadclust.partitional import _repair_empty
    n = len(S)
    rng = np.random.default_rng(seed)
    medoids = np.sort(rng.choice(n, size=k, replace=False))

    trace = []
    converged = False
    iterations = 0
    labels = None
    for _ in range(max_iterations):
        iterations += 1
        # assignment: nearest medoid; medoids are kept sorted ascending so
        # argmin's first-occurrence rule is the lowest-medoid-index tie rule
        d = S[:, medoids]
        labels = np.argmin(d, axis=1)
        labels = _repair_empty(labels, k, d[np.arange(n), labels])
        # update: each cluster's medoid is the member with the smallest
        # summed in-cluster distance, ties to the lowest index
        by_cluster = np.empty(k, dtype=int)
        cost = 0.0
        for c in range(k):
            members = np.flatnonzero(labels == c)
            within = S[np.ix_(members, members)].sum(axis=1)
            best_pos = int(np.argmin(within))
            by_cluster[c] = members[best_pos]
            cost += float(within[best_pos])
        trace.append(cost)
        # re-sorted for the next assignment round, so the argmin tie rule
        # stays "lowest medoid index"
        new_medoids = np.sort(by_cluster)
        if np.array_equal(new_medoids, medoids):
            converged = True
            break
        medoids = new_medoids

    if not converged:
        # align labels with the final medoid set
        medoids = new_medoids
        d = S[:, medoids]
        labels = np.argmin(d, axis=1)
        labels = _repair_empty(labels, k, d[np.arange(n), labels])
        trace.append(float(d[np.arange(n), labels].sum()))
    return labels, medoids, trace, iterations, converged


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


# --- normalization oracles ----------------------------------------------------

def z_normalize_oracle(curve: LoadCurve, epsilon: float = 1e-12) -> LoadCurve:
    """Per-curve z-normalization as first written, one curve at a time with
    Python-float mean and std, kept verbatim as the reference for
    ``z_normalize`` and per-curve ``normalize_dataset``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if curve.normalized:
        raise ValueError("curve is already normalized")
    vals = np.asarray(curve.values, dtype=float)
    mean = float(vals.mean())
    std = float(vals.std())  # ddof=0, population std
    if std < epsilon:
        zeros = (0.0,) * HOURS_PER_DAY
        return LoadCurve(zeros, curve.household_id, curve.date,
                         normalized=True, degenerate=True)
    z = (vals - mean) / std
    return LoadCurve(tuple(float(v) for v in z), curve.household_id, curve.date,
                     normalized=True, degenerate=False)


def per_hour_oracle(dataset: Dataset, epsilon: float = 1e-12) -> Dataset:
    """Per-hour normalization as first written in ``normalize_dataset``,
    kept verbatim as the reference for that mode."""
    m = dataset.to_matrix()
    mean = m.mean(axis=0)
    std = m.std(axis=0)  # population std per hour column
    flat = std < epsilon
    safe = np.where(flat, 1.0, std)
    z = (m - mean) / safe
    z[:, flat] = 0.0
    curves = tuple(
        LoadCurve(tuple(float(v) for v in row), c.household_id, c.date,
                  normalized=True, degenerate=False)
        for row, c in zip(z, dataset)
    )
    return Dataset(curves, "per-hour")


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
