"""Partitional baselines: K-means, K-means++, K-medoids over DTW, and a
Gaussian mixture fit by EM.

These are the methods the hierarchy is compared against. All of them are
restarted local searches, and one driver, ``_best_run``, owns the restart
rule for all three: ``restarts`` independent runs are fitted with generator
seeds ``seed, seed+1, ...`` and the run with the best final objective wins
(ties to the earliest restart); a mixture restart that degenerates is
discarded, never repaired. Every fit is deterministic for a fixed
(dataset, options), down to the bytes of the exported JSON.

The random source everywhere is ``numpy.random.default_rng``, i.e. the PCG64
generator; the seed contract is only meaningful because that algorithm is
pinned by name.

K-means and the mixture operate on the raw 24-dimensional vectors with
Euclidean geometry; K-medoids works purely from a precomputed pairwise
matrix, with the hierarchy cut's medoid rule (``distance.cluster_medoids``),
and is the partitional method that can cluster under DTW. A fit squares its
matrix and keeps a memo of the medoid of each member set it meets, for its
own restarts; a k-medoids ``sweep`` squares its matrix once and passes that
square and one memo to the fit at every k (``_kmedoids_fit``). The k-means++
runs that mixture restarts start from live with their dataset
(``_plusplus_run``); no fit writes module-level state.
"""

from __future__ import annotations

import math

import numpy as np

from .curves import check_k
from .distance import (DistanceMatrix, MetricConfig, check_matrix,
                       cluster_medoids, pairwise_matrix)
from .results import MEDOID_INDEX, VECTOR, ClusteringResult, FitOptions

INITS = ("random", "plusplus")

_COLLAPSE_WEIGHT = 1e-8


class FitError(RuntimeError):
    """A fit could not produce a usable model on any restart."""


def _checked_matrix(dataset, k: int) -> np.ndarray:
    """The dataset as an (n, 24) array, once it is known to be normalized
    and to hold at least ``k`` curves."""
    if dataset.normalization == "raw":
        raise ValueError(
            "partitional methods require a normalized dataset; "
            "call normalize_dataset first"
        )
    X = dataset.to_matrix()
    check_k(k, k, len(X))
    return X


def _best_run(method: str, options: FitOptions, single, prototype_kind: str,
              metric: MetricConfig, init: str | None = None,
              higher_is_better: bool = False) -> ClusteringResult | None:
    """The restart rule of every partitional fit, and its one result.

    Restart r is ``single(options.seed + r)``: a run's
    ``(labels, prototypes, trace, iterations, converged)``, or None for a
    discarded run. The kept run with the best final objective ``trace[-1]``
    wins, and it is the result's objective; builtin ``min`` and ``max``
    keep the first of equal keys, so ties go to the earliest restart.
    Returns None when every run was discarded.
    """
    runs = (single(options.seed + r) for r in range(options.restarts))
    best = (max if higher_is_better else min)(
        (run for run in runs if run is not None),
        key=lambda run: run[2][-1], default=None)
    if best is None:
        return None
    labels, prototypes, trace, iterations, converged = best
    return ClusteringResult(
        method=method, k=options.k, assignments=labels, prototypes=prototypes,
        prototype_kind=prototype_kind, objective=trace[-1],
        iterations=iterations, converged=converged, seed=options.seed,
        metric=metric, init=init, trace=trace)


def _repair_empty(labels: np.ndarray, k: int, point_cost: np.ndarray) -> np.ndarray:
    """Give every empty cluster one member.

    For each empty label (ascending) the point with the largest current
    cost (distance to its own center, ties to the lowest index) among the
    members of clusters that still hold at least two is reassigned to it.
    So no donation empties a cluster, and a moved point, now alone in its
    cluster, never moves twice. While a cluster is empty some other one
    holds at least two points, because k <= n.
    """
    present = np.bincount(labels, minlength=k)
    if np.all(present > 0):
        return labels
    labels = labels.copy()
    for c in np.flatnonzero(present == 0):
        donors = np.flatnonzero(present[labels] >= 2)
        donor = donors[np.argmax(point_cost[donors])]
        present[labels[donor]] -= 1
        labels[donor] = c
        present[c] = 1
    return labels


# --- K-means ----------------------------------------------------------------

def _plusplus_indices(X: np.ndarray, k: int, rng: np.random.Generator) -> list:
    """D²-weighted seeding: each next center is drawn with probability
    proportional to its squared distance to the nearest chosen center.

    Already-chosen positions have weight exactly 0 and can never be drawn
    again. If every remaining point coincides with a chosen center the
    weights all vanish; the lowest unchosen index is then taken, with no
    draw, so the fallback is deterministic.
    """
    n = len(X)
    chosen = [int(rng.integers(n))]
    d2 = np.sum((X - X[chosen[0]]) ** 2, axis=1)
    while len(chosen) < k:
        total = float(d2.sum())
        if total <= 0.0:
            taken = set(chosen)
            chosen.append(next(i for i in range(n) if i not in taken))
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, np.sum((X - X[chosen[-1]]) ** 2, axis=1))
    return chosen


def _kmeans_single(X: np.ndarray, k: int, seed: int, init: str,
                   max_iterations: int, tolerance: float):
    """One Lloyd run. Returns (labels, centroids, trace, iterations, converged).

    The (n, k) squared distances are kept from one iteration to the next,
    and only a cluster whose members changed (by assignment or by
    ``_repair_empty``) gets its mean and distance column recomputed: the
    same members give the same bits back.
    """
    n = len(X)
    rng = np.random.default_rng(seed)
    if init == "random":
        idx = rng.choice(n, size=k, replace=False)
        centroids = X[np.sort(idx)].copy()
    else:
        centroids = X[_plusplus_indices(X, k, rng)].copy()

    d2 = np.empty((n, k))
    changed = range(k)
    labels = None
    trace = []
    for iterations in range(1, max_iterations + 1):
        # assignment: nearest centroid, ties to the lowest centroid index
        for c in changed:
            diff = X - centroids[c]
            d2[:, c] = np.sum(diff * diff, axis=1)
        new_labels = np.argmin(d2, axis=1)
        new_labels = _repair_empty(new_labels, k,
                                   d2[np.arange(n), new_labels])
        # update: coordinate-wise means of the clusters that changed
        if labels is not None:
            moved = new_labels != labels
            changed = np.union1d(labels[moved], new_labels[moved])
        for c in changed:
            centroids[c] = X[new_labels == c].mean(axis=0)
        trace.append(float(np.sum((X - centroids[new_labels]) ** 2)))
        if (labels is not None and np.array_equal(new_labels, labels)
                or len(trace) >= 2 and trace[-2] - trace[-1] < tolerance):
            return new_labels, centroids, trace, iterations, True
        labels = new_labels
    return labels, centroids, trace, max_iterations, False


def _plusplus_run(runs: dict, X: np.ndarray, k: int, seed: int,
                  max_iterations: int, tolerance: float):
    """``_kmeans_single(X, k, seed, "plusplus", ...)``, run once per dataset.

    Restart r of ``kmeans(init="plusplus")`` and the initialization of
    mixture restart r are the same Lloyd run, so both take it from
    ``runs``, which the dataset of ``X`` keeps in its instance dict, beside
    its curve array. The stored arrays are read-only
    and the trace a tuple, since every caller shares them.
    """
    key = (k, seed, max_iterations, tolerance)
    run = runs.get(key)
    if run is None:
        labels, centroids, trace, iterations, converged = _kmeans_single(
            X, k, seed, "plusplus", max_iterations, tolerance)
        labels.setflags(write=False)
        centroids.setflags(write=False)
        run = runs[key] = (labels, centroids, tuple(trace), iterations,
                           converged)
    return run


def kmeans(dataset, options: FitOptions, init: str = "random") -> ClusteringResult:
    """Lloyd's K-means under Euclidean distance, best of ``restarts`` runs.

    ``init`` is either "random" (k distinct curve indices as the starting
    centroids) or "plusplus" (D²-weighted seeding). Empty clusters are
    repaired each iteration by donating the point currently farthest from
    its centroid among clusters of two or more, which keeps the
    per-iteration objective non-increasing: the donated point's cost can
    only drop once its new cluster's centroid is recomputed onto it.
    """
    if init not in INITS:
        raise ValueError(f"init must be one of {INITS}, got {init!r}")
    X = _checked_matrix(dataset, options.k)
    runs = vars(dataset).setdefault("_plusplus_runs", {})

    def single(seed):
        if init == "plusplus":
            return _plusplus_run(runs, X, options.k, seed,
                                 options.max_iterations, options.tolerance)
        return _kmeans_single(X, options.k, seed, init, options.max_iterations,
                              options.tolerance)

    return _best_run("kmeans", options, single, VECTOR,
                     MetricConfig("euclidean"), init)


# --- K-medoids --------------------------------------------------------------

def _kmedoids_single(S: np.ndarray, k: int, seed: int,
                     max_iterations: int, memo: dict):
    """One Voronoi-iteration run over a square distance matrix ``S``, its
    medoids read from and added to ``memo`` (see ``cluster_medoids``).

    A run out of iterations makes one more assignment, so that its labels
    align with its final medoid set; its objective is then numpy's
    pairwise sum in curve order, kept so that it keeps its bits."""
    n = len(S)
    points = np.arange(n)
    rng = np.random.default_rng(seed)
    medoids = np.sort(rng.choice(n, size=k, replace=False))

    trace = []
    for iterations in range(1, max_iterations + 2):
        # assignment: nearest medoid, read from the medoid rows (S is
        # symmetric bit for bit); medoids are kept sorted ascending so
        # argmin's first-occurrence rule is the lowest-medoid-index tie rule
        d = S[medoids]
        labels = np.argmin(d, axis=0)
        labels = _repair_empty(labels, k, d[labels, points])
        if iterations > max_iterations:
            trace.append(float(d[labels, points].sum()))
            return labels, medoids, trace, max_iterations, False
        # update: each cluster's medoid (unmoved or already met: from the
        # memo), sorted for the next assignment
        by_cluster, cost = cluster_medoids(S, labels, k, memo)
        trace.append(cost)
        new_medoids = np.sort(by_cluster)
        if np.array_equal(new_medoids, medoids):
            return labels, medoids, trace, iterations, True
        medoids = new_medoids


def kmedoids(dataset, options: FitOptions,
             metric: MetricConfig | None = None,
             matrix: DistanceMatrix | None = None) -> ClusteringResult:
    """Voronoi-iteration K-medoids over a precomputed distance matrix.

    The matrix is computed from ``metric`` (default: dtw, window 4) unless
    one is supplied directly, which ``check_matrix`` must accept for the
    dataset and, when ``metric`` is given, for that metric too. Either way
    clustering never touches the raw vectors again, which is what makes a
    non-Euclidean metric affordable here. Prototypes are medoid indices
    into the dataset.
    """
    n = len(_checked_matrix(dataset, options.k))
    if matrix is None:
        matrix = pairwise_matrix(dataset, metric or MetricConfig())
    else:
        check_matrix(matrix, n, metric)
    # a memo for this fit's restarts only
    return _kmedoids_fit(matrix.to_square(), matrix.metric, options, {})


def _kmedoids_fit(S: np.ndarray, metric: MetricConfig, options: FitOptions,
                  memo: dict) -> ClusteringResult:
    """The restarts of ``kmedoids`` over the square ``S`` of a matrix built
    under ``metric``. ``memo`` maps member sets to their medoids under
    ``S``, so one memo serves every k: a k-medoids ``sweep`` passes the
    same square and memo to each of its fits."""
    # label c is the cluster of medoids[c]: labels are argmin positions into
    # the sorted medoid array, so no relabeling is needed
    return _best_run(
        "kmedoids", options,
        lambda seed: _kmedoids_single(S, options.k, seed,
                                      options.max_iterations, memo),
        MEDOID_INDEX, metric)


# --- Gaussian mixture -------------------------------------------------------

def _log_densities(X, weights, means, covs, kind):
    """Per-point, per-component log(weight * N(x | mean, cov)), as a
    C-contiguous (n, k) array.

    Diagonal covariances are (k, d) variance rows, evaluated for every
    component in one (k, n, d) pass; full covariances are (k, d, d) and
    evaluated one component at a time through their Cholesky factors.
    """
    n, d = X.shape
    k = len(weights)
    log_weights = np.array([math.log(w) for w in weights])
    log2pi = math.log(2.0 * math.pi)
    if kind == "diagonal":
        quad = X[None, :, :] - means[:, None, :]
        quad *= quad
        quad /= covs[:, None, :]
        quad = np.add.reduce(quad, axis=2)
        logdet = np.add.reduce(np.log(covs), axis=1)
        out = log_weights[:, None] - 0.5 * ((d * log2pi + logdet)[:, None]
                                            + quad)
        # the row log-sum-exp must see the same contiguous rows to round
        # the same way
        return np.ascontiguousarray(out.T)
    out = np.empty((n, k))
    for c in range(k):
        L = np.linalg.cholesky(covs[c])
        y = np.linalg.solve(L, (X - means[c]).T)
        quad = np.sum(y * y, axis=0)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        out[:, c] = log_weights[c] - 0.5 * (d * log2pi + logdet + quad)
    return out


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=1)
    return m + np.log(np.sum(np.exp(a - m[:, None]), axis=1))


def _e_step(X, weights, means, covs, kind):
    """Component log densities, their row log-sum-exp and the average
    log-likelihood; None when the densities cannot be evaluated or the
    likelihood is not finite."""
    try:
        logp = _log_densities(X, weights, means, covs, kind)
    except (np.linalg.LinAlgError, ValueError):
        return None
    lse = _logsumexp_rows(logp)
    avg_ll = float(lse.mean())
    if not math.isfinite(avg_ll):
        return None
    return logp, lse, avg_ll


def _gmm_init(X, k, seed, options, runs):
    """Moment-match initial parameters from one seeded K-means++ run."""
    labels, centroids, _, _, _ = _plusplus_run(
        runs, X, k, seed, options.max_iterations, options.tolerance)
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


def _gmm_single(X, k, seed, options, runs):
    """One EM run, initialized from the k-means++ run in ``runs``. Returns
    None when the log-likelihood turns non-finite or a component collapses:
    its weight falls below ``_COLLAPSE_WEIGHT`` or it owns no argmax point.
    Otherwise the means are those of the last E-step."""
    n, d = X.shape
    kind = options.covariance_kind
    reg = options.covariance_regularizer
    weights, means, covs = _gmm_init(X, k, seed, options, runs)

    trace = []
    prev_ll = -math.inf
    for iterations in range(1, options.max_iterations + 1):
        step = _e_step(X, weights, means, covs, kind)
        if step is None:
            return None
        logp, lse, avg_ll = step
        assignments = np.argmax(logp, axis=1)  # first occurrence: lowest index wins ties
        trace.append(avg_ll)
        if ((weights < _COLLAPSE_WEIGHT).any()
                or not np.bincount(assignments, minlength=k).all()):
            return None
        if avg_ll - prev_ll < options.tolerance:
            return assignments, means, trace, iterations, True
        if iterations == options.max_iterations:
            return assignments, means, trace, iterations, False
        prev_ll = avg_ll

        # M-step
        resp = np.exp(logp - lse[:, None])
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


def gmm_em(dataset, options: FitOptions) -> ClusteringResult:
    """Gaussian mixture over the 24-dimensional curves, fit by EM.

    Initialization is moment-matched from one seeded K-means++ run per
    restart, the run ``kmeans(init="plusplus")`` makes for the same restart
    (``_plusplus_run``). The E-step works in log space with log-sum-exp stabilization;
    every M-step adds ``covariance_regularizer`` to the variances (or the
    covariance diagonal), so the likelihood ascent holds only up to that
    perturbation. A restart is discarded when its log-likelihood turns
    non-finite, a covariance is not positive definite, or a component
    collapses (its weight falls below 1e-8 or it is left without a point,
    owning no argmax point); if every restart fails, FitError is raised.

    Assignments are the argmax responsibilities; prototypes are the
    component means; the objective is the final average log-likelihood
    (higher is better, unlike the other methods).
    """
    X = _checked_matrix(dataset, options.k)
    runs = vars(dataset).setdefault("_plusplus_runs", {})
    result = _best_run(
        "gmm", options,
        lambda seed: _gmm_single(X, options.k, seed, options, runs),
        VECTOR, MetricConfig("euclidean"), "plusplus", higher_is_better=True)
    if result is None:
        raise FitError(
            f"gaussian mixture failed on all {options.restarts} restarts "
            "(non-finite log-likelihood, a covariance that is not positive "
            "definite or a component left without a point)"
        )
    return result
