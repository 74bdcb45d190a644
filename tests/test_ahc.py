import math
import re

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree

from loadclust import (Dendrogram, DistanceMatrix, MergeStep, MetricConfig,
                       build_dendrogram, cut, result_to_json)
from loadclust import distance
from loadclust.ahc import LINKAGES, cut_range
from loadclust.distance import cluster_medoids

from conftest import (dict_build_oracle, embed_1d, lazy_build_oracle,
                      linkage_oracle, random_square, square_to_matrix,
                      wpgma_pair_weights)


class TestMergeStep:
    def test_ordering_and_bounds(self):
        MergeStep(0, 1, 0.0, 2)
        with pytest.raises(ValueError, match="left < right"):
            MergeStep(1, 1, 0.0, 2)
        with pytest.raises(ValueError, match="non-negative"):
            MergeStep(-1, 1, 0.0, 2)
        with pytest.raises(ValueError, match="height"):
            MergeStep(0, 1, math.inf, 2)
        with pytest.raises(ValueError, match="height"):
            MergeStep(0, 1, -0.5, 2)
        with pytest.raises(ValueError, match="members"):
            MergeStep(0, 1, 0.0, 1)


class TestDendrogramValidation:
    def good_merges(self):
        return (MergeStep(0, 1, 1.0, 2), MergeStep(2, 3, 2.0, 2),
                MergeStep(4, 5, 3.0, 4))

    def test_valid(self):
        d = Dendrogram(4, "average", self.good_merges())
        assert d.heights().tolist() == [1.0, 2.0, 3.0]

    def test_wrong_merge_count(self):
        with pytest.raises(ValueError, match="merges"):
            Dendrogram(5, "average", self.good_merges())

    def test_double_consumption(self):
        merges = (MergeStep(0, 1, 1.0, 2), MergeStep(0, 2, 2.0, 2),
                  MergeStep(3, 4, 3.0, 4))
        with pytest.raises(ValueError, match="already-merged"):
            Dendrogram(4, "average", merges)

    def test_forward_reference(self):
        merges = (MergeStep(0, 5, 1.0, 2),) + self.good_merges()[1:]
        with pytest.raises(ValueError, match="not-yet-created"):
            Dendrogram(4, "average", merges)

    def test_decreasing_heights(self):
        merges = (MergeStep(0, 1, 2.0, 2), MergeStep(2, 3, 1.0, 2),
                  MergeStep(4, 5, 3.0, 4))
        with pytest.raises(ValueError, match="non-decreasing"):
            Dendrogram(4, "average", merges)

    def test_unknown_linkage(self):
        with pytest.raises(ValueError, match="unknown linkage"):
            Dendrogram(4, "ward", self.good_merges())

    def test_size_weighted_only_with_average(self):
        assert Dendrogram(4, "average", self.good_merges(), size_weighted=True)
        with pytest.raises(ValueError, match="size_weighted"):
            Dendrogram(4, "single", self.good_merges(), size_weighted=True)

    def test_build_records_the_rule_it_used(self, noisy_matrix):
        """A tree records whether its average rule was size-weighted, and
        every cut carries it; the other linkages ignore the flag."""
        for linkage in LINKAGES:
            for size_weighted in (False, True):
                d = build_dendrogram(noisy_matrix, linkage, size_weighted)
                used = size_weighted and linkage == "average"
                assert d.size_weighted is used
                assert cut(d, 3, noisy_matrix).size_weighted is used


class TestBuildOnHandExample:
    """Points 0, 1, 5, 7 on a line; all three linkages by hand.

    Cross distances between {0,1} and {5,7} are 5, 7, 4, 6, so the final
    merge lands at 4 (single), 7 (complete), and 5.5 (two-term average of
    4.5 and 6.5).
    """

    @pytest.fixture()
    def matrix(self):
        from loadclust import pairwise_matrix
        ds = embed_1d([0.0, 1.0, 5.0, 7.0], normalized=True)
        return pairwise_matrix(ds, MetricConfig("euclidean"))

    @pytest.mark.parametrize("linkage,root_height",
                             [("single", 4.0), ("complete", 7.0),
                              ("average", 5.5)])
    def test_heights(self, matrix, linkage, root_height):
        d = build_dendrogram(matrix, linkage)
        steps = [(s.left, s.right, s.height, s.new_size) for s in d.merges]
        assert steps[0] == (0, 1, 1.0, 2)
        assert steps[1] == (2, 3, 2.0, 2)
        assert steps[2] == (4, 5, root_height, 4)

    def test_size_weighted_differs(self):
        # after merging {0,1} the weighted average to 5 is still 4.5 (equal
        # sizes), but merging {0,1,5} with {7} weights the big side 3x
        from loadclust import pairwise_matrix
        ds = embed_1d([0.0, 1.0, 5.0, 13.0], normalized=True)
        m = pairwise_matrix(ds, MetricConfig("euclidean"))
        plain = build_dendrogram(m, "average")
        weighted = build_dendrogram(m, "average", size_weighted=True)
        assert plain.heights()[-1] != weighted.heights()[-1]


class TestBuildAgainstOracle:
    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_random_matrices_match_exactly(self, linkage):
        rng = np.random.default_rng(100)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            square = random_square(rng, n)
            d = build_dendrogram(square_to_matrix(square), linkage)
            expect = linkage_oracle(square, linkage)
            got = [(s.left, s.right, s.height, s.new_size) for s in d.merges]
            assert got == expect  # ids, sizes, and heights, bitwise

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_tie_heavy_matrices_are_deterministic(self, linkage):
        rng = np.random.default_rng(200)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            square = random_square(rng, n, integer=True)
            m = square_to_matrix(square)
            d1 = build_dendrogram(m, linkage)
            d2 = build_dendrogram(m, linkage)
            assert d1.merges == d2.merges
            expect = linkage_oracle(square, linkage)
            got = [(s.left, s.right, s.height, s.new_size) for s in d1.merges]
            assert got == expect

    def test_average_height_equals_depth_weighted_pair_sum(self):
        # every average-linkage height is the 2^-depth weighted sum of the
        # original cross-pair distances, an independent closed form
        rng = np.random.default_rng(300)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            square = random_square(rng, n)
            d = build_dendrogram(square_to_matrix(square), "average")
            children = {n + t: (s.left, s.right)
                        for t, s in enumerate(d.merges)}
            for t, s in enumerate(d.merges):
                wl = wpgma_pair_weights(children, n, s.left)
                wr = wpgma_pair_weights(children, n, s.right)
                expect = sum(wa * wb * square[a][b]
                             for a, wa in wl.items()
                             for b, wb in wr.items())
                assert s.height == pytest.approx(expect, abs=1e-9)

    def test_single_linkage_heights_are_the_mst_edges(self):
        rng = np.random.default_rng(400)
        for _ in range(10):
            n = int(rng.integers(4, 12))
            square = random_square(rng, n)
            d = build_dendrogram(square_to_matrix(square), "single")
            mst = minimum_spanning_tree(square).toarray()
            mst_edges = sorted(mst[mst > 0].tolist())
            assert np.allclose(sorted(d.heights().tolist()), mst_edges,
                               atol=1e-12)


class TestAgainstScipy:
    """Cross-check both average conventions against scipy's linkage.

    The two-term default is scipy's 'weighted' (WPGMA); size_weighted is
    scipy's 'average' (UPGMA). Random float matrices avoid ties, where
    implementations may legitimately differ in merge order.
    """

    def scipy_heights(self, square, method):
        n = len(square)
        cond = square[np.triu_indices(n, 1)]
        return sch.linkage(cond, method=method)[:, 2]

    @pytest.mark.parametrize("linkage,scipy_method", [
        ("single", "single"), ("complete", "complete"),
        ("average", "weighted"),
    ])
    def test_heights_match(self, linkage, scipy_method):
        rng = np.random.default_rng(500)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            square = random_square(rng, n)
            d = build_dendrogram(square_to_matrix(square), linkage)
            assert np.allclose(d.heights(),
                               self.scipy_heights(square, scipy_method),
                               atol=1e-9)

    def test_size_weighted_matches_upgma(self):
        rng = np.random.default_rng(600)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            square = random_square(rng, n)
            d = build_dendrogram(square_to_matrix(square), "average",
                                 size_weighted=True)
            assert np.allclose(d.heights(),
                               self.scipy_heights(square, "average"),
                               atol=1e-9)

    def test_cut_partitions_match_fcluster(self):
        rng = np.random.default_rng(700)
        for _ in range(8):
            n = int(rng.integers(5, 10))
            square = random_square(rng, n)
            m = square_to_matrix(square)
            d = build_dendrogram(m, "complete")
            Z = sch.linkage(square[np.triu_indices(n, 1)], method="complete")
            for k in (2, 3):
                ours = cut(d, k, m).assignments
                theirs = sch.fcluster(Z, k, criterion="maxclust")
                # same partition, labels possibly permuted
                pairs = {(a, b) for a in range(n) for b in range(n)
                         if ours[a] == ours[b]}
                pairs2 = {(a, b) for a in range(n) for b in range(n)
                          if theirs[a] == theirs[b]}
                assert pairs == pairs2


class TestBuildValidation:
    def test_rejects_non_finite(self):
        from loadclust import DistanceMatrix
        m = DistanceMatrix(3, np.array([1.0, math.inf, 2.0]),
                           MetricConfig("dtw", 1))
        with pytest.raises(ValueError, match="non-finite"):
            build_dendrogram(m)

    def test_rejects_tiny_and_unknown(self):
        from loadclust import DistanceMatrix
        m = DistanceMatrix(1, np.zeros(0))
        with pytest.raises(ValueError, match="at least 2"):
            build_dendrogram(m)
        m2 = square_to_matrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="unknown linkage"):
            build_dendrogram(m2, "ward")

    def test_two_leaves(self):
        m = square_to_matrix([[0, 3], [3, 0]])
        d = build_dendrogram(m, "single")
        assert len(d.merges) == 1
        assert d.merges[0] == MergeStep(0, 1, 3.0, 2)

    def test_heights_always_monotone(self):
        rng = np.random.default_rng(800)
        for linkage in ("single", "complete", "average"):
            square = random_square(rng, 12)
            d = build_dendrogram(square_to_matrix(square), linkage)
            h = d.heights()
            assert np.all(np.diff(h) >= 0)


class TestCut:
    @pytest.fixture()
    def built(self):
        from loadclust import pairwise_matrix
        ds = embed_1d([0.0, 1.0, 5.0, 7.0, 20.0], normalized=True)
        m = pairwise_matrix(ds, MetricConfig("euclidean"))
        return m, build_dendrogram(m, "average")

    def test_extremes(self, built):
        m, d = built
        assert cut(d, 1, m).assignments == (0, 0, 0, 0, 0)
        assert cut(d, 5, m).assignments == (0, 1, 2, 3, 4)
        assert cut(d, 5, m).objective == 0.0

    def test_k3_partition_and_prototypes(self, built):
        m, d = built
        r = cut(d, 3, m)
        assert r.assignments == (0, 0, 1, 1, 2)
        assert r.prototype_kind == "medoid-index"
        # two-point clusters take the lower index as medoid
        assert r.prototypes == (0, 2, 4)
        assert r.objective == pytest.approx(1.0 + 2.0 + 0.0)
        assert r.method == "ahc" and r.converged and r.seed is None
        assert r.linkage == "average" and r.metric.kind == "euclidean"
        assert r.iterations == len(d.merges)

    def test_labels_follow_first_appearance(self, built):
        m, d = built
        for k in (2, 3, 4):
            r = cut(d, k, m)
            seen = []
            for a in r.assignments:
                if a not in seen:
                    seen.append(a)
            assert seen == sorted(seen)

    def test_cuts_are_nested(self):
        rng = np.random.default_rng(900)
        square = random_square(rng, 10)
        m = square_to_matrix(square)
        d = build_dendrogram(m, "average")
        for k in range(2, 10):
            coarse = cut(d, k, m).assignments
            fine = cut(d, k + 1, m).assignments
            # each fine cluster sits entirely inside one coarse cluster
            owner = {}
            for i in range(10):
                if fine[i] in owner:
                    assert owner[fine[i]] == coarse[i]
                else:
                    owner[fine[i]] = coarse[i]

    def test_bad_k_and_matrix_mismatch(self, built):
        m, d = built
        for k in (0, 6):
            with pytest.raises(ValueError,
                               match=f"^k must satisfy 1 <= k <= 5, got {k}$"):
                cut(d, k, m)
        small = square_to_matrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError,
                           match="^matrix is for 2 curves, dataset has 5$"):
            cut(d, 2, small)

    def test_matrix_of_another_metric_rejected(self, built):
        m, d = built
        dtw_tree = build_dendrogram(DistanceMatrix(m.n, m.condensed), "average")
        assert dtw_tree.merges == d.merges
        # the whole message, each metric by its label
        dtw_refusal = (r"^matrix was built with euclidean, run asks for "
                       r"dtw\(w=4\)$")
        with pytest.raises(ValueError, match=dtw_refusal):
            cut(dtw_tree, 2, m)
        with pytest.raises(ValueError, match=dtw_refusal):
            cut_range(dtw_tree, 2, 4, m)
        with pytest.raises(ValueError, match="^matrix was built with "
                                             "manhattan, run asks for "
                                             "euclidean$"):
            cut(d, 2, square_to_matrix(m.to_square(),
                                       MetricConfig("manhattan")))

    def test_window_of_a_non_dtw_metric_is_ignored(self, built):
        m, d = built
        other_window = square_to_matrix(m.to_square(),
                                        MetricConfig("euclidean", 1))
        assert cut_range(d, 2, 4, other_window) == cut_range(d, 2, 4, m)

    def test_bad_range(self, built):
        m, d = built
        for lo, hi in [(0, 3), (2, 6), (4, 3)]:
            with pytest.raises(ValueError, match=re.escape(
                    f"k must satisfy 1 <= k_min <= k_max <= 5, got [{lo}, {hi}]")):
                cut_range(d, lo, hi, m)


def medoid_oracle(matrix, members):
    """The Python-loop medoid: summed get() distances, strict < keeps the
    lowest index on ties."""
    idx = sorted(set(members))
    best_i, best_sum = idx[0], math.inf
    for i in idx:
        s = 0.0
        for j in idx:
            if i != j:
                s += matrix.get(i, j)
        if s < best_sum:
            best_sum, best_i = s, i
    return best_i


def cut_oracle(assignments, k, matrix):
    """Prototypes and objective of a cut by per-member loops."""
    prototypes, objective = [], 0.0
    for c in range(k):
        members = [i for i, a in enumerate(assignments) if a == c]
        medoid = medoid_oracle(matrix, members)
        prototypes.append(medoid)
        for i in members:
            objective += matrix.get(i, medoid)
    return tuple(prototypes), objective


def absorbing_square(rng, n):
    """Symmetric matrix mixing 2**53 with small integers: whether a small
    addend is absorbed depends on the summation order, so a sum computed in
    any other order than the oracle's shows up as a different medoid or
    objective."""
    tri = rng.choice([2.0 ** 53, 1.0, 2.0, 3.0], size=(n, n),
                     p=[0.1, 0.3, 0.3, 0.3])
    square = np.triu(tri, 1)
    return square + square.T


class TestCutAgainstOracle:
    """Medoids and objectives must match the per-member loops bit for bit."""

    def check(self, matrix):
        for linkage in LINKAGES:
            d = build_dendrogram(matrix, linkage)
            for k in range(1, matrix.n + 1):
                r = cut(d, k, matrix)
                protos, objective = cut_oracle(r.assignments, k, matrix)
                assert r.prototypes == protos
                assert r.objective.hex() == objective.hex()

    def test_tie_heavy_matrices(self):
        rng = np.random.default_rng(200)
        for _ in range(15):
            self.check(square_to_matrix(random_square(rng, int(rng.integers(3, 12)),
                                                      integer=True)))

    def test_random_matrices(self):
        rng = np.random.default_rng(100)
        for _ in range(15):
            self.check(square_to_matrix(random_square(rng, int(rng.integers(3, 12)))))

    def check_labels(self, matrix, labels):
        k = max(labels) + 1
        medoids, objective = cluster_medoids(matrix.to_square(), labels, k, {})
        protos, expect = cut_oracle(labels, k, matrix)
        assert tuple(medoids) == protos
        assert objective.hex() == expect.hex()

    def check_subset(self, matrix, members):
        """``members`` as cluster 0, every other index as cluster 1."""
        self.check_labels(matrix, [0 if i in members else 1
                                   for i in range(matrix.n)])

    def test_order_sensitive_matrices(self):
        rng = np.random.default_rng(0)
        for t in range(400):
            m = square_to_matrix(absorbing_square(rng, int(rng.integers(9, 20))))
            self.check_labels(m, [0] * m.n)
            if t % 40 == 0:
                self.check(m)

    def test_noisy_matrix(self, noisy_matrix):
        self.check(noisy_matrix)

    def test_distance_matrix_medoid(self, noisy_matrix):
        rng = np.random.default_rng(7)
        for _ in range(100):
            members = rng.choice(noisy_matrix.n, size=int(rng.integers(1, 30)),
                                 replace=False).tolist()
            self.check_subset(noisy_matrix, members)
        tied = square_to_matrix(random_square(rng, 9, integer=True))
        for size in range(1, 10):
            self.check_subset(tied, range(size))

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_member_rows_summed_in_blocks(self, monkeypatch, noisy_matrix,
                                          rows):
        """With the gather of ``distance.medoid`` cut to a few rows, a
        cluster's sums are carried across rows: every cut keeps the medoids
        and objective bits of the unpatched run and of the oracle, on float
        noise, integer ties and order-sensitive 2**53 entries."""
        rng = np.random.default_rng(3)
        matrices = [noisy_matrix,
                    square_to_matrix(random_square(rng, 40, integer=True)),
                    *(square_to_matrix(absorbing_square(rng, 30))
                      for _ in range(30))]
        for m in matrices:
            trees = [build_dendrogram(m, linkage) for linkage in LINKAGES]
            want = [cut_range(d, 1, m.n, m) for d in trees]
            with monkeypatch.context() as patch:
                patch.setattr(distance, "_SCRATCH_BYTES", 8 * rows * m.n)
                got = [cut_range(d, 1, m.n, m) for d in trees]
            for r, e in zip(sum(got, []), sum(want, [])):
                protos, objective = cut_oracle(r.assignments, r.k, m)
                assert r.prototypes == e.prototypes == protos
                assert r.objective.hex() == e.objective.hex() == objective.hex()


BUILD_CONFIGS = [("single", False), ("complete", False), ("average", False),
                 ("average", True)]


def merge_bits(d):
    return [(s.left, s.right, s.height.hex(), s.new_size) for s in d.merges]


def symmetric(tri):
    square = np.triu(np.asarray(tri, dtype=float), 1)
    return square + square.T


class TestBuildAgainstDictOracle:
    """The nearest-neighbour-cache build must reproduce the original dict
    scan bit for bit (merge ids, sizes, height bits) under all four
    configurations, size_weighted included."""

    def check(self, matrix):
        for linkage, size_weighted in BUILD_CONFIGS:
            got = build_dendrogram(matrix, linkage, size_weighted)
            expect = dict_build_oracle(matrix, linkage, size_weighted)
            assert merge_bits(got) == merge_bits(expect), (linkage, size_weighted)

    @pytest.mark.parametrize("low,high", [(1, 4), (1, 2), (1, 1)])
    def test_tie_heavy_integer_matrices(self, low, high):
        rng = np.random.default_rng(900 + high)
        for n in range(2, 41):
            tri = rng.integers(low, high + 1, size=(n, n))
            self.check(square_to_matrix(symmetric(tri)))

    def test_float_matrices(self):
        rng = np.random.default_rng(901)
        for n in (3, 17, 60, 150, 300):
            self.check(square_to_matrix(random_square(rng, n)))

    def test_chain_matrices(self):
        # points on a line: single linkage's nearest partners are merged
        # away all the time, so most selections go through a stale rescan
        rng = np.random.default_rng(902)
        for n in (5, 40, 120):
            ramp = np.arange(n, dtype=float)
            for points in (ramp, ramp[::-1], rng.permutation(ramp),
                           np.cumsum(rng.uniform(0.1, 1.0, n))):
                self.check(square_to_matrix(np.abs(points[:, None]
                                                   - points[None, :])))

    def test_noisy_matrix(self, noisy_matrix):
        self.check(noisy_matrix)

    def test_overflow_to_inf(self):
        # average heights of huge distances overflow to inf; the dict scan
        # never merges at inf, and when only inf pairs remain the build
        # refuses instead of merging at inf
        rng = np.random.default_rng(903)
        outcomes = set()
        for _ in range(40):
            n = int(rng.integers(3, 12))
            tri = rng.choice([1.0, 2.0, 1.7e308], size=(n, n), p=[0.3, 0.3, 0.4])
            m = square_to_matrix(symmetric(tri))
            for linkage, size_weighted in BUILD_CONFIGS:
                try:
                    expect = merge_bits(dict_build_oracle(m, linkage,
                                                          size_weighted))
                except TypeError:  # the scan found no pair below inf
                    with pytest.raises(ValueError, match="overflowed"):
                        build_dendrogram(m, linkage, size_weighted)
                    outcomes.add("refused")
                    continue
                got = build_dendrogram(m, linkage, size_weighted)
                assert merge_bits(got) == expect
                outcomes.add("built")
        assert outcomes == {"built", "refused"}

    @given(st.integers(min_value=2, max_value=10).flatmap(
        lambda n: st.lists(st.integers(min_value=0, max_value=3),
                           min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2)))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_small_integer_matrices(self, condensed):
        n = int(round((1 + math.sqrt(1 + 8 * len(condensed))) / 2))
        self.check(DistanceMatrix(n, np.asarray(condensed, dtype=float)))


class TestCutRange:
    """One pass over all k must give every k the bytes of a fresh cut."""

    def check(self, matrix, rng):
        n = matrix.n
        for linkage, size_weighted in BUILD_CONFIGS:
            d = build_dendrogram(matrix, linkage, size_weighted)
            fresh = [result_to_json(cut(d, k, matrix)) for k in range(1, n + 1)]
            assert [result_to_json(r) for r in cut_range(d, 1, n, matrix)] == fresh
            lo, hi = sorted(int(k) for k in rng.integers(1, n + 1, size=2))
            assert ([result_to_json(r) for r in cut_range(d, lo, hi, matrix)]
                    == fresh[lo - 1:hi])

    def test_order_sensitive_matrices(self):
        rng = np.random.default_rng(1000)
        for _ in range(30):
            self.check(square_to_matrix(absorbing_square(rng, int(rng.integers(2, 20)))),
                       rng)

    def test_tie_heavy_matrices(self):
        rng = np.random.default_rng(1001)
        for _ in range(20):
            self.check(square_to_matrix(random_square(rng, int(rng.integers(2, 16)),
                                                      integer=True)), rng)

    def test_random_matrices(self):
        rng = np.random.default_rng(1002)
        for _ in range(20):
            self.check(square_to_matrix(random_square(rng, int(rng.integers(2, 16)))),
                       rng)

    def test_noisy_matrix(self, noisy_matrix):
        self.check(noisy_matrix, np.random.default_rng(1003))


class TestCutRangeMedoidCount:
    """Going from k to k+1 splits one cluster in two, so a range holds
    2 * k_max - k_min distinct member sets, and each is summed once."""

    def test_each_member_set_once(self, noisy_matrix, monkeypatch):
        import loadclust.distance as distance
        medoid, calls = distance.medoid, []

        def counted(square, members):
            calls.append(members.tobytes())
            return medoid(square, members)

        monkeypatch.setattr(distance, "medoid", counted)
        for linkage, size_weighted in BUILD_CONFIGS:
            d = build_dendrogram(noisy_matrix, linkage, size_weighted)
            for k_min, k_max in ((2, 8), (1, 1), (3, 3), (1, noisy_matrix.n)):
                calls.clear()
                cut_range(d, k_min, k_max, noisy_matrix)
                assert len(calls) == 2 * k_max - k_min
                assert len(set(calls)) == len(calls)


class TestBuildAgainstLazyStart:
    """The eager nearest-neighbour start must give the merges and height
    bits of the lazy start it replaced, under all four configurations."""

    @given(st.integers(min_value=2, max_value=40).flatmap(
        lambda n: st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0]),
                           min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2)))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_tie_heavy_integer_matrices(self, condensed):
        n = int(round((1 + math.sqrt(1 + 8 * len(condensed))) / 2))
        matrix = DistanceMatrix(n, np.asarray(condensed))
        for linkage, size_weighted in BUILD_CONFIGS:
            got = build_dendrogram(matrix, linkage, size_weighted)
            expect = lazy_build_oracle(matrix, linkage, size_weighted)
            assert merge_bits(got) == merge_bits(expect), (linkage, size_weighted)

    def test_start_spans_several_row_blocks(self, monkeypatch):
        """The start's blocks take 9 bytes a cell of the scratch budget;
        cut to 1, 3 and 7 rows, the start still gives the lazy merges."""
        rng = np.random.default_rng(1004)
        for n in (2, 7, 8, 30, 61):
            matrix = square_to_matrix(random_square(rng, n, integer=True))
            for rows in (1, 3, 7):
                monkeypatch.setattr(distance, "_SCRATCH_BYTES", 9 * rows * n)
                assert distance._block_rows(n, 9) == rows
                for linkage, size_weighted in BUILD_CONFIGS:
                    assert (merge_bits(build_dendrogram(matrix, linkage,
                                                        size_weighted))
                            == merge_bits(lazy_build_oracle(matrix, linkage,
                                                            size_weighted)))


def test_build_holds_its_square_and_the_scratch_budget():
    """Beside its n x n working square a build holds O(n) state and its
    start's blocks, which ``distance._SCRATCH_BYTES`` bounds: at n=1600 a
    fixed 256-row block took 7.0 MB."""
    import tracemalloc
    n = 1600
    m = DistanceMatrix(n, np.random.default_rng(1005).random(n * (n - 1) // 2))
    tracemalloc.start()
    try:
        build_dendrogram(m, "average")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - 8 * n * n <= distance._SCRATCH_BYTES + 256 * n


def test_matrix_checks_hold_their_masks_to_the_scratch_budget():
    """Checking a condensed vector, whole, took an n²/2-byte boolean mask:
    4.9 MiB at n=3200. The non-negativity check of a ``DistanceMatrix`` and
    the build's finiteness check each test blocks of rows instead."""
    import tracemalloc
    n = 3200
    vec = np.random.default_rng(1006).random(n * (n - 1) // 2)
    vec[-1] = math.inf  # the build refuses it only once the last block is read
    tracemalloc.start()
    try:
        m = DistanceMatrix(n, vec)
        _, held = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with pytest.raises(ValueError, match="non-finite"):
            build_dendrogram(m, "single")
        _, checked = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= distance._SCRATCH_BYTES
    assert checked <= distance._SCRATCH_BYTES
