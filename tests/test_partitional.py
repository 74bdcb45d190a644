import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadclust import (Dataset, FitError, FitOptions, MethodSpec,
                       MetricConfig, SyntheticSpec, generate_synthetic, gmm_em,
                       kmeans, kmedoids, normalize_dataset, pairwise_matrix,
                       sweep)
from loadclust import partitional
from loadclust.partitional import (INITS, _e_step, _gmm_single,
                                   _kmeans_single, _kmedoids_single,
                                   _log_densities, _logsumexp_rows,
                                   _plusplus_indices, _repair_empty)
from loadclust.results import result_to_json

from conftest import (best_match_accuracy, embed_1d, gmm_single_oracle,
                      kmeans_single_oracle, kmedoids_single_oracle,
                      log_densities_oracle, make_curve, random_square,
                      square_to_matrix)


@pytest.fixture(scope="module")
def harder_dataset():
    """5 archetypes under heavy noise: EM needs several steps to settle."""
    spec = SyntheticSpec.default(5, 12, noise_std=0.3, shift_range=2)
    ds, labels = generate_synthetic(spec, seed=0)
    return normalize_dataset(ds), labels


def one_plus_three_copies():
    """One curve plus three copies of another: whichever three curves the
    random init takes, k=3 leaves a cluster empty at first."""
    a, b = np.random.default_rng(4).normal(size=(2, 24))
    return normalize_dataset(Dataset(tuple(
        make_curve(v, hid=f"h{i}") for i, v in enumerate([a, b, b, b]))))


class TestRepairEmpty:
    def test_no_op_when_full(self):
        labels = np.array([0, 1, 2])
        out = _repair_empty(labels, 3, np.array([1.0, 1.0, 1.0]))
        assert out is labels

    def test_donates_farthest_point(self):
        labels = np.array([0, 0, 1, 1])
        cost = np.array([5.0, 1.0, 1.0, 0.5])
        out = _repair_empty(labels, 3, cost)
        assert out.tolist() == [2, 0, 1, 1]
        assert labels.tolist() == [0, 0, 1, 1]  # input untouched

    def test_two_empties_take_distinct_donors(self):
        labels = np.array([0, 0, 1, 1])
        cost = np.array([5.0, 1.0, 1.0, 0.5])
        out = _repair_empty(labels, 4, cost)
        # ascending empty labels; point 1 is cluster 0's last member after
        # the first donation, so cluster 1's costlier point goes instead
        assert out.tolist() == [2, 0, 3, 1]

    def test_never_empties_a_singleton(self):
        # zero costs tie everywhere: the lowest index of a cluster that can
        # spare a member donates, never cluster 0's only member
        out = _repair_empty(np.array([0, 1, 1]), 3, np.zeros(3))
        assert out.tolist() == [0, 2, 1]

    def test_kmeans_on_duplicates_keeps_every_cluster(self):
        ds = one_plus_three_copies()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(10):
                r = kmeans(ds, FitOptions(k=3, seed=seed, restarts=1),
                           init="random")
                assert sorted(set(r.assignments)) == [0, 1, 2]

    def test_every_cluster_ends_populated(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, k = 12, 5
            labels = rng.integers(0, 2, size=n)  # clusters 2..4 empty
            out = _repair_empty(labels, k, rng.uniform(0, 1, size=n))
            assert set(out.tolist()) == set(range(k))


class TestPlusPlus:
    def test_distinct_indices(self):
        rng = np.random.default_rng(1)
        X = np.random.default_rng(2).normal(size=(20, 24))
        for _ in range(10):
            idx = _plusplus_indices(X, 5, rng)
            assert len(set(idx)) == 5

    def test_duplicate_points_fall_back_to_lowest_unchosen(self):
        X = np.zeros((4, 24))
        rng = np.random.default_rng(3)
        idx = _plusplus_indices(X, 3, rng)
        assert len(set(idx)) == 3  # no infinite loop, no repeats

    def test_spread_seeding_prefers_far_points(self):
        # two tight blobs far apart: the second seed lands in the other blob
        X = np.zeros((10, 24))
        X[5:, 0] = 1000.0
        for seed in range(20):
            idx = _plusplus_indices(X, 2, np.random.default_rng(seed))
            assert (idx[0] < 5) != (idx[1] < 5)


class TestKmeans:
    def test_recovers_clean_archetypes(self, clean_dataset):
        ds, labels = clean_dataset
        for init in ("random", "plusplus"):
            r = kmeans(ds, FitOptions(k=3, seed=0), init=init)
            assert best_match_accuracy(r.assignments, labels) == 1.0
            assert r.converged and r.init == init

    def test_objective_is_within_cluster_sse(self, noisy_dataset):
        ds, _ = noisy_dataset
        r = kmeans(ds, FitOptions(k=3, seed=0))
        X = ds.to_matrix()
        protos = np.asarray(r.prototypes)
        sse = sum(float(np.sum((X[i] - protos[a]) ** 2))
                  for i, a in enumerate(r.assignments))
        assert r.objective == pytest.approx(sse, rel=1e-12)

    def test_trace_non_increasing(self, noisy_dataset):
        ds, _ = noisy_dataset
        r = kmeans(ds, FitOptions(k=3, seed=0, tolerance=1e-12))
        assert len(r.trace) >= 2
        for a, b in zip(r.trace, r.trace[1:]):
            assert b <= a + 1e-9
        assert r.objective == r.trace[-1]

    def test_determinism(self, noisy_dataset):
        ds, _ = noisy_dataset
        a = kmeans(ds, FitOptions(k=4, seed=3))
        b = kmeans(ds, FitOptions(k=4, seed=3))
        assert a == b

    def test_seed_changes_restart_stream(self, harder_dataset):
        ds, _ = harder_dataset
        a = kmeans(ds, FitOptions(k=5, seed=0, restarts=1))
        b = kmeans(ds, FitOptions(k=5, seed=1, restarts=1))
        assert a.assignments != b.assignments or a.objective != b.objective

    def test_more_restarts_never_hurt(self, harder_dataset):
        ds, _ = harder_dataset
        one = kmeans(ds, FitOptions(k=5, seed=0, restarts=1))
        ten = kmeans(ds, FitOptions(k=5, seed=0, restarts=10))
        assert ten.objective <= one.objective

    def test_k_equals_n(self):
        ds = embed_1d([0.0, 2.0, 5.0, 9.0], normalized=True)
        r = kmeans(ds, FitOptions(k=4, seed=0))
        assert sorted(r.assignments) == [0, 1, 2, 3]
        assert r.objective == 0.0

    def test_raw_dataset_rejected(self):
        ds, _ = generate_synthetic(SyntheticSpec.default(2, 3), seed=0)
        with pytest.raises(ValueError, match="normalized"):
            kmeans(ds, FitOptions(k=2))

    def test_k_larger_than_n(self):
        ds = embed_1d([0.0, 1.0], normalized=True)
        with pytest.raises(ValueError, match="^k must satisfy 2 <= k <= 2, got 3$"):
            kmeans(ds, FitOptions(k=3))

    def test_bad_init_name(self, noisy_dataset):
        ds, _ = noisy_dataset
        with pytest.raises(ValueError, match="init"):
            kmeans(ds, FitOptions(k=3), init="farthest")


class TestLloydAgainstOracle:
    """Every restart must keep the original run's labels, centroid bytes,
    trace bits, iteration count and convergence flag, although only the
    clusters whose members moved are recomputed."""

    @staticmethod
    def check(X, seeds=range(10), max_iterations_set=(1, 2, 300)):
        for init in ("random", "plusplus"):
            for max_iterations in max_iterations_set:
                for k in range(2, min(8, len(X)) + 1):
                    for seed in seeds:
                        got = _kmeans_single(X, k, seed, init,
                                             max_iterations, 1e-6)
                        want = kmeans_single_oracle(X, k, seed, init,
                                                    max_iterations, 1e-6)
                        assert np.array_equal(got[0], want[0])
                        assert got[1].tobytes() == want[1].tobytes()
                        assert ([t.hex() for t in got[2]]
                                == [t.hex() for t in want[2]])
                        assert got[3:] == want[3:]

    def test_harder_dataset(self, harder_dataset):
        self.check(harder_dataset[0].to_matrix())

    def test_repair_empty_fires(self, monkeypatch):
        repairs = []

        def counting(labels, k, point_cost):
            out = _repair_empty(labels, k, point_cost)
            repairs.append(out is not labels)
            return out

        monkeypatch.setattr(partitional, "_repair_empty", counting)
        self.check(one_plus_three_copies().to_matrix())
        assert any(repairs)

    def test_cluster_empties_after_first_iteration(self):
        # random init, k=4, seed 0: a cluster empties after the first
        # iteration, and its donor's mean is recomputed only because the
        # repair's move counts as a change
        X = np.zeros((9, 24))
        X[:, 0] = [1.0, -1.0, -1.0, 2.0, 2.0, -1.0, 1.0, 2.0, 0.0]
        self.check(X)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_tied_points(self, data):
        n = data.draw(st.integers(2, 12))
        # few distinct values per hour, so points and distances tie often
        values = data.draw(st.lists(
            st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=24,
                     max_size=24), min_size=n, max_size=n))
        X = np.array(values)
        X[data.draw(st.integers(1, n)):] = X[0]  # exact copies too
        self.check(X, seeds=range(3))


def fresh(dataset) -> Dataset:
    """An equal dataset that has stored no k-means++ run yet."""
    return Dataset(dataset.curves, dataset.normalization)


def stored(dataset) -> dict:
    """The k-means++ runs a dataset keeps, by (k, seed, iterations, tol)."""
    return vars(dataset).get("_plusplus_runs", {})


class TestPlusPlusMemo:
    """``kmeans(init="plusplus")`` and the mixture share their k-means++
    runs through the store each dataset keeps of its own."""

    def test_gmm_after_kmeanspp_is_byte_identical(self, harder_dataset):
        ds = fresh(harder_dataset[0])
        options = FitOptions(k=4, seed=2, restarts=3)
        cold = result_to_json(gmm_em(fresh(ds), options))
        kmeans(ds, options, init="plusplus")
        assert len(stored(ds)) == 3
        warm = result_to_json(gmm_em(ds, options))
        assert len(stored(ds)) == 3  # every run was shared
        assert warm == cold

    def test_signed_zero_datasets_never_share(self):
        X = np.zeros((3, 24))
        X[:, 0] = [0.0, 1.0, 2.0]
        Y = X.copy()
        Y[0, 1] = -0.0
        assert np.array_equal(X, Y) and X.tobytes() != Y.tobytes()
        x_ds, y_ds = (Dataset(tuple(make_curve(v, hid=f"p{i}", normalized=True)
                                    for i, v in enumerate(M)), "per-curve")
                      for M in (X, Y))
        z_ds = fresh(x_ds)  # equal to x_ds, bit for bit
        for ds in (x_ds, y_ds, z_ds):
            kmeans(ds, FitOptions(k=3, seed=0, restarts=1), init="plusplus")
        (x_run,), (y_run,), (z_run,) = (stored(ds).values()
                                        for ds in (x_ds, y_ds, z_ds))
        assert y_run is not x_run and z_run is not x_run

    def test_cached_arrays_are_read_only(self, harder_dataset):
        ds = fresh(harder_dataset[0])
        options = FitOptions(k=3, seed=0, restarts=1)
        kmeans(ds, options, init="plusplus")
        ((labels, centroids, trace, _, _),) = stored(ds).values()
        kmeans(ds, options, init="plusplus")
        (run,) = stored(ds).values()
        assert run[0] is labels
        with pytest.raises(ValueError, match="read-only"):
            labels[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            centroids[0, 0] = 1.0
        assert isinstance(trace, tuple)

    def test_runs_are_kept_and_freed_with_their_dataset(self, harder_dataset,
                                                         noisy_dataset):
        x_ds, y_ds = fresh(harder_dataset[0]), fresh(noisy_dataset[0])
        kmeans(x_ds, FitOptions(k=3, seed=0, restarts=3), init="plusplus")
        gmm_em(y_ds, FitOptions(k=3, seed=0, restarts=1))
        assert sorted(stored(x_ds)) == [(3, seed, 300, 1e-6)
                                        for seed in range(3)]
        (key,) = stored(y_ds)
        assert key == (3, 0, 300, 1e-6)
        labels = weakref.ref(stored(y_ds)[key][0])
        del y_ds
        assert labels() is None
        assert len(stored(x_ds)) == 3  # another dataset's runs stay

    def test_random_init_runs_are_not_stored(self, harder_dataset):
        ds = fresh(harder_dataset[0])
        kmeans(ds, FitOptions(k=3, restarts=2), init="random")
        assert stored(ds) == {}


SWEEP_SCRIPT = """
import sys
from loadclust import SyntheticSpec, generate_synthetic, normalize_dataset
from loadclust.evaluation import MethodSpec, save_sweep, sweep

raw, _ = generate_synthetic(
    SyntheticSpec.default(4, 15, noise_std=0.3, shift_range=2), seed=3)
dataset = normalize_dataset(raw)
for method in sys.argv[2:]:
    print(method, len(vars(dataset).get("_plusplus_runs", {})))
    save_sweep(sweep(dataset, MethodSpec(method, restarts=3), 2, 6),
               f"{sys.argv[1]}/{method}.csv")
"""


def test_gmm_sweep_is_the_same_with_a_warm_or_cold_memo(tmp_path):
    """One process sweeps kmeans, kmeanspp and then gmm, whose restarts
    all start from runs the kmeanspp sweep stored; a fresh process sweeps
    gmm alone. The gmm sweep CSV and sidecar must be byte-equal."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    outputs = {}
    for name, methods in (("warm", ["kmeans", "kmeanspp", "gmm"]),
                          ("cold", ["gmm"])):
        out = tmp_path / name
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", SWEEP_SCRIPT, str(out), *methods],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs[name] = (proc.stdout.splitlines(),
                         (out / "gmm.csv").read_bytes(),
                         (out / "gmm.csv.json").read_bytes())
    warm_log, *warm = outputs["warm"]
    cold_log, *cold = outputs["cold"]
    assert warm_log[-1] == "gmm 15" and cold_log == ["gmm 0"]
    assert warm == cold


class TestKmedoids:
    def test_recovers_clean_archetypes(self, clean_dataset):
        ds, labels = clean_dataset
        r = kmedoids(ds, FitOptions(k=3, seed=0))
        assert best_match_accuracy(r.assignments, labels) == 1.0
        assert r.prototype_kind == "medoid-index"
        assert r.metric.kind == "dtw"

    def test_medoids_sorted_and_labels_aligned(self, noisy_dataset, noisy_matrix):
        ds, _ = noisy_dataset
        r = kmedoids(ds, FitOptions(k=3, seed=0), matrix=noisy_matrix)
        assert list(r.prototypes) == sorted(r.prototypes)
        for c, m in enumerate(r.prototypes):
            assert r.assignments[m] == c

    def test_objective_matches_assignment_costs(self, noisy_dataset, noisy_matrix):
        ds, _ = noisy_dataset
        r = kmedoids(ds, FitOptions(k=3, seed=0), matrix=noisy_matrix)
        total = sum(noisy_matrix.get(i, r.prototypes[a])
                    for i, a in enumerate(r.assignments))
        assert r.objective == pytest.approx(total, rel=1e-12)

    def test_labels_are_nearest_medoid(self, noisy_dataset, noisy_matrix):
        ds, _ = noisy_dataset
        r = kmedoids(ds, FitOptions(k=4, seed=1), matrix=noisy_matrix)
        for i, a in enumerate(r.assignments):
            mine = noisy_matrix.get(i, r.prototypes[a])
            best = min(noisy_matrix.get(i, m) for m in r.prototypes)
            assert mine == best

    def test_precomputed_matrix_equals_metric_path(self, noisy_dataset, noisy_matrix):
        ds, _ = noisy_dataset
        via_metric = kmedoids(ds, FitOptions(k=3, seed=0),
                              metric=MetricConfig("dtw", 4))
        via_matrix = kmedoids(ds, FitOptions(k=3, seed=0), matrix=noisy_matrix)
        assert via_metric == via_matrix

    def test_trace_non_increasing(self, noisy_dataset, noisy_matrix):
        ds, _ = noisy_dataset
        r = kmedoids(ds, FitOptions(k=3, seed=0), matrix=noisy_matrix)
        for a, b in zip(r.trace, r.trace[1:]):
            assert b <= a + 1e-9

    def test_determinism(self, noisy_dataset, noisy_matrix):
        ds, _ = noisy_dataset
        a = kmedoids(ds, FitOptions(k=3, seed=2), matrix=noisy_matrix)
        b = kmedoids(ds, FitOptions(k=3, seed=2), matrix=noisy_matrix)
        assert a == b

    def test_k_equals_n(self):
        ds = embed_1d([0.0, 2.0, 5.0], normalized=True)
        r = kmedoids(ds, FitOptions(k=3, seed=0), metric=MetricConfig("euclidean"))
        assert r.objective == 0.0
        assert sorted(r.prototypes) == [0, 1, 2]

    def test_matrix_of_another_metric_refused(self, noisy_dataset,
                                              noisy_matrix):
        ds, _ = noisy_dataset
        with pytest.raises(ValueError, match=r"built with dtw\(w=4\), "
                                             r"run asks for dtw\(w=2\)"):
            kmedoids(ds, FitOptions(k=3), metric=MetricConfig("dtw", 2),
                     matrix=noisy_matrix)

    def test_matrix_size_mismatch(self, noisy_matrix):
        ds = embed_1d([0.0, 1.0, 2.0], normalized=True)
        with pytest.raises(ValueError, match="matrix"):
            kmedoids(ds, FitOptions(k=2), matrix=noisy_matrix)


class TestKmedoidsAgainstOracle:
    """Every restart must keep the labels, medoids, iteration count and
    convergence flag of the original run, which summed its own rows; only
    the objective's rounding may move."""

    def check(self, matrix):
        S = matrix.to_square()
        tails = 0
        for max_iterations in (1, 2, 300):
            for k in range(2, 9):
                for seed in range(10):
                    labels, medoids, trace, iterations, converged = (
                        _kmedoids_single(S, k, seed, max_iterations, {}))
                    expect = kmedoids_single_oracle(S, k, seed, max_iterations)
                    assert np.array_equal(labels, expect[0])
                    assert np.array_equal(medoids, expect[1])
                    assert (iterations, converged) == expect[3:]
                    assert trace == pytest.approx(expect[2], rel=1e-12)
                    if converged:
                        # the medoid rule's in-order member-to-medoid sum
                        total = 0.0
                        for c in range(k):
                            for i in np.flatnonzero(labels == c):
                                total += matrix.get(int(i), int(medoids[c]))
                        assert trace[-1].hex() == total.hex()
                    else:
                        # the unconverged tail realigns the labels and sums
                        # as it always has
                        assert trace[-1].hex() == expect[2][-1].hex()
                        tails += 1
        assert 0 < tails < 3 * 7 * 10

    def test_noisy_matrix(self, noisy_matrix):
        self.check(noisy_matrix)

    def test_euclidean_matrix(self, harder_dataset):
        ds, _ = harder_dataset
        self.check(pairwise_matrix(ds, MetricConfig("euclidean")))

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_member_rows_summed_in_blocks(self, monkeypatch, noisy_matrix,
                                          rows):
        """With the gather of ``distance.medoid`` cut to a few rows, a
        cluster's sums are carried across rows: every restart keeps the
        unpatched run's labels, medoids and objective bits, and ``check``
        still holds against the oracle, on float noise and integer ties."""
        from loadclust import distance
        tied = random_square(np.random.default_rng(14), 40, integer=True)
        runs = [(k, seed) for k in range(2, 9) for seed in range(10)]
        for S in (noisy_matrix.to_square(), tied):
            want = [_kmedoids_single(S, k, seed, 300, {}) for k, seed in runs]
            with monkeypatch.context() as patch:
                patch.setattr(distance, "_SCRATCH_BYTES", 8 * rows * len(S))
                for (k, seed), expect in zip(runs, want):
                    got = _kmedoids_single(S, k, seed, 300, {})
                    assert np.array_equal(got[0], expect[0])
                    assert np.array_equal(got[1], expect[1])
                    assert ([t.hex() for t in got[2]]
                            == [t.hex() for t in expect[2]])
                    assert got[3:] == expect[3:]
                self.check(square_to_matrix(S))


class TestKmedoidsMemo:
    """One fit sums each member set once: the clusters that did not move,
    and those another restart already formed, come from the fit's memo, and
    reading them there changes no bit of any restart."""

    def test_each_member_set_summed_once_per_fit(self, monkeypatch,
                                                 noisy_dataset, noisy_matrix):
        from loadclust import distance
        summed, formed = [], []
        medoid, cluster_medoids = distance.medoid, partitional.cluster_medoids

        def counting_medoid(square, members):
            summed.append(members.tobytes())
            return medoid(square, members)

        def recording(square, labels, k, memo):
            formed.extend(np.flatnonzero(labels == c).tobytes()
                          for c in range(k))
            return cluster_medoids(square, labels, k, memo)

        monkeypatch.setattr(distance, "medoid", counting_medoid)
        monkeypatch.setattr(partitional, "cluster_medoids", recording)
        ds, _ = noisy_dataset
        for k in (2, 4, 6):
            counts = []
            for _ in range(2):
                summed.clear()
                formed.clear()
                kmedoids(ds, FitOptions(k=k, seed=0), matrix=noisy_matrix)
                assert len(summed) == len(set(formed))
                assert set(summed) == set(formed)
                assert len(summed) < len(formed)  # the memo was read
                counts.append(len(summed))
            # the second fit sums as much as the first: no memo outlives one
            assert counts[0] == counts[1]

    @pytest.mark.parametrize("source", ["noisy", "integer ties"])
    def test_shared_memo_keeps_every_restart(self, source, noisy_matrix):
        S = (noisy_matrix.to_square() if source == "noisy" else
             random_square(np.random.default_rng(14), 40, integer=True))
        hits = 0  # medoid lookups that the memo served
        for max_iterations in (1, 2, 300):
            for k in range(2, 9):
                memo = {}
                for seed in range(10):
                    labels, medoids, trace, iterations, converged = (
                        _kmedoids_single(S, k, seed, max_iterations, memo))
                    fresh = _kmedoids_single(S, k, seed, max_iterations, {})
                    assert np.array_equal(labels, fresh[0])
                    assert np.array_equal(medoids, fresh[1])
                    assert ([t.hex() for t in trace]
                            == [t.hex() for t in fresh[2]])
                    assert (iterations, converged) == fresh[3:]
                    hits += iterations * k
                    if source == "integer ties":
                        # integer sums are exact in any order, so the whole
                        # trace matches the original run too, and so does
                        # its lowest-medoid-index tie rule
                        expect = kmedoids_single_oracle(S, k, seed,
                                                        max_iterations)
                        assert np.array_equal(labels, expect[0])
                        assert np.array_equal(medoids, expect[1])
                        assert trace == expect[2]
                        assert (iterations, converged) == expect[3:]
                hits -= len(memo)
        assert hits > 0


class TestGmmInternals:
    def test_logsumexp_matches_naive(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(10, 4)) * 50
        expect = np.log(np.exp(a).sum(axis=1))
        assert np.allclose(_logsumexp_rows(a), expect, atol=1e-9)

    def test_logsumexp_handles_extreme_values(self):
        a = np.array([[-2000.0, -2001.0], [1000.0, 999.0]])
        out = _logsumexp_rows(a)
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(-2000.0 + math.log(1 + math.exp(-1.0)))

    def test_diagonal_and_full_agree_on_diagonal_covariances(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(15, 24))
        weights = np.array([0.3, 0.7])
        means = rng.normal(size=(2, 24))
        var = rng.uniform(0.5, 2.0, size=(2, 24))
        diag = _log_densities(X, weights, means, var, "diagonal")
        full = _log_densities(X, weights, means,
                              np.array([np.diag(v) for v in var]), "full")
        assert np.allclose(diag, full, atol=1e-9)

    @pytest.mark.parametrize("kind", ["diagonal", "full"])
    def test_e_step_rejects_unusable_models(self, kind):
        X = np.random.default_rng(8).normal(size=(6, 24))
        weights = np.array([0.5, 0.5])
        means = X[:2].copy()
        if kind == "diagonal":
            covs = np.ones((2, 24))
            covs[1, 0] = 0.0  # a zero variance: the likelihood is not finite
        else:
            covs = np.array([np.eye(24), np.zeros((24, 24))])  # no Cholesky
        with np.errstate(divide="ignore", invalid="ignore"):
            assert _e_step(X, weights, means, covs, kind) is None
        covs[1] = np.ones(24) if kind == "diagonal" else np.eye(24)
        logp, lse, avg_ll = _e_step(X, weights, means, covs, kind)
        assert np.array_equal(logp, _log_densities(X, weights, means, covs, kind))
        assert np.array_equal(lse, _logsumexp_rows(logp))
        assert avg_ll == float(lse.mean())

    @pytest.mark.parametrize("kind", ["diagonal", "full"])
    def test_log_densities_match_oracle(self, kind):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 24))
        for k in range(1, 9):
            weights = rng.uniform(0.05, 1.0, size=k)
            weights /= weights.sum()
            means = rng.normal(size=(k, 24))
            var = rng.uniform(0.01, 5.0, size=(k, 24))
            covs = var if kind == "diagonal" else np.array(
                [np.diag(v) + 0.1 for v in var])
            got = _log_densities(X, weights, means, covs, kind)
            want = log_densities_oracle(X, weights, means, covs, kind)
            assert got.flags.c_contiguous and got.shape == (40, k)
            assert got.tobytes() == want.tobytes()
            # and so the row log-sum-exp rounds the same way
            assert (_logsumexp_rows(got).tobytes()
                    == _logsumexp_rows(want).tobytes())

    def test_densities_integrate_to_weights(self):
        # responsibilities from a single row must sum to one
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 24))
        weights = np.array([0.25, 0.75])
        means = np.stack([X[:10].mean(axis=0), X[10:].mean(axis=0)])
        var = np.ones((2, 24))
        logp = _log_densities(X, weights, means, var, "diagonal")
        resp = np.exp(logp - _logsumexp_rows(logp)[:, None])
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)


class TestGmm:
    def test_recovers_near_clean_archetypes(self):
        spec = SyntheticSpec.default(3, 10, noise_std=0.01)
        ds, labels = generate_synthetic(spec, seed=0)
        nds = normalize_dataset(ds)
        r = gmm_em(nds, FitOptions(k=3, seed=0))
        assert best_match_accuracy(r.assignments, labels) == 1.0
        assert r.prototype_kind == "vector" and r.init == "plusplus"

    def test_log_likelihood_ascends(self, harder_dataset):
        ds, _ = harder_dataset
        r = gmm_em(ds, FitOptions(k=3, seed=0, restarts=1, tolerance=1e-12))
        assert len(r.trace) >= 4  # a real ascent, not an instant fixpoint
        for a, b in zip(r.trace, r.trace[1:]):
            assert b >= a - 1e-9
        assert r.objective == r.trace[-1]
        assert r.converged

    def test_full_covariance_runs_and_recovers(self):
        spec = SyntheticSpec.default(3, 10, noise_std=0.05)
        raw, labels = generate_synthetic(spec, seed=1)
        nds = normalize_dataset(raw)
        r = gmm_em(nds, FitOptions(k=3, seed=0, covariance_kind="full",
                                   covariance_regularizer=1e-4))
        assert best_match_accuracy(r.assignments, labels) == 1.0

    def test_determinism(self, harder_dataset):
        ds, _ = harder_dataset
        a = gmm_em(ds, FitOptions(k=4, seed=0, restarts=3))
        b = gmm_em(ds, FitOptions(k=4, seed=0, restarts=3))
        assert a == b

    def test_more_restarts_never_hurt(self, harder_dataset):
        # the mixture objective is a log-likelihood: higher is better
        ds, _ = harder_dataset
        one = gmm_em(ds, FitOptions(k=5, seed=0, restarts=1))
        five = gmm_em(ds, FitOptions(k=5, seed=0, restarts=5))
        assert five.objective >= one.objective

    def test_raw_dataset_rejected(self):
        ds, _ = generate_synthetic(SyntheticSpec.default(2, 3), seed=0)
        with pytest.raises(ValueError, match="normalized"):
            gmm_em(ds, FitOptions(k=2))


def collapsing_dataset():
    """Four curves, two per archetype: at k=3 every EM restart collapses
    and ends with a component that owns no point."""
    raw, _ = generate_synthetic(SyntheticSpec.default(2, 2), 0)
    return normalize_dataset(raw)


def duplicate_sets():
    """(curves, archetypes) for 2-4 archetypes with 2-3 exact copies each:
    a run here either never collapses or, under the old respawn too,
    collapses and ends without a usable model."""
    for a in (2, 3, 4):
        for copies in (2, 3):
            raw, _ = generate_synthetic(SyntheticSpec.default(a, copies), 0)
            yield normalize_dataset(raw).to_matrix(), a


@pytest.mark.parametrize("kind", ["diagonal", "full"])
class TestGmmCollapse:
    def test_collapse_on_every_restart_raises(self, kind):
        with pytest.raises(FitError, match="without a point"):
            gmm_em(collapsing_dataset(),
                   FitOptions(k=3, seed=0, restarts=2, covariance_kind=kind))

    def assert_same_run(self, X, k, seed, options):
        got = _gmm_single(X, k, seed, options, {})
        want = gmm_single_oracle(X, k, seed, options)
        assert (got is None) == (want is None)
        if want is None:
            return
        assignments, means, trace, iterations, converged = got
        assert [t.hex() for t in trace] == [t.hex() for t in want[2]]
        assert (iterations, converged) == (want[3], want[4])
        assert np.array_equal(assignments, want[0])
        assert means.tobytes() == want[1].tobytes()
        assert trace[-1].hex() == want[5].hex()

    @pytest.mark.parametrize("max_iterations", [1, 2, 300])
    def test_collapsing_runs_match_oracle(self, kind, max_iterations):
        for X, a in duplicate_sets():
            for k in range(2, a + 2):
                options = FitOptions(k=k, covariance_kind=kind,
                                     max_iterations=max_iterations)
                for seed in range(10):
                    self.assert_same_run(X, k, seed, options)

    def test_usable_second_collapse_matches_oracle(self, kind):
        # four curves within 1e-6 of one point: every run collapses twice,
        # and the oracle's respawned model still gives each of the two
        # components a point, so it keeps the run as non-converged; the
        # library discards every collapsed restart instead
        rng = np.random.default_rng(0)
        X = rng.normal(size=(1, 24)) + 1e-6 * rng.normal(size=(4, 24))
        options = FitOptions(k=2, covariance_kind=kind)
        for seed in range(3):
            assert _gmm_single(X, 2, seed, options, {}) is None
            want = gmm_single_oracle(X, 2, seed, options)
            assert want is not None and not want[4]
        ds = Dataset(tuple(make_curve(row, hid=str(i), normalized=True)
                           for i, row in enumerate(X)), "per-curve")
        with pytest.raises(FitError, match="without a point"):
            gmm_em(ds, FitOptions(k=2, restarts=3, covariance_kind=kind))

    def test_clean_runs_match_oracle(self, kind, harder_dataset):
        X = harder_dataset[0].to_matrix()
        for k in (2, 3, 5):
            options = FitOptions(k=k, covariance_kind=kind, tolerance=1e-9,
                                 covariance_regularizer=1e-4)
            for seed in range(2):
                self.assert_same_run(X, k, seed, options)


def test_singular_covariance_on_every_restart_raises(monkeypatch):
    """Ten curves per component in 24 dimensions and a regularizer of
    1e-30: every full covariance is singular, so the first E-step of each
    restart fails, the restart is discarded, and ``sweep`` reports each k."""
    steps = []

    def recording(*args):
        steps.append(_e_step(*args))
        return steps[-1]

    monkeypatch.setattr(partitional, "_e_step", recording)
    raw, _ = generate_synthetic(SyntheticSpec.default(3, 10, 0.1, 2), 0)
    ds = normalize_dataset(raw)
    params = dict(restarts=3, covariance_kind="full",
                  covariance_regularizer=1e-30)
    with pytest.raises(FitError, match="a covariance that is not positive "
                       "definite or a component left without a point"):
        gmm_em(ds, FitOptions(k=3, **params))
    assert steps == [None] * 3
    report = sweep(ds, MethodSpec("gmm", **params), 2, 4)
    assert report.rows == ()
    assert [line.split(":")[0] for line in report.diagnostics] == \
        ["k=2", "k=3", "k=4"]


def first_best(runs, higher_is_better=False):
    """The restart rule as a plain scan: the first run (None runs skipped)
    whose final objective no earlier kept run beats or equals."""
    best = None
    for run in runs:
        if run is None:
            continue
        if best is None or (run[2][-1] > best[2][-1] if higher_is_better
                            else run[2][-1] < best[2][-1]):
            best = run
    return best


def assert_fit_is_run(result, run):
    labels, prototypes, trace, iterations, converged = run
    assert list(result.assignments) == labels.tolist()
    if result.prototype_kind == "vector":
        assert np.array(result.prototypes).tobytes() == prototypes.tobytes()
    else:
        assert list(result.prototypes) == prototypes.tolist()
    assert result.objective.hex() == trace[-1].hex()
    assert (result.iterations, result.converged) == (iterations, converged)
    assert [t.hex() for t in result.trace] == [float(t).hex() for t in trace]


class TestRestartRule:
    """Every fit reports, field for field, the first of its single runs,
    restart r seeded ``seed + r``, with the best final objective; a
    discarded mixture run never wins."""

    @pytest.mark.parametrize("init", INITS)
    def test_kmeans(self, harder_dataset, init):
        ds = harder_dataset[0]
        X = ds.to_matrix()
        for k, seed in ((3, 0), (5, 3)):
            options = FitOptions(k=k, seed=seed, restarts=6)
            runs = [_kmeans_single(X, k, seed + r, init, 300, 1e-6)
                    for r in range(6)]
            assert_fit_is_run(kmeans(ds, options, init=init), first_best(runs))

    def test_exact_tie_goes_to_the_earliest_restart(self):
        # three well-separated archetypes: four random-init restarts reach
        # the same partition, with permuted labels, so the same objective
        raw, _ = generate_synthetic(
            SyntheticSpec.default(3, 5, noise_std=0.05), 0)
        ds = normalize_dataset(raw)
        X = ds.to_matrix()
        runs = [_kmeans_single(X, 3, r, "random", 300, 1e-6)
                for r in range(10)]
        best = min(run[2][-1] for run in runs)
        tied = [r for r, run in enumerate(runs) if run[2][-1] == best]
        assert len(tied) >= 2
        assert not np.array_equal(runs[tied[0]][0], runs[tied[1]][0])
        assert runs[tied[0]][3] != runs[tied[1]][3]  # iterations tell them apart
        assert_fit_is_run(kmeans(ds, FitOptions(k=3, restarts=10)),
                          runs[tied[0]])

    def test_kmedoids(self, noisy_dataset, noisy_matrix):
        ds = noisy_dataset[0]
        S = noisy_matrix.to_square()
        for k, seed in ((3, 0), (5, 7)):
            options = FitOptions(k=k, seed=seed, restarts=10)
            runs = [_kmedoids_single(S, k, seed + r, 300, {}) for r in range(10)]
            assert_fit_is_run(kmedoids(ds, options, matrix=noisy_matrix),
                              first_best(runs))

    @pytest.mark.parametrize("kind", ["diagonal", "full"])
    def test_gmm(self, harder_dataset, kind):
        ds = harder_dataset[0]
        X = ds.to_matrix()
        for k, seed in ((3, 0), (5, 2)):
            options = FitOptions(k=k, seed=seed, restarts=4,
                                 covariance_kind=kind,
                                 covariance_regularizer=1e-4)
            runs = [_gmm_single(X, k, seed + r, options, {}) for r in range(4)]
            assert_fit_is_run(gmm_em(ds, options),
                              first_best(runs, higher_is_better=True))

    @pytest.mark.parametrize("kind", ["diagonal", "full"])
    def test_gmm_skips_discarded_restarts(self, kind):
        # a wide regularizer leaves a component of restart 0 without a point
        raw, _ = generate_synthetic(
            SyntheticSpec.default(3, 10, noise_std=0.1), 0)
        ds = normalize_dataset(raw)
        X = ds.to_matrix()
        options = FitOptions(k=3, restarts=4, covariance_kind=kind,
                             covariance_regularizer=1.0)
        runs = [_gmm_single(X, 3, r, options, {}) for r in range(4)]
        assert runs[0] is None and all(run is not None for run in runs[1:])
        assert_fit_is_run(gmm_em(ds, options),
                          first_best(runs, higher_is_better=True))
