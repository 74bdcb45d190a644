import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loadclust import (Dataset, DistanceMatrix, MetricConfig,
                       UnnormalizedDataWarning, dtw, load_matrix,
                       normalize_dataset, pairwise_matrix,
                       pointwise_distance, save_matrix)
import loadclust.distance as distance
from loadclust.distance import (check_matrix, cluster_medoids,
                                condensed_index, paired_distances)

from conftest import dtw_oracle, make_curve

series = st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                  min_size=1, max_size=8)

# 24-hour curves biased towards the cases that break a careless batched
# kernel: repeated values (ties in the DTW min), constant curves, and
# near-zero norms (the cosine 1.0 rule)
_hour = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]),
                  st.floats(min_value=-3, max_value=3, allow_nan=False))
day_curves = st.one_of(
    st.lists(_hour, min_size=24, max_size=24),
    st.floats(min_value=-3, max_value=3, allow_nan=False).map(lambda v: [v] * 24),
    st.lists(st.floats(min_value=-1e-13, max_value=1e-13), min_size=24,
             max_size=24),
)

# what a matrix file must carry bit for bit: both zeros, subnormals, the
# largest finite magnitudes and inf, which DistanceMatrix accepts
stored_distances = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072e-308, 1e308, math.inf]),
    st.floats(min_value=0.0, allow_nan=False),
)


def curve_dataset(rows):
    curves = tuple(make_curve(r, hid=f"c{i}", normalized=True)
                   for i, r in enumerate(rows))
    return Dataset(curves, "per-curve")


def scalar_matrix(rows, cfg):
    """The condensed vector by one scalar call per pair, in condensed order."""
    n = len(rows)
    return np.array([cfg.distance(rows[i], rows[j])
                     for i in range(n) for j in range(i + 1, n)])


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestMetricConfig:
    def test_defaults(self):
        cfg = MetricConfig()
        assert cfg.kind == "dtw" and cfg.window == 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown metric"):
            MetricConfig("chebyshev")

    @pytest.mark.parametrize("w", [0, -1, 25, 2.5])
    def test_window_bounds(self, w):
        with pytest.raises(ValueError, match="window"):
            MetricConfig("dtw", w)

    def test_integer_valued_float_window_refused(self):
        # an int window, not a float that equals one, and never coerced
        with pytest.raises(ValueError, match="^window has the wrong type: 3.0$"):
            MetricConfig("dtw", 3.0)
        assert type(MetricConfig("dtw", 3).window) is int

    def test_label(self):
        assert MetricConfig("dtw", 4).label() == "dtw(w=4)"
        assert MetricConfig("euclidean").label() == "euclidean"

    def test_distance_dispatch(self):
        x, y = [1.0] * 24, [2.0] * 24
        assert MetricConfig("manhattan").distance(x, y) == 24.0
        assert MetricConfig("dtw", 1).distance(x, y) == pytest.approx(math.sqrt(24))


class TestDtwBasics:
    def test_identity(self):
        x = list(np.random.default_rng(0).normal(size=24))
        for w in (1, 4, 24):
            assert dtw(x, x, w) == 0.0

    def test_hand_example(self):
        # x=(0,0,1), y=(0,1,1), window 2: the warp duplicates the boundary
        # points and aligns perfectly
        assert dtw([0, 0, 1], [0, 1, 1], 2) == 0.0
        # window 1 forces the diagonal: sqrt(0 + 1 + 0)
        assert dtw([0, 0, 1], [0, 1, 1], 1) == 1.0

    def test_band_infeasible_lengths(self):
        assert dtw([1.0, 2.0], [1.0], 1) == math.inf
        assert dtw([1.0] * 5, [1.0] * 2, 3) == math.inf
        assert dtw([1.0] * 5, [1.0] * 3, 3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            dtw([], [1.0])
        with pytest.raises(ValueError, match="non-finite"):
            dtw([math.nan], [1.0])
        with pytest.raises(ValueError, match="window"):
            dtw([1.0], [1.0], 0)
        with pytest.raises(ValueError, match="window"):
            dtw([1.0], [1.0], 1.5)

    @given(series, series, st.integers(min_value=1, max_value=8))
    @settings(derandomize=True, max_examples=80)
    def test_symmetry(self, x, y, w):
        assert dtw(x, y, w) == dtw(y, x, w)

    @given(series)
    @settings(derandomize=True, max_examples=40)
    def test_non_negative_and_zero_on_self(self, x):
        assert dtw(x, x, 3) == 0.0
        assert dtw(x, list(reversed(x)), 3) >= 0.0


class TestDtwAgainstPathEnumeration:
    """The DP must agree with exhaustive enumeration of warping paths."""

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_small_integer_series(self, w):
        values = (0.0, 1.0, 2.0)
        rng = np.random.default_rng(42 + w)
        for _ in range(120):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            x = [float(values[i]) for i in rng.integers(0, 3, n)]
            y = [float(values[i]) for i in rng.integers(0, 3, m)]
            expect = dtw_oracle(x, y, w)
            got = dtw(x, y, w)
            if math.isinf(expect):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(expect, abs=1e-9)

    def test_random_floats(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(max(1, n - 2), min(7, n + 3)))
            x = list(rng.normal(size=n))
            y = list(rng.normal(size=m))
            w = int(rng.integers(1, 4))
            expect = dtw_oracle(x, y, w)
            got = dtw(x, y, w)
            if math.isinf(expect):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(expect, abs=1e-9)


class TestDtwEuclideanIdentity:
    def test_window_one_is_bitwise_euclidean(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            x = list(rng.normal(size=24))
            y = list(rng.normal(size=24))
            assert dtw(x, y, 1) == pointwise_distance(x, y, "euclidean")

    def test_band_monotone_in_window(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = list(rng.normal(size=24))
            y = list(rng.normal(size=24))
            eu = pointwise_distance(x, y, "euclidean")
            prev = math.inf
            for w in (1, 2, 4, 8, 12, 24):
                d = dtw(x, y, w)
                assert d <= prev + 1e-12
                assert d <= eu + 1e-12
                prev = d

    def test_triangle_inequality_fails(self):
        # dtw is not a metric: a concrete witness where
        # d(x, z) > d(x, y) + d(y, z)
        x, y, z = (0.0, 0.0, 0.0), (0.0, 0.0, 2.0), (0.0, 2.0, 2.0)
        dxy = dtw(x, y, 2)
        dyz = dtw(y, z, 2)
        dxz = dtw(x, z, 2)
        assert dyz == 0.0
        assert dxz > dxy + dyz + 0.5


class TestDtwResources:
    def test_long_series_memory_stays_flat(self):
        # two-row DP: a 20000-point pair must stay far under the full
        # 20000 x 20000 table (which would be gigabytes)
        n = 20000
        rng = np.random.default_rng(1)
        x = [float(v) for v in rng.normal(size=n)]
        y = [float(v) for v in rng.normal(size=n)]
        tracemalloc.start()
        d = dtw(x, y, 4)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert math.isfinite(d) and d > 0
        assert peak < 64 * 1024 * 1024


class TestPointwise:
    def test_euclidean_manhattan_hand_values(self):
        x, y = [0.0, 3.0], [4.0, 3.0]
        assert pointwise_distance(x, y, "euclidean") == 4.0
        assert pointwise_distance(x, y, "manhattan") == 4.0
        assert pointwise_distance([1, 2], [3, 5], "manhattan") == 5.0

    def test_cosine_cases(self):
        assert pointwise_distance([1, 0], [0, 1], "cosine") == pytest.approx(1.0)
        assert pointwise_distance([1, 1], [2, 2], "cosine") == pytest.approx(0.0, abs=1e-12)
        assert pointwise_distance([1, 0], [-1, 0], "cosine") == pytest.approx(2.0)
        assert pointwise_distance([0, 0], [1, 0], "cosine") == 1.0

    def test_length_mismatch_and_unknown(self):
        with pytest.raises(ValueError, match="equal lengths"):
            pointwise_distance([1.0], [1.0, 2.0], "euclidean")
        with pytest.raises(ValueError, match="unknown pointwise"):
            pointwise_distance([1.0], [1.0], "dtw")


class TestCondensedLayout:
    def test_matches_pdist_order(self):
        n = 6
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for pos, (i, j) in enumerate(pairs):
            assert condensed_index(n, i, j) == pos

    def test_rejects_bad_pairs(self):
        for i, j in [(1, 1), (2, 1), (-1, 2), (0, 5)]:
            with pytest.raises(ValueError):
                condensed_index(5, i, j)


class TestDistanceMatrix:
    def make(self, square):
        square = np.asarray(square, dtype=float)
        n = len(square)
        return DistanceMatrix(n, square[np.triu_indices(n, 1)],
                              MetricConfig("euclidean"))

    def test_get_symmetric_with_zero_diagonal(self):
        m = self.make([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        assert m.get(0, 1) == 1.0 and m.get(1, 0) == 1.0
        assert m.get(2, 2) == 0.0
        with pytest.raises(IndexError):
            m.get(0, 3)

    def test_to_square_round_trip(self):
        rng = np.random.default_rng(4)
        sq = rng.uniform(0, 5, size=(5, 5))
        sq = np.triu(sq, 1)
        sq = sq + sq.T
        m = self.make(sq)
        assert np.array_equal(m.to_square(), sq)

    def test_validation(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            DistanceMatrix(0, np.zeros(0))
        with pytest.raises(ValueError, match="length"):
            DistanceMatrix(3, np.zeros(2))
        with pytest.raises(ValueError, match="non-negative"):
            DistanceMatrix(2, np.array([-1.0]))
        with pytest.raises(ValueError, match="NaN"):
            DistanceMatrix(2, np.array([math.nan]))

    def test_one_comparison_refuses_nan_and_negatives(self):
        message = "^distances must be non-negative and not NaN$"
        for bad in (-math.inf, -5e-324, -1.0, math.nan):
            with pytest.raises(ValueError, match=message):
                DistanceMatrix(3, np.array([1.0, bad, 2.0]))
        m = DistanceMatrix(3, np.array([-0.0, math.inf, 5e-324]))
        assert [v.hex() for v in m.condensed] == ["-0x0.0p+0", "inf",
                                                  "0x0.0000000000001p-1022"]

    def test_condensed_is_read_only(self):
        m = self.make([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            m.condensed[0] = 5.0

    def test_medoid_lowest_index_on_ties(self):
        # 4 points on a line at 0, 1, 2, 3: both middle points tie
        sq = [[abs(i - j) for j in range(4)] for i in range(4)]
        square = self.make(sq).to_square()
        medoids, objective = cluster_medoids(square, [0, 0, 0, 0], 1, {})
        assert list(medoids) == [1] and objective == 4.0
        medoids, objective = cluster_medoids(square, [0, 0, 1, 2], 3, {})
        assert list(medoids) == [0, 2, 3] and objective == 1.0


class TestPairwiseMatrix:
    def normalized_pair(self):
        ds = Dataset((make_curve(range(24)), make_curve([3.0 * v for v in range(24)], hid="g")))
        return normalize_dataset(ds)

    def test_values_match_direct_calls(self):
        ds = self.normalized_pair()
        cfg = MetricConfig("dtw", 3)
        m = pairwise_matrix(ds, cfg)
        assert m.n == 2
        assert m.get(0, 1) == cfg.distance(ds[0].values, ds[1].values)
        assert m.metric == cfg

    def test_raw_data_warns_except_cosine(self):
        ds = Dataset((make_curve(range(24)), make_curve([5.0] * 23 + [1.0], hid="g")))
        with pytest.warns(UnnormalizedDataWarning):
            pairwise_matrix(ds, MetricConfig("euclidean"))
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error")
            pairwise_matrix(ds, MetricConfig("cosine"))

    def test_too_small(self):
        ds = Dataset((make_curve(range(24)),))
        with pytest.raises(ValueError, match="at least 2"):
            pairwise_matrix(ds, MetricConfig("euclidean"))

    def test_matrix_digest_golden(self, noisy_matrix):
        # frozen regression value for the standard noisy dataset under
        # dtw(w=4); any kernel or generator drift shows up here
        digest = float(np.sum(noisy_matrix.condensed))
        assert digest == pytest.approx(1778.9837095956416, rel=1e-12)

    def test_infeasible_entries_never_arise_for_curves(self, noisy_matrix):
        assert np.all(np.isfinite(noisy_matrix.condensed))

    @pytest.mark.parametrize("cfg", [MetricConfig("dtw", 4),
                                     MetricConfig("euclidean")],
                             ids=lambda c: c.label())
    def test_batches_arrive_in_the_kernel_layout(self, cfg, monkeypatch):
        # paired_distances reads xs.T and ys.T hour-major; a batch whose .T
        # is not already C-contiguous is copied on every call
        layouts = []
        real = distance.paired_distances

        def recording(xs, ys, metric):
            layouts.append((xs.shape[0], xs.T.flags.c_contiguous,
                            ys.T.flags.c_contiguous))
            return real(xs, ys, metric)

        monkeypatch.setattr(distance, "paired_distances", recording)
        monkeypatch.setattr(distance, "_BLOCK_PAIRS", 16)
        rng = np.random.default_rng(5)
        pairwise_matrix(curve_dataset(rng.normal(size=(12, 24)).tolist()), cfg)
        assert [pairs for pairs, _, _ in layouts] == [16, 16, 16, 16, 2]
        assert all(x and y for _, x, y in layouts)


class TestBatchedAgainstScalar:
    """pairwise_matrix must equal one scalar call per pair, bit for bit."""

    METRICS = ([MetricConfig("dtw", w) for w in range(1, 25)]
               + [MetricConfig(kind) for kind in ("euclidean", "manhattan",
                                                  "cosine")])

    @pytest.mark.parametrize("cfg", METRICS, ids=lambda c: c.label())
    @given(rows=st.lists(day_curves, min_size=2, max_size=8),
           block=st.sampled_from([1, 3, 5, 64]))
    @settings(derandomize=True, max_examples=8, deadline=None)
    def test_every_metric_and_window(self, cfg, rows, block):
        # small batches put batch boundaries mid-row at these sizes
        with mock.patch.object(distance, "_BLOCK_PAIRS", block):
            got = pairwise_matrix(curve_dataset(rows), cfg).condensed
        assert np.array_equal(bits(got), bits(scalar_matrix(rows, cfg)))

    @pytest.mark.parametrize("cfg", [MetricConfig("dtw", 1), MetricConfig("dtw", 4),
                                     MetricConfig("dtw", 24), MetricConfig("euclidean"),
                                     MetricConfig("manhattan"), MetricConfig("cosine")],
                             ids=lambda c: c.label())
    def test_at_the_real_batch_size(self, cfg):
        n = 50
        block = distance._BLOCK_PAIRS
        assert n * (n - 1) // 2 > block
        # the first batch boundary falls inside a row, not at a row start
        assert block not in {condensed_index(n, i, i + 1) for i in range(n - 1)}
        rng = np.random.default_rng(21)
        rows = [list(rng.normal(size=24)) for _ in range(n - 2)]
        rows += [[0.0] * 24, [1e-14] * 24]
        got = pairwise_matrix(curve_dataset(rows), cfg).condensed
        assert np.array_equal(bits(got), bits(scalar_matrix(rows, cfg)))

    @given(rows=st.lists(day_curves, min_size=2, max_size=8))
    @settings(derandomize=True, max_examples=20, deadline=None)
    def test_window_one_is_bitwise_euclidean(self, rows):
        ds = curve_dataset(rows)
        dtw1 = pairwise_matrix(ds, MetricConfig("dtw", 1)).condensed
        eu = pairwise_matrix(ds, MetricConfig("euclidean")).condensed
        assert np.array_equal(bits(dtw1), bits(eu))

    @pytest.mark.parametrize("kind", ["dtw", "euclidean", "manhattan", "cosine"])
    def test_overflow_behaves_like_python_floats(self, kind):
        # squares overflow to inf, and cosine's inf/inf is nan, which
        # Python's max(0.0, nan) turns into 0.0
        rows = [[1e200] * 24, [-1e200] * 24, [1e200] * 23 + [0.0], [0.0] * 24]
        cfg = MetricConfig(kind)
        got = pairwise_matrix(curve_dataset(rows), cfg).condensed
        assert np.array_equal(bits(got), bits(scalar_matrix(rows, cfg)))

    def test_paired_distances_rejects_unequal_shapes(self):
        with pytest.raises(ValueError, match="equal-shape"):
            paired_distances(np.zeros((2, 24)), np.zeros((2, 23)),
                             MetricConfig("euclidean"))


class TestCheckMatrix:
    def test_accepts_and_returns_a_matching_matrix(self, noisy_matrix):
        assert check_matrix(noisy_matrix, 30, MetricConfig("dtw", 4)) \
            is noisy_matrix
        # no metric asked for: any metric passes
        assert check_matrix(noisy_matrix, 30, None) is noisy_matrix

    def test_other_n_names_both_sides(self, noisy_matrix):
        with pytest.raises(ValueError,
                           match="^matrix is for 30 curves, dataset has 29$"):
            check_matrix(noisy_matrix, 29, None)

    @pytest.mark.parametrize("metric,label", [
        (MetricConfig("dtw", 2), "dtw(w=2)"),
        (MetricConfig("euclidean"), "euclidean"),
    ])
    def test_other_metric_names_both_sides(self, noisy_matrix, metric, label):
        with pytest.raises(ValueError) as info:
            check_matrix(noisy_matrix, 30, metric)
        assert str(info.value) == (f"matrix was built with dtw(w=4), "
                                   f"run asks for {label}")

    def test_window_of_a_non_dtw_metric_is_ignored(self, noisy_dataset):
        ds, _ = noisy_dataset
        m = pairwise_matrix(ds, MetricConfig("euclidean", 2))
        assert check_matrix(m, 30, MetricConfig("euclidean")) is m
        with pytest.raises(ValueError, match="run asks for manhattan$"):
            check_matrix(m, 30, MetricConfig("manhattan", 2))


class TestMatrixFiles:
    def test_round_trip_and_byte_stability(self, tmp_path, noisy_matrix):
        p1 = tmp_path / "m1.dmx"
        p2 = tmp_path / "m2.dmx"
        save_matrix(noisy_matrix, p1)
        loaded = load_matrix(p1)
        assert loaded.n == noisy_matrix.n
        assert loaded.metric == noisy_matrix.metric
        assert np.array_equal(loaded.condensed, noisy_matrix.condensed)
        save_matrix(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_contents(self, tmp_path, noisy_matrix):
        p = tmp_path / "m.dmx"
        save_matrix(noisy_matrix, p)
        header = json.loads(p.read_bytes().split(b"\n", 1)[0])
        assert header == {"encoding": "float64-le", "kind": "distance-matrix",
                          "n": 30, "metric": "dtw", "window": 4}

    def test_body_is_raw_little_endian_float64(self, tmp_path, noisy_matrix):
        p = tmp_path / "m.dmx"
        save_matrix(noisy_matrix, p)
        body = p.read_bytes().split(b"\n", 1)[1]
        assert len(body) == 8 * 435
        assert body == noisy_matrix.condensed.astype("<f8").tobytes()

    def test_body_written_without_a_copy(self, tmp_path):
        """The vector's own buffer is written: the save allocates well
        under n^2 bytes (a copy of the 4n^2-byte vector, or two, did not)."""
        n = 800
        vec = np.random.default_rng(0).random(n * (n - 1) // 2)
        matrix = DistanceMatrix(n, vec, MetricConfig("euclidean"))
        p = tmp_path / "m.dmx"
        tracemalloc.start()
        save_matrix(matrix, p)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < n * n
        line, body = p.read_bytes().split(b"\n", 1)
        assert json.loads(line)["n"] == n
        assert body == vec.astype("<f8").tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), data=st.data())
    def test_round_trip_is_exact(self, n, data):
        pairs = n * (n - 1) // 2
        vec = data.draw(hnp.arrays(np.float64, pairs, elements=stored_distances))
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = Path(tmp, "a.dmx"), Path(tmp, "b.dmx")
            save_matrix(DistanceMatrix(n, vec, MetricConfig("manhattan")), p1)
            loaded = load_matrix(p1)
            save_matrix(loaded, p2)
            assert p1.read_bytes() == p2.read_bytes()
        assert loaded.n == n and loaded.metric == MetricConfig("manhattan")
        assert loaded.condensed.tobytes() == vec.tobytes()

    @pytest.mark.parametrize("defect, message", [
        ("truncated", "holds 3479 bytes, n=30 needs 3480"),
        ("trailing byte", "holds 3481 bytes, n=30 needs 3480"),
        ("no encoding", "encoding None.*rebuild it with --save-matrix"),
        ("text format", "encoding None.*rebuild it with --save-matrix"),
        ("foreign kind", "not a distance matrix"),
        ("nan", "not NaN"),
    ])
    def test_rejects_damaged_files(self, tmp_path, noisy_matrix, defect,
                                   message):
        good = tmp_path / "good.dmx"
        save_matrix(noisy_matrix, good)
        line, body = good.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        if defect == "truncated":
            body = body[:-1]
        elif defect == "trailing byte":
            body += b"\n"
        elif defect == "no encoding":
            del header["encoding"]
        elif defect == "text format":
            # the one-value-per-line layout this format replaced
            del header["encoding"]
            body = "".join(repr(float(v)) + "\n"
                           for v in noisy_matrix.condensed).encode()
        elif defect == "foreign kind":
            header["kind"] = "something-else"
        else:
            vec = noisy_matrix.condensed.copy()
            vec[7] = math.nan
            body = vec.astype("<f8").tobytes()
        bad = tmp_path / "bad.dmx"
        bad.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                        + body)
        with pytest.raises(ValueError, match=message) as caught:
            load_matrix(bad)
        assert str(bad) in str(caught.value)
        assert "\n" not in str(caught.value)

    def test_accepts_inf_entries(self, tmp_path):
        p = tmp_path / "m.dmx"
        save_matrix(DistanceMatrix(3, [1.0, math.inf, 2.0],
                                   MetricConfig("dtw", 1)), p)
        assert load_matrix(p).condensed[1] == math.inf

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"kind": "something-else"}\n')
        with pytest.raises(ValueError, match="not a distance matrix"):
            load_matrix(p)
