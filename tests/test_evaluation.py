import json
import math
import re
import warnings

import numpy as np
import pytest

import loadclust.evaluation as ev
from loadclust import (ClusteringResult, Dataset, DegenerateClusteringError,
                       DegenerateElbowWarning, DistanceMatrix, MethodSpec,
                       MetricConfig, SweepReport, UnnormalizedDataWarning,
                       build_dendrogram, cut, elbow, fit, kmeans, load_sweep,
                       pairwise_matrix, pointwise_distance, prototypes,
                       save_sweep, save_table, sweep, sweep_table, wcbcr,
                       z_normalize)
from loadclust.ahc import LINKAGES
from loadclust.results import FitOptions

from conftest import embed_1d, make_curve

GOLDEN_SWEEP = {
    2: 16.367598801586226,
    3: 4.612210232942807,
    4: 1.988811698603816,
    5: 1.0615909667590513,
    6: 0.7369295324916606,
    7: 0.4887823980853703,
    8: 0.34595200579417446,
}


def two_cluster_line():
    """Two pairs on a line: {0, 1} and {5, 6}, medoids 0 and 2.

    Numerator 1 + 1, denominator 5, so the ratio is exactly 0.4.
    """
    ds = embed_1d([0.0, 1.0, 5.0, 6.0], normalized=True)
    result = ClusteringResult(
        method="kmedoids", k=2, assignments=(0, 0, 1, 1), prototypes=(0, 2),
        prototype_kind="medoid-index", objective=2.0, iterations=1,
        converged=True, metric=MetricConfig("euclidean"))
    return ds, result


class TestPrototypes:
    def test_medoid_dereference(self):
        ds, result = two_cluster_line()
        protos = prototypes(result, ds)
        assert protos == (ds[0].values, ds[2].values)

    def test_vector_passthrough(self):
        ds, _ = two_cluster_line()
        r = kmeans(ds, FitOptions(k=2, seed=0))
        assert prototypes(r, ds) == r.prototypes

    def test_size_mismatch(self):
        ds, result = two_cluster_line()
        small = embed_1d([0.0, 1.0], normalized=True)
        with pytest.raises(ValueError, match="dataset has"):
            prototypes(result, small)


class TestWcbcr:
    def test_hand_value(self):
        ds, result = two_cluster_line()
        assert wcbcr(result, ds) == pytest.approx(0.4, abs=1e-12)

    def test_vector_prototypes_hand_value(self):
        # centroids 0.5 and 5.5: numerator 4 * 0.5, denominator 5
        ds, _ = two_cluster_line()
        r = kmeans(ds, FitOptions(k=2, seed=0))
        assert wcbcr(r, ds) == pytest.approx(0.4, abs=1e-12)

    def test_relabel_invariance(self):
        ds, result = two_cluster_line()
        flipped = ClusteringResult(
            method="kmedoids", k=2, assignments=(1, 1, 0, 0),
            prototypes=(2, 0), prototype_kind="medoid-index", objective=2.0,
            iterations=1, converged=True, metric=MetricConfig("euclidean"))
        assert wcbcr(flipped, ds) == wcbcr(result, ds)

    def test_uniform_scaling_invariance(self):
        ds, result = two_cluster_line()
        scaled = embed_1d([0.0, 7.0, 35.0, 42.0], normalized=True)
        assert wcbcr(result, scaled) == pytest.approx(wcbcr(result, ds),
                                                      abs=1e-12)

    def test_identical_prototypes_degenerate(self):
        ds = embed_1d([1.0, 1.0, 1.0, 1.0], normalized=True)
        r = ClusteringResult(
            method="kmedoids", k=2, assignments=(0, 0, 1, 1),
            prototypes=(0, 2), prototype_kind="medoid-index", objective=0.0,
            iterations=1, converged=True)
        with pytest.raises(DegenerateClusteringError):
            wcbcr(r, ds)

    def test_k1_rejected(self):
        ds = embed_1d([0.0, 1.0], normalized=True)
        r = ClusteringResult(
            method="ahc", k=1, assignments=(0, 0), prototypes=(0,),
            prototype_kind="medoid-index", objective=1.0, iterations=1,
            converged=True)
        with pytest.raises(ValueError, match="k >= 2"):
            wcbcr(r, ds)

    def test_raw_dataset_warns_but_scores(self):
        ds = embed_1d([0.0, 1.0, 5.0, 6.0])
        _, result = two_cluster_line()
        with pytest.warns(UnnormalizedDataWarning):
            v = wcbcr(result, ds)
        assert v == pytest.approx(0.4, abs=1e-12)


def wcbcr_oracle(result, dataset):
    """WCBCR by one scalar Euclidean call per curve and per prototype pair."""
    protos = prototypes(result, dataset)
    numerator = 0.0
    for i, a in enumerate(result.assignments):
        numerator += pointwise_distance(dataset[i].values, protos[a], "euclidean")
    denominator = 0.0
    for a in range(result.k - 1):
        for b in range(a + 1, result.k):
            denominator += pointwise_distance(protos[a], protos[b], "euclidean")
    return numerator / denominator


class TestWcbcrAgainstOracle:
    """The batched score must match the scalar loops bit for bit."""

    def check(self, result, dataset):
        assert wcbcr(result, dataset).hex() == wcbcr_oracle(result, dataset).hex()

    def test_ahc_cuts_of_noisy_matrix(self, noisy_dataset, noisy_matrix):
        ds, _ = noisy_dataset
        for linkage in LINKAGES:
            d = build_dendrogram(noisy_matrix, linkage)
            for k in range(2, 9):
                self.check(cut(d, k, noisy_matrix), ds)

    def test_vector_prototypes(self, noisy_dataset):
        ds, _ = noisy_dataset
        for k in range(2, 9):
            self.check(kmeans(ds, FitOptions(k=k, seed=k, restarts=2)), ds)

    def test_tie_heavy_points(self):
        # integer points on a line: many equal distances and tied medoids
        rng = np.random.default_rng(200)
        for _ in range(15):
            ds = embed_1d(rng.integers(0, 5, size=int(rng.integers(4, 12))),
                          normalized=True)
            m = pairwise_matrix(ds, MetricConfig("euclidean"))
            d = build_dendrogram(m, "average")
            for k in range(2, len(ds) + 1):
                r = cut(d, k, m)
                # all-equal prototypes are the degenerate case, tested above
                if len({ds[p].values for p in r.prototypes}) > 1:
                    self.check(r, ds)


class TestMethodSpec:
    def test_names(self):
        assert MethodSpec("ahc").name() == "ahc-dtw-average"
        assert MethodSpec("ahc", MetricConfig("euclidean"),
                          "complete").name() == "ahc-euclidean-complete"
        assert MethodSpec("ahc", size_weighted=True).name() == \
            "ahc-dtw-average-sizeweighted"
        assert MethodSpec("kmedoids").name() == "kmedoids-dtw"
        assert MethodSpec("kmeans").name() == "kmeans"
        assert MethodSpec("kmeanspp").name() == "kmeanspp"
        assert MethodSpec("gmm").name() == "gmm"

    def test_matrix_method_metric_defaults(self):
        assert MethodSpec("ahc").metric == MetricConfig("dtw", 4)
        assert MethodSpec("kmedoids").metric == MetricConfig("dtw", 4)
        assert MethodSpec("ahc").linkage == "average"

    def test_vector_methods_reject_metric_and_linkage(self):
        for m in ("kmeans", "kmeanspp", "gmm"):
            assert MethodSpec(m).metric is None
            with pytest.raises(ValueError, match="metric"):
                MethodSpec(m, MetricConfig("euclidean"))
            with pytest.raises(ValueError, match="linkage"):
                MethodSpec(m, linkage="average")

    def test_kmedoids_rejects_linkage(self):
        with pytest.raises(ValueError, match="linkage"):
            MethodSpec("kmedoids", linkage="single")

    def test_size_weighted_only_with_ahc_average(self):
        # it would change nothing, yet rename the sweep's column
        with pytest.raises(ValueError, match="size_weighted"):
            MethodSpec("kmeans", size_weighted=True)
        with pytest.raises(ValueError, match="size_weighted"):
            MethodSpec("ahc", linkage="single", size_weighted=True)

    def test_unknown_method_and_linkage(self):
        with pytest.raises(ValueError, match="unknown method"):
            MethodSpec("dbscan")
        with pytest.raises(ValueError, match="unknown linkage"):
            MethodSpec("ahc", linkage="ward")

    @pytest.mark.parametrize("method", ["ahc", "kmeans", "kmedoids", "gmm"])
    @pytest.mark.parametrize("kw", [
        dict(max_iterations=0), dict(tolerance=0.0), dict(tolerance=math.nan),
        dict(covariance_regularizer=0.0), dict(covariance_kind="tied"),
        dict(restarts=0), dict(seed=-1),
    ])
    def test_rejects_bad_hyperparameters_at_construction(self, method, kw):
        with pytest.raises(ValueError):
            FitOptions(k=2, **kw)
        with pytest.raises(ValueError):
            MethodSpec(method, **kw)

    def test_options_plumbing(self):
        spec = MethodSpec("gmm", seed=9, restarts=2, max_iterations=50,
                          tolerance=1e-3, covariance_regularizer=1e-5,
                          covariance_kind="full")
        o = spec.options(4)
        assert o == FitOptions(k=4, seed=9, max_iterations=50, tolerance=1e-3,
                               covariance_regularizer=1e-5,
                               covariance_kind="full", restarts=2)


class TestFitDispatch:
    def test_ahc_equals_direct_cut(self, noisy_dataset, noisy_matrix):
        ds, _ = noisy_dataset
        spec = MethodSpec("ahc")
        dend = build_dendrogram(noisy_matrix, "average")
        assert fit(ds, spec, 3) == cut(dend, 3, noisy_matrix)

    @pytest.mark.parametrize("method,algorithm,init", [
        ("kmeans", "kmeans", "random"),
        ("kmeanspp", "kmeans", "plusplus"),
        ("kmedoids", "kmedoids", None),
        ("gmm", "gmm", "plusplus"),
    ])
    def test_method_routing(self, noisy_dataset, method, algorithm, init):
        ds, _ = noisy_dataset
        r = fit(ds, MethodSpec(method, restarts=2), 3)
        assert r.method == algorithm
        assert r.init == init
        assert r.k == 3


@pytest.fixture(scope="module")
def foreign_matrices(noisy_dataset):
    """Matrices that do not belong to a dtw(w=4) run on ``noisy_dataset``:
    one under another metric, one for another number of curves."""
    from loadclust import SyntheticSpec, generate_synthetic, normalize_dataset
    ds, _ = noisy_dataset
    other, _ = generate_synthetic(SyntheticSpec.default(3, 12), seed=1)
    return {
        "matrix was built with euclidean, run asks for dtw(w=4)":
            pairwise_matrix(ds, MetricConfig("euclidean")),
        "matrix is for 36 curves, dataset has 30":
            pairwise_matrix(normalize_dataset(other), MetricConfig("dtw", 4)),
    }


class TestForeignMatrixRefused:
    """``fit`` and ``sweep`` check a passed-in matrix by one rule."""

    @pytest.mark.parametrize("method", ["ahc", "kmedoids"])
    def test_fit_and_sweep_refuse_another_n_or_metric(
            self, noisy_dataset, foreign_matrices, method):
        ds, _ = noisy_dataset
        spec = MethodSpec(method, restarts=2)
        for message, m in foreign_matrices.items():
            with pytest.raises(ValueError, match=re.escape(message)):
                fit(ds, spec, 3, matrix=m)
            with pytest.raises(ValueError, match=re.escape(message)):
                sweep(ds, spec, 2, 4, matrix=m)

    def test_fit_refuses_a_matrix_for_a_vector_method(self, noisy_dataset,
                                                      noisy_matrix):
        ds, _ = noisy_dataset
        with pytest.raises(ValueError, match="kmeans does not use a distance"):
            fit(ds, MethodSpec("kmeans"), 3, matrix=noisy_matrix)


class TestRawKmedoidsRefusedFirst:
    """kmedoids refuses a raw dataset before any distance is computed."""

    MESSAGE = ("partitional methods require a normalized dataset; "
               "call normalize_dataset first")

    def test_fit_and_sweep_compute_no_matrix(self, monkeypatch):
        import loadclust.partitional as partitional
        from loadclust import SyntheticSpec, generate_synthetic
        raw, _ = generate_synthetic(SyntheticSpec.default(3, 4), seed=2)

        def forbidden(*a, **kw):
            raise AssertionError("no matrix should be computed")

        monkeypatch.setattr(ev, "pairwise_matrix", forbidden)
        monkeypatch.setattr(partitional, "pairwise_matrix", forbidden)
        spec = MethodSpec("kmedoids", restarts=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnnormalizedDataWarning)
            with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGE)}$"):
                fit(raw, spec, 3)
            report = sweep(raw, spec, 2, 4)
        assert report.rows == ()
        assert report.diagnostics == tuple(f"k={k}: {self.MESSAGE}"
                                           for k in (2, 3, 4))


class TestSweep:
    def test_golden_scores_and_elbow(self, noisy_dataset, noisy_matrix):
        ds, _ = noisy_dataset
        report = sweep(ds, MethodSpec("ahc"), 2, 8, matrix=noisy_matrix)
        assert report.ks() == tuple(range(2, 9))
        for k, score in report.rows:
            assert score == pytest.approx(GOLDEN_SWEEP[k], rel=1e-9)
        assert elbow(report) == 3
        assert report.diagnostics == ()

    def test_builds_matrix_and_dendrogram_exactly_once(self, noisy_dataset,
                                                       monkeypatch):
        ds, _ = noisy_dataset
        calls = {"matrix": 0, "dendrogram": 0}
        real_pm, real_bd = ev.pairwise_matrix, ev.build_dendrogram

        def counting_pm(*a, **kw):
            calls["matrix"] += 1
            return real_pm(*a, **kw)

        def counting_bd(*a, **kw):
            calls["dendrogram"] += 1
            return real_bd(*a, **kw)

        monkeypatch.setattr(ev, "pairwise_matrix", counting_pm)
        monkeypatch.setattr(ev, "build_dendrogram", counting_bd)
        sweep(ds, MethodSpec("ahc"), 2, 8)
        assert calls == {"matrix": 1, "dendrogram": 1}

    def test_precomputed_matrix_skips_the_build(self, noisy_dataset,
                                                noisy_matrix, monkeypatch):
        ds, _ = noisy_dataset

        def forbidden(*a, **kw):
            raise AssertionError("matrix should not be rebuilt")

        monkeypatch.setattr(ev, "pairwise_matrix", forbidden)
        report = sweep(ds, MethodSpec("ahc"), 2, 4, matrix=noisy_matrix)
        assert len(report.rows) == 3

    def test_degenerate_ks_become_diagnostics(self):
        base = z_normalize(make_curve(range(24)))
        ds = Dataset((base,) * 8, "per-curve")
        report = sweep(ds, MethodSpec("ahc"), 2, 4)
        assert report.rows == ()
        assert len(report.diagnostics) == 3
        assert all("degenerate" in d for d in report.diagnostics)
        for k, line in zip((2, 3, 4), report.diagnostics):
            assert line.startswith(f"k={k}:")

    def test_overflowing_objective_fails_only_its_k(self):
        # {0,1} and {2,3} join at 1e308 under single linkage, so the k=2
        # cut's member-to-medoid total overflows; k=3 and k=4 still score
        huge, far = 1e308, 1.7e308
        square = [[0, 1, huge, huge, far], [1, 0, huge, huge, far],
                  [huge, huge, 0, 1, far], [huge, huge, 1, 0, far],
                  [far, far, far, far, 0]]
        n = len(square)
        m = DistanceMatrix(n, np.asarray(square)[np.triu_indices(n, 1)])
        ds = embed_1d([0.0, 1.0, 5.0, 6.0, 20.0], normalized=True)
        with np.errstate(over="ignore"):
            report = sweep(ds, MethodSpec("ahc", linkage="single"), 2, 4,
                           matrix=m)
        assert report.ks() == (3, 4)
        assert report.diagnostics == ("k=2: objective must be finite",)

    def test_k_range_validation(self, noisy_dataset):
        ds, _ = noisy_dataset
        for lo, hi in [(1, 4), (5, 4), (2, 31)]:
            with pytest.raises(ValueError, match="k_min"):
                sweep(ds, MethodSpec("kmeans"), lo, hi)

    def test_matrix_for_vector_method_rejected(self, noisy_dataset,
                                               noisy_matrix):
        ds, _ = noisy_dataset
        with pytest.raises(ValueError, match="matrix"):
            sweep(ds, MethodSpec("kmeans"), 2, 4, matrix=noisy_matrix)

    def test_all_methods_scored_on_shared_range(self, noisy_dataset):
        ds, _ = noisy_dataset
        for method in ("kmeans", "kmeanspp", "kmedoids", "gmm"):
            report = sweep(ds, MethodSpec(method, restarts=2), 2, 4)
            assert report.ks() == (2, 3, 4)
            assert all(s >= 0 for s in report.scores())


class TestSweepReport:
    def test_k_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepReport(MethodSpec("ahc"), ((2, 1.0), (2, 2.0)))

    def test_scores_validated(self):
        with pytest.raises(ValueError, match="finite"):
            SweepReport(MethodSpec("ahc"), ((2, math.inf),))
        with pytest.raises(ValueError, match=">= 0"):
            SweepReport(MethodSpec("ahc"), ((2, -0.5),))

    def test_accessors(self):
        r = SweepReport(MethodSpec("ahc"), ((2, 5.0), (3, 1.0)))
        assert r.ks() == (2, 3) and r.scores() == (5.0, 1.0)


class TestElbow:
    def rep(self, pairs):
        return SweepReport(MethodSpec("ahc"), tuple(pairs))

    def test_l_shaped_curve(self):
        r = self.rep([(2, 100.0), (3, 50.0), (4, 10.0), (5, 9.0), (6, 8.0)])
        assert elbow(r) == 4

    def test_affine_score_invariance(self):
        a = [(2, 100.0), (3, 50.0), (4, 10.0), (5, 9.0), (6, 8.0)]
        b = [(k, 5.0 * w + 7.0) for k, w in a]
        assert elbow(self.rep(a)) == elbow(self.rep(b))

    def test_tie_goes_to_smallest_k(self):
        r = self.rep([(2, 3.0), (3, 1.0), (4, 1.0), (5, 3.0)])
        assert elbow(r) == 3

    def test_linear_curve_warns_and_returns_k_min(self):
        r = self.rep([(2, 3.0), (3, 2.0), (4, 1.0)])
        with pytest.warns(DegenerateElbowWarning):
            assert elbow(r) == 2

    def test_flat_curve_warns(self):
        r = self.rep([(2, 1.0), (3, 1.0), (4, 1.0)])
        with pytest.warns(DegenerateElbowWarning):
            assert elbow(r) == 2

    def test_needs_three_rows(self):
        with pytest.raises(ValueError, match="3 rows"):
            elbow(self.rep([(2, 2.0), (3, 1.0)]))


class TestSweepFiles:
    @pytest.fixture()
    def report(self, noisy_dataset, noisy_matrix):
        ds, _ = noisy_dataset
        return sweep(ds, MethodSpec("ahc"), 2, 8, matrix=noisy_matrix)

    def test_round_trip_and_byte_stability(self, tmp_path, report):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_sweep(report, p1)
        loaded = load_sweep(p1)
        assert loaded.rows == report.rows
        assert loaded.spec.name() == report.spec.name()
        save_sweep(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.csv.json").read_bytes() == \
            (tmp_path / "b.csv.json").read_bytes()

    def test_csv_layout(self, tmp_path, report):
        p = tmp_path / "s.csv"
        save_sweep(report, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "k,wcbcr"
        assert lines[1].startswith("2,") and len(lines) == 8

    def test_sidecar_metadata(self, tmp_path, report):
        p = tmp_path / "s.csv"
        save_sweep(report, p)
        meta = json.loads((tmp_path / "s.csv.json").read_text())
        assert meta["kind"] == "sweep-report"
        assert meta["method"] == "ahc"
        assert meta["name"] == "ahc-dtw-average"
        assert meta["metric"] == "dtw" and meta["window"] == 4
        assert meta["linkage"] == "average"
        assert meta["evaluation_metric"] == "euclidean"
        assert meta["denominator_pairs"] == "unordered"
        assert meta["elbow_k"] == 3
        assert meta["diagnostics"] == []

    def test_load_without_sidecar(self, tmp_path, report):
        p = tmp_path / "s.csv"
        save_sweep(report, p)
        (tmp_path / "s.csv.json").unlink()
        loaded = load_sweep(p)
        assert loaded.rows == report.rows
        assert loaded.spec == MethodSpec("ahc")

    def test_bad_header_and_rows(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("k;wcbcr\n")
        with pytest.raises(ValueError, match=r"\.csv:1"):
            load_sweep(p)
        p.write_text("k,wcbcr\n2,0.5\nthree,0.1\n")
        with pytest.raises(ValueError, match=r"\.csv:3"):
            load_sweep(p)
        p.write_text("k,wcbcr\n2,0.5\n3,0.1,7\n")
        with pytest.raises(ValueError, match=r"\.csv:3: expected 2 fields"):
            load_sweep(p)
        p.write_text("k,wcbcr\n2,0.5\n \n3,0.1\n")
        with pytest.raises(ValueError, match=r"\.csv:3"):
            load_sweep(p)

    def test_degenerate_save_suppresses_elbow_warning(self, tmp_path):
        flat = SweepReport(MethodSpec("ahc"), ((2, 1.0), (3, 1.0), (4, 1.0)))
        p = tmp_path / "flat.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_sweep(flat, p)
        meta = json.loads((tmp_path / "flat.csv.json").read_text())
        assert meta["elbow_k"] == 2  # k_min, the degenerate fallback

    def test_short_report_has_null_elbow(self, tmp_path):
        short = SweepReport(MethodSpec("ahc"), ((2, 2.0), (3, 1.0)))
        p = tmp_path / "short.csv"
        save_sweep(short, p)
        meta = json.loads((tmp_path / "short.csv.json").read_text())
        assert meta["elbow_k"] is None


class TestSweepTable:
    def test_columns_and_rows(self, noisy_dataset):
        ds, _ = noisy_dataset
        specs = [MethodSpec("ahc"), MethodSpec("kmeans", restarts=2)]
        names, rows, reports = sweep_table(ds, specs, 2, 4)
        assert names == ["ahc-dtw-average", "kmeans"]
        assert [r[0] for r in rows] == [2, 3, 4]
        assert all(len(r) == 3 for r in rows)
        assert reports[0].rows[0][1] == rows[0][1]

    def test_duplicate_names_rejected(self, noisy_dataset):
        ds, _ = noisy_dataset
        with pytest.raises(ValueError, match="unique"):
            sweep_table(ds, [MethodSpec("kmeans"), MethodSpec("kmeans")], 2, 3)

    def test_save_table_with_missing_cells(self, tmp_path):
        save_table(["a", "b"], [[2, 1.5, None], [3, None, 0.25]],
                   tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == \
            "k,a,b\n2,1.5,\n3,,0.25\n"

    def test_degenerate_dataset_yields_empty_cells(self, tmp_path):
        # medoid prototypes of identical curves coincide exactly, so every
        # fit lands in the degenerate-denominator diagnostic (centroid
        # methods can instead differ by rounding dust and are not used here)
        base = z_normalize(make_curve(range(24)))
        ds = Dataset((base,) * 6, "per-curve")
        names, rows, reports = sweep_table(
            ds, [MethodSpec("ahc"), MethodSpec("kmedoids", restarts=1)], 2, 3)
        assert all(cell is None for row in rows for cell in row[1:])
        assert all(len(r.diagnostics) == 2 for r in reports)
        save_table(names, rows, tmp_path / "empty.csv")
        lines = (tmp_path / "empty.csv").read_text().splitlines()
        assert lines[1] == "2,," and lines[2] == "3,,"
