"""End-to-end acceptance checks.

Each test verifies one stated behavioral guarantee of the package and
prints a single PASS/FAIL line (past pytest's capture), so the whole
guarantee list is readable from one ``pytest tests/test_acceptance.py -q``
run. Oracles here are independent recomputations, not calls back into the
code under test.
"""

import ast
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree

from loadclust import (FitOptions, MethodSpec, MetricConfig, SyntheticSpec,
                       build_dendrogram, dtw, elbow, fit, generate_synthetic,
                       gmm_em, kmeans, kmedoids, normalize_dataset,
                       pointwise_distance, save_table, sweep, sweep_table,
                       wcbcr)
from loadclust.cli import main
from loadclust.results import ClusteringResult

from conftest import (best_match_accuracy, dtw_oracle, embed_1d,
                      linkage_oracle, random_square, square_to_matrix)


@contextmanager
def criterion(capsys, n, text):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {n:2d} FAIL - {text}")
        raise
    with capsys.disabled():
        print(f"criterion {n:2d} PASS - {text}")


def test_01_dtw_matches_path_enumeration(capsys):
    with criterion(capsys, 1, "banded dtw equals exhaustive path enumeration "
                              "(500 pairs per window in {1,2,3}, tol 1e-9)"):
        start = time.monotonic()
        values = (0.0, 1.0, 2.0)
        for w in (1, 2, 3):
            rng = np.random.default_rng(1000 + w)
            for _ in range(500):
                n = int(rng.integers(1, 7))
                m = int(rng.integers(1, 7))
                x = [values[i] for i in rng.integers(0, 3, n)]
                y = [values[i] for i in rng.integers(0, 3, m)]
                expect = dtw_oracle(x, y, w)
                got = dtw(x, y, w)
                if math.isinf(expect):
                    assert math.isinf(got)
                else:
                    assert abs(got - expect) <= 1e-9
        assert time.monotonic() - start < 10.0


def test_02_window_one_is_euclidean(capsys):
    with criterion(capsys, 2, "dtw with window 1 equals the euclidean "
                              "distance (1000 pairs, tol 1e-12)"):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            x = list(rng.normal(size=24))
            y = list(rng.normal(size=24))
            worst = max(worst, abs(dtw(x, y, 1)
                                   - pointwise_distance(x, y, "euclidean")))
        assert worst < 1e-12


def test_03_band_monotonicity(capsys):
    with criterion(capsys, 3, "widening the band never increases dtw, and "
                              "dtw never exceeds euclidean"):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = list(rng.normal(size=24))
            y = list(rng.normal(size=24))
            eu = pointwise_distance(x, y, "euclidean")
            prev = math.inf
            for w in (1, 2, 4, 8, 24):
                d = dtw(x, y, w)
                assert d <= prev + 1e-12
                assert d <= eu + 1e-12
                prev = d


def test_04_linkage_matches_oracle(capsys):
    with criterion(capsys, 4, "all three linkages reproduce a from-scratch "
                              "recomputation exactly (200 random matrices), "
                              "and single-linkage heights are the MST edges"):
        rng = np.random.default_rng(4)
        for trial in range(200):
            n = int(rng.integers(3, 11))
            square = random_square(rng, n, integer=bool(trial % 4 == 0))
            matrix = square_to_matrix(square)
            for linkage in ("single", "complete", "average"):
                d = build_dendrogram(matrix, linkage)
                got = [(s.left, s.right, s.height, s.new_size)
                       for s in d.merges]
                assert got == linkage_oracle(square, linkage)
            single = build_dendrogram(matrix, "single")
            mst = minimum_spanning_tree(square).toarray()
            assert np.allclose(sorted(single.heights().tolist()),
                               sorted(mst[mst > 0].tolist()), atol=1e-12)


def test_05_merge_heights_monotone(capsys, noisy_matrix):
    with criterion(capsys, 5, "merge heights are non-decreasing for every "
                              "linkage"):
        rng = np.random.default_rng(5)
        matrices = [square_to_matrix(random_square(rng, int(rng.integers(4, 16))))
                    for _ in range(30)] + [noisy_matrix]
        for m in matrices:
            for linkage in ("single", "complete", "average"):
                h = build_dendrogram(m, linkage).heights()
                assert np.all(np.diff(h) >= 0)


def test_06_objective_traces_are_monotone(capsys, noisy_dataset, noisy_matrix):
    with criterion(capsys, 6, "per-iteration objectives: k-means and "
                              "k-medoids never increase, the mixture's "
                              "log-likelihood never decreases (tol 1e-9)"):
        ds, _ = noisy_dataset
        km = kmeans(ds, FitOptions(k=3, seed=0, tolerance=1e-12))
        assert len(km.trace) >= 2
        for a, b in zip(km.trace, km.trace[1:]):
            assert b <= a + 1e-9

        kd = kmedoids(ds, FitOptions(k=3, seed=0), matrix=noisy_matrix)
        assert len(kd.trace) >= 2
        for a, b in zip(kd.trace, kd.trace[1:]):
            assert b <= a + 1e-9

        gm = gmm_em(ds, FitOptions(k=3, seed=0, tolerance=1e-12))
        assert len(gm.trace) >= 2
        for a, b in zip(gm.trace, gm.trace[1:]):
            assert b >= a - 1e-9


def test_07_every_method_recovers_planted_clusters(capsys, clean_dataset):
    with criterion(capsys, 7, "all five methods recover well-separated "
                              "synthetic archetypes with 100% accuracy"):
        ds, labels = clean_dataset
        for spec in (MethodSpec("ahc"), MethodSpec("kmeans"),
                     MethodSpec("kmeanspp"), MethodSpec("kmedoids")):
            r = fit(ds, spec, 3)
            assert best_match_accuracy(r.assignments, labels) == 1.0

        # the mixture needs nonzero within-cluster variance to be well posed
        raw, glabels = generate_synthetic(
            SyntheticSpec.default(3, 10, noise_std=0.01), seed=0)
        g = fit(normalize_dataset(raw), MethodSpec("gmm"), 3)
        assert best_match_accuracy(g.assignments, glabels) == 1.0


def test_08_elbow_finds_planted_k(capsys, noisy_dataset, noisy_matrix):
    with criterion(capsys, 8, "the elbow of the wcbcr sweep sits at the "
                              "planted k=3 (seed-0 noisy dataset, k in 2..8)"):
        ds, _ = noisy_dataset
        report = sweep(ds, MethodSpec("ahc"), 2, 8, matrix=noisy_matrix)
        assert report.ks() == tuple(range(2, 9))
        assert elbow(report) == 3


def test_09_wcbcr_hand_value(capsys):
    with criterion(capsys, 9, "wcbcr reproduces a hand-computed ratio "
                              "(0.4, tol 1e-12)"):
        ds = embed_1d([0.0, 1.0, 5.0, 6.0], normalized=True)
        result = ClusteringResult(
            method="kmedoids", k=2, assignments=(0, 0, 1, 1),
            prototypes=(0, 2), prototype_kind="medoid-index", objective=2.0,
            iterations=1, converged=True, metric=MetricConfig("euclidean"))
        assert abs(wcbcr(result, ds) - 0.4) < 1e-12


def test_10_method_comparison_table(capsys, tmp_path, noisy_dataset):
    with criterion(capsys, 10, "the five-method wcbcr table over k=2..8 is "
                               "byte-identical across runs and finishes in "
                               "under two minutes"):
        ds, _ = noisy_dataset
        specs = [MethodSpec("ahc"), MethodSpec("kmeans"),
                 MethodSpec("kmeanspp"), MethodSpec("kmedoids"),
                 MethodSpec("gmm")]
        start = time.monotonic()
        paths = []
        for run in (1, 2):
            names, rows, _ = sweep_table(ds, specs, 2, 8)
            p = tmp_path / f"table{run}.csv"
            save_table(names, rows, p)
            paths.append(p)
        assert time.monotonic() - start < 120.0
        content = paths[0].read_bytes()
        assert content == paths[1].read_bytes()
        header = content.decode().splitlines()[0]
        assert header == ("k,ahc-dtw-average,kmeans,kmeanspp,"
                          "kmedoids-dtw,gmm")
        assert len(content.decode().splitlines()) == 8


def test_11_cli_pipeline_is_byte_deterministic(capsys, tmp_path):
    with criterion(capsys, 11, "the synth -> cluster -> sweep -> elbow CLI "
                               "pipeline writes byte-identical artifacts "
                               "across runs"):
        outs = []
        for run in (1, 2):
            d = tmp_path / f"run{run}"
            d.mkdir()
            curves, result = d / "curves.csv", d / "result.json"
            swp, cache = d / "sweep.csv", d / "matrix.dmx"
            assert main(["synth", "--output", str(curves), "--noise", "0.1",
                         "--shift", "2", "--seed", "0"]) == 0
            assert main(["cluster", "--input", str(curves), "--output",
                         str(result), "--k", "3",
                         "--save-matrix", str(cache)]) == 0
            assert main(["sweep", "--input", str(curves), "--output",
                         str(swp), "--k-min", "2", "--k-max", "8",
                         "--load-matrix", str(cache)]) == 0
            assert main(["elbow", "--input", str(swp)]) == 0
            outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        assert outs[0] == outs[1]

        captured = capsys.readouterr().out.splitlines()
        assert captured.count("3") == 2  # elbow printed the planted k twice

        doc = json.loads(outs[0]["result.json"])
        assert doc["k"] == 3 and doc["method"]["algorithm"] == "ahc"
        sidecar = json.loads(outs[0]["sweep.csv.json"])
        assert sidecar["elbow_k"] == 3


#: The only ``@`` operators and BLAS or LAPACK calls in ``src/loadclust``,
#: as (module, function, source) with their count: the mixture's. Those
#: kernels pick their summation order by CPU, so README scopes the
#: mixture's bytes to one machine and one numpy and BLAS build.
BLAS_SITES = Counter({
    ("partitional.py", "_log_densities", "np.linalg.cholesky(covs[c])"): 1,
    ("partitional.py", "_log_densities",
     "np.linalg.solve(L, (X - means[c]).T)"): 1,
    ("partitional.py", "_gmm_init", "diff.T @ diff"): 1,
    ("partitional.py", "_gmm_single", "resp.T @ X"): 1,
    ("partitional.py", "_gmm_single", "resp[:, c] @ (diff * diff)"): 1,
    ("partitional.py", "_gmm_single", "(diff.T * resp[:, c]) @ diff"): 1,
})

_BLAS_FUNCTIONS = {"dot", "matmul", "einsum", "inner", "tensordot"}


def _blas_sites(path: Path):
    """(function, source, line) of every ``@`` and every call of
    ``np.dot``, ``np.matmul``, ``np.einsum``, ``np.inner``,
    ``np.tensordot`` or ``np.linalg.*`` in ``path``; naming
    ``np.linalg.LinAlgError`` is not a call."""
    source = path.read_text(encoding="utf-8")
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        hit = isinstance(getattr(node, "op", None), ast.MatMult)
        if isinstance(node, ast.Call):
            module, _, name = ast.unparse(node.func).partition(".")
            hit = module in ("np", "numpy") and (
                name in _BLAS_FUNCTIONS or name.startswith("linalg."))
        if hit:
            found.append((function, ast.get_source_segment(source, node),
                          node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source, str(path)), None)
    return found


def test_only_the_mixture_calls_blas():
    """README's Reproducibility rule, checked: every reduction outside the
    mixture is numpy's fixed serial order, never a BLAS or LAPACK kernel
    chosen by CPU."""
    src = Path(__file__).resolve().parents[1] / "src" / "loadclust"
    seen, unexpected = Counter(), []
    for path in sorted(src.glob("*.py")):
        for function, code, line in _blas_sites(path):
            site = (path.name, function, code)
            seen[site] += 1
            if seen[site] > BLAS_SITES[site]:
                unexpected.append(f"{path.name}:{line}: {code}")
    assert not unexpected, ("BLAS or LAPACK outside the allow-list: "
                            + "; ".join(unexpected))
    missing = sorted((BLAS_SITES - seen).elements())
    assert not missing, f"allow-list sites not found: {missing}"
