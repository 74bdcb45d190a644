"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Checks that every workload prints every metric ``BENCHMARK.json`` names,
that the traced layer self times add up to the traced wall, that each
output check fails when fed a corrupted artifact, and that the benchmark
refuses to run where there is no ``src/loadclust``. (Named so that the
repository's own pytest run does not collect it.)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from loadclust import DistanceMatrix  # noqa: E402
from spec import WORKLOADS  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench_work" / f"smoke-{os.getpid()}"


def run_benchmark(workload: str, trace: int, cwd=ROOT,
                  script=HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


class InDirectory(unittest.TestCase):
    """Runs each test in a fresh directory, as the worker runs a pass."""

    def setUp(self):
        self.dir = SCRATCH / self.id().rsplit(".", 1)[-1]
        self.dir.mkdir(parents=True)
        self.old = os.getcwd()
        os.chdir(self.dir)

    def tearDown(self):
        os.chdir(self.old)
        shutil.rmtree(self.dir)

    def failed_ops(self, outcome) -> list:
        return [name for name, ok, _ in outcome.ops if not ok]


class TestPrintedMetrics(unittest.TestCase):
    def test_every_metric_printed_for_every_workload(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_benchmark(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    record = json.loads(lines[-2])["record"]
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], record["failed_ops"])
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertIn(f"{workload} failed_ratio = 0.0", proc.stdout)
                    for field in ("git_sha", "python", "versions", "nproc",
                                  "blas_threads", "seed", "input_sha256",
                                  "artifact_sha256"):
                        self.assertIn(field, record)
                    self.assertTrue(record["artifact_sha256"])
                    if trace:
                        self.check_layers_add_up(result["metrics"])

    def check_layers_add_up(self, metrics):
        wall = metrics["trace.wall_s"]["value"]
        rest = metrics["trace.unattributed_s"]["value"]
        layers = sum(v["value"] for n, v in metrics.items()
                     if n.endswith(".self_s"))
        self.assertAlmostEqual(layers + rest, wall, delta=1e-9)
        self.assertLess(rest, 0.1 * wall)

    def test_benchmark_metadata_matches_workloads(self):
        self.assertEqual({w["name"]: w["why"] for w in BENCHMARK["workloads"]},
                         {name: w["why"] for name, w in WORKLOADS.items()})


class TestRefusesWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_benchmark("hier-dtw", 0, cwd=bare,
                                 script=bare / HERE.name / "run.py")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


class TestLibraryChecks(InDirectory):
    def test_oracle_catches_one_flipped_bit(self):
        p = WORKLOADS["hier-dtw"]["tiny"]
        inputs = workloads.setup("hier-dtw", p, 3)
        dataset, matrix, _ = workloads.hier_untraced(p, inputs)
        every_pair = matrix.n * (matrix.n - 1) // 2
        self.assertEqual(workloads.oracle_mismatches(
            dataset, matrix, p["window"], every_pair, 3), [])
        bits = matrix.condensed.copy().view(np.uint64)
        bits[5] ^= 1
        corrupted = DistanceMatrix(matrix.n, bits.view(np.float64), matrix.metric)
        self.assertEqual(len(workloads.oracle_mismatches(
            dataset, corrupted, p["window"], every_pair, 3)), 1)

    def test_sweep_checks_catch_diagnostics_and_bad_elbow(self):
        p = WORKLOADS["vector-sweep"]["tiny"]
        inputs = workloads.setup("vector-sweep", p, 3)
        reports = workloads.vector_untraced(p, inputs)
        clean = workloads.Outcome()
        workloads.sweep_checks(p, 3, inputs, reports, clean)
        self.assertEqual(self.failed_ops(clean), [])

        report, _ = reports["kmeans-p0"]
        broken = type(report)(report.spec, report.rows[1:],
                              report.evaluation_metric, ("k=2: FitError",))
        outcome = workloads.Outcome()
        workloads.sweep_checks(p, 3, inputs, {"kmeans-p0": (broken, 9)},
                               outcome)
        self.assertEqual(self.failed_ops(outcome),
                         ["fit kmeans-p0 k=2", "sweep kmeans-p0",
                          "check elbow kmeans-p0 in [2, 8]"])


class TestCliChecks(InDirectory):
    def run_cli(self, traced: bool):
        p = WORKLOADS["cli-cache"]["tiny"]
        inputs = workloads.setup("cli-cache", p, 3)
        if traced:
            runs = workloads.cli_traced(p, inputs, Tracer())
        else:
            runs = workloads.cli_untraced(p, inputs)
        return p, inputs, runs

    def checks(self, p, inputs, runs) -> list:
        outcome = workloads.Outcome()
        workloads.cli_checks(p, 3, inputs, runs, outcome)
        return self.failed_ops(outcome)

    def test_clean_run_passes(self):
        self.assertEqual(self.checks(*self.run_cli(traced=True)), [])

    def test_corrupted_cached_result_fails(self):
        p, inputs, runs = self.run_cli(traced=False)
        with open(workloads._result_path(4), "a") as f:
            f.write(" ")
        self.assertEqual(self.checks(p, inputs, runs),
                         ["check --load-matrix k=4 result equals --save-matrix one"])

    def test_wrong_drop_count_fails(self):
        p, inputs, runs = self.run_cli(traced=False)
        inputs.planted += 1
        self.assertEqual(self.checks(p, inputs, runs),
                         ["check ingest drops exactly the planted days"])

    def test_corrupted_replay_artifact_fails(self):
        p, inputs, runs = self.run_cli(traced=True)
        with open(workloads.REPLAY_DIR / workloads.MATRIX, "a") as f:
            f.write("0.0\n")
        self.assertEqual(
            self.checks(p, inputs, runs),
            ["check replayed library calls write the commands' artifacts"])

    def test_nonzero_exit_fails(self):
        p, inputs, runs = self.run_cli(traced=False)
        name, argv, _, out, err = runs[-1]
        runs[-1] = (name, argv, 1, out, "error: boom")
        self.assertEqual(self.checks(p, inputs, runs),
                         [f"cli {' '.join(argv)}"])


class TestPassConsistency(unittest.TestCase):
    def passes(self):
        return [{"input_sha256": "a", "artifacts": {"x.csv": "1"},
                 "elbows": {"m": 3}} for _ in range(3)]

    def test_identical_passes_agree(self):
        passes = self.passes()
        self.assertTrue(all(ok for _, ok, _ in
                            run.consistency_ops(passes, dict(passes[0]))))

    def test_corrupted_artifact_digest_fails(self):
        passes = self.passes()
        passes[2] = dict(passes[2], artifacts={"x.csv": "2"})
        traced = dict(passes[0], elbows={"m": 4})
        failed = [name for name, ok, _ in run.consistency_ops(passes, traced)
                  if not ok]
        self.assertEqual(failed, ["check pass 2 outputs equal pass 0's",
                                  "check traced pass outputs equal untraced ones"])


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass
