"""The three workloads: seeded inputs, the untraced and traced pipelines, and
the output checks.

Imported by the worker (and the smoke tests) after the checkout's ``src`` is
first on the path, so ``loadclust`` here is always the code under test.
Every file a workload writes goes to the current working directory.

The untraced pipelines call the program the way a user would (``sweep``,
``loadclust.cli.main``). The traced pipelines compose the same stages from
the public functions, one span per call, so the time of each module can be
read off; their artifacts must match the untraced ones byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from datetime import timedelta
from io import StringIO
from pathlib import Path

import numpy as np

from loadclust import (DegenerateElbowWarning, FitError, MethodSpec,
                       MetricConfig, SweepReport, SyntheticSpec,
                       build_dendrogram, cut, dtw, elbow, generate_synthetic,
                       gmm_em, kmeans, kmedoids, load_matrix, load_sweep,
                       normalize_dataset, pairwise_matrix, reshape_readings,
                       save_matrix, save_result, save_sweep, sweep, wcbcr)
from loadclust.ahc import LINKAGES
from loadclust.cli import main as cli_main
from loadclust.curves import HOURS_PER_DAY, PER_CURVE
from loadclust.evaluation import EVALUATION_METRIC
from loadclust.io import read_curves, read_readings, write_curves

from spec import K_MAX, K_MIN

KS = range(K_MIN, K_MAX + 1)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def _size(path) -> int:
    return Path(path).stat().st_size


@dataclass
class Inputs:
    """What set-up hands the pipeline: raw datasets or a readings file."""

    sha256: str
    populations: tuple = ()
    n_curves: int = 0
    planted: int = 0


@dataclass
class Outcome:
    """Artifacts (name -> sha256), elbow k per sweep, and every operation."""

    artifacts: dict = field(default_factory=dict)
    elbows: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.ops.append([name, bool(ok), "" if ok else detail])

    def check(self, name: str, fn) -> None:
        """An output check: ``fn`` returns (ok, detail); a read error fails it."""
        try:
            ok, detail = fn()
        except (OSError, ValueError, KeyError, IndexError) as e:
            ok, detail = False, f"{type(e).__name__}: {e}"
        self.op(name, ok, detail)


# --- set-up -----------------------------------------------------------------

def _synthetic(p: dict, seed: int) -> tuple:
    """``p["populations"]`` independent raw datasets, the b-th seeded (seed, b)."""
    spec = SyntheticSpec.default(p["archetypes"], p["per_archetype"],
                                 p["noise"], p["shift"])
    return tuple(generate_synthetic(spec, [seed, b])[0]
                 for b in range(p["populations"]))


def write_readings_csv(raw, seed: int, path) -> int:
    """Write ``raw`` as hourly readings plus planted incomplete days.

    Readings below zero (noise on a low baseline) are clipped to zero. The
    planted days each miss at least one hour, so ingest must drop exactly
    them; rows are shuffled so ingest has to group them. Returns the number
    of planted days.
    """
    rng = np.random.default_rng([seed, 1])
    rows = [(c.household_id, c.date.isoformat(), h, max(v, 0.0))
            for c in raw for h, v in enumerate(c.values)]
    planted = int(rng.integers(3, 9))
    last = max(c.date for c in raw)
    for d in range(planted):
        household = raw[int(rng.integers(len(raw)))].household_id
        day = (last + timedelta(days=1 + d)).isoformat()
        hours = rng.choice(HOURS_PER_DAY, size=int(rng.integers(1, HOURS_PER_DAY)),
                           replace=False)
        rows += [(household, day, int(h), float(rng.uniform(0.1, 2.0)))
                 for h in sorted(hours)]
    with open(path, "w", newline="") as f:
        f.write("household_id,date,hour,kwh\n")
        for i in rng.permutation(len(rows)):
            household, day, hour, kwh = rows[i]
            f.write(f"{household},{day},{hour},{kwh!r}\n")
    return planted


def setup(name: str, p: dict, seed: int) -> Inputs:
    populations = _synthetic(p, seed)
    n_curves = sum(len(raw) for raw in populations)
    if name == "cli-cache":
        (raw,) = populations
        planted = write_readings_csv(raw, seed, READINGS)
        return Inputs(sha256_file(READINGS), n_curves=n_curves, planted=planted)
    digest = sha256_bytes(b"".join(raw.to_matrix().tobytes()
                                   for raw in populations))
    return Inputs(digest, populations, n_curves)


# --- traced building blocks ---------------------------------------------------

def band_cells(metric: MetricConfig) -> int:
    """Dynamic-programming cells one pair of 24-hour curves costs."""
    if metric.kind != "dtw":
        return HOURS_PER_DAY
    w = metric.window
    return sum(min(HOURS_PER_DAY, i + w - 1) - max(1, i - w + 1) + 1
               for i in range(1, HOURS_PER_DAY + 1))


def _count_curves(tr, dataset) -> None:
    tr.counts["curves.curves"] += len(dataset)
    tr.counts["curves.degenerate"] += sum(c.degenerate for c in dataset)


def _normalize(tr, raw):
    dataset = tr.call("curves", "normalize_dataset", normalize_dataset, raw,
                      PER_CURVE)
    _count_curves(tr, dataset)
    return dataset


def _pairwise(tr, dataset, metric: MetricConfig):
    matrix = tr.call("distance", "pairwise_matrix", pairwise_matrix, dataset,
                     metric)
    pairs = matrix.n * (matrix.n - 1) // 2
    tr.counts["distance.pairs"] += pairs
    tr.counts["distance.band_cells"] += pairs * band_cells(metric)
    return matrix


def _fit(tr, name: str, fn, dataset, options, **kwargs):
    tr.counts["partitional.fits"] += 1
    tr.counts["partitional.restarts"] += options.restarts
    try:
        result = tr.call("partitional", name, fn, dataset, options, **kwargs)
    except FitError:
        tr.counts["partitional.fit_errors"] += 1
        raise
    tr.counts["partitional.iterations"] += result.iterations
    tr.counts["partitional.unconverged"] += not result.converged
    return result


def _wcbcr(tr, result, dataset) -> float:
    tr.counts["evaluation.wcbcr_calls"] += 1
    return tr.call("evaluation", "wcbcr", wcbcr, result, dataset)


def _sweep(tr, dataset, spec: MethodSpec, fit_k, path) -> SweepReport:
    """What ``sweep`` does, one span per fit and score, then ``save_sweep``."""
    rows, diagnostics = [], []
    for k in KS:
        try:
            rows.append((k, _wcbcr(tr, fit_k(k), dataset)))
        except (ValueError, FitError) as e:
            diagnostics.append(f"k={k}: {e}")
    tr.counts["evaluation.diagnostics"] += len(diagnostics)
    report = tr.call("evaluation", "SweepReport", SweepReport, spec,
                     tuple(rows), EVALUATION_METRIC, tuple(diagnostics))
    tr.call("evaluation", "save_sweep", save_sweep, report, path)
    return report


def _sweep_path(label: str) -> str:
    return f"sweep-{label}.csv"


def _check_sweep(o: Outcome, label: str, report: SweepReport, k: int) -> None:
    """Record the sweep's files and check its fits, diagnostics and elbow."""
    _record_files(o, (_sweep_path(label), _sweep_path(label) + ".json"))
    for kk in KS:
        o.op(f"fit {label} k={kk}", kk in report.ks(), f"no row for k={kk}")
    o.op(f"sweep {label}", not report.diagnostics, "; ".join(report.diagnostics))
    o.op(f"check elbow {label} in [{K_MIN}, {K_MAX}]", K_MIN <= k <= K_MAX,
         f"elbow k={k}")
    o.elbows[label] = k


def sweep_checks(p, seed, inputs, reports, o: Outcome) -> None:
    for label, (report, k) in reports.items():
        _check_sweep(o, label, report, k)


def _record_files(o: Outcome, names) -> None:
    for name in names:
        if Path(name).exists():
            o.artifacts[name] = sha256_file(name)


# --- hier-dtw -----------------------------------------------------------------

def hier_untraced(p, inputs):
    (raw,) = inputs.populations
    dataset = normalize_dataset(raw, PER_CURVE)
    matrix = pairwise_matrix(dataset, MetricConfig("dtw", p["window"]))
    reports = {}
    for linkage in LINKAGES:
        report = sweep(dataset, MethodSpec("ahc", linkage=linkage), K_MIN,
                       K_MAX, matrix=matrix)
        save_sweep(report, _sweep_path(f"ahc-{linkage}"))
        reports[f"ahc-{linkage}"] = (report, elbow(report))
    return dataset, matrix, reports


def hier_traced(p, inputs, tr):
    (raw,) = inputs.populations
    dataset = _normalize(tr, raw)
    matrix = _pairwise(tr, dataset, MetricConfig("dtw", p["window"]))
    reports = {}
    for linkage in LINKAGES:
        spec = MethodSpec("ahc", linkage=linkage)
        tree = tr.call("ahc", "build_dendrogram", build_dendrogram, matrix,
                       spec.linkage, spec.size_weighted)
        tr.counts["ahc.merges"] += len(tree.merges)

        def fit_k(k, tree=tree):
            tr.counts["ahc.cuts"] += 1
            return tr.call("ahc", "cut", cut, tree, k, matrix)

        report = _sweep(tr, dataset, spec, fit_k, _sweep_path(f"ahc-{linkage}"))
        reports[f"ahc-{linkage}"] = (report,
                                     tr.call("evaluation", "elbow", elbow, report))
    return dataset, matrix, reports


def oracle_mismatches(dataset, matrix, window: int, n_pairs: int,
                      seed: int) -> list:
    """Seeded sample of pairs whose entry differs in any bit from ``dtw``."""
    rng = np.random.default_rng([seed, 2])
    n = matrix.n
    pairs = set()
    while len(pairs) < min(n_pairs, n * (n - 1) // 2):
        i, j = (int(v) for v in rng.integers(0, n, 2))
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    bad = []
    for i, j in sorted(pairs):
        got = np.float64(matrix.get(i, j)).view(np.uint64)
        want = np.float64(dtw(dataset[i].values, dataset[j].values,
                              window)).view(np.uint64)
        if got != want:
            bad.append((i, j))
    return bad


def hier_checks(p, seed, inputs, state, o: Outcome) -> None:
    dataset, matrix, reports = state
    o.artifacts["matrix.condensed"] = sha256_bytes(matrix.condensed.tobytes())
    sweep_checks(p, seed, inputs, reports, o)

    def oracle():
        bad = oracle_mismatches(dataset, matrix, p["window"],
                                p["oracle_pairs"], seed)
        return not bad, f"{len(bad)} sampled entries differ from dtw(): {bad[:5]}"

    o.check("check matrix bit-identical to scalar dtw", oracle)


# --- vector-sweep -------------------------------------------------------------

#: method -> (span name, partitional function, keyword arguments), as ``fit``
#: dispatches them.
VECTOR_METHODS = {
    "kmeans": ("kmeans", kmeans, {"init": "random"}),
    "kmeanspp": ("kmeanspp", kmeans, {"init": "plusplus"}),
    "gmm": ("gmm_em", gmm_em, {}),
}


def vector_untraced(p, inputs):
    reports = {}
    for b, raw in enumerate(inputs.populations):
        dataset = normalize_dataset(raw, PER_CURVE)
        for method in VECTOR_METHODS:
            label = f"{method}-p{b}"
            report = sweep(dataset, MethodSpec(method, restarts=p["restarts"]),
                           K_MIN, K_MAX)
            save_sweep(report, _sweep_path(label))
            reports[label] = (report, elbow(report))
    return reports


def vector_traced(p, inputs, tr):
    reports = {}
    for b, raw in enumerate(inputs.populations):
        dataset = _normalize(tr, raw)
        for method, (name, fn, kwargs) in VECTOR_METHODS.items():
            label = f"{method}-p{b}"
            spec = MethodSpec(method, restarts=p["restarts"])

            def fit_k(k, dataset=dataset, spec=spec, name=name, fn=fn,
                      kwargs=kwargs):
                return _fit(tr, name, fn, dataset, spec.options(k), **kwargs)

            report = _sweep(tr, dataset, spec, fit_k, _sweep_path(label))
            reports[label] = (report,
                              tr.call("evaluation", "elbow", elbow, report))
    return reports


# --- cli-cache ----------------------------------------------------------------

READINGS = "readings.csv"
CURVES = "curves.csv"
MATRIX = "matrix.json"
SWEEP = "sweep.csv"
SAVED_K4 = "result-save-k4.json"
REPLAY_DIR = Path("replay")

#: What the CLI resolves ``--method kmedoids --distance euclidean`` to.
CLI_SPEC = MethodSpec("kmedoids", metric=MetricConfig("euclidean", 4))
_METHOD_FLAGS = ("--method", "kmedoids", "--distance", "euclidean")


def _result_path(k: int) -> str:
    return f"result-k{k}.json"


CLI_ARTIFACTS = ((CURVES, CURVES + ".json", MATRIX, SAVED_K4)
                 + tuple(_result_path(k) for k in KS)
                 + (SWEEP, SWEEP + ".json"))


def cli_commands() -> list:
    """(command, argv, replay) for the whole sequence, in order."""
    cmds = [("ingest", ["ingest", "--input", READINGS, "--output", CURVES],
             _replay_ingest)]
    cmds.append(("cluster", ["cluster", "--input", CURVES, "--output", SAVED_K4,
                             "--k", "4", *_METHOD_FLAGS, "--save-matrix", MATRIX],
                 lambda tr: _replay_cluster(tr, 4, SAVED_K4, save=True)))
    for k in KS:
        cmds.append(("cluster", ["cluster", "--input", CURVES,
                                 "--output", _result_path(k), "--k", str(k),
                                 *_METHOD_FLAGS, "--load-matrix", MATRIX],
                     lambda tr, k=k: _replay_cluster(tr, k, _result_path(k),
                                                     save=False)))
    cmds.append(("sweep", ["sweep", "--input", CURVES, "--output", SWEEP,
                           "--k-min", str(K_MIN), "--k-max", str(K_MAX),
                           *_METHOD_FLAGS, "--load-matrix", MATRIX],
                 _replay_sweep))
    cmds.append(("elbow", ["elbow", "--input", SWEEP], _replay_elbow))
    return cmds


def run_cli(argv) -> tuple:
    """Run one command in-process: (exit code, stdout, stderr)."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def cli_untraced(p, inputs):
    return [(name, argv, *run_cli(argv)) for name, argv, _ in cli_commands()]


def cli_traced(p, inputs, tr):
    REPLAY_DIR.mkdir(exist_ok=True)
    runs = []
    for name, argv, replay in cli_commands():
        with tr.span("cli", name) as span:
            code, out, err = run_cli(argv)
        tr.counts["cli.commands"] += 1
        tr.counts["cli.nonzero_exits"] += code != 0
        runs.append((name, argv, code, out, err))
        with tr.replay(span[0]):
            replay(tr)
    return runs


def _replay_ingest(tr) -> None:
    readings = tr.call("io", "read_readings", read_readings, READINGS)
    tr.counts["io.bytes_read"] += _size(READINGS)
    dataset, dropped = tr.call("curves", "reshape_readings", reshape_readings,
                               readings)
    _count_curves(tr, dataset)
    out = REPLAY_DIR / CURVES
    tr.call("io", "write_curves", write_curves, dataset, out,
            extra={"source": READINGS, "dropped_days": dropped})
    tr.counts["io.bytes_written"] += _size(out) + _size(f"{out}.json")


def _replay_dataset(tr):
    raw, _ = tr.call("io", "read_curves", read_curves, CURVES)
    tr.counts["io.bytes_read"] += _size(CURVES) + _size(CURVES + ".json")
    return _normalize(tr, raw)


def _replay_matrix(tr, dataset, save: bool):
    if save:
        matrix = _pairwise(tr, dataset, CLI_SPEC.metric)
        out = REPLAY_DIR / MATRIX
        tr.call("distance", "save_matrix", save_matrix, matrix, out)
        tr.counts["distance.matrix_bytes"] += _size(out)
        return matrix
    tr.counts["distance.loads"] += 1
    tr.counts["distance.matrix_bytes"] += _size(MATRIX)
    return tr.call("distance", "load_matrix", load_matrix, MATRIX)


def _kmedoids(tr, dataset, matrix, k: int):
    return _fit(tr, "kmedoids", kmedoids, dataset, CLI_SPEC.options(k),
                metric=CLI_SPEC.metric, matrix=matrix)


def _replay_cluster(tr, k: int, output: str, save: bool) -> None:
    dataset = _replay_dataset(tr)
    matrix = _replay_matrix(tr, dataset, save)
    result = _kmedoids(tr, dataset, matrix, k)
    out = REPLAY_DIR / output
    tr.call("results", "save_result", save_result, result, out,
            extra_method_fields={"normalization": dataset.normalization,
                                 "restarts": CLI_SPEC.restarts})
    tr.counts["results.bytes"] += _size(out)
    _wcbcr(tr, result, dataset)


def _replay_sweep(tr) -> None:
    dataset = _replay_dataset(tr)
    matrix = _replay_matrix(tr, dataset, save=False)
    _sweep(tr, dataset, CLI_SPEC, lambda k: _kmedoids(tr, dataset, matrix, k),
           REPLAY_DIR / SWEEP)


def _replay_elbow(tr) -> None:
    report = tr.call("evaluation", "load_sweep", load_sweep, SWEEP)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateElbowWarning)
        tr.call("evaluation", "elbow", elbow, report)


def cli_checks(p, seed, inputs, runs, o: Outcome) -> None:
    for name, argv, code, _, err in runs:
        o.op(f"cli {' '.join(argv)}", code == 0,
             f"exit {code}: {err.strip()[-300:]}")
    _record_files(o, CLI_ARTIFACTS)
    outputs = {name: out for name, _, _, out, _ in runs}

    def ingest():
        want = f"curves={inputs.n_curves} dropped_days={inputs.planted}"
        got = outputs["ingest"].strip()
        return got == want, f"ingest printed {got!r}, planted {want!r}"

    def cached_equals_fresh():
        same = Path(SAVED_K4).read_bytes() == Path(_result_path(4)).read_bytes()
        return same, f"{_result_path(4)} differs from {SAVED_K4}"

    def sweep_clean():
        with open(SWEEP + ".json") as f:
            diagnostics = json.load(f)["diagnostics"]
        return not diagnostics, "; ".join(diagnostics)

    def elbow_k():
        k = int(outputs["elbow"].strip())
        o.elbows["cli"] = k
        return K_MIN <= k <= K_MAX, f"elbow k={k}"

    o.check("check ingest drops exactly the planted days", ingest)
    o.check("check --load-matrix k=4 result equals --save-matrix one",
            cached_equals_fresh)
    o.check("check cli sweep has no diagnostics", sweep_clean)
    o.check(f"check cli elbow in [{K_MIN}, {K_MAX}]", elbow_k)
    if REPLAY_DIR.is_dir():
        def replayed():
            bad = [n for n in CLI_ARTIFACTS
                   if sha256_file(REPLAY_DIR / n) != o.artifacts.get(n)]
            return not bad, f"replayed artifacts differ: {bad}"

        o.check("check replayed library calls write the commands' artifacts",
                replayed)


#: workload -> (untraced pipeline, traced pipeline, output checks)
PIPELINES = {
    "hier-dtw": (hier_untraced, hier_traced, hier_checks),
    "vector-sweep": (vector_untraced, vector_traced, sweep_checks),
    "cli-cache": (cli_untraced, cli_traced, cli_checks),
}
