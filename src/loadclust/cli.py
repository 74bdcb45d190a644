"""Batch command line: ingest, synth, cluster, sweep, elbow.

Every command is a pure file-in, file-out transformation plus at most one
line on stdout; identical flags always produce byte-identical artifacts.
Invalid flag combinations and hyperparameter values exit with status 2 and a
one-line diagnostic before any file is read, and a k the input cannot hold,
or a run too large for the address space limit, right after it is read,
before any distance is computed. ``synth`` resolves its flags into a
``SyntheticSpec``, ``cluster`` and ``sweep`` into a ``MethodSpec``; each
spec owns and checks its values as it is built, and only flag rules live
here. Failures while running, running out of memory included, exit with
status 1.

Commands
--------
ingest   readings CSV -> curves CSV (+ manifest)
synth    archetype spec + seed -> synthetic curves CSV (+ manifest with labels)
cluster  curves CSV -> clustering JSON; prints the WCBCR score
sweep    curves CSV -> k,wcbcr CSV (+ metadata sidecar with the elbow k)
elbow    sweep CSV -> prints the selected k

The defaults reproduce the package's headline configuration: hierarchical
clustering, DTW with window 4, average linkage, per-curve normalization,
Euclidean WCBCR scoring.
"""

from __future__ import annotations

import argparse
import resource
import sys
import warnings

from .ahc import LINKAGES
from .curves import PER_CURVE, PER_HOUR, RAW, SyntheticSpec, check_k, \
    generate_synthetic, normalize_dataset, reshape_readings
from .distance import METRIC_KINDS, MetricConfig, check_matrix, load_matrix, \
    pairwise_matrix, save_matrix
from .evaluation import (MATRIX_METHODS, METHODS, DegenerateElbowWarning,
                         MethodSpec, elbow, fit, load_sweep, peak_bytes,
                         save_sweep, sweep, wcbcr)
from .io import read_curves, read_readings, write_curves
from .partitional import FitError
from .results import COVARIANCE_KINDS, FitParams, save_result

class ConfigError(ValueError):
    """An invalid flag combination or hyperparameter value, caught before
    any computation."""


def _resolve(args: argparse.Namespace) -> MethodSpec | SyntheticSpec | None:
    """Check the flag rules, then build the run's spec, before any I/O.

    Only the flag rules live here: the cache flags only for the matrix
    methods, an explicit --covariance only for gmm, --window only with dtw
    and synth's --seed. The k range is ``check_k``'s, without the curve
    count. Every other rule, such as a metric only for the matrix methods,
    is the spec's (``SyntheticSpec``, ``MethodSpec`` and its ``FitParams``);
    its ValueError, as ``check_k``'s, becomes a ConfigError. Returns None
    for ingest and elbow, which take no spec.
    """
    command = args.command
    if command in ("ingest", "elbow"):
        return None
    if command == "synth" and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if command != "synth":
        method = args.method
        if method not in MATRIX_METHODS and (args.save_matrix or args.load_matrix):
            raise ConfigError(
                f"--save-matrix/--load-matrix only apply to matrix methods "
                f"({', '.join(MATRIX_METHODS)}), not {method}"
            )
        if args.covariance is not None and method != "gmm":
            raise ConfigError(f"--covariance only applies to gmm, not {method}")
        if args.window is not None and args.distance not in (None, "dtw"):
            raise ConfigError(
                f"--window only applies to the dtw distance, not {args.distance}"
            )

    try:
        if command == "synth":
            return SyntheticSpec.default(args.k_true, args.per_archetype,
                                         args.noise, args.shift)
        check_k(*_k_range(args))
        metric = None
        if args.distance is not None or args.window is not None:
            window = MetricConfig.window if args.window is None else args.window
            metric = MetricConfig(args.distance or MetricConfig.kind, window)
        return MethodSpec(
            method=args.method,
            metric=metric,
            linkage=args.linkage,
            size_weighted=args.size_weighted,
            seed=args.seed,
            restarts=args.restarts,
            max_iterations=args.max_iterations,
            tolerance=args.tolerance,
            covariance_kind=args.covariance or FitParams.covariance_kind,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _add_clustering_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=METHODS, default="ahc")
    p.add_argument("--distance", choices=METRIC_KINDS, default=None,
                   help="distance for matrix methods (default: dtw)")
    p.add_argument("--window", type=int, default=None,
                   help="Sakoe-Chiba band width for dtw (default: 4)")
    p.add_argument("--linkage", choices=LINKAGES, default=None,
                   help="ahc linkage (default: average)")
    p.add_argument("--size-weighted", action="store_true", dest="size_weighted",
                   help="size-weighted average linkage instead of the two-term mean")
    p.add_argument("--seed", type=int, default=FitParams.seed)
    p.add_argument("--normalization", choices=(PER_CURVE, PER_HOUR),
                   default=PER_CURVE)
    p.add_argument("--restarts", type=int, default=FitParams.restarts)
    p.add_argument("--max-iterations", type=int, dest="max_iterations",
                   default=FitParams.max_iterations)
    p.add_argument("--tolerance", type=float, default=FitParams.tolerance)
    p.add_argument("--covariance", choices=COVARIANCE_KINDS, default=None,
                   help="gmm covariance structure (default: diagonal)")
    p.add_argument("--save-matrix", default=None, dest="save_matrix",
                   help="write the pairwise distance matrix here")
    p.add_argument("--load-matrix", default=None, dest="load_matrix",
                   help="reuse a previously saved distance matrix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadclust",
        description="shape-based clustering of daily load curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="readings CSV -> curves CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic curves CSV")
    p.add_argument("--output", required=True)
    p.add_argument("--k-true", type=int, default=3, dest="k_true")
    p.add_argument("--per-archetype", type=int, default=10, dest="per_archetype")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("cluster", help="cluster a curves CSV at one k")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_clustering_flags(p)

    p = sub.add_parser("sweep", help="score a k-range and write k,wcbcr rows")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--k-min", type=int, required=True, dest="k_min")
    p.add_argument("--k-max", type=int, required=True, dest="k_max")
    _add_clustering_flags(p)

    p = sub.add_parser("elbow", help="pick k from a sweep CSV")
    p.add_argument("--input", required=True)

    return parser


def _k_range(args) -> tuple:
    """(k_min, k_max) of sweep, or cluster's one k as a range of one."""
    return (args.k,) * 2 if args.command == "cluster" else (args.k_min, args.k_max)


def _admit(args, spec: MethodSpec, n: int) -> None:
    """Refuse a run of ``spec`` whose ``peak_bytes`` estimate, the arrays
    it holds at its peak (a k-medoids memo by its restarts), is above the
    soft address space limit (``ulimit -v``), if there is one. The limit
    counts mapped bytes, which are more than resident ones, so the check
    errs toward admitting a run; a cgroup memory limit is not seen at all."""
    need = peak_bytes(n, _k_range(args)[1], spec)
    limit, _ = resource.getrlimit(resource.RLIMIT_AS)
    if limit != resource.RLIM_INFINITY and limit < need:
        raise ConfigError(
            f"{args.input}: {spec.method} on {n} curves needs about "
            f"{need / 2**20:.0f} MiB, above the address space limit of "
            f"{limit / 2**20:.0f} MiB")


def _inputs(args, spec: MethodSpec) -> tuple:
    """The run's curves, normalized, and its matrix: built, loaded and/or
    saved per the cache flags, None for a vector method. A k range the
    curves cannot hold, or a run that does not fit in the address space
    limit (``_admit``), is a ConfigError naming the input, raised before
    any distance is computed."""
    dataset, _ = read_curves(args.input)
    try:
        check_k(*_k_range(args), len(dataset))
    except ValueError as e:
        raise ConfigError(f"{args.input}: {e}") from e
    _admit(args, spec, len(dataset))
    if dataset.normalization == RAW:
        dataset = normalize_dataset(dataset, args.normalization)
    elif dataset.normalization != args.normalization:
        raise ConfigError(
            f"input is already normalized {dataset.normalization}, "
            f"which conflicts with --normalization {args.normalization}"
        )
    if spec.method not in MATRIX_METHODS:
        return dataset, None
    if args.load_matrix:
        matrix = load_matrix(args.load_matrix)
        try:
            check_matrix(matrix, len(dataset), spec.metric)
        except ValueError as e:
            raise ConfigError(f"{args.load_matrix}: cached {e}") from e
    else:
        matrix = pairwise_matrix(dataset, spec.metric)
    if args.save_matrix:
        save_matrix(matrix, args.save_matrix)
    return dataset, matrix


def _run_ingest(args, spec) -> int:
    readings = read_readings(args.input)
    dataset, dropped = reshape_readings(readings)
    write_curves(dataset, args.output,
                 extra={"source": args.input, "dropped_days": dropped})
    print(f"curves={len(dataset)} dropped_days={dropped}")
    return 0


def _run_synth(args, spec: SyntheticSpec) -> int:
    dataset, labels = generate_synthetic(spec, args.seed)
    write_curves(dataset, args.output, extra={
        "labels": [int(a) for a in labels],
        "seed": args.seed,
        "synthetic": {
            "k_true": len(spec.archetypes),
            "curves_per_archetype": spec.curves_per_archetype,
            "noise_std": spec.noise_std,
            "shift_range": spec.shift_range,
        },
    })
    print(f"curves={len(dataset)} archetypes={len(spec.archetypes)}")
    return 0


def _run_cluster(args, spec: MethodSpec) -> int:
    dataset, matrix = _inputs(args, spec)
    result = fit(dataset, spec, args.k, matrix=matrix)
    score = wcbcr(result, dataset)  # first: a result it refuses is not written
    save_result(result, args.output,
                extra_method_fields={"normalization": dataset.normalization,
                                     "restarts": spec.restarts})
    print(f"wcbcr={score!r}")
    return 0


def _run_sweep(args, spec: MethodSpec) -> int:
    dataset, matrix = _inputs(args, spec)
    report = sweep(dataset, spec, args.k_min, args.k_max, matrix=matrix)
    save_sweep(report, args.output)
    for line in report.diagnostics:
        print(f"warning: {line}", file=sys.stderr)
    print(f"rows={len(report.rows)}")
    return 0


def _run_elbow(args, spec) -> int:
    report = load_sweep(args.input)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateElbowWarning)
        k = elbow(report)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    print(k)
    return 0


_RUNNERS = {
    "ingest": _run_ingest,
    "synth": _run_synth,
    "cluster": _run_cluster,
    "sweep": _run_sweep,
    "elbow": _run_elbow,
}


def main(argv=None) -> int:
    """Run one command; returns the process exit status: 2 for a usage or
    configuration error, caught before any input is read (a k the input
    cannot hold or a run too large for the address space limit: right
    after it), and 1 for a failure while running."""
    args = build_parser().parse_args(argv)
    try:
        spec = _resolve(args)
        return _RUNNERS[args.command](args, spec)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, FitError, OSError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
