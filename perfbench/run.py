"""loadclust benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. For ``--seconds`` it starts one fresh
worker process after another (``worker.py``), each building its inputs from
the seed and running the workload once, on one thread, with the BLAS and
OpenMP thread counts pinned to 1. With ``--trace 0`` it reports the
end-to-end metrics as medians over those passes:

- ``wall_ref``: each pass's wall from the generated inputs to the last
  artifact and elbow k, divided by the time of a fixed reference mix timed
  in the same pass on the same CPU (``worker.reference_s``). The host this
  was tuned on changes speed by up to 40% from one minute to the next,
  which moves both alike; the raw median ``wall_s`` is printed beside it;
- ``setup_s``: interpreter start, ``import loadclust`` and writing inputs,
  converted to a fixed CPU speed the same way: each pass's set-up wall over
  the reference time taken right after it, times ``spec.REFERENCE_S``. The
  raw median is printed beside it as ``setup_wall_s``;
- ``peak_rss_mb``: the worker's peak resident memory (``ru_maxrss``).

With ``--trace 1`` it then runs one traced pass and reports the per-layer
metrics (see ``tracing.py``), plus ``trace.overhead_s``, the traced wall
minus the untraced median.

Every operation (each fit, sweep, CLI command and output check) counts
towards ``attempted``; ``failed`` counts FitErrors, sweep diagnostics,
non-zero exits and failed checks. All passes of one seed must write
byte-identical artifacts, and the traced pass must write the same ones as
the untraced passes. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full record (versions, seed, input and artifact sha256, samples).

Exits with status 2, printing no result, when the checkout holds no
``src/loadclust`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import REFERENCE_S, THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_DIR = ROOT / ".perfbench_work"

#: A pass still running this long after the run started is killed and
#: counted as failed, so that a run always ends within 180 seconds.
RUN_DEADLINE_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the measured ones")
    return parser.parse_args(argv)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    # A fixed hash seed lays out sets and dicts alike in every pass, so
    # their cost does not vary from pass to pass.
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(args, workdir: Path, traced: bool, deadline: float) -> tuple:
    """One worker process: (its JSON result or None, error text)."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "1" if traced else "0"]
    if args.tiny:
        cmd.append("--tiny")
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=worker_env(),
                              capture_output=True, text=True,
                              timeout=max(deadline - launched, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"pass still running {RUN_DEADLINE_S} s into the run"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, f"no result line: {proc.stdout[-500:]!r}"
    result["setup_s"] = result.pop("ready") - launched
    return result, ""


def measure(args, work: Path) -> dict:
    """Untraced passes for ``--seconds``, then one traced pass if asked.

    A pass starts only if a pass of median length would still end within
    ``--seconds``, so a run takes about ``--seconds`` however long a pass is;
    there is always at least one.
    """
    passes, ops, durations = [], [], []
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    while (not durations or time.monotonic() - start
           + statistics.median(durations) <= args.seconds):
        launched = time.monotonic()
        result, error = run_pass(args, work / f"pass{len(durations)}",
                                 traced=False, deadline=deadline)
        durations.append(time.monotonic() - launched)
        if result is None:
            ops.append(["untraced pass", False, error])
            continue
        passes.append(result)
        ops.extend(result["ops"])
    traced = None
    if args.trace:
        traced, error = run_pass(args, work / "traced", traced=True,
                                 deadline=deadline)
        if traced is None:
            ops.append(["traced pass", False, error])
        else:
            ops.extend(traced["ops"])
    ops.extend(consistency_ops(passes, traced))
    return {"passes": passes, "traced": traced, "ops": ops}


def consistency_ops(passes, traced) -> list:
    """Every pass of one seed, traced or not, must read and write the same
    bytes: one check per pass after the first, and one for the traced pass."""
    def outputs(result):
        return {key: result[key]
                for key in ("input_sha256", "artifacts", "elbows")}

    ops = [[f"check pass {i} outputs equal pass 0's",
            outputs(result) == outputs(passes[0]),
            f"pass {i} read or wrote other bytes than pass 0"]
           for i, result in enumerate(passes[1:], start=1)]
    if traced is not None:
        ops.append(["check traced pass outputs equal untraced ones",
                    bool(passes) and outputs(traced) == outputs(passes[0]),
                    "traced pass read or wrote other bytes"])
    return ops


def median_of(passes, key: str) -> float:
    return statistics.median(p[key] for p in passes) if passes else 0.0


def median_per_reference(passes, key: str, reference) -> float:
    """Median over passes of ``key`` over ``reference`` of the pass's own
    reference samples (taken before and after its pipeline)."""
    return statistics.median(p[key] / reference(p["reference_s"])
                             for p in passes) if passes else 0.0


def report(args, m: dict) -> tuple:
    """(record, result) for the measured passes."""
    passes, traced, ops = m["passes"], m["traced"], m["ops"]
    params = WORKLOADS[args.workload]["tiny" if args.tiny else "params"]
    failed = [op for op in ops if not op[1]]
    walls = [p["wall_s"] for p in passes]
    references = [r for p in passes for r in p["reference_s"]]
    if args.trace:
        metrics = {}
        if traced is not None:
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in traced["layers"].items()}
            overhead = traced["wall_s"] - median_of(passes, "wall_s")
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "wall_ref": {"value": median_per_reference(
                passes, "wall_s", statistics.mean), "unit": "ref"},
            # Set-up ends just before the first sample, which times the CPU
            # closest to it.
            "setup_s": {"value": median_per_reference(
                passes, "setup_s", lambda samples: samples[0])
                * REFERENCE_S[params["reference"]], "unit": "s"},
            "peak_rss_mb": {"value": median_of(passes, "peak_rss_mb"),
                            "unit": "MB"},
        }
    first = passes[0] if passes else (traced or {})
    record = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload]["why"],
        "params": params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "versions": first.get("versions"),
        "nproc": os.cpu_count(),
        "pinned_cpu": first.get("cpu"),
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "input_sha256": first.get("input_sha256"),
        "artifact_sha256": first.get("artifacts"),
        "elbows": first.get("elbows"),
        "samples": len(passes),
        "wall_s": {"median": median_of(passes, "wall_s"),
                   "max": max(walls, default=0.0), "all": walls},
        "reference_s": {"median": statistics.median(references)
                        if references else 0.0, "all": references},
        "setup_s": {"median": median_of(passes, "setup_s"),
                    "all": [p["setup_s"] for p in passes]},
        "peak_rss_mb": {"all": [p["peak_rss_mb"] for p in passes]},
        "failed_ratio": len(failed) / len(ops),
        "failed_ops": failed,
    }
    result = {"correct": bool(passes) and not failed and
              (traced is not None or not args.trace),
              "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "loadclust" / "__init__.py").is_file():
        print(f"error: no loadclust sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record, result = report(args, measure(args, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    print(f"{args.workload} wall_s = {record['wall_s']['median']!r} s "
          f"(median of passes; max {record['wall_s']['max']!r} s)")
    print(f"{args.workload} setup_wall_s = {record['setup_s']['median']!r} s "
          f"(median of passes)")
    print(f"{args.workload} failed_ratio = {record['failed_ratio']!r} ratio "
          f"({result['failed']}/{result['attempted']})")
    print(f"{args.workload} wall_s samples = {record['samples']}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
