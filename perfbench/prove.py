"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/prove.py --seeds 1-10 --out FILE [--trace]
                               [--workload NAME ...]

Runs ``run.py`` once per (workload, seed), one after another, from the root
of the checkout, each for ``run_seconds`` from ``BENCHMARK.json``. For each
end-to-end metric it reports the median over the seeds and the spread: the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``. With ``--trace`` it adds one
traced run per workload (first seed) for the per-layer figures. ``--out``
gets the whole summary as JSON; ``perfbench/baseline/`` holds the one
recorded at the parent commit of each benchmark change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spec import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    run = {"record": json.loads(lines[-2])["record"],
           "result": json.loads(lines[-1])}
    print(f"{workload} seed {seed} trace {trace}: correct "
          f"{run['result']['correct']}, "
          + ", ".join(f"{name} {m['value']:.4g}"
                      for name, m in run["result"]["metrics"].items()
                      if not trace or name.startswith("trace.")), flush=True)
    return run


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    summary = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    for workload in args.workload or list(WORKLOADS):
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        stats = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats[name] = {"median": statistics.median(values),
                           "spread": spread(values), "bound": bound,
                           "values": values}
            print(f"{workload} {name}: median {stats[name]['median']:.4f} "
                  f"spread {stats[name]['spread']:.3f} (bound {bound})",
                  flush=True)
        entry = {"metrics": stats,
                 "correct": all(r["result"]["correct"] for r in runs),
                 "runs": runs}
        if args.trace:
            entry["traced"] = run_once(workload, args.seeds[0], seconds, 1)
        summary["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
