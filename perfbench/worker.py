"""One pass of one workload, in a fresh process started by ``run.py``.

Run from the pass's own working directory:

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--tiny]

It imports ``loadclust`` from the checkout's ``src``, builds the inputs from
the seed, runs the pipeline once (traced or not), checks the outputs and
prints one JSON object. ``ready`` is the ``time.monotonic()`` reading at the
end of set-up; the parent subtracts its own reading at launch to get the
set-up time, which covers interpreter start, ``import loadclust`` and
writing the inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def reference_s(kind: str) -> float:
    """Seconds this CPU takes, right now, for a fixed mix of work.

    ``python`` mixes tuple-keyed dict scans, a banded float recurrence, a
    few numpy steps and float text round trips; ``numpy`` runs Lloyd and
    softmax steps on small arrays. Neither uses ``loadclust``'s code, so
    they measure the machine and not the code under test; each workload
    names the mix that resembles its own work. ``run.py`` divides each pass's wall by the mean of that
    pass's two samples, taken before and after its pipeline, and its set-up
    time by the first.
    """
    start = time.perf_counter()
    if kind == "numpy":
        points = np.sin(np.arange(320 * 24, dtype=float)).reshape(320, 24)
        for k in range(2, 9):
            centers = points[:k].copy()
            for _ in range(45):
                d2 = ((points[:, None, :] - centers[None]) ** 2).sum(axis=2)
                labels = d2.argmin(axis=1)
                for c in range(k):
                    if np.any(labels == c):
                        centers[c] = points[labels == c].mean(axis=0)
                logp = -0.5 * d2
                top = logp.max(axis=1)
                resp = np.exp(logp - top[:, None])
                resp /= resp.sum(axis=1)[:, None]
                (resp.T @ points) / resp.sum(axis=0)[:, None]
        return time.perf_counter() - start
    n = 150
    dist = {(i, j): ((i * 31 + j * 17) % 97) * 0.5
            for i in range(n) for j in range(i + 1, n)}
    for _ in range(8):
        best = math.inf
        for i in range(n):
            for j in range(i + 1, n):
                if dist[(i, j)] < best:
                    best = dist[(i, j)]
    x = [math.sin(h / 3.0) for h in range(24)]
    y = [math.cos(h / 5.0) for h in range(24)]
    for _ in range(200):
        prev = [0.0] + [math.inf] * 24
        for i in range(1, 25):
            curr = [math.inf] * 25
            for j in range(max(1, i - 3), min(24, i + 3) + 1):
                d = x[i - 1] - y[j - 1]
                curr[j] = d * d + min(prev[j - 1], prev[j], curr[j - 1])
            prev = curr
    points = np.sin(np.arange(300 * 24, dtype=float)).reshape(300, 24)
    centers = points[:6].copy()
    for _ in range(150):
        d2 = ((points[:, None, :] - centers[None]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        for c in range(6):
            if np.any(labels == c):
                centers[c] = points[labels == c].mean(axis=0)
    text = "\n".join(repr(v / 7.0) for v in range(20000))
    sum(float(t) for t in text.split())
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    # One CPU for the whole pass: on the shared two-CPU host this was tuned
    # on, passes pinned to the first CPU varied less than unpinned ones.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    sys.path.insert(0, str(SRC))
    import loadclust

    if Path(loadclust.__file__).resolve().parent != SRC / "loadclust":
        print(f"error: imported loadclust from {loadclust.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import workloads
    from spec import WORKLOADS
    from tracing import Tracer, layer_metrics

    p = WORKLOADS[args.workload]["tiny" if args.tiny else "params"]
    untraced, traced, checks = workloads.PIPELINES[args.workload]
    inputs = workloads.setup(args.workload, p, args.seed)
    ready = time.monotonic()
    # One reference sample on each side of the pipeline, so that a change of
    # CPU speed during the pass shows in their mean.
    reference = [reference_s(p["reference"])]

    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    if tracer is None:
        state = untraced(p, inputs)
        wall = time.perf_counter() - start
    else:
        state = traced(p, inputs, tracer)
        wall = time.perf_counter() - start - tracer.replay_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference.append(reference_s(p["reference"]))

    outcome = workloads.Outcome()
    checks(p, args.seed, inputs, state, outcome)
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer.spans, tracer.counts, wall)
    print(json.dumps({
        "ready": ready,
        "wall_s": wall,
        "reference_s": reference,
        "peak_rss_mb": peak_rss_mb,
        "input_sha256": inputs.sha256,
        "artifacts": outcome.artifacts,
        "elbows": outcome.elbows,
        "ops": outcome.ops,
        "layers": layers,
        "versions": {"loadclust": loadclust.__version__,
                     "numpy": np.__version__},
        "cpu": cpu,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
