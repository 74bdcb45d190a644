"""Workload table shared by run.py and its worker process.

Each workload is a closed-loop batch job: one caller, one thread, each stage
starting when the previous one returns. ``params`` are the sizes the
benchmark measures; ``tiny`` are the sizes the smoke tests use. Sizes are
scaled down from the paper-scale runs (n=400, 2000 and 600 curves) so that a
40-second run holds about ten fresh-process samples, while keeping the
layers each workload stresses. ``vector-sweep`` sweeps three independent
populations per pass: how many EM iterations one population needs varies
by about 30% from seed to seed, and three of them average that out.
``reference`` names the mix ``worker.reference_s`` times to measure how fast
the CPU is running at the moment.
"""

WORKLOADS = {
    "hier-dtw": {
        "why": ("n=200 curves (4x50, noise 0.15, shift 2), one dtw(w=4) matrix,"
                " ahc sweep k=2..8 per linkage: the DTW pair loop and O(n^3) "
                "dict agglomeration do the work"),
        "params": {"reference": "python", "populations": 1, "archetypes": 4,
                   "per_archetype": 50,
                   "noise": 0.15, "shift": 2, "window": 4, "oracle_pairs": 200},
        "tiny": {"reference": "python", "populations": 1, "archetypes": 4,
                 "per_archetype": 6,
                 "noise": 0.15, "shift": 2, "window": 4, "oracle_pairs": 20},
    },
    "vector-sweep": {
        "why": ("3 populations of 320 curves (4x80), kmeans/kmeanspp/gmm sweeps"
                " k=2..8 with 10 restarts: numpy partitional loops and per-"
                "curve wcbcr; never touches distance or ahc"),
        "params": {"reference": "numpy", "populations": 3, "archetypes": 4,
                   "per_archetype": 80,
                   "noise": 0.15, "shift": 2, "restarts": 10},
        "tiny": {"reference": "numpy", "populations": 2, "archetypes": 4,
                 "per_archetype": 10,
                 "noise": 0.15, "shift": 2, "restarts": 2},
    },
    "cli-cache": {
        "why": ("CLI on 600 day-curves of readings: ingest, kmedoids euclidean "
                "with --save-matrix, 7 --load-matrix clusters, sweep, elbow: "
                "io, matrix load, results, cli"),
        "params": {"reference": "python", "populations": 1, "archetypes": 4,
                   "per_archetype": 150,
                   "noise": 0.15, "shift": 2},
        "tiny": {"reference": "python", "populations": 1, "archetypes": 4,
                 "per_archetype": 8,
                 "noise": 0.15, "shift": 2},
    },
}

#: Seconds each reference mix took (median) on the two-CPU x86 host the
#: baseline was recorded on. ``setup_s`` is the set-up wall converted to that
#: speed: each pass's set-up wall times this over the reference time taken
#: right after set-up.
REFERENCE_S = {"python": 0.12, "numpy": 0.13}

#: Every swept range and every CLI sweep covers k = K_MIN..K_MAX.
K_MIN, K_MAX = 2, 8

#: Thread-count variables pinned to 1 in every worker's environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
