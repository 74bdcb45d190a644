"""Spans recorded from outside the program, and the per-layer metrics they give.

A span is (id, layer, name, parent, start, end) around one call the
benchmark makes into a public function of a ``loadclust`` module; the
module is the span's layer. Spans stay in memory until the run ends. A
span's self time is its duration minus the durations of its children, and a
layer's self time is the sum over its spans. The time of a traced run that
no span covers is reported as ``trace.unattributed_s``, so the layer self
times plus that remainder equal the traced wall.

For the CLI workload the children of a command's span are the library calls
that replay the same command after it returns: they lie outside the
command's interval but stand for the work inside it, so the command's self
time is its span minus its replay (the CLI's own overhead).
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("curves", "distance", "ahc", "partitional", "evaluation", "io",
          "results", "cli")

#: Timing metrics: the self time of every span with this (layer, name).
SPAN_TIMES = {
    "curves.normalize_s": ("curves", "normalize_dataset"),
    "curves.reshape_s": ("curves", "reshape_readings"),
    "distance.pairwise_s": ("distance", "pairwise_matrix"),
    "distance.save_s": ("distance", "save_matrix"),
    "distance.load_s": ("distance", "load_matrix"),
    "ahc.build_s": ("ahc", "build_dendrogram"),
    "ahc.cut_s": ("ahc", "cut"),
    "partitional.kmeans_s": ("partitional", "kmeans"),
    "partitional.kmeanspp_s": ("partitional", "kmeanspp"),
    "partitional.gmm_s": ("partitional", "gmm_em"),
    "partitional.kmedoids_s": ("partitional", "kmedoids"),
    "evaluation.wcbcr_s": ("evaluation", "wcbcr"),
    "evaluation.elbow_s": ("evaluation", "elbow"),
    "io.read_readings_s": ("io", "read_readings"),
    "io.read_curves_s": ("io", "read_curves"),
    "io.write_curves_s": ("io", "write_curves"),
    "results.save_s": ("results", "save_result"),
    "cli.ingest_s": ("cli", "ingest"),
    "cli.cluster_s": ("cli", "cluster"),
    "cli.sweep_s": ("cli", "sweep"),
    "cli.elbow_s": ("cli", "elbow"),
}

#: Count metrics, with their units, tallied at the same call boundaries.
COUNTS = {
    "curves.curves": "count",
    "curves.degenerate": "count",
    "distance.pairs": "count",
    "distance.band_cells": "count",
    "distance.loads": "count",
    "distance.matrix_bytes": "bytes",
    "ahc.merges": "count",
    "ahc.cuts": "count",
    "partitional.fits": "count",
    "partitional.restarts": "count",
    "partitional.iterations": "count",
    "partitional.unconverged": "count",
    "partitional.fit_errors": "count",
    "evaluation.wcbcr_calls": "count",
    "evaluation.diagnostics": "count",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "results.bytes": "bytes",
    "cli.commands": "count",
    "cli.nonzero_exits": "count",
}


class Tracer:
    """In-memory span recorder plus a bag of counts."""

    def __init__(self):
        self.spans = []  # [id, layer, name, parent, start, end]
        self.counts = Counter()
        self.replay_s = 0.0
        self._stack = []

    @contextmanager
    def span(self, layer: str, name: str):
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), layer, name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        with self.span(layer, name):
            return fn(*args, **kwargs)

    @contextmanager
    def replay(self, span_id: int):
        """Record the enclosed spans as children of an ended span.

        The enclosed interval is kept out of the traced wall
        (``replay_s``), because it repeats work the parent span already did.
        """
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.replay_s += time.perf_counter() - start
            self._stack.pop()


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's."""
    out = [end - start for _, _, _, _, start, end in spans]
    for _, _, _, parent, start, end in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(spans, counts, wall_s: float) -> dict:
    """Every per-layer metric of one traced run, as name -> (value, unit).

    ``wall_s`` is the traced wall; ``trace.overhead_s`` needs the untraced
    median and is added by the caller.
    """
    own = self_times(spans)
    by_name = Counter()
    by_layer = Counter()
    for (_, layer, name, _, _, _), s in zip(spans, own):
        by_name[(layer, name)] += s
        by_layer[layer] += s
    metrics = {f"{layer}.self_s": (float(by_layer[layer]), "s") for layer in LAYERS}
    for metric, key in SPAN_TIMES.items():
        metrics[metric] = (float(by_name[key]), "s")
    for metric, unit in COUNTS.items():
        metrics[metric] = (counts[metric], unit)
    pairs = counts["distance.pairs"]
    metrics["distance.ns_per_pair"] = (
        by_name[("distance", "pairwise_matrix")] * 1e9 / pairs if pairs else 0.0,
        "ns")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.unattributed_s"] = (wall_s - sum(by_layer.values()), "s")
    return metrics
