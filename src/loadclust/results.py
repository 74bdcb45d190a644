"""Flat clustering results and fit hyperparameters, shared by all methods.

Every clustering path in the package (hierarchy cuts and the partitional
fits) funnels into one ClusteringResult type so evaluation and the CLI can
treat methods uniformly. The only method-dependent part is what a prototype
is: medoid methods point at an actual member curve by index, centroid
methods carry an explicit 24-point mean vector.

FitParams owns the fit hyperparameters: their fields, defaults and checks
of type (``curves.check_types``), then range. FitOptions (one fit at one
k) and MethodSpec extend it and the CLI takes its flag defaults from it,
so a bad value is one ValueError when either is built, for library,
sidecar and CLI alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import HOURS_PER_DAY, check_k, check_types
from .distance import MetricConfig
from .io import json_text, naming, read_json, with_extra

#: What ``ClusteringResult.prototypes`` holds.
MEDOID_INDEX = "medoid-index"
VECTOR = "vector"

#: The result fields a method descriptor holds when they are not None.
_KNOBS = ("linkage", "size_weighted", "init", "covariance_kind")


@dataclass(frozen=True)
class ClusteringResult:
    """One flat k-clustering of a dataset.

    ``assignments[i]`` is the cluster label of curve i; labels cover 0..k-1
    with no empty cluster. ``prototypes`` are medoid indices into the
    dataset when ``prototype_kind`` is "medoid-index" (hierarchy cuts,
    k-medoids) and 24-point vectors when it is "vector" (k-means, mixture
    means).

    ``objective`` is the method's own figure of merit: total within-cluster
    cost for k-means and k-medoids (lower is better), final average
    log-likelihood for the mixture model (higher is better), and total
    member-to-medoid distance for hierarchy cuts. ``trace`` records the
    per-iteration objective of the selected run, for convergence checks.
    ``seed`` is None for deterministic methods that draw nothing.
    ``size_weighted`` (ahc) and ``covariance_kind`` (gmm) are None for the
    methods they do not apply to.
    """

    method: str
    k: int
    assignments: tuple
    prototypes: tuple
    prototype_kind: str
    objective: float
    iterations: int
    converged: bool
    seed: int | None = None
    metric: MetricConfig | None = None
    linkage: str | None = None
    init: str | None = None
    trace: tuple = ()
    size_weighted: bool | None = None
    covariance_kind: str | None = None

    def __post_init__(self):
        labels = tuple(int(a) for a in self.assignments)
        if not labels:
            raise ValueError("assignments must be non-empty")
        check_k(self.k, self.k, least=1)
        protos = tuple(self.prototypes)
        if len(protos) != self.k:  # first: it bounds k before range(k)
            raise ValueError(f"need {self.k} prototypes, got {len(protos)}")
        seen = set()
        for i, a in enumerate(labels):
            if not (0 <= a < self.k):
                raise ValueError(f"assignment {a} at index {i} outside [0, {self.k})")
            seen.add(a)
        if len(seen) != self.k:
            missing = sorted(set(range(self.k)) - seen)
            raise ValueError(f"empty cluster(s): {missing}")

        if self.prototype_kind not in (MEDOID_INDEX, VECTOR):
            raise ValueError(f"unknown prototype kind {self.prototype_kind!r}")
        if self.prototype_kind == MEDOID_INDEX:
            protos = tuple(int(p) for p in protos)
            for p in protos:
                if not (0 <= p < len(labels)):
                    raise ValueError(f"medoid index {p} out of range")
        else:
            protos = tuple(tuple(float(v) for v in p) for p in protos)
            for p in protos:
                if len(p) != HOURS_PER_DAY:
                    raise ValueError("prototype vectors must have 24 points")
                if not all(math.isfinite(v) for v in p):
                    raise ValueError("non-finite prototype vector")
        if not math.isfinite(self.objective):
            raise ValueError("objective must be finite")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.covariance_kind not in (None, *COVARIANCE_KINDS):
            raise ValueError(f"unknown covariance kind {self.covariance_kind!r}")
        object.__setattr__(self, "assignments", labels)
        object.__setattr__(self, "prototypes", protos)
        object.__setattr__(self, "trace", tuple(float(t) for t in self.trace))

    def descriptor(self) -> dict:
        """Method descriptor embedded in exports: algorithm plus the knobs
        that determine the result."""
        d = {"algorithm": self.method, "prototype_kind": self.prototype_kind}
        if self.metric is not None:
            d["metric"] = self.metric.kind
            d["window"] = self.metric.window
        for key in _KNOBS:
            if getattr(self, key) is not None:
                d[key] = getattr(self, key)
        return d


#: The numeric fit hyperparameters and the Python types each may hold.
FIT_PARAM_TYPES = {"seed": (int,), "restarts": (int,), "max_iterations": (int,),
                   "tolerance": (int, float), "covariance_regularizer": (int, float)}

COVARIANCE_KINDS = ("diagonal", "full")  # gmm's, the default first


@dataclass(frozen=True, kw_only=True)
class FitParams:
    """The fit hyperparameters, their defaults and their checks, in one place.

    ``covariance_regularizer`` and ``covariance_kind`` only matter for the
    Gaussian mixture; the rest apply to every partitional method. Restart r
    of a fit seeds its generator with ``seed + r``. The fields are
    keyword-only, so subclasses keep their own fields positional. A wrong
    type (``FIT_PARAM_TYPES``: no bools, no float counts) raises ValueError,
    as does a ``tolerance`` or ``covariance_regularizer`` that is not
    finite and > 0.
    """

    seed: int = 0
    restarts: int = 10
    max_iterations: int = 300
    tolerance: float = 1e-6
    covariance_regularizer: float = 1e-6
    covariance_kind: str = "diagonal"

    def __post_init__(self):
        for name, types in FIT_PARAM_TYPES.items():
            check_types(name, (getattr(self, name),), types)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("tolerance", "covariance_regularizer"):
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and > 0")
        if self.covariance_kind not in COVARIANCE_KINDS:
            raise ValueError(f"covariance_kind must be one of {COVARIANCE_KINDS}, "
                             f"got {self.covariance_kind!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class FitOptions(FitParams):
    """The hyperparameters of one partitional fit at one k (an int >= 2)."""

    k: int

    def __post_init__(self):
        check_k(self.k, self.k)
        super().__post_init__()


def result_to_json(result: ClusteringResult,
                   extra_method_fields: dict | None = None) -> str:
    """Serialize a result to its canonical JSON form.

    Keys are sorted and floats use their shortest round-trip repr (the json
    module's default), so equal results always serialize to equal bytes.
    ``extra_method_fields`` lets a caller enrich the method descriptor with
    provenance it alone knows (e.g. which normalization mode produced the
    dataset).
    """
    protos: list
    if result.prototype_kind == MEDOID_INDEX:
        protos = list(result.prototypes)
    else:
        protos = [list(p) for p in result.prototypes]
    doc = {
        "method": with_extra(result.descriptor(), extra_method_fields,
                             "method field"),
        "k": result.k,
        "seed": result.seed,
        "converged": result.converged,
        "iterations": result.iterations,
        "assignments": list(result.assignments),
        "prototypes": protos,
        "objective": result.objective,
    }
    return json_text(doc)


def save_result(result: ClusteringResult, path,
                extra_method_fields: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(result_to_json(result, extra_method_fields))


#: The top-level fields of a result JSON and the JSON types each may hold.
RESULT_FIELDS = {
    "method": (dict,), "k": (int,), "seed": (int, type(None)),
    "converged": (bool,), "iterations": (int,), "assignments": (list,),
    "prototypes": (list,), "objective": (int, float),
}


#: The method descriptor fields the loader reads, and the JSON type of each.
DESCRIPTOR_FIELDS = {"algorithm": (str,), "prototype_kind": (str,),
                     "metric": (str,), "window": (int,), "linkage": (str,),
                     "size_weighted": (bool,), "init": (str,),
                     "covariance_kind": (str,)}


def load_result(path) -> ClusteringResult:
    """Rebuild a result from its JSON export.

    The trace is not serialized, so round-tripped results compare equal on
    everything except ``trace``. A defect is one ``io.naming`` ValueError
    naming the file: not JSON, not an object, or a field missing or of the
    wrong type or range, inside the fields too (the descriptor's fields,
    each label and medoid index, each vector prototype's entries).
    """
    doc = read_json(path, RESULT_FIELDS)
    with naming(path):
        for key, types in RESULT_FIELDS.items():
            check_types(key, (doc[key],), types)
        desc = doc["method"]
        if not {"algorithm", "prototype_kind"} <= desc.keys():
            raise ValueError("method must hold algorithm and prototype_kind")
        for key, types in DESCRIPTOR_FIELDS.items():
            if key in desc:
                check_types(f"method {key}", (desc[key],), types)
        check_types("an assignment", doc["assignments"], (int,))
        if desc["prototype_kind"] == MEDOID_INDEX:
            check_types("a medoid index", doc["prototypes"], (int,))
        elif desc["prototype_kind"] == VECTOR:
            check_types("a prototype", doc["prototypes"], (list,))
            for p in doc["prototypes"]:
                check_types("a prototype entry", p, (int, float))
        metric = None
        if "metric" in desc:
            metric = MetricConfig(desc["metric"], desc.get("window", MetricConfig.window))
        return ClusteringResult(
            method=desc["algorithm"],
            k=doc["k"],
            assignments=doc["assignments"],
            prototypes=doc["prototypes"],
            prototype_kind=desc["prototype_kind"],
            objective=float(doc["objective"]),
            iterations=doc["iterations"],
            converged=doc["converged"],
            seed=doc["seed"],
            metric=metric,
            **{key: desc.get(key) for key in _KNOBS},
        )
