"""Flat clustering results and fit hyperparameters, shared by all methods.

Every clustering path in the package (hierarchy cuts and the partitional
fits) funnels into one ClusteringResult type so evaluation and the CLI can
treat methods uniformly. The only method-dependent part is what a prototype
is: medoid methods point at an actual member curve by index, centroid
methods carry an explicit 24-point mean vector.

ClusteringResult owns every rule on a result's fields: their types
(``curves.check_types``), then their values, whether a fit or
``load_result`` built it. FitParams owns the fit hyperparameters: their
fields, defaults and checks of type, then range. FitOptions (one fit at one
k) and MethodSpec extend it and the CLI takes its flag defaults from it,
so a bad value is one ValueError when either is built, for library,
sidecar and CLI alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import HOURS_PER_DAY, check_k, check_types
from .distance import MetricConfig
from .io import json_text, naming, read_json, with_extra

#: What ``ClusteringResult.prototypes`` holds.
MEDOID_INDEX = "medoid-index"
VECTOR = "vector"

#: The result fields a method descriptor holds when they are not None.
_KNOBS = ("linkage", "size_weighted", "init", "covariance_kind")

#: The scalar result fields and the Python types each may hold.
RESULT_FIELD_TYPES = {
    "method": (str,), "prototype_kind": (str,), "objective": (int, float),
    "iterations": (int,), "converged": (bool,), "seed": (int, type(None)),
    "metric": (MetricConfig, type(None)), "linkage": (str, type(None)),
    "init": (str, type(None)), "covariance_kind": (str, type(None)),
    "size_weighted": (bool, type(None)),
}


def _sequence(name: str, values) -> tuple:
    """A tuple, list or ndarray (through one ``tolist``: an intp array
    gives ints, a float array floats) as a tuple, else one ValueError."""
    if type(values) is np.ndarray:
        values = values.tolist()
    check_types(name, (values,), (tuple, list))
    return tuple(values)


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
        for name, types in RESULT_FIELD_TYPES.items():
            check_types(name, (getattr(self, name),), types)
        if self.prototype_kind not in (MEDOID_INDEX, VECTOR):
            raise ValueError(f"unknown prototype kind {self.prototype_kind!r}")
        labels = _sequence("assignments", self.assignments)
        check_types("an assignment", labels, (int,))
        if not labels:
            raise ValueError("assignments must be non-empty")
        check_k(self.k, self.k, least=1)
        protos = _sequence("prototypes", self.prototypes)
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

        if self.prototype_kind == MEDOID_INDEX:
            check_types("a medoid index", protos, (int,))
            for p in protos:
                if not (0 <= p < len(labels)):
                    raise ValueError(f"medoid index {p} out of range")
        else:
            protos = tuple(_sequence("a prototype", p) for p in protos)
            for p in protos:
                check_types("a prototype entry", p, (int, float))
                if len(p) != HOURS_PER_DAY:
                    raise ValueError("prototype vectors must have 24 points")
                if not all(math.isfinite(v) for v in p):
                    raise ValueError("non-finite prototype vector")
            protos = tuple(tuple(map(float, p)) for p in protos)
        if not math.isfinite(self.objective):
            raise ValueError("objective must be finite")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.covariance_kind not in (None, *COVARIANCE_KINDS):
            raise ValueError(f"unknown covariance kind {self.covariance_kind!r}")
        object.__setattr__(self, "assignments", labels)
        object.__setattr__(self, "prototypes", protos)
        object.__setattr__(self, "objective", float(self.objective))
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


#: The top-level keys of a result JSON that hold a result field as it is.
_FILE_FIELDS = ("k", "seed", "converged", "iterations", "assignments",
                "prototypes", "objective")


def load_result(path) -> ClusteringResult:
    """Rebuild a result from its JSON export.

    The trace is not serialized, so round-tripped results compare equal on
    everything except ``trace``. The loader reads only the file's shape: a
    JSON object with the eight top-level keys, whose ``method`` is an
    object holding ``algorithm`` and ``prototype_kind``; every field then
    meets the rules of a fitted result, as ``ClusteringResult`` checks
    them. A defect is one ``io.naming`` ValueError naming the file.
    """
    doc = read_json(path, ("method", *_FILE_FIELDS))
    with naming(path):
        desc = doc["method"]
        check_types("method", (desc,), (dict,))
        if not {"algorithm", "prototype_kind"} <= desc.keys():
            raise ValueError("method must hold algorithm and prototype_kind")
        metric = None
        if "metric" in desc:
            metric = MetricConfig(desc["metric"], desc.get("window", MetricConfig.window))
        return ClusteringResult(
            method=desc["algorithm"], prototype_kind=desc["prototype_kind"],
            metric=metric, **{key: doc[key] for key in _FILE_FIELDS},
            **{key: desc.get(key) for key in _KNOBS})
