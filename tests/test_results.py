import json
import math
import re

import numpy as np
import pytest

from loadclust import (ClusteringResult, FitOptions, MetricConfig,
                       load_result, result_to_json, save_result)


def medoid_result(**overrides):
    kw = dict(method="kmedoids", k=2, assignments=(0, 0, 1), prototypes=(0, 2),
              prototype_kind="medoid-index", objective=1.5, iterations=3,
              converged=True, seed=4, metric=MetricConfig("dtw", 4))
    kw.update(overrides)
    return ClusteringResult(**kw)


def vector_result(**overrides):
    kw = dict(method="kmeans", k=2, assignments=(0, 1, 1),
              prototypes=((0.5,) * 24, (1.5,) * 24), prototype_kind="vector",
              objective=2.0, iterations=5, converged=True, seed=0,
              metric=MetricConfig("euclidean"), init="random",
              trace=(4.0, 3.0, 2.0))
    kw.update(overrides)
    return ClusteringResult(**kw)


class TestClusteringResultValidation:
    def test_valid(self):
        r = medoid_result()
        assert r.assignments == (0, 0, 1) and r.prototypes == (0, 2)

    def test_label_range(self):
        with pytest.raises(ValueError, match="outside"):
            medoid_result(assignments=(0, 0, 2))
        with pytest.raises(ValueError, match="outside"):
            medoid_result(assignments=(0, -1, 1))

    def test_empty_cluster(self):
        with pytest.raises(ValueError, match="empty cluster"):
            medoid_result(assignments=(0, 0, 0))

    def test_empty_assignments(self):
        with pytest.raises(ValueError, match="non-empty"):
            medoid_result(assignments=(), k=1, prototypes=(0,))

    def test_prototype_count_and_range(self):
        with pytest.raises(ValueError, match="prototypes"):
            medoid_result(prototypes=(0,))
        # checked before the empty-cluster scan, which builds range(k)
        with pytest.raises(ValueError, match="need 10000000000000 prototypes"):
            medoid_result(k=10 ** 13)
        with pytest.raises(ValueError, match="out of range"):
            medoid_result(prototypes=(0, 5))

    def test_vector_prototypes(self):
        with pytest.raises(ValueError, match="24"):
            vector_result(prototypes=((1.0,) * 23, (2.0,) * 24))
        with pytest.raises(ValueError, match="non-finite"):
            vector_result(prototypes=((math.nan,) * 24, (2.0,) * 24))

    def test_unknown_prototype_kind(self):
        with pytest.raises(ValueError, match="prototype kind"):
            medoid_result(prototype_kind="centroid")

    def test_objective_and_iterations(self):
        with pytest.raises(ValueError, match="objective"):
            medoid_result(objective=math.inf)
        with pytest.raises(ValueError, match="iterations"):
            medoid_result(iterations=-1)

    def test_descriptor(self):
        assert medoid_result().descriptor() == {
            "algorithm": "kmedoids", "prototype_kind": "medoid-index",
            "metric": "dtw", "window": 4,
        }
        assert vector_result().descriptor() == {
            "algorithm": "kmeans", "prototype_kind": "vector",
            "metric": "euclidean", "window": 4, "init": "random",
        }

    def test_descriptor_records_the_covariance_and_the_average_rule(self):
        """A mixture's covariance kind and ahc's average rule change the
        result, so its descriptor records them; a knob that does not apply
        (None) is left out."""
        gmm = vector_result(method="gmm", init="plusplus",
                            covariance_kind="full").descriptor()
        assert gmm["covariance_kind"] == "full"
        ahc = medoid_result(method="ahc", linkage="average", seed=None,
                            size_weighted=True).descriptor()
        assert ahc["size_weighted"] is True
        assert not {"covariance_kind", "size_weighted"} & (
            medoid_result().descriptor().keys()
            | vector_result().descriptor().keys())
        with pytest.raises(ValueError, match="covariance kind"):
            vector_result(covariance_kind="tied")


class TestArrayInputs:
    """Producers pass numpy arrays straight in; the fields must come out
    as the Python tuples a tuple-built result holds."""

    @pytest.mark.parametrize("make", [medoid_result, vector_result])
    def test_arrays_equal_tuples(self, make):
        r = make()
        proto_dtype = np.intp if r.prototype_kind == "medoid-index" else float
        a = make(assignments=np.asarray(r.assignments, dtype=np.intp),
                 prototypes=np.asarray(r.prototypes, dtype=proto_dtype),
                 trace=np.asarray(r.trace, dtype=float))
        assert a == r
        assert all(type(v) is int for v in a.assignments)
        assert all(type(v) is (int if r.prototype_kind == "medoid-index"
                               else tuple) for v in a.prototypes)
        assert result_to_json(a) == result_to_json(r)

    @pytest.mark.parametrize("field, array, refused", [
        ("assignments", np.array([0.0, 0.0, 1.0]), "an assignment"),
        ("assignments", np.array([False, False, True]), "an assignment"),
        ("prototypes", np.array([0.0, 2.0]), "a medoid index"),
        ("prototypes", np.array([False, True]), "a medoid index"),
    ])
    def test_float_and_bool_arrays_are_refused(self, field, array, refused):
        """An array goes through one ``tolist``: its floats or bools meet
        the int rule as they would in a tuple, never a silent ``int``."""
        first = array.tolist()[0]
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{refused} has the wrong type: {first!r}") + "$"):
            medoid_result(**{field: array})


class TestFitOptions:
    def test_defaults(self):
        o = FitOptions(k=3)
        assert (o.seed, o.max_iterations, o.restarts) == (0, 300, 10)
        assert o.tolerance == 1e-6 and o.covariance_kind == "diagonal"

    @pytest.mark.parametrize("kw", [
        dict(k=1), dict(k=2, max_iterations=0), dict(k=2, tolerance=0.0),
        dict(k=2, covariance_regularizer=0.0), dict(k=2, covariance_kind="tied"),
        dict(k=2, restarts=0), dict(k=2, seed=-1), dict(k=2.0),
    ])
    def test_rejections(self, kw):
        with pytest.raises(ValueError):
            FitOptions(**kw)


class TestResultJson:
    def test_exact_field_set(self):
        doc = json.loads(result_to_json(medoid_result()))
        assert sorted(doc) == ["assignments", "converged", "iterations", "k",
                               "method", "objective", "prototypes", "seed"]
        assert doc["method"]["algorithm"] == "kmedoids"
        assert doc["prototypes"] == [0, 2]

    def test_sorted_keys_and_trailing_newline(self):
        s = result_to_json(vector_result())
        assert s.endswith("\n")
        doc = json.loads(s)
        assert list(doc) == sorted(doc)

    def test_extra_method_fields(self):
        s = result_to_json(medoid_result(),
                           extra_method_fields={"normalization": "per-curve"})
        assert json.loads(s)["method"]["normalization"] == "per-curve"
        with pytest.raises(ValueError, match="shadows"):
            result_to_json(medoid_result(),
                           extra_method_fields={"algorithm": "x"})

    def test_byte_determinism(self):
        assert result_to_json(vector_result()) == result_to_json(vector_result())

    @pytest.mark.parametrize("make", [medoid_result, vector_result])
    def test_round_trip(self, tmp_path, make):
        r = make()
        p = tmp_path / "r.json"
        save_result(r, p)
        loaded = load_result(p)
        # the trace is deliberately not serialized
        assert loaded == ClusteringResult(
            **{f: getattr(r, f) for f in (
                "method", "k", "assignments", "prototypes", "prototype_kind",
                "objective", "iterations", "converged", "seed", "metric",
                "linkage", "init")})
        p2 = tmp_path / "r2.json"
        save_result(loaded, p2)
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("make", [
        lambda: vector_result(method="gmm", init="plusplus",
                              covariance_kind="full"),
        lambda: medoid_result(method="ahc", linkage="average", seed=None,
                              size_weighted=True),
        lambda: medoid_result(method="ahc", linkage="single", seed=None,
                              size_weighted=False),
    ], ids=["gmm-full", "ahc-size-weighted", "ahc-single"])
    def test_round_trip_keeps_the_knobs(self, tmp_path, make):
        r = make()
        p = tmp_path / "r.json"
        save_result(r, p)
        loaded = load_result(p)
        assert loaded.covariance_kind == r.covariance_kind
        assert loaded.size_weighted is r.size_weighted
        p2 = tmp_path / "r2.json"
        save_result(loaded, p2)
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("how", [
        "not JSON", "not an object", "missing method", 'k="3"', "k=3.0",
        'converged="yes"', "iterations=true", 'seed="0"', 'objective="1.5"',
        'method="kmedoids"', 'assignments={"0": 0}', "assignments=[0, 7, 1]",
        "prototypes=5", 'method={"algorithm": "kmedoids"}',
        'method={"algorithm": 5, "prototype_kind": "medoid-index"}',
        'method={"algorithm": "ahc", "prototype_kind": "medoid-index", '
        '"linkage": [1]}',
        'method={"algorithm": "ahc", "prototype_kind": "medoid-index", '
        '"size_weighted": 1}',
        'method={"algorithm": "gmm", "prototype_kind": "medoid-index", '
        '"covariance_kind": "tied"}',
        "assignments=[0.7, 0.2, 1.9]", "prototypes=[0.5, 2.9]",
        'vector entry="0.5"', "vector entry=true",
    ])
    def test_damaged_file_is_one_error_naming_it(self, tmp_path, how):
        p = tmp_path / "r.json"
        vector = how.startswith("vector ")
        save_result(vector_result() if vector else medoid_result(), p)
        doc = json.loads(p.read_text())
        if how == "missing method":
            del doc["method"]
        elif vector:
            # one entry of an otherwise valid 24-point prototype
            doc["prototypes"][0][5] = json.loads(how.split("=", 1)[1])
        elif "=" in how:
            key, value = how.split("=", 1)
            doc[key] = json.loads(value)
        p.write_text({"not JSON": "{not json\n", "not an object": "[1, 2]\n"}
                     .get(how, json.dumps(doc)))
        with pytest.raises(ValueError) as info:
            load_result(p)
        assert str(info.value).startswith(f"{p}: ")
        assert "\n" not in str(info.value)
