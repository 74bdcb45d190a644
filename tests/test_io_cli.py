import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
from datetime import date as Date
from pathlib import Path

import numpy as np
import pytest

from loadclust import (Dataset, MethodSpec, MetricConfig, RawReading,
                       SyntheticSpec, generate_synthetic, load_result,
                       load_sweep, normalize_dataset)
from loadclust import cli
from loadclust.cli import main
from loadclust.evaluation import MATRIX_METHODS, peak_bytes
from loadclust.io import (read_curves, read_readings, write_curves,
                          write_readings)

from conftest import best_match_accuracy, make_curve


class TestReadingsFiles:
    def sample(self):
        out = []
        for day in (Date(2024, 1, 1), Date(2024, 1, 2)):
            for h in range(24):
                out.append(RawReading("h1", day, h, 0.5 + h * 0.01))
        return out

    def test_round_trip(self, tmp_path):
        p = tmp_path / "r.csv"
        readings = self.sample()
        write_readings(readings, p)
        assert read_readings(p) == readings

    def test_byte_stability(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_readings(self.sample(), p1)
        write_readings(read_readings(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("meter,day,hour,kwh\n")
        with pytest.raises(ValueError, match=r"r\.csv:1"):
            read_readings(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_readings(p)

    def test_field_count_and_value_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("household_id,date,hour,kwh\nh1,2024-01-01,3\n")
        with pytest.raises(ValueError, match=r"r\.csv:2.*4 fields"):
            read_readings(p)
        p.write_text("household_id,date,hour,kwh\n"
                     "h1,2024-01-01,3,1.0\n"
                     "h1,2024-01-01,99,1.0\n")
        with pytest.raises(ValueError, match=r"r\.csv:3"):
            read_readings(p)

    def test_crlf_file_reads_back(self, tmp_path):
        # the line ends earlier versions wrote
        p = tmp_path / "r.csv"
        write_readings(self.sample(), p)
        p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
        assert read_readings(p) == self.sample()


class TestCurvesFiles:
    def dataset(self):
        # 6 archetypes with no noise: the two "flat" curves z-normalize to
        # all-zero degenerate rows, which the manifest must record
        ds, _ = generate_synthetic(SyntheticSpec.default(6, 2), seed=3)
        return normalize_dataset(ds)

    def test_round_trip_with_degenerates(self, tmp_path):
        ds = self.dataset()
        p = tmp_path / "c.csv"
        write_curves(ds, p)
        loaded, manifest = read_curves(p)
        assert loaded == ds
        assert manifest["normalization"] == "per-curve"
        assert manifest["degenerate"] == [10, 11]
        assert manifest["n_curves"] == len(ds)

    def test_byte_stability(self, tmp_path):
        ds = self.dataset()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curves(ds, p1)
        loaded, _ = read_curves(p1)
        write_curves(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.csv.json").read_bytes() == \
            (tmp_path / "b.csv.json").read_bytes()

    def test_extra_manifest_fields(self, tmp_path):
        ds = self.dataset()
        p = tmp_path / "c.csv"
        write_curves(ds, p, extra={"labels": [0, 1], "seed": 5})
        _, manifest = read_curves(p)
        assert manifest["labels"] == [0, 1] and manifest["seed"] == 5
        with pytest.raises(ValueError, match="shadows"):
            write_curves(ds, p, extra={"normalization": "raw"})

    def test_missing_manifest_means_raw(self, tmp_path):
        raw, _ = generate_synthetic(SyntheticSpec.default(2, 2), seed=0)
        p = tmp_path / "c.csv"
        write_curves(raw, p)
        (tmp_path / "c.csv.json").unlink()
        loaded, manifest = read_curves(p)
        assert loaded.normalization == "raw"
        assert loaded == raw

    def test_manifest_count_mismatch(self, tmp_path):
        ds = self.dataset()
        p = tmp_path / "c.csv"
        write_curves(ds, p)
        meta = json.loads((tmp_path / "c.csv.json").read_text())
        meta["n_curves"] = 99
        (tmp_path / "c.csv.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="manifest says 99"):
            read_curves(p)

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "c.csv"
        write_curves(self.dataset(), p)
        lines = p.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]  # drop one hour field
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"c\.csv:3.*26 fields"):
            read_curves(p)

    def test_crlf_file_reads_back(self, tmp_path):
        # the line ends earlier versions wrote
        ds = self.dataset()
        p = tmp_path / "c.csv"
        write_curves(ds, p)
        p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
        loaded, manifest = read_curves(p)
        assert loaded == ds and manifest["degenerate"] == [10, 11]

    def test_blank_lines_do_not_shift_degenerate_rows(self, tmp_path):
        ds = self.dataset()
        p = tmp_path / "c.csv"
        write_curves(ds, p)
        lines = p.read_text().splitlines()
        lines.insert(1, "")
        p.write_text("\n".join(lines) + "\n")
        loaded, _ = read_curves(p)
        assert loaded == ds


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def synth_file(tmp_path):
    """Standard noisy synthetic input, written through the CLI itself."""
    path = tmp_path / "curves.csv"
    rc = run_cli("synth", "--output", path, "--k-true", 3,
                 "--per-archetype", 10, "--noise", 0.1, "--shift", 2,
                 "--seed", 0)
    assert rc == 0
    return path


class TestCliSynthAndIngest:
    def test_synth_writes_labels_and_prints_summary(self, tmp_path, capsys):
        p = tmp_path / "s.csv"
        rc = run_cli("synth", "--output", p, "--k-true", 2,
                     "--per-archetype", 4, "--seed", 1)
        assert rc == 0
        assert capsys.readouterr().out == "curves=8 archetypes=2\n"
        ds, manifest = read_curves(p)
        assert len(ds) == 8 and ds.normalization == "raw"
        assert manifest["labels"] == [0] * 4 + [1] * 4
        assert manifest["synthetic"]["noise_std"] == 0.0

    def test_synth_byte_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            run_cli("synth", "--output", p, "--noise", 0.2, "--shift", 1,
                    "--seed", 7)
        assert p1.read_bytes() == p2.read_bytes()

    def test_ingest(self, tmp_path, capsys):
        readings = []
        for day, hours in [(Date(2024, 1, 1), 24), (Date(2024, 1, 2), 24),
                           (Date(2024, 3, 31), 23)]:
            readings += [RawReading("h1", day, h, 1.0 + h * 0.1)
                         for h in range(hours)]
        rp = tmp_path / "r.csv"
        write_readings(readings, rp)
        cp = tmp_path / "c.csv"
        rc = run_cli("ingest", "--input", rp, "--output", cp)
        assert rc == 0
        assert capsys.readouterr().out == "curves=2 dropped_days=1\n"
        ds, manifest = read_curves(cp)
        assert len(ds) == 2
        assert manifest["dropped_days"] == 1
        assert manifest["source"] == str(rp)

    def test_missing_input_exits_1(self, tmp_path, capsys):
        rc = run_cli("ingest", "--input", tmp_path / "nope.csv",
                     "--output", tmp_path / "out.csv")
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestCliCluster:
    def test_ahc_recovers_planted_labels(self, tmp_path, synth_file, capsys):
        out = tmp_path / "res.json"
        rc = run_cli("cluster", "--input", synth_file, "--output", out,
                     "--k", 3)
        assert rc == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("wcbcr=")
        assert float(stdout.split("=")[1]) == pytest.approx(
            4.612210232942807, rel=1e-9)
        result = load_result(out)
        _, manifest = read_curves(synth_file)
        assert best_match_accuracy(result.assignments,
                                   manifest["labels"]) == 1.0
        doc = json.loads(out.read_text())
        assert doc["method"]["normalization"] == "per-curve"
        assert doc["method"]["algorithm"] == "ahc"
        assert doc["method"]["restarts"] == 10

    @pytest.mark.parametrize("flags", [
        ("--method", "kmeans", "--restarts", "2"),
        ("--method", "kmeanspp", "--restarts", "2"),
        ("--method", "kmedoids", "--restarts", "2"),
        ("--method", "gmm", "--restarts", "2"),
        ("--method", "ahc", "--linkage", "complete"),
        ("--method", "ahc", "--distance", "euclidean"),
        ("--method", "ahc", "--size-weighted"),
    ])
    def test_every_method_runs(self, tmp_path, synth_file, flags, capsys):
        out = tmp_path / "res.json"
        rc = run_cli("cluster", "--input", synth_file, "--output", out,
                     "--k", 3, *flags)
        assert rc == 0
        assert out.exists()
        capsys.readouterr()

    @pytest.mark.parametrize("flags, knob, values", [
        (("--method", "gmm", "--restarts", "2"), "covariance_kind",
         ("diagonal", "full")),
        (("--method", "ahc"), "size_weighted", (False, True)),
    ], ids=["gmm", "ahc"])
    def test_descriptor_tells_the_variants_apart(self, tmp_path, synth_file,
                                                 flags, knob, values, capsys):
        """``--covariance full`` and ``--size-weighted`` change the result,
        so the descriptor records them and ``load_result`` reads them back."""
        variant = {"covariance_kind": ("--covariance", "full"),
                   "size_weighted": ("--size-weighted",)}[knob]
        for out, extra, value in zip(("plain.json", "variant.json"),
                                     ((), variant), values):
            assert run_cli("cluster", "--input", synth_file, "--output",
                           tmp_path / out, "--k", 3, *flags, *extra) == 0
            doc = json.loads((tmp_path / out).read_text())
            assert doc["method"][knob] == value
            assert getattr(load_result(tmp_path / out), knob) == value
        capsys.readouterr()

    def test_byte_determinism(self, tmp_path, synth_file, capsys):
        outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for out in outs:
            rc = run_cli("cluster", "--input", synth_file, "--output", out,
                         "--k", 3, "--method", "kmedoids", "--seed", 5,
                         "--restarts", 3)
            assert rc == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        capsys.readouterr()

    def test_matrix_cache_round_trips(self, tmp_path, synth_file, capsys):
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        cache = tmp_path / "m.dmx"
        rc = run_cli("cluster", "--input", synth_file, "--output", cold,
                     "--k", 3, "--save-matrix", cache)
        assert rc == 0 and cache.exists()
        rc = run_cli("cluster", "--input", synth_file, "--output", warm,
                     "--k", 3, "--load-matrix", cache)
        assert rc == 0
        assert cold.read_bytes() == warm.read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("damage", ["truncated", "text format"])
    def test_damaged_cache_exits_1(self, tmp_path, synth_file, damage, capsys):
        cache = tmp_path / "m.dmx"
        run_cli("cluster", "--input", synth_file,
                "--output", tmp_path / "a.json", "--k", 3,
                "--save-matrix", cache)
        line, body = cache.read_bytes().split(b"\n", 1)
        if damage == "truncated":
            cache.write_bytes(line + b"\n" + body[:-8])
        else:
            header = json.loads(line)
            del header["encoding"]
            values = np.frombuffer(body, "<f8")
            cache.write_text(json.dumps(header, sort_keys=True) + "\n"
                             + "".join(repr(float(v)) + "\n" for v in values))
        capsys.readouterr()
        rc = run_cli("cluster", "--input", synth_file,
                     "--output", tmp_path / "b.json", "--k", 3,
                     "--load-matrix", cache)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(cache) in err
        assert not (tmp_path / "b.json").exists()

    def test_cache_metric_mismatch_exits_2(self, tmp_path, synth_file, capsys):
        cache = tmp_path / "m.dmx"
        run_cli("cluster", "--input", synth_file,
                "--output", tmp_path / "a.json", "--k", 3,
                "--save-matrix", cache)
        rc = run_cli("cluster", "--input", synth_file,
                     "--output", tmp_path / "b.json", "--k", 3,
                     "--window", 2, "--load-matrix", cache)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cache}: ") and err.count("\n") == 1
        assert "dtw(w=4)" in err

    @pytest.mark.parametrize("header, message", [
        ({"window": 2}, "matrix was built with dtw(w=2), run asks for dtw(w=4)"),
        ({"n": 2}, "matrix is for 2 curves, dataset has 30"),
    ], ids=["window", "n"])
    def test_cache_that_does_not_fit_exits_2_naming_it(
            self, tmp_path, synth_file, header, message, capsys):
        """A valid cache whose header is another run's: the refusal names
        the cache, however the header came to differ."""
        cache = tmp_path / "m.dmx"
        assert run_cli("cluster", "--input", synth_file, "--output",
                       tmp_path / "a.json", "--k", 3, "--save-matrix", cache) == 0
        line, body = cache.read_bytes().split(b"\n", 1)
        if "n" in header:
            body = body[:8]
        cache.write_bytes(json.dumps({**json.loads(line), **header}).encode()
                          + b"\n" + body)
        capsys.readouterr()
        rc = run_cli("sweep", "--input", synth_file, "--output",
                     tmp_path / "s.csv", "--k-min", 2, "--k-max", 4,
                     "--load-matrix", cache)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cache}: cached {message}\n"

    @pytest.mark.parametrize("method, status", [("ahc", 1), ("kmedoids", 0)])
    def test_inf_in_cache(self, tmp_path, synth_file, method, status, capsys):
        """``inf`` passes the load, as for a computed matrix: the ahc build
        refuses it, and k-medoids reads it as an infinitely distant pair."""
        cache = tmp_path / "m.dmx"
        assert run_cli("cluster", "--input", synth_file, "--output",
                       tmp_path / "a.json", "--k", 3, "--save-matrix", cache) == 0
        line, body = cache.read_bytes().split(b"\n", 1)
        values = np.frombuffer(body, "<f8").copy()
        values[5] = math.inf
        cache.write_bytes(line + b"\n" + values.astype("<f8").tobytes())
        capsys.readouterr()
        rc = run_cli("cluster", "--input", synth_file, "--output",
                     tmp_path / "b.json", "--k", 3, "--method", method,
                     "--load-matrix", cache)
        assert rc == status
        err = capsys.readouterr().err
        assert err == "" if status == 0 else err.count("\n") == 1

    def test_score_refusal_writes_no_result(self, tmp_path, capsys):
        """Ten copies of one curve: both prototypes of the k=2 cut are the
        same curve, which the score refuses before a result is written."""
        curves = tmp_path / "same.csv"
        write_curves(Dataset(tuple(make_curve(range(24), hid=f"h{i}")
                                   for i in range(10))), curves)
        out = tmp_path / "r.json"
        rc = run_cli("cluster", "--input", curves, "--output", out, "--k", 2)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: all cluster prototypes are identical")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_normalization_conflict_exits_2(self, tmp_path, synth_file, capsys):
        ds, _ = read_curves(synth_file)
        norm = tmp_path / "norm.csv"
        write_curves(normalize_dataset(ds), norm)
        rc = run_cli("cluster", "--input", norm,
                     "--output", tmp_path / "r.json", "--k", 3,
                     "--normalization", "per-hour")
        assert rc == 2
        assert "conflicts" in capsys.readouterr().err
        # matching mode is accepted as-is
        rc = run_cli("cluster", "--input", norm,
                     "--output", tmp_path / "r.json", "--k", 3)
        assert rc == 0
        capsys.readouterr()


#: ``cluster`` flags that break a MethodSpec or FitParams rule, each with
#: the MethodSpec arguments that break the same rule in the library.
METHOD_RULES = [
    (("--method", "kmeans", "--distance", "dtw"),
     dict(method="kmeans", metric=MetricConfig("dtw"))),
    (("--method", "gmm", "--distance", "euclidean"),
     dict(method="gmm", metric=MetricConfig("euclidean"))),
    (("--method", "kmeans", "--window", "2"),
     dict(method="kmeans", metric=MetricConfig("dtw", 2))),
    (("--method", "kmedoids", "--linkage", "single"),
     dict(method="kmedoids", linkage="single")),
    (("--method", "kmeans", "--size-weighted"),
     dict(method="kmeans", size_weighted=True)),
    (("--method", "ahc", "--covariance", "full"),
     dict(method="ahc", covariance_kind="full")),
    (("--method", "ahc", "--linkage", "single", "--size-weighted"),
     dict(method="ahc", linkage="single", size_weighted=True)),
    (("--restarts", "0"), dict(method="ahc", restarts=0)),
    (("--max-iterations", "0"), dict(method="ahc", max_iterations=0)),
    (("--tolerance", "0"), dict(method="ahc", tolerance=0.0)),
    (("--tolerance", "nan"), dict(method="ahc", tolerance=math.nan)),
    (("--tolerance", "inf"), dict(method="ahc", tolerance=math.inf)),
    (("--method", "kmeans", "--tolerance", "1e999"),
     dict(method="kmeans", tolerance=math.inf)),
    (("--method", "kmeans", "--seed", "-1"), dict(method="kmeans", seed=-1)),
]


class TestCliRejections:
    @pytest.mark.parametrize("flags", [
        ("--method", "kmeans", "--distance", "dtw"),
        ("--method", "gmm", "--distance", "euclidean"),
        ("--method", "kmeans", "--save-matrix", "m.dmx"),
        ("--method", "gmm", "--load-matrix", "m.dmx"),
        ("--method", "kmedoids", "--linkage", "single"),
        ("--method", "kmeans", "--size-weighted"),
        ("--method", "ahc", "--covariance", "full"),
        ("--method", "ahc", "--distance", "euclidean", "--window", "2"),
        ("--k", "1"),
        ("--method", "ahc", "--linkage", "single", "--size-weighted"),
    ])
    def test_bad_combinations_exit_2_before_reading_input(self, tmp_path,
                                                          flags, capsys):
        args = ["cluster", "--input", tmp_path / "absent.csv",
                "--output", tmp_path / "out.json"]
        if "--k" not in flags:
            args += ["--k", "3"]
        rc = run_cli(*args, *flags)
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("argv", [
        ("cluster", "--k", "3", "--restarts", "0"),
        ("cluster", "--k", "3", "--max-iterations", "0"),
        ("cluster", "--k", "3", "--tolerance", "0"),
        ("cluster", "--k", "3", "--tolerance", "nan"),
        ("cluster", "--k", "3", "--method", "kmeans", "--tolerance", "inf"),
        ("sweep", "--k-min", "2", "--k-max", "4", "--method", "kmeans",
         "--tolerance", "1e999"),
        ("cluster", "--k", "3", "--method", "ahc", "--restarts", "0"),
        ("sweep", "--k-min", "2", "--k-max", "4", "--method", "gmm",
         "--restarts", "-3"),
        ("cluster", "--k", "3", "--method", "kmeans", "--seed", "-1"),
        ("cluster", "--k", "3", "--method", "ahc", "--seed", "-1"),
    ])
    def test_bad_hyperparameters_exit_2_before_reading_input(self, tmp_path,
                                                             argv, capsys):
        out = tmp_path / "out"
        rc = run_cli(argv[0], "--input", tmp_path / "absent.csv",
                     "--output", out, *argv[1:])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, spec_args", METHOD_RULES)
    def test_method_rules_refused_by_cli_and_library_alike(
            self, tmp_path, flags, spec_args, capsys):
        rc = run_cli("cluster", "--input", tmp_path / "absent.csv",
                     "--output", tmp_path / "out.json", "--k", "3", *flags)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError):
            MethodSpec(**spec_args)

    @pytest.mark.parametrize("flags", [
        ("--k-true", "9"), ("--k-true", "0"), ("--per-archetype", "0"),
        ("--noise", "-1"), ("--noise", "nan"), ("--noise", "inf"),
        ("--shift", "-2"),
    ])
    def test_synth_bad_spec_exits_2_before_writing(self, tmp_path, flags,
                                                   capsys):
        rc = run_cli("synth", "--output", tmp_path / "c.csv", *flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_synth_negative_seed_exits_2_before_writing(self, tmp_path,
                                                        capsys):
        rc = run_cli("synth", "--output", tmp_path / "c.csv", "--seed", "-1")
        assert rc == 2
        assert "--seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_sweep_ranges_exit_2(self, tmp_path, capsys):
        for lo, hi in [(1, 5), (6, 4)]:
            rc = run_cli("sweep", "--input", tmp_path / "absent.csv",
                         "--output", tmp_path / "s.csv",
                         "--k-min", lo, "--k-max", hi)
            assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, refusal", [
        (("cluster", "--k", 31), "2 <= k <= 30, got 31"),
        (("sweep", "--k-min", 2, "--k-max", 40),
         "2 <= k_min <= k_max <= 30, got [2, 40]"),
    ])
    def test_k_the_input_cannot_hold_exits_2_writing_nothing(
            self, tmp_path, synth_file, argv, refusal, capsys):
        """Refused right after the 30 curves are read, before a distance is
        computed: one error line naming the input, no cache, no output."""
        rc = run_cli(argv[0], "--input", synth_file, "--output",
                     tmp_path / "out", *argv[1:], "--save-matrix",
                     tmp_path / "m.dmx")
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: {synth_file}: k must satisfy {refusal}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["curves.csv", "curves.csv.json"]

    @pytest.mark.parametrize("argv, clash", [
        (("sweep", "--output", "curves.csv", "--k-min", 2, "--k-max", 4),
         "write over {}/curves.csv, an input of the run"),
        (("sweep", "--output", "alias.csv", "--k-min", 2, "--k-max", 4),
         "write over {}/curves.csv, an input of the run"),
        (("cluster", "--output", "r.json", "--k", 3, "--save-matrix",
          "./curves.csv"), "write over {}/curves.csv, an input of the run"),
        (("cluster", "--output", "curves.csv.json", "--k", 3),
         "write over {}/curves.csv.json, an input of the run"),
        (("cluster", "--output", "r.json", "--k", 3, "--load-matrix", "m.dmx",
          "--save-matrix", "m.dmx"), "write over {}/m.dmx, an input of the run"),
        (("cluster", "--output", "r.json", "--k", 3, "--save-matrix",
          "r.json"), "write {}/r.json twice"),
    ], ids=["sweep-output", "sweep-output-symlink", "cluster-save-matrix",
            "cluster-output-manifest", "cluster-cache", "cluster-twice"])
    def test_output_naming_an_input_exits_2_leaving_every_file_unchanged(
            self, tmp_path, synth_file, argv, clash, capsys, monkeypatch):
        """Every written path (--output, its sidecar, --save-matrix) is
        compared by its real path with every read one (--input, its
        sidecar, --load-matrix) and the other written ones, before any
        file is read or written."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "alias.csv").symlink_to(synth_file)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        rc = run_cli(argv[0], "--input", "curves.csv", *argv[1:])
        assert rc == 2
        real = os.path.realpath(tmp_path)
        assert capsys.readouterr().err == \
            f"error: refusing to {clash.format(real)}\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


#: The soft and hard address space limit of ``ulimit -v 1400000``.
AS_LIMIT = (1400000 * 1024,) * 2


class TestCliMemoryAdmission:
    """A run whose ``peak_bytes`` estimate is above the soft RLIMIT_AS is
    refused right after the input is read. The tests stand in for the limit
    and the curve count; they never allocate or lower a real limit."""

    @pytest.fixture()
    def as_if_12000_curves(self, monkeypatch):
        """Estimate every run as if the input held 12,000 curves."""
        monkeypatch.setattr(cli, "peak_bytes",
                            lambda n, k_max, spec: peak_bytes(12000, k_max,
                                                              spec))

    @pytest.mark.parametrize("method, need", [("ahc", 1729),
                                              ("kmedoids", 1766)])
    def test_matrix_run_above_the_limit_exits_2_writing_nothing(
            self, tmp_path, synth_file, as_if_12000_curves, monkeypatch,
            method, need, capsys):
        monkeypatch.setattr(cli.resource, "getrlimit", lambda _: AS_LIMIT)
        rc = run_cli("sweep", "--input", synth_file, "--output",
                     tmp_path / "out", "--k-min", 2, "--k-max", 4,
                     "--method", method, "--save-matrix", tmp_path / "m.dmx")
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {synth_file}: {method} on 30 curves needs about "
            f"{need} MiB, above the address space limit of 1367 MiB\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["curves.csv", "curves.csv.json"]

    @pytest.mark.parametrize("method", ["kmeans", "kmeanspp", "gmm"])
    def test_vector_run_at_the_same_n_is_admitted(
            self, tmp_path, synth_file, as_if_12000_curves, monkeypatch,
            method, capsys):
        monkeypatch.setattr(cli.resource, "getrlimit", lambda _: AS_LIMIT)
        rc = run_cli("cluster", "--input", synth_file, "--output",
                     tmp_path / "r.json", "--k", 3, "--method", method,
                     "--restarts", 2)
        assert rc == 0, capsys.readouterr().err
        assert (tmp_path / "r.json").exists()

    def test_unlimited_address_space_admits_any_estimate(
            self, tmp_path, synth_file, monkeypatch, capsys):
        monkeypatch.setattr(cli, "peak_bytes", lambda *a: 2**62)
        monkeypatch.setattr(cli.resource, "getrlimit",
                            lambda _: (resource.RLIM_INFINITY,) * 2)
        rc = run_cli("cluster", "--input", synth_file, "--output",
                     tmp_path / "r.json", "--k", 3)
        assert rc == 0, capsys.readouterr().err

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 1.07 GiB"),
         "error: Unable to allocate 1.07 GiB\n"),
        (MemoryError(), "error: MemoryError\n"),
    ])
    def test_memory_error_while_running_exits_1_with_one_line(
            self, tmp_path, synth_file, monkeypatch, error, line, capsys):
        def out_of_memory(*a, **kw):
            raise error

        monkeypatch.setattr(cli, "pairwise_matrix", out_of_memory)
        rc = run_cli("cluster", "--input", synth_file, "--output",
                     tmp_path / "r.json", "--k", 3)
        assert rc == 1
        assert capsys.readouterr().err == line

    @pytest.mark.skipif(not hasattr(resource, "RUSAGE_CHILDREN"),
                        reason="needs resource.RUSAGE_CHILDREN")
    @pytest.mark.parametrize("method, n, restarts", [
        *((m, 1000, 10) for m in ("ahc", "kmedoids", "kmeans", "kmeanspp",
                                  "gmm")),
        ("ahc", 2000, 10), ("kmedoids", 2000, 10), ("kmedoids", 2000, 50),
    ], ids=["ahc", "kmedoids", "kmeans", "kmeanspp", "gmm", "ahc-2000",
            "kmedoids-2000", "kmedoids-2000-restarts-50"])
    def test_estimate_covers_a_real_sweep(self, tmp_path, method, n,
                                          restarts):
        """``peak_bytes`` is at least the resident peak of a real k=2..8
        sweep of 1,000 curves, euclidean for a matrix method, and for a
        matrix method of 2,000 curves too, whose k=2 clusters are too large
        for one gather of ``distance.medoid``, and whose k-medoids memo
        grows with the restarts. The sweep runs in a grandchild, so the
        child's RUSAGE_CHILDREN peak is the sweep's alone."""
        curves = tmp_path / "curves.csv"
        assert run_cli("synth", "--output", curves, "--k-true", 4,
                       "--per-archetype", n // 4, "--noise", 0.15,
                       "--shift", 2, "--seed", 1) == 0
        argv = [sys.executable, "-m", "loadclust.cli", "sweep", "--input",
                str(curves), "--output", str(tmp_path / "sweep.csv"),
                "--method", method, "--k-min", "2", "--k-max", "8",
                "--restarts", str(restarts)]
        if method in MATRIX_METHODS:
            argv += ["--distance", "euclidean"]
        probe = ("import resource, subprocess\n"
                 f"subprocess.run({argv!r}, check=True, "
                 "stdout=subprocess.DEVNULL)\n"
                 "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", probe],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rss = int(proc.stdout) * (1 if sys.platform == "darwin" else 1024)
        assert rss <= peak_bytes(n, 8, MethodSpec(method, restarts=restarts))


class TestCliSweepAndElbow:
    def test_sweep_then_elbow(self, tmp_path, synth_file, capsys):
        sp = tmp_path / "sweep.csv"
        rc = run_cli("sweep", "--input", synth_file, "--output", sp,
                     "--k-min", 2, "--k-max", 8)
        assert rc == 0
        assert capsys.readouterr().out == "rows=7\n"
        meta = json.loads((tmp_path / "sweep.csv.json").read_text())
        assert meta["elbow_k"] == 3

        rc = run_cli("elbow", "--input", sp)
        assert rc == 0
        assert capsys.readouterr().out == "3\n"

    def test_sweep_byte_determinism(self, tmp_path, synth_file, capsys):
        paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
        for p in paths:
            run_cli("sweep", "--input", synth_file, "--output", p,
                    "--k-min", 2, "--k-max", 5, "--method", "kmedoids",
                    "--restarts", 2)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (tmp_path / "s1.csv.json").read_bytes() == \
            (tmp_path / "s2.csv.json").read_bytes()
        capsys.readouterr()

    def test_sweep_loads_like_library(self, tmp_path, synth_file, capsys):
        sp = tmp_path / "sweep.csv"
        run_cli("sweep", "--input", synth_file, "--output", sp,
                "--k-min", 2, "--k-max", 4)
        report = load_sweep(sp)
        assert report.ks() == (2, 3, 4)
        assert report.spec.name() == "ahc-dtw-average"
        capsys.readouterr()

    def test_sweep_with_no_scored_k_warns_once_per_k(self, tmp_path,
                                                     capsys):
        """Eight copies of one curve: every cut is degenerate, so no k
        scores and each k is one warning line; the sweep still exits 0."""
        curves = tmp_path / "same.csv"
        write_curves(Dataset(tuple(make_curve(range(24), hid=f"h{i}")
                                   for i in range(8))), curves)
        rc = run_cli("sweep", "--input", curves, "--output",
                     tmp_path / "s.csv", "--k-min", 2, "--k-max", 4)
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == "rows=0\n"
        lines = captured.err.splitlines()
        assert [line[:len("warning: k=2:")] for line in lines] == \
            [f"warning: k={k}:" for k in (2, 3, 4)]

    def test_flat_sweep_elbow_warns_on_stderr(self, tmp_path, capsys):
        p = tmp_path / "flat.csv"
        p.write_text("k,wcbcr\n2,1.0\n3,1.0\n4,1.0\n")
        rc = run_cli("elbow", "--input", p)
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == "2\n"
        assert "no elbow" in captured.err

    @pytest.mark.parametrize("rows", ["3,1.0\n2,0.5\n4,0.2\n",
                                      "2,1.0\n2,0.5\n4,0.2\n",
                                      "2,1.0\n3,nan\n4,0.2\n"])
    def test_bad_sweep_rows_exit_1_naming_the_file(self, tmp_path, rows,
                                                   capsys):
        p = tmp_path / "bad.csv"
        p.write_text("k,wcbcr\n" + rows)
        rc = run_cli("elbow", "--input", p)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and err.count("\n") == 1

    def test_elbow_too_short_exits_1(self, tmp_path, capsys):
        p = tmp_path / "short.csv"
        p.write_text("k,wcbcr\n2,1.0\n3,0.5\n")
        rc = run_cli("elbow", "--input", p)
        assert rc == 1
        assert "3 rows" in capsys.readouterr().err


class TestCliMalformedSidecars:
    """A sidecar that is not JSON, not an object, lacks a key its reader
    needs or holds a value of the wrong type or range exits 1 with one
    error line naming the sidecar."""

    @staticmethod
    def damage(path, how, key):
        side = path.with_name(path.name + ".json")
        if how == "not JSON":
            side.write_text("{not json\n")
        elif how == "not an object":
            side.write_text("[1, 2]\n")
        else:
            meta = json.loads(side.read_text())
            if how == "missing key":
                del meta[key]
            else:  # "<key>=<JSON value>"
                name, value = how.split("=", 1)
                meta[name] = json.loads(value)
            side.write_text(json.dumps(meta))
        return side

    @staticmethod
    def check_one_error_line(capsys, rc, side):
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(side) in err

    @pytest.mark.parametrize("how", ["not JSON", "not an object", "missing key",
                                     "window=[1]", 'method="bogus"',
                                     'diagnostics="abc"', "diagnostics=[1]"])
    def test_sweep_sidecar(self, tmp_path, synth_file, how, capsys):
        sp = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--input", synth_file, "--output", sp,
                       "--k-min", 2, "--k-max", 4) == 0
        capsys.readouterr()
        side = self.damage(sp, how, "method")
        self.check_one_error_line(capsys, run_cli("elbow", "--input", sp), side)

    @pytest.mark.parametrize("how", ["not JSON", "not an object", "missing key",
                                     "degenerate=5", 'normalization="zscore"',
                                     'n_curves="30"', "n_curves=true",
                                     "n_curves=30.0", "degenerate=[99]",
                                     "degenerate=[-1]"])
    def test_curves_manifest(self, tmp_path, synth_file, how, capsys):
        side = self.damage(synth_file, how, "normalization")
        out = tmp_path / "r.json"
        rc = run_cli("cluster", "--input", synth_file, "--output", out,
                     "--k", 3)
        self.check_one_error_line(capsys, rc, side)
        assert not out.exists()


def test_non_utf8_byte_named_by_its_own_line_and_file_offset(tmp_path):
    """Past the first decode chunk the csv reader is lines behind the
    decoder, and the codec counts from its chunk: the error names the
    byte's own line and its offset in the file."""
    ds, _ = generate_synthetic(SyntheticSpec.default(4, 20), seed=1)
    path = tmp_path / "bad.csv"
    write_curves(ds, path)
    data = path.read_bytes()
    at = sum(len(line) + 1 for line in data.split(b"\n")[:25]) + 41  # line 26
    assert at > 8192
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{path}:26: 'utf-8' codec can't decode byte 0xff in position "
            f"{at}: invalid start byte") + "$"):
        read_curves(path)


class TestCliDefectiveFiles:
    """A CSV field past the csv module's 131,072-character limit, a byte
    that is not UTF-8 and JSON nested too deep to parse: each exits 1 with
    one error line naming the file, and a CSV's line too."""

    @pytest.fixture()
    def files(self, tmp_path, synth_file, capsys):
        """Each command's input: the readings, curves and sweep CSVs, the
        curves manifest, the sweep sidecar and the matrix cache."""
        readings, sweep_csv = tmp_path / "readings.csv", tmp_path / "sweep.csv"
        cache = tmp_path / "m.dmx"
        write_readings(TestReadingsFiles().sample(), readings)
        assert run_cli("sweep", "--input", synth_file, "--output", sweep_csv,
                       "--k-min", 2, "--k-max", 4, "--save-matrix", cache) == 0
        capsys.readouterr()
        return {"readings": readings, "curves": synth_file, "sweep": sweep_csv,
                "manifest": synth_file.with_name(synth_file.name + ".json"),
                "sidecar": sweep_csv.with_name(sweep_csv.name + ".json"),
                "cache": cache}

    @staticmethod
    def run_on(files, which, tmp_path):
        """Exit status of the command that reads ``files[which]``."""
        out = tmp_path / "out"
        return run_cli(*{
            "readings": ("ingest", "--input", files["readings"],
                         "--output", out),
            "sweep": ("elbow", "--input", files["sweep"]),
            "sidecar": ("elbow", "--input", files["sweep"]),
            "cache": ("cluster", "--input", files["curves"], "--output", out,
                      "--k", 3, "--load-matrix", files["cache"]),
        }.get(which, ("cluster", "--input", files["curves"], "--output", out,
                      "--k", 3)))

    def check(self, files, which, tmp_path, capsys, pattern):
        assert self.run_on(files, which, tmp_path) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {re.escape(str(files[which]))}{pattern}\n",
                            err), err[:300]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which", ["readings", "curves", "sweep"])
    def test_oversize_field(self, tmp_path, files, which, capsys):
        path = files[which]
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = "9" * 140_000 + lines[2][lines[2].index(","):]
        path.write_text("".join(lines))
        self.check(files, which, tmp_path, capsys,
                   r":3: field larger than field limit \(131072\)")

    @pytest.mark.parametrize("which", ["readings", "curves", "sweep"])
    def test_byte_not_utf8(self, tmp_path, files, which, capsys):
        path = files[which]
        data = path.read_bytes()
        at = data.index(b"\n", data.index(b"\n") + 1) + 3  # on line 3
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        self.check(files, which, tmp_path, capsys,
                   r":\d+: 'utf-8' codec can't decode byte 0xff in position "
                   r"\d+: invalid start byte")

    @pytest.mark.parametrize("which", ["manifest", "sidecar", "cache"])
    def test_deep_json(self, tmp_path, files, which, capsys):
        path = files[which]
        body = path.read_bytes().split(b"\n", 1)[1] if which == "cache" else b""
        path.write_bytes(b"[" * 100_000 + b"\n" + body)
        self.check(files, which, tmp_path, capsys,
                   ": maximum recursion depth exceeded.*")


class TestCliMutatedArtifacts:
    """Each value of the matrix cache header, the curves manifest and the
    sweep sidecar, replaced in turn by a value of another JSON type: the
    command reading the file either writes the unmutated run's bytes or
    exits 1 or 2 with one error line naming the file, and never raises."""

    #: null, true, an integer-valued float, a string and a list.
    MUTATIONS = ["null", "true", "float", "string", "list"]

    @staticmethod
    def mutant(value, how):
        if how == "float":
            return float(value) if type(value) is int else 12.0
        return {"null": None, "true": True, "string": "x", "list": ["x"]}[how]

    @staticmethod
    def outputs(run, tmp_path, capsys):
        """The exit status, stderr, stdout and written files of one run
        into an empty ``out`` directory."""
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        rc = run(out)
        captured = capsys.readouterr()
        return (rc, captured.err, captured.out,
                {p.name: p.read_bytes() for p in out.iterdir()})

    def check_every_key(self, tmp_path, capsys, path, read, write, run, how):
        """Mutate each key of the document ``read(path)`` in turn."""
        capsys.readouterr()
        want = self.outputs(run, tmp_path, capsys)
        assert want[0] == 0, want[1]
        doc = read(path)
        for key in sorted(doc):
            write(path, {**doc, key: self.mutant(doc[key], how)})
            rc, err, out, files = self.outputs(run, tmp_path, capsys)
            if rc == 0:
                assert (rc, err, out, files) == want, key
            else:
                assert rc in (1, 2), key
                assert err.startswith("error: ") and err.count("\n") == 1, key
                assert str(path) in err, (key, err)
                assert files == {}, key

    @pytest.mark.parametrize("how", MUTATIONS)
    def test_matrix_cache_header(self, tmp_path, synth_file, how, capsys):
        cache = tmp_path / "m.dmx"
        assert run_cli("cluster", "--input", synth_file, "--output",
                       tmp_path / "r.json", "--k", 3,
                       "--save-matrix", cache) == 0
        body = cache.read_bytes().split(b"\n", 1)[1]

        def write(path, header):
            path.write_bytes(json.dumps(header).encode() + b"\n" + body)

        self.check_every_key(
            tmp_path, capsys, cache,
            lambda path: json.loads(path.read_bytes().split(b"\n", 1)[0]),
            write,
            lambda out: run_cli("sweep", "--input", synth_file,
                                "--output", out / "s.csv", "--k-min", 2,
                                "--k-max", 4, "--load-matrix", cache), how)

    @pytest.mark.parametrize("method", MATRIX_METHODS)
    def test_euclidean_cache_of_another_window(self, tmp_path, synth_file,
                                               method, capsys):
        """A euclidean cache whose header says window 7, not 4, holds the
        same distances: ``cluster --load-matrix`` writes a fresh run's
        bytes, window 4 in the result included."""
        cache = tmp_path / "e.dmx"
        flags = ("--k", 3, "--method", method, "--distance", "euclidean")
        assert run_cli("cluster", "--input", synth_file, "--output",
                       tmp_path / "r.json", *flags, "--save-matrix",
                       cache) == 0
        head, body = cache.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        assert header["window"] == 4
        cache.write_bytes(json.dumps({**header, "window": 7}).encode()
                          + b"\n" + body)
        capsys.readouterr()

        def run(*cache_flags):
            return self.outputs(lambda out: run_cli(
                "cluster", "--input", synth_file, "--output", out / "r.json",
                *flags, *cache_flags), tmp_path, capsys)

        fresh = run()
        assert fresh[0] == 0, fresh[1]
        assert run("--load-matrix", cache) == fresh

    @pytest.mark.parametrize("how", MUTATIONS)
    def test_curves_manifest(self, tmp_path, synth_file, how, capsys):
        self.check_every_key(
            tmp_path, capsys, synth_file.with_name(synth_file.name + ".json"),
            lambda path: json.loads(path.read_text()),
            lambda path, doc: path.write_text(json.dumps(doc)),
            lambda out: run_cli("cluster", "--input", synth_file,
                                "--output", out / "r.json", "--k", 3), how)

    @pytest.mark.parametrize("how", MUTATIONS)
    def test_sweep_sidecar(self, tmp_path, synth_file, how, capsys):
        sp = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--input", synth_file, "--output", sp,
                       "--k-min", 2, "--k-max", 5) == 0
        self.check_every_key(
            tmp_path, capsys, sp.with_name(sp.name + ".json"),
            lambda path: json.loads(path.read_text()),
            lambda path, doc: path.write_text(json.dumps(doc)),
            lambda out: run_cli("elbow", "--input", sp), how)


def test_pipeline_writes_no_carriage_returns(tmp_path, capsys):
    """Every text artifact ends its lines with LF alone; the matrix cache
    is binary and exempt."""
    curves, cache = tmp_path / "curves.csv", tmp_path / "m.dmx"
    assert run_cli("synth", "--output", curves, "--seed", 0) == 0
    assert run_cli("cluster", "--input", curves, "--output",
                   tmp_path / "result.json", "--k", 3,
                   "--save-matrix", cache) == 0
    assert run_cli("sweep", "--input", curves, "--output",
                   tmp_path / "sweep.csv", "--k-min", 2, "--k-max", 5,
                   "--load-matrix", cache) == 0
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.iterdir() if p != cache)
    assert written == ["curves.csv", "curves.csv.json", "result.json",
                       "sweep.csv", "sweep.csv.json"]
    assert [n for n in written if b"\r" in (tmp_path / n).read_bytes()] == []


READINGS_UTF8 = "household_id,date,hour,kwh\n" + "".join(
    f"m\u00e9t\u00e9,2024-01-0{day},{h},{1.0 + 0.1 * h * day!r}\n"
    for day in (1, 2, 3) for h in range(24))


def test_text_artifacts_are_utf8_whatever_the_locale(tmp_path):
    """``ingest`` and ``cluster`` of a household id outside ASCII write the
    same bytes under the C locale, with Python's UTF-8 mode off, as in
    UTF-8 mode."""
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = {}
    for name, env in (("c", {"LC_ALL": "C", "PYTHONUTF8": "0"}),
                      ("utf8", {"PYTHONUTF8": "1"})):
        run = tmp_path / name
        run.mkdir()
        (run / "r.csv").write_bytes(READINGS_UTF8.encode("utf-8"))
        for argv in (["ingest", "--input", "r.csv", "--output", "c.csv"],
                     ["cluster", "--input", "c.csv", "--output", "res.json",
                      "--k", "2", "--method", "kmeans"]):
            proc = subprocess.run(
                [sys.executable, "-m", "loadclust.cli", *argv], cwd=run,
                env=dict(os.environ, PYTHONPATH=str(src), **env),
                capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        outputs[name] = {f: (run / f).read_bytes()
                         for f in ("c.csv", "c.csv.json", "res.json")}
    assert "m\u00e9t\u00e9".encode("utf-8") in outputs["c"]["c.csv"]
    assert outputs["c"] == outputs["utf8"]
