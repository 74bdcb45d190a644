"""Fuzz the five readers: ``read_readings``, ``read_curves``, ``load_matrix``,
``load_sweep`` and ``load_result``.

Whatever the damage, a read either returns or raises exactly one
single-line ValueError whose message starts with the path of the file it
read (a sidecar's path starts with its artifact's). Each case writes the
damaged files into an empty directory, so a left-out sidecar is really
absent.
"""

import json
import re
import shutil
from datetime import date as Date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadclust import (MethodSpec, RawReading, SyntheticSpec, fit,
                       generate_synthetic, load_matrix, load_result,
                       load_sweep, normalize_dataset, pairwise_matrix,
                       save_matrix, save_result, save_sweep, sweep)
from loadclust.io import read_curves, read_readings, write_curves, write_readings

#: Each reader and the name of the artifact it reads.
READERS = {
    "readings": (read_readings, "r.csv"),
    "curves": (read_curves, "c.csv"),
    "matrix": (load_matrix, "m.dmx"),
    "sweep": (load_sweep, "s.csv"),
    "result": (load_result, "r.json"),
}

CSV_READERS = ("readings", "curves", "sweep")

#: A field past the csv module's 131,072-character limit; as a JSON number,
#: past Python's 4,300-digit limit for an int.
OVERSIZE = b"9" * 140_000

#: JSON nested deeper than the parser's recursion limit.
DEEP = b"[" * 100_000

#: A JSON or CSV number token.
NUMBER = re.compile(rb"-?\d+(\.\d+)?(e-?\d+)?")

#: Tokens whose value is not a finite float: the last is a JSON int that
#: no float can hold.
NOT_FINITE = [b"nan", b"inf", b"-inf", b"NaN", b"Infinity", b"-Infinity",
              b"1e999", b"1" + b"0" * 400]

FUZZ = settings(derandomize=True, max_examples=30, deadline=None)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Every reader's valid artifact, as {file name: bytes}, sidecars
    included."""
    src = tmp_path_factory.mktemp("originals")
    ds = normalize_dataset(generate_synthetic(
        SyntheticSpec.default(3, 2, 0.1, 1), seed=0)[0])
    write_readings([RawReading(f"h{i}", Date(2024, 1, 1), h, 0.5 + i + h / 10)
                    for i in range(2) for h in range(24)], src / "r.csv")
    write_curves(ds, src / "c.csv", extra={"labels": [0, 0, 1, 1, 2, 2]})
    save_matrix(pairwise_matrix(ds), src / "m.dmx")
    save_sweep(sweep(ds, MethodSpec("ahc"), 2, 4), src / "s.csv")
    save_result(fit(ds, MethodSpec("ahc"), 3), src / "r.json")
    return {p.name: p.read_bytes() for p in src.iterdir()}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("work")


def files_of(originals, reader) -> dict:
    """The reader's artifact and its sidecar, if it has one."""
    name = READERS[reader][1]
    return {n: b for n, b in originals.items() if n in (name, name + ".json")}


def stage(work, files) -> None:
    """Write ``files`` into an empty ``work``."""
    shutil.rmtree(work)
    work.mkdir()
    for name, data in files.items():
        (work / name).write_bytes(data)


def check_read(work, reader, files) -> None:
    """Stage ``files`` and read the reader's artifact: it returns, or
    raises one single-line ValueError that starts with the path of the
    artifact or of its sidecar."""
    stage(work, files)
    read, name = READERS[reader]
    path = work / name
    try:
        read(path)
    except ValueError as e:
        message = str(e)
        assert type(e) is ValueError, (type(e), message[:200])
        assert re.match(re.escape(str(path)) + r"(\.json)?:", message), \
            message[:200]
        assert "\n" not in message, message[:200]


def draw_file(data, files) -> str:
    return data.draw(st.sampled_from(sorted(files)), label="file")


def draw_number(data, text: bytes) -> re.Match:
    return data.draw(st.sampled_from(list(NUMBER.finditer(text))),
                     label="number")


def json_part(reader, data: bytes) -> bytes:
    """The JSON document in ``data``: a matrix cache's first line, else
    all of it."""
    return data.split(b"\n", 1)[0] if reader == "matrix" else data


def splice(text: bytes, match: re.Match, token: bytes) -> bytes:
    return text[:match.start()] + token + text[match.end():]


@pytest.mark.parametrize("reader", READERS)
@FUZZ
@given(data=st.data())
def test_truncated_at_any_byte(originals, work, reader, data):
    files = files_of(originals, reader)
    name = draw_file(data, files)
    files[name] = files[name][:data.draw(st.integers(0, len(files[name])))]
    check_read(work, reader, files)


@pytest.mark.parametrize("reader", READERS)
@FUZZ
@given(data=st.data())
def test_byte_not_utf8(originals, work, reader, data):
    files = files_of(originals, reader)
    name = draw_file(data, files)
    at = data.draw(st.integers(0, len(files[name])))
    byte = data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"]))
    files[name] = files[name][:at] + byte + files[name][at:]
    check_read(work, reader, files)


@pytest.mark.parametrize("reader", READERS)
@FUZZ
@given(data=st.data())
def test_nan_and_inf_tokens(originals, work, reader, data):
    """A number of a CSV, a sidecar, a result or a matrix header becomes a
    non-finite token; in the matrix body, an entry becomes one."""
    files = files_of(originals, reader)
    name = draw_file(data, files)
    token = data.draw(st.sampled_from(NOT_FINITE))
    if reader == "matrix" and data.draw(st.booleans(), label="body"):
        line, body = files[name].split(b"\n", 1)
        values = np.frombuffer(body, "<f8").copy()
        values[data.draw(st.integers(0, len(values) - 1))] = float(token)
        files[name] = line + b"\n" + values.astype("<f8").tobytes()
    else:
        files[name] = splice(files[name], draw_number(
            data, json_part(reader, files[name])), token)
    check_read(work, reader, files)


@pytest.mark.parametrize("reader", CSV_READERS)
@FUZZ
@given(data=st.data())
def test_extra_or_missing_column(originals, work, reader, data):
    files = files_of(originals, reader)
    name = READERS[reader][1]
    lines = files[name].split(b"\n")
    j = data.draw(st.integers(0, len(lines) - 2))  # the last is empty
    lines[j] = data.draw(st.sampled_from(
        [lines[j] + b",1", lines[j].rsplit(b",", 1)[0]]))
    files[name] = b"\n".join(lines)
    check_read(work, reader, files)


@pytest.mark.parametrize("reader", READERS)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(data=st.data())
def test_oversize_field(originals, work, reader, data):
    """A CSV field, or a JSON number, of 140,000 digits."""
    files = files_of(originals, reader)
    name = draw_file(data, files)
    if name.endswith(".csv"):
        lines = files[name].split(b"\n")
        j = data.draw(st.integers(0, len(lines) - 2))
        fields = lines[j].split(b",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = OVERSIZE
        lines[j] = b",".join(fields)
        files[name] = b"\n".join(lines)
    else:
        files[name] = splice(files[name], draw_number(
            data, json_part(reader, files[name])), OVERSIZE)
    check_read(work, reader, files)


#: The JSON documents of the readers: a sidecar, a result, a matrix header.
JSON_FILES = [("curves", "c.csv.json"), ("sweep", "s.csv.json"),
              ("result", "r.json"), ("matrix", "m.dmx")]


@pytest.mark.parametrize("reader, name", JSON_FILES)
@pytest.mark.parametrize("where", ["document", "value"])
def test_deep_nesting(originals, work, reader, name, where):
    files = files_of(originals, reader)
    text = json_part(reader, files[name])
    nested = (DEEP if where == "document" else
              splice(text, next(NUMBER.finditer(text)), DEEP + b"]" * len(DEEP)))
    files[name] = nested + files[name][len(text):]
    check_read(work, reader, files)


@pytest.mark.parametrize("reader", ["curves", "sweep"])
@pytest.mark.parametrize("other", ["missing", "c.csv.json", "s.csv.json",
                                   "r.json", "m.dmx", "r.csv"])
def test_missing_or_foreign_sidecar(originals, work, reader, other):
    """The sidecar left out, or replaced by another artifact's JSON (the
    matrix header line) or by a CSV."""
    files = files_of(originals, reader)
    sidecar = READERS[reader][1] + ".json"
    if other == "missing":
        del files[sidecar]
    else:
        files[sidecar] = originals[other].split(b"\n", 1)[0] \
            if other == "m.dmx" else originals[other]
    check_read(work, reader, files)


def test_objective_past_float_range(originals, work):
    """A result's objective as a JSON int that no float can hold."""
    doc = json.loads(originals["r.json"])
    doc["objective"] = 10 ** 400
    stage(work, {"r.json": json.dumps(doc).encode()})
    path = work / "r.json"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*too large"):
        load_result(path)


def test_undamaged_artifacts_read(originals, work):
    """Every fuzz case starts from an artifact that reads without error."""
    for reader, (read, name) in READERS.items():
        stage(work, files_of(originals, reader))
        read(work / name)
