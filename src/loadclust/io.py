"""Text artifacts: every CSV goes through ``write_csv`` and ``read_csv``,
every sidecar and result JSON through ``read_json``. Two CSV shapes here:

- readings CSV, the raw ingestion input: one meter reading per row under
  the header ``household_id,date,hour,kwh``.
- curves CSV, the dataset interchange format: one daily curve per row under
  ``household_id,date,h0,...,h23``, with a JSON sidecar manifest at
  ``<path>.json`` recording the normalization mode, degenerate row indices,
  and any provenance the writer wants to attach.

Floats are written with ``repr`` (shortest exact round-trip), lines end
with LF, JSON keys are sorted and every text file is read and written as
UTF-8 whatever the locale, so identical data always produces identical
bytes. Every reader reports a defective file as one single-line
ValueError: ``read_csv`` prefixes ``path:line:``, every other reader checks
inside ``naming``, and ``FILE_ERRORS`` lists the errors that mean a defect.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from datetime import date as Date

import numpy as np

from .curves import (HOURS_PER_DAY, NORMALIZATIONS, Dataset, RawReading,
                     check_types, curve_values)

READINGS_HEADER = ["household_id", "date", "hour", "kwh"]
CURVES_HEADER = ["household_id", "date"] + [f"h{h}" for h in range(HOURS_PER_DAY)]

#: The errors that mean a defective file: a bad value, type or number, JSON
#: nested too deep to parse, a CSV line the csv module cannot split.
FILE_ERRORS = (ValueError, TypeError, OverflowError, RecursionError, csv.Error)


@contextmanager
def naming(where):
    """Turn any of ``FILE_ERRORS`` raised inside into one ValueError
    prefixed ``where:``."""
    try:
        yield
    except FILE_ERRORS as e:
        raise ValueError(f"{where}: {e}") from None


def write_csv(path, header, rows, sidecar=None) -> None:
    """Write ``header`` and ``rows`` as LF-ended CSV (a float by ``repr``,
    None as an empty cell), and ``sidecar``, if given, as its JSON sidecar."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    if sidecar is not None:
        with open(sidecar_path(path), "w", encoding="utf-8") as f:
            f.write(json_text(sidecar))


def read_csv(path, header, parse) -> list:
    """``parse(row)`` of every non-empty row after ``header``. A wrong
    header or field count, or any of ``FILE_ERRORS``, raises one ValueError
    prefixed ``path:line:``; a byte that does not decode is named by its
    own line and its offset in the file (``_bad_byte``)."""
    out = []
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            first = next(reader, None)
            if first != header:
                raise ValueError("empty file" if first is None else
                                 f"expected header {','.join(header)!r}, "
                                 f"got {','.join(first)!r}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                out.append(parse(row))
        except FILE_ERRORS as e:
            if isinstance(e, UnicodeDecodeError):
                _bad_byte(path, e.encoding)
            raise ValueError(f"{path}:{reader.line_num or 1}: {e}") from None
    return out


def _bad_byte(path, encoding) -> None:
    """Raise the ``path:line:`` ValueError of the file's first byte that
    does not decode: the text reader's error counts from its decode chunk,
    and the csv reader may be lines behind that chunk."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode(encoding)
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{path}:{line}: {e}") from None


def read_readings(path) -> list:
    """Load raw meter readings, one RawReading per row."""
    return read_csv(path, READINGS_HEADER, lambda row: RawReading(
        row[0], Date.fromisoformat(row[1]), int(row[2]), float(row[3])))


def write_readings(readings, path) -> None:
    write_csv(path, READINGS_HEADER, (
        [r.household_id, r.date.isoformat(), r.hour, r.kwh] for r in readings))


def sidecar_path(path) -> str:
    """Where the JSON sidecar of an artifact at ``path`` lives."""
    return str(path) + ".json"


def read_json(path, keys) -> dict:
    """The JSON object in the file at ``path``. A file that is not JSON, or
    not an object holding every one of ``keys``, raises one ValueError
    naming it."""
    with open(path, encoding="utf-8") as f, naming(path):
        doc = json.load(f)
        if not isinstance(doc, dict) or not set(keys) <= doc.keys():
            raise ValueError(f"expected a JSON object with keys {list(keys)}")
    return doc


def read_sidecar(path, keys) -> dict | None:
    """``read_json`` of the sidecar of ``path``, None when there is none."""
    sidecar = sidecar_path(path)
    return read_json(sidecar, keys) if os.path.exists(sidecar) else None


def json_text(doc) -> str:
    """Canonical JSON: sorted keys, indent 2, a trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def with_extra(doc: dict, extra: dict | None, what: str) -> dict:
    """``doc`` with the ``extra`` entries merged in, none of which may
    shadow a key ``doc`` already has; ``what`` names them in the error."""
    for key, value in (extra or {}).items():
        if key in doc:
            raise ValueError(f"extra {what} {key!r} shadows a built-in key")
        doc[key] = value
    return doc


def write_curves(dataset: Dataset, path, extra: dict | None = None) -> None:
    """Write a curves CSV plus its manifest sidecar.

    ``extra`` entries are merged into the manifest (ground-truth labels,
    resolved run configs, drop counts, and the like); they must be
    JSON-serializable and may not shadow the manifest's own keys.
    """
    manifest = with_extra({
        "kind": "curves",
        "n_curves": len(dataset),
        "normalization": dataset.normalization,
        "degenerate": np.flatnonzero(dataset.degenerate).tolist(),
    }, extra, "manifest key")
    write_csv(path, CURVES_HEADER, (
        [hid, day.isoformat(), *values] for hid, day, values in zip(
            dataset.household_ids, dataset.dates, dataset.to_matrix().tolist())),
        sidecar=manifest)


def read_curves(path) -> tuple[Dataset, dict]:
    """Load a curves CSV and its manifest.

    A missing manifest is tolerated for hand-made files: the dataset is
    then taken as raw with no degenerate rows. A manifest of another kind,
    an unknown normalization, degenerate rows that are not a list of ints
    (``check_types``) or that name no curve of the file, or a curve count
    that is not an int raise one ``naming`` ValueError naming the manifest,
    a curve count the CSV does not hold one naming the CSV.
    """
    manifest = (read_sidecar(path, ("kind", "normalization"))
                or {"kind": "curves", "normalization": "raw", "degenerate": []})
    normalization = manifest["normalization"]
    degenerate = manifest.get("degenerate", [])
    n_curves = manifest.get("n_curves")
    with naming(sidecar_path(path)):
        if manifest["kind"] != "curves":
            raise ValueError("not a curves manifest")
        if normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {normalization!r}, "
                             f"expected one of {NORMALIZATIONS}")
        check_types("degenerate", (degenerate,), (list,))
        check_types("a degenerate row index", degenerate, (int,))
        check_types("n_curves", (n_curves,), (int, type(None)))
    degenerate = set(degenerate)
    normalized = normalization != "raw"
    ids, dates = [], []

    def parse(row):
        day = Date.fromisoformat(row[1])
        # the manifest indexes curves, not lines, so a blank line shifts nothing
        values = curve_values(row[2:], row[0], day, normalized,
                              len(ids) in degenerate)
        ids.append(row[0])
        dates.append(day)
        return values

    rows = read_csv(path, CURVES_HEADER, parse)
    dataset = Dataset.from_columns(rows, ids, dates, normalization,
                                   [i in degenerate for i in range(len(rows))])
    with naming(path):
        if n_curves is not None and n_curves != len(dataset):
            raise ValueError(f"manifest says {n_curves} curves, file has {len(dataset)}")
    with naming(sidecar_path(path)):
        stray = sorted(i for i in degenerate if not 0 <= i < len(dataset))
        if stray:
            raise ValueError(f"degenerate rows {stray} name no curve of "
                             f"the {len(dataset)} in the file")
    return dataset, manifest
