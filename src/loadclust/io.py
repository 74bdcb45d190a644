"""CSV interchange for readings and curve datasets.

Two file shapes:

- readings CSV, the raw ingestion input: one meter reading per row under
  the header ``household_id,date,hour,kwh``.
- curves CSV, the dataset interchange format: one daily curve per row under
  ``household_id,date,h0,...,h23``, with a JSON sidecar manifest at
  ``<path>.json`` recording the normalization mode, degenerate row indices,
  and any provenance the writer wants to attach.

Floats are written with ``repr`` (shortest exact round-trip) and manifests
with sorted keys, so identical data always produces identical bytes. Parse
errors carry ``path:line:`` prefixes.
"""

from __future__ import annotations

import csv
import json
from datetime import date as Date

from .curves import (HOURS_PER_DAY, NORMALIZATIONS, Dataset, LoadCurve,
                     RawReading)

READINGS_HEADER = ["household_id", "date", "hour", "kwh"]
CURVES_HEADER = ["household_id", "date"] + [f"h{h}" for h in range(HOURS_PER_DAY)]


def _parse_date(s: str) -> Date:
    return Date.fromisoformat(s)


def read_readings(path) -> list:
    """Load raw meter readings, one RawReading per row."""
    out = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}:1: empty file") from None
        if header != READINGS_HEADER:
            raise ValueError(
                f"{path}:1: expected header {','.join(READINGS_HEADER)!r}, "
                f"got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                out.append(RawReading(row[0], _parse_date(row[1]),
                                      int(row[2]), float(row[3])))
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
    return out


def write_readings(readings, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(READINGS_HEADER)
        for r in readings:
            w.writerow([r.household_id, r.date.isoformat(), r.hour, repr(r.kwh)])


def sidecar_path(path) -> str:
    """Where the JSON sidecar of an artifact at ``path`` lives."""
    return str(path) + ".json"


def read_sidecar(path, keys) -> dict | None:
    """The JSON object in the sidecar of ``path``, None when there is none.
    A sidecar that is not JSON, or not an object holding every one of
    ``keys``, raises one ValueError naming it."""
    side = sidecar_path(path)
    try:
        with open(side) as f:
            doc = json.load(f)
    except FileNotFoundError:
        return None
    except ValueError as e:
        raise ValueError(f"{side}: not JSON: {e}") from None
    if not isinstance(doc, dict) or not set(keys) <= doc.keys():
        raise ValueError(f"{side}: expected a JSON object with keys {list(keys)}")
    return doc


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
        "degenerate": [i for i, c in enumerate(dataset) if c.degenerate],
    }, extra, "manifest key")

    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CURVES_HEADER)
        for c in dataset:
            w.writerow([c.household_id, c.date.isoformat()]
                       + [repr(v) for v in c.values])
    with open(sidecar_path(path), "w") as f:
        f.write(json_text(manifest))


def read_curves(path) -> tuple[Dataset, dict]:
    """Load a curves CSV and its manifest.

    A missing manifest is tolerated for hand-made files: the dataset is
    then taken as raw with no degenerate rows. A manifest of another kind,
    an unknown normalization or degenerate rows that are not a list of
    integers raise one ValueError naming the manifest.
    """
    manifest = (read_sidecar(path, ("kind", "normalization"))
                or {"kind": "curves", "normalization": "raw", "degenerate": []})
    side = sidecar_path(path)
    if manifest["kind"] != "curves":
        raise ValueError(f"{side}: not a curves manifest")
    normalization = manifest["normalization"]
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"{side}: unknown normalization {normalization!r}, "
                         f"expected one of {NORMALIZATIONS}")
    degenerate = manifest.get("degenerate", [])
    if (not isinstance(degenerate, list)
            or not all(type(i) is int for i in degenerate)):
        raise ValueError(f"{side}: degenerate must be a list of row "
                         f"indices, got {degenerate!r}")
    degenerate = set(degenerate)
    normalized = normalization != "raw"

    curves = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}:1: empty file") from None
        if header != CURVES_HEADER:
            raise ValueError(
                f"{path}:1: expected header "
                f"{','.join(CURVES_HEADER[:3])},...,h23"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2 + HOURS_PER_DAY:
                raise ValueError(
                    f"{path}:{lineno}: expected {2 + HOURS_PER_DAY} fields, "
                    f"got {len(row)}"
                )
            try:
                curves.append(LoadCurve(
                    tuple(float(v) for v in row[2:]),
                    household_id=row[0],
                    date=_parse_date(row[1]),
                    normalized=normalized,
                    degenerate=(lineno - 2) in degenerate,
                ))
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
    dataset = Dataset(tuple(curves), normalization)
    if manifest.get("n_curves") is not None and manifest["n_curves"] != len(dataset):
        raise ValueError(
            f"{path}: manifest says {manifest['n_curves']} curves, "
            f"file has {len(dataset)}"
        )
    return dataset, manifest
