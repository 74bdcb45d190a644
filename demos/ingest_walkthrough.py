"""From raw meter readings to clustering-ready daily curves.

Builds a tiny hourly-readings file by hand (including a deliberately
incomplete day), ingests it, and shows what each normalization mode does and
why per-curve z-scoring is the one shape-based distances want.

Run:  python demos/ingest_walkthrough.py
"""

import math
import tempfile
from datetime import date as Date
from pathlib import Path

import numpy as np

from loadclust import RawReading, normalize_dataset, reshape_readings
from loadclust.io import read_readings, write_readings


def day(hid, d, profile, scale=1.0):
    """One household-day of hourly readings from a 24-point profile."""
    return [RawReading(hid, d, h, scale * float(v))
            for h, v in enumerate(profile)]


# --- fabricate a readings file -------------------------------------------------

hours = np.arange(24, dtype=float)
office = 0.2 + 1.4 * np.exp(-0.5 * ((hours - 10) / 2.5) ** 2)
dinner = 0.2 + 1.4 * np.exp(-0.5 * ((hours - 19) / 2.0) ** 2)

readings = []
readings += day("big-house", Date(2024, 3, 4), dinner, scale=4.0)
readings += day("small-flat", Date(2024, 3, 4), dinner, scale=1.0)
readings += day("office", Date(2024, 3, 4), office, scale=2.5)
# an incomplete day: the meter went quiet after 17:00
readings += day("office", Date(2024, 3, 5), office, scale=2.5)[:18]

# --- ingest: group by (household, date), keep only complete days ---------------

with tempfile.TemporaryDirectory(prefix="ingest-demo-") as workdir:
    raw_path = Path(workdir) / "readings.csv"
    write_readings(readings, raw_path)
    print(f"wrote {len(readings)} readings to {raw_path}")
    dataset, dropped = reshape_readings(read_readings(raw_path))
print(f"daily curves: {len(dataset)}, incomplete days dropped: {dropped}")
for c in dataset:
    peak = int(np.argmax(c.values))
    print(f"  {c.household_id:>10} {c.date}  total {sum(c.values):7.2f} kWh, "
          f"peak at {peak:02d}:00")
print()

# --- why raw kWh is the wrong space for shape comparison ------------------------

by_home = {c.household_id: c for c in dataset}
big, flat, office_day = by_home["big-house"], by_home["small-flat"], by_home["office"]


def eu(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a.values, b.values)))


print("raw-space euclidean distances:")
print(f"  big-house vs small-flat (same shape):      {eu(big, flat):7.3f}")
print(f"  small-flat vs office    (different shape): {eu(flat, office_day):7.3f}")
print("magnitude dominates: the two dinner-peak homes look farther apart")
print("than a home and an office, purely because one house is bigger")
print()

# --- per-curve normalization scores each day against its own mean/std ----------

normed = normalize_dataset(dataset, "per-curve")
nby = {c.household_id: c for c in normed}
nb, nf, no = nby["big-house"], nby["small-flat"], nby["office"]
print("per-curve z-normalized distances:")
print(f"  big-house vs small-flat (same shape):      {eu(nb, nf):7.3f}")
print(f"  small-flat vs office    (different shape): {eu(nf, no):7.3f}")
print("now shape decides, which is the point")
print()

# --- per-hour is the other sensible mode ----------------------------------------

# per-hour standardizes each hour across the population instead; it keeps
# between-household level differences and is the right choice when absolute
# load matters more than curve shape
ph = {c.household_id: c for c in normalize_dataset(dataset, "per-hour")}
print(f"per-hour keeps magnitude: big-house hour-19 score "
      f"{ph['big-house'].values[19]:+.3f}, "
      f"small-flat {ph['small-flat'].values[19]:+.3f}")
print()
print(f"normalized flags after per-curve: {sorted({c.normalized for c in normed})}")
