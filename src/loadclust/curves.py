"""Daily load curves: types, normalization, ingestion, and synthesis.

A daily load curve (DLC) is the vector of 24 hourly consumption readings for
one household on one calendar day. Clustering compares curve *shapes*, so
curves are z-normalized (zero mean, unit variance) before any distance is
computed; magnitude differences between households would otherwise dominate
every shape comparison.

A ``Dataset`` holds its curves once, as columns: one read-only (n, 24)
float64 array, which every algorithm reads through ``to_matrix``, and the
household ids, dates and degenerate flags beside it. The reader, the
normalization and the generators build a dataset straight from those columns
(``Dataset.from_columns``), checking all values with one vectorized test; a
``LoadCurve`` is built only when a caller indexes or iterates the dataset.

All functions here are pure: inputs are never mutated and every result is a
deterministic function of its arguments (plus the seed, for the synthetic
generator).
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from datetime import date as Date
from datetime import timedelta

import numpy as np

HOURS_PER_DAY = 24

#: Normalization regimes a Dataset can be tagged with.
RAW = "raw"
PER_CURVE = "per-curve"
PER_HOUR = "per-hour"

NORMALIZATIONS = (RAW, PER_CURVE, PER_HOUR)

#: A curve (or hour column) whose population std is below this is flat.
_FLAT_STD = 1e-12


def check_types(name: str, values, want: tuple) -> None:
    """The one type rule for caller and file values: each of ``values``
    must be exactly one of the types ``want``, so a bool is not an int and
    a float is not a count; else one ValueError naming it."""
    for v in values:
        if type(v) not in want:
            raise ValueError(f"{name} has the wrong type: {v!r}")


def check_k(k_min, k_max, n=None, least: int = 2) -> None:
    """The one rule for a cluster count (``k_min == k_max``) or a k range:
    ints (``check_types``) with ``least <= k_min <= k_max <= n``, ``n`` the
    curve count where known; else one ValueError. ``least`` is 1 only where
    one cluster means something: a hierarchy cut, a result."""
    check_types("k", (k_min, k_max), (int,))
    if not least <= k_min <= k_max <= (k_max if n is None else n):
        rule, got = (("k", k_min) if k_min == k_max
                     else ("k_min <= k_max", f"[{k_min}, {k_max}]"))
        top = "" if n is None else f" <= {n}"
        raise ValueError(f"k must satisfy {least} <= {rule}{top}, got {got}")


def curve_values(values, household_id, date, normalized: bool = False,
                 degenerate: bool = False) -> tuple:
    """``values`` as one curve's 24 floats (``float`` of each), or the one
    ValueError that says why they are not: a count other than 24, a value
    that is not finite, or a ``degenerate`` flag on a raw curve or on one
    that is not all zeros."""
    vals = tuple(map(float, values))
    if len(vals) != HOURS_PER_DAY:
        raise ValueError(
            f"load curve needs exactly {HOURS_PER_DAY} values, got {len(vals)}"
        )
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"non-finite value in curve {household_id}/{date}")
    if degenerate:
        if not normalized:
            raise ValueError("degenerate flag only applies to normalized curves")
        if any(v != 0.0 for v in vals):
            raise ValueError("degenerate curve must be all zeros")
    return vals


@dataclass(frozen=True)
class LoadCurve:
    """One day of hourly consumption for one household.

    ``values`` are kWh when raw and dimensionless z-units once normalized.
    ``degenerate`` marks a zero-variance curve that was force-normalized to
    all zeros instead of being rejected (flat consumption days are real
    data; dropping them silently would bias every clustering downstream).
    """

    values: tuple
    household_id: str
    date: Date
    normalized: bool = False
    degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", curve_values(
            self.values, self.household_id, self.date, self.normalized,
            self.degenerate))

    def name(self) -> str:
        return f"curve {self.household_id}/{self.date}"


class Dataset:
    """Ordered collection of load curves sharing one normalization regime.

    Curve order is load-bearing: index ``i`` refers to the same curve in
    every artifact derived from the dataset (distance matrices, cluster
    assignments, prototype indices).

    The curves are held once, as columns: the read-only (n, 24) float64
    array that ``to_matrix`` returns, which every algorithm reads, and
    beside it the ``household_ids``, the ``dates`` and the read-only
    ``degenerate`` flags. ``Dataset(curves, normalization)`` takes
    LoadCurves and ``Dataset.from_columns`` takes the columns; either way
    only the columns are kept, and a LoadCurve is built for the index or
    the iteration step that asks for it (``.curves`` builds them all). The
    dataset is immutable, and two datasets are equal when their
    normalization and columns are.
    """

    def __init__(self, curves, normalization: str = RAW):
        curves = tuple(curves)
        if normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {normalization!r}")
        expect = normalization != RAW
        for i, c in enumerate(curves):
            if c.normalized != expect:
                raise ValueError(
                    f"curve {i} normalization state does not match dataset tag "
                    f"{normalization!r}"
                )
        self._set(np.array([c.values for c in curves], dtype=float),
                  tuple(c.household_id for c in curves),
                  tuple(c.date for c in curves),
                  [c.degenerate for c in curves], normalization)

    @classmethod
    def from_columns(cls, values, household_ids, dates,
                     normalization: str = RAW, degenerate=None) -> "Dataset":
        """A dataset of the curves whose 24 values are the rows of
        ``values`` (copied), under ``household_ids`` and ``dates``;
        ``degenerate`` defaults to no curve. The rows are held to
        ``curve_values``'s rules with one vectorized test, and the first
        row that breaks one raises its ValueError."""
        if normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {normalization!r}")
        household_ids, dates = tuple(household_ids), tuple(dates)
        n = len(household_ids)
        values = np.array(values, dtype=float)
        if values.shape != (n, HOURS_PER_DAY) and (n or values.size):
            raise ValueError(f"{n} curves need ({n}, {HOURS_PER_DAY}) values, "
                             f"got shape {values.shape}")
        if len(dates) != n:
            raise ValueError(f"{n} household ids, but {len(dates)} dates")
        ds = cls.__new__(cls)
        ds._set(values, household_ids, dates, degenerate, normalization)
        values, degenerate = ds.to_matrix(), ds.degenerate
        bad = ~np.isfinite(values).all(axis=1)
        if degenerate.any():
            bad |= degenerate & ((values != 0.0).any(axis=1)
                                 | (normalization == RAW))
        if bad.any():
            i = int(np.argmax(bad))
            curve_values(values[i], household_ids[i], dates[i],
                         normalization != RAW, bool(degenerate[i]))
        return ds

    def _set(self, values, household_ids, dates, degenerate, normalization):
        values = values.reshape(len(household_ids), HOURS_PER_DAY)
        degenerate = (np.zeros(len(values), dtype=bool) if degenerate is None
                      else np.array(degenerate, dtype=bool).reshape(len(values)))
        values.setflags(write=False)
        degenerate.setflags(write=False)
        vars(self).update(_matrix=values, household_ids=household_ids,
                          dates=dates, degenerate=degenerate,
                          normalization=normalization)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def curves(self) -> tuple:
        """The LoadCurves in order, built from the columns."""
        return tuple(self)

    def _curve(self, i) -> LoadCurve:
        return LoadCurve(self._matrix[i].tolist(), self.household_ids[i],
                         self.dates[i], normalized=self.normalization != RAW,
                         degenerate=bool(self.degenerate[i]))

    def __len__(self):
        return len(self.household_ids)

    def __iter__(self):
        return map(self._curve, range(len(self)))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._curve, range(len(self))[i]))
        return self._curve(i)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.normalization == other.normalization
                and self.household_ids == other.household_ids
                and self.dates == other.dates
                and np.array_equal(self.degenerate, other.degenerate)
                and np.array_equal(self._matrix, other._matrix))

    def __hash__(self):
        return hash((self.normalization, self.household_ids, self.dates))

    def __repr__(self):
        return (f"Dataset(curves={self.curves!r}, "
                f"normalization={self.normalization!r})")

    def to_matrix(self) -> np.ndarray:
        """The curve values as an (n, 24) float array; read-only, and the
        same array on every call."""
        return self._matrix


@dataclass(frozen=True)
class RawReading:
    """One hourly meter reading, the unit of CSV ingestion."""

    household_id: str
    date: Date
    hour: int
    kwh: float

    def __post_init__(self):
        check_types("hour", (self.hour,), (int,))
        if not (0 <= self.hour <= 23):
            raise ValueError(f"hour must be in [0, 23], got {self.hour}")
        kwh = float(self.kwh)
        if not math.isfinite(kwh) or kwh < 0:
            raise ValueError(f"kwh must be finite and >= 0, got {self.kwh}")
        object.__setattr__(self, "kwh", kwh)


def z_normalize(curve: LoadCurve) -> LoadCurve:
    """Z-normalize one curve: subtract the mean, divide by the std.

    Uses the *population* standard deviation (divide by 24, not 23); a fixed
    length-24 signal is treated as the whole population, not a sample. When
    the std falls below ``_FLAT_STD`` (1e-12) the curve is flat: it is
    mapped to all zeros and flagged degenerate rather than rejected. A std
    that overflows float64 raises ValueError, since every score would read
    zero.
    """
    if curve.normalized:
        raise ValueError("curve is already normalized")
    return normalize_dataset(Dataset((curve,)))[0]


def normalize_dataset(dataset: Dataset, mode: str = PER_CURVE) -> Dataset:
    """Normalize a raw dataset, either per curve or per hour column.

    ``per-curve`` z-scores each curve independently (the right precondition
    for shape-based distances), exactly as ``z_normalize`` does. ``per-hour``
    z-scores each hour index across all curves, which preserves within-day
    magnitude structure; a zero-variance hour column maps to zeros without
    flagging any curve degenerate. A std that overflows float64 raises
    ValueError naming the curve or the hour column.
    """
    if mode not in (PER_CURVE, PER_HOUR):
        raise ValueError(f"unknown normalization mode {mode!r}")
    if dataset.normalization != RAW:
        raise ValueError("dataset is already normalized")
    if len(dataset) == 0:
        raise ValueError("cannot normalize an empty dataset")

    per_curve = mode == PER_CURVE
    axis = 1 if per_curve else 0
    m = dataset.to_matrix()
    with np.errstate(over="ignore", invalid="ignore"):
        mean = m.mean(axis=axis, keepdims=True)
        std = m.std(axis=axis, keepdims=True)
    overflow = np.flatnonzero(~np.isfinite(std))
    if overflow.size:
        i = int(overflow[0])
        what = dataset[i].name() if per_curve else f"hour column {i}"
        raise ValueError(f"{what}: the std overflows float64")
    flat = std < _FLAT_STD
    z = (m - mean) / np.where(flat, 1.0, std)
    z[np.broadcast_to(flat, z.shape)] = 0.0
    return Dataset.from_columns(z, dataset.household_ids, dataset.dates, mode,
                                degenerate=flat[:, 0] if per_curve else None)


def reshape_readings(readings) -> tuple[Dataset, int]:
    """Group hourly readings into daily load curves.

    A (household, date) group becomes a curve only when it holds exactly one
    reading for every hour 0-23. Duplicate (household, date, hour) entries
    keep the last occurrence in input order; incomplete days (including
    23-hour DST days) are dropped and counted, never imputed.

    Returns the raw dataset, sorted by (household_id, date), plus the number
    of dropped incomplete days.
    """
    groups: dict = {}
    for r in readings:
        groups.setdefault((r.household_id, r.date), {})[r.hour] = r.kwh

    ids, dates, rows = [], [], []
    dropped = 0
    for (hid, day), hours in sorted(groups.items()):
        if len(hours) == HOURS_PER_DAY:
            ids.append(hid)
            dates.append(day)
            rows.append([hours[h] for h in range(HOURS_PER_DAY)])
        else:
            dropped += 1
    return Dataset.from_columns(rows, ids, dates), dropped


# --- synthetic data ---------------------------------------------------------

def _bump(center: float, width: float, amplitude: float = 1.5,
          base: float = 0.3) -> np.ndarray:
    """Smooth consumption peak centered at an hour, circular in time."""
    h = np.arange(HOURS_PER_DAY, dtype=float)
    d = np.abs(h - center)
    d = np.minimum(d, HOURS_PER_DAY - d)
    return base + amplitude * np.exp(-0.5 * (d / width) ** 2)


def _double_peak() -> np.ndarray:
    morning = _bump(8.0, 1.6, amplitude=1.1, base=0.0)
    evening = _bump(19.0, 1.6, amplitude=1.3, base=0.0)
    return 0.3 + morning + evening


#: Named archetype templates, ordered; ``default_archetypes(k)`` takes the
#: first k. "flat" z-normalizes to a degenerate all-zero curve by design.
ARCHETYPE_ORDER = (
    "morning-peak", "evening-peak", "double-peak",
    "midday-peak", "night-owl", "flat",
)

ARCHETYPE_SHAPES = {
    "morning-peak": _bump(8.0, 2.0),
    "evening-peak": _bump(19.0, 2.0),
    "double-peak": _double_peak(),
    "midday-peak": _bump(13.0, 3.0),
    "night-owl": _bump(1.0, 2.5),
    "flat": np.full(HOURS_PER_DAY, 0.8),
}


def default_archetypes(k: int) -> tuple:
    """First ``k`` built-in archetype templates as value tuples."""
    check_k(k, k, len(ARCHETYPE_ORDER), least=1)
    return tuple(
        tuple(float(v) for v in ARCHETYPE_SHAPES[name])
        for name in ARCHETYPE_ORDER[:k]
    )


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a labeled synthetic dataset.

    Each generated curve is its archetype, circularly shifted by a uniform
    integer offset in [-shift_range, shift_range], plus elementwise Gaussian
    noise of the given std.
    """

    archetypes: tuple
    curves_per_archetype: int
    noise_std: float = 0.0
    shift_range: int = 0

    def __post_init__(self):
        check_types("curves_per_archetype", (self.curves_per_archetype,), (int,))
        check_types("noise_std", (self.noise_std,), (int, float))
        check_types("shift_range", (self.shift_range,), (int,))
        arch = tuple(tuple(float(v) for v in a) for a in self.archetypes)
        if len(arch) < 1:
            raise ValueError("need at least one archetype")
        for a in arch:
            if len(a) != HOURS_PER_DAY:
                raise ValueError("archetype templates must have 24 points")
        if self.curves_per_archetype < 1:
            raise ValueError("curves_per_archetype must be >= 1")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and >= 0, "
                             f"got {self.noise_std!r}")
        if self.shift_range < 0:
            raise ValueError("shift_range must be >= 0")
        object.__setattr__(self, "archetypes", arch)

    @classmethod
    def default(cls, k_true: int, curves_per_archetype: int,
                noise_std: float = 0.0, shift_range: int = 0) -> "SyntheticSpec":
        return cls(default_archetypes(k_true), curves_per_archetype,
                   noise_std, shift_range)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> tuple[Dataset, np.ndarray]:
    """Generate a raw synthetic dataset plus its ground-truth labels.

    Deterministic for a fixed (spec, seed); the generator is NumPy's PCG64
    (``numpy.random.default_rng``). Shift offsets are drawn before noise for
    each curve, and draws are skipped entirely when the corresponding spec
    field is zero, so datasets differing only in an inactive field share the
    rest of the stream.
    """
    rng = np.random.default_rng(seed)
    base_date = Date(2024, 1, 1)
    rows, ids, dates, labels = [], [], [], []
    for a, template in enumerate(spec.archetypes):
        t = np.asarray(template, dtype=float)
        for c in range(spec.curves_per_archetype):
            vals = t
            if spec.shift_range > 0:
                offset = int(rng.integers(-spec.shift_range, spec.shift_range + 1))
                vals = np.roll(vals, offset)
            if spec.noise_std > 0:
                vals = vals + rng.normal(0.0, spec.noise_std, HOURS_PER_DAY)
            rows.append(vals)
            ids.append(f"arch{a:02d}")
            dates.append(base_date + timedelta(days=c))
            labels.append(a)
    return (Dataset.from_columns(rows, ids, dates),
            np.asarray(labels, dtype=int))
