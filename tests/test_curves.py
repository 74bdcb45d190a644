import math
import re
from datetime import date as Date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadclust import (ClusteringResult, Dataset, DistanceMatrix, FitOptions,
                       LoadCurve, MethodSpec, MetricConfig, RawReading,
                       SweepReport, SyntheticSpec, build_dendrogram, cut,
                       cut_range, default_archetypes, dtw, fit,
                       generate_synthetic, gmm_em, kmeans, kmedoids,
                       normalize_dataset, pairwise_matrix, reshape_readings,
                       sweep, z_normalize)
from loadclust.curves import ARCHETYPE_ORDER, HOURS_PER_DAY, PER_HOUR
from loadclust.evaluation import METHODS
from loadclust.results import MEDOID_INDEX

from conftest import make_curve, per_hour_oracle, z_normalize_oracle


finite_curve = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=24, max_size=24,
)


class TestLoadCurve:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="24"):
            make_curve([1.0] * 23)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                make_curve([bad] + [0.0] * 23)

    def test_values_coerced_to_float_tuple(self):
        c = make_curve(range(24))
        assert c.values == tuple(float(v) for v in range(24))
        assert all(type(v) is float for v in c.values)

    def test_degenerate_requires_normalized_zeros(self):
        with pytest.raises(ValueError, match="normalized"):
            make_curve([0.0] * 24, degenerate=True)
        with pytest.raises(ValueError, match="zeros"):
            make_curve([1.0] + [0.0] * 23, normalized=True, degenerate=True)
        make_curve([0.0] * 24, normalized=True, degenerate=True)


class TestZNormalize:
    def test_known_values(self):
        # repeating (1, 2, 3): mean 2, population std sqrt(2/3),
        # so the z-scores are -sqrt(3/2), 0, +sqrt(3/2)
        c = make_curve([1.0, 2.0, 3.0] * 8)
        z = z_normalize(c)
        hi = math.sqrt(1.5)
        for v, expect in zip(z.values, [-hi, 0.0, hi] * 8):
            assert v == pytest.approx(expect, abs=1e-12)
        assert z.normalized and not z.degenerate
        assert z.household_id == c.household_id and z.date == c.date

    @given(finite_curve)
    @settings(derandomize=True, max_examples=80)
    def test_zero_mean_unit_population_std(self, vals):
        c = make_curve(vals)
        z = z_normalize(c)
        arr = np.asarray(z.values)
        if z.degenerate:
            assert np.all(arr == 0.0)
        else:
            assert abs(arr.mean()) < 1e-9
            assert abs(arr.std() - 1.0) < 1e-9  # ddof=0

    def test_population_not_sample_std(self):
        vals = [float(v) for v in range(24)]
        z = z_normalize(make_curve(vals))
        sample = (vals[0] - np.mean(vals)) / np.std(vals, ddof=1)
        population = (vals[0] - np.mean(vals)) / np.std(vals, ddof=0)
        assert z.values[0] == pytest.approx(population, abs=1e-12)
        assert z.values[0] != pytest.approx(sample, abs=1e-6)

    def test_flat_curve_degenerate(self):
        z = z_normalize(make_curve([7.5] * 24))
        assert z.degenerate and z.normalized
        assert z.values == (0.0,) * 24

    def test_near_flat_below_epsilon(self):
        vals = [1.0 + 1e-14] + [1.0] * 23
        assert z_normalize(make_curve(vals)).degenerate

    def test_already_normalized_rejected(self):
        z = z_normalize(make_curve(range(24)))
        with pytest.raises(ValueError, match="already normalized"):
            z_normalize(z)


def curve_bits(curve):
    return [v.hex() for v in curve.values], curve.degenerate


class TestZScoreAgainstOracles:
    """``normalize_dataset`` serves ``z_normalize`` and both dataset modes;
    each must give the bits and degenerate flags of the code it replaced."""

    def check(self, rows):
        ds = Dataset(tuple(make_curve(r, hid=f"h{i}")
                           for i, r in enumerate(rows)))
        expect = [curve_bits(z_normalize_oracle(c)) for c in ds]
        assert [curve_bits(z_normalize(c)) for c in ds] == expect
        assert [curve_bits(c) for c in normalize_dataset(ds)] == expect
        assert ([curve_bits(c) for c in normalize_dataset(ds, PER_HOUR)]
                == [curve_bits(c) for c in per_hour_oracle(ds)])

    @given(st.lists(finite_curve, min_size=1, max_size=8))
    @settings(derandomize=True, max_examples=100)
    def test_hypothesis_curves(self, rows):
        self.check(rows)

    def test_flat_and_near_flat(self):
        self.check([[7.5] * 24, [1.0 + 1e-14] + [1.0] * 23, [0.0] * 24,
                    list(range(24)), [1.0 + 1e-10] + [1.0] * 23])

    def test_extreme_magnitudes(self):
        rng = np.random.default_rng(5)
        rows = rng.uniform(0.0, 1.0, size=(6, 24))
        self.check(rows * 1e-300)
        mixed = np.array([1e-300, 1e-5, 1.0, 1e5, 1e150])
        self.check(rows[:5] * mixed[:, None])

    def test_overflowing_std_rejected(self):
        # squared deviations overflow float64, so the std is inf (NaN once
        # the mean overflows too) and every score would read zero
        rows = np.random.default_rng(5).uniform(0.0, 1.0, size=(6, 24))
        mixed = np.array([1e-300, 1e-5, 1.0, 1e5, 1e150, 1e300])
        spike = [0.0] * 7 + [1e200] + [0.0] * 16  # one reading RawReading accepts
        cases = [(rows * 1e300, 0, 0), (rows * mixed[:, None], 5, 0),
                 ([spike, [0.0] * 24], 0, 7),
                 ([[1.7e308] * 24, [0.0] * 24], 0, 0)]
        for bad_rows, row, hour in cases:
            ds = Dataset(tuple(make_curve(r, hid=f"h{i}")
                               for i, r in enumerate(bad_rows)))
            curve = f"curve h{row}/2024-01-01: the std overflows"
            with pytest.raises(ValueError, match=curve):
                z_normalize(ds[row])
            with pytest.raises(ValueError, match=curve):
                normalize_dataset(ds)
            with pytest.raises(ValueError, match=f"hour column {hour}: "):
                normalize_dataset(ds, PER_HOUR)

    def test_flat_hour_column(self):
        rows = np.random.default_rng(3).uniform(0.0, 5.0, size=(6, 24))
        rows[:, 0] = 3.0
        rows[:, 5] = 1e-300
        self.check(rows)


class TestDataset:
    def test_tag_must_match_curve_state(self):
        raw = make_curve(range(24))
        with pytest.raises(ValueError, match="normalization state"):
            Dataset((raw,), "per-curve")
        with pytest.raises(ValueError, match="normalization state"):
            Dataset((z_normalize(raw),), "raw")

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown normalization"):
            Dataset((), "zscore")
        with pytest.raises(ValueError,
                           match="^unknown normalization 'zscore'$"):
            Dataset.from_columns([], [], [], "zscore")

    def test_sequence_protocol(self):
        cs = tuple(make_curve([i] * 23 + [i + 1.0], hid=f"h{i}") for i in range(3))
        ds = Dataset(cs)
        assert len(ds) == 3
        assert ds[1] == cs[1]
        assert ds[-1] == cs[-1]
        assert ds[0:2] == cs[0:2]
        with pytest.raises(IndexError):
            ds[3]
        assert list(ds) == list(cs)
        assert ds.to_matrix().shape == (3, 24)

    def test_matrix_is_built_once_and_read_only(self):
        cs = tuple(make_curve([i] * 23 + [i + 1.0], hid=f"h{i}") for i in range(3))
        ds = Dataset(cs)
        m = ds.to_matrix()
        assert ds.to_matrix() is m
        assert m.tolist() == [list(c.values) for c in cs]
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 5.0
        assert ds == Dataset(cs)


def both_ways(rows, normalization="raw", degenerate=()):
    """The same curves as a column-built and as a curve-built Dataset."""
    ids = [f"h{i}" for i in range(len(rows))]
    dates = [Date(2024, 1, 1 + i) for i in range(len(rows))]
    flags = [i in degenerate for i in range(len(rows))]
    columns = Dataset.from_columns(rows, ids, dates, normalization, flags)
    curves = Dataset(tuple(
        make_curve(r, hid=h, day=d, normalized=normalization != "raw",
                   degenerate=f)
        for r, h, d, f in zip(rows, ids, dates, flags)), normalization)
    return columns, curves


class TestColumns:
    """A Dataset holds its curves as columns; a LoadCurve is built only for
    an index or an iteration step, and a dataset built from columns is the
    one built from the same curves."""

    def check_same(self, columns, curves):
        assert columns == curves and curves == columns
        assert hash(columns) == hash(curves)
        assert list(columns) == list(curves)
        assert columns.curves == curves.curves
        assert [columns[i] for i in range(len(curves))] == list(curves)
        assert columns[-1] == curves[-1]
        assert columns.to_matrix().tobytes() == curves.to_matrix().tobytes()
        assert ([c.degenerate for c in columns]
                == [c.degenerate for c in curves]
                == columns.degenerate.tolist() == curves.degenerate.tolist())
        assert repr(columns) == repr(curves)

    def test_signed_zeros_and_subnormals(self):
        rows = [[-0.0] * 12 + [0.0] * 12, [5e-324, -5e-324] * 12,
                [2.2250738585072e-308] + [1.0] * 23]
        columns, curves = both_ways(rows)
        self.check_same(columns, curves)
        assert [v.hex() for v in columns[0].values] == [
            v.hex() for v in rows[0]]

    def test_degenerate_rows(self):
        rows = [[0.0] * 24, list(range(24)), [-0.0] * 24]
        self.check_same(*both_ways(rows, "per-curve", degenerate={0, 2}))
        columns, _ = both_ways(rows, "per-curve", degenerate={0})
        assert columns != both_ways(rows, "per-curve")[0]

    @pytest.mark.parametrize("mode", ["per-curve", PER_HOUR])
    def test_normalized_equals_oracle(self, mode):
        rows = np.random.default_rng(8).uniform(0.0, 4.0, size=(7, 24))
        rows[:, 3] = 1.5  # a flat hour column
        rows[2] = 1.5  # a flat curve: degenerate per curve
        raw, from_curves = both_ways(rows)
        self.check_same(raw, from_curves)
        out = normalize_dataset(raw, mode)
        oracle = (per_hour_oracle(from_curves) if mode == PER_HOUR else
                  Dataset(tuple(map(z_normalize_oracle, from_curves)), mode))
        self.check_same(out, oracle)
        assert out.degenerate.tolist() == [mode != PER_HOUR and i == 2
                                           for i in range(7)]

    def test_unequal_columns(self):
        rows = [list(range(24)), [1.0] * 24]
        columns, _ = both_ways(rows)
        other = Dataset.from_columns(rows, ["h0", "x"], columns.dates)
        assert columns != other
        assert columns != Dataset.from_columns(
            rows, columns.household_ids, columns.dates, PER_HOUR)
        assert columns != rows

    def test_immutable_with_an_instance_dict(self):
        columns, _ = both_ways([list(range(24))])
        m = columns.to_matrix()
        assert columns.to_matrix() is m
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 5.0
        with pytest.raises(AttributeError):
            columns.normalization = "per-curve"
        with pytest.raises(AttributeError,
                           match="^cannot delete field 'normalization'$"):
            del columns.normalization
        vars(columns)["_scratch"] = 1  # where partitional keeps its runs

    def test_bad_columns_raise_what_load_curve_raises(self):
        ok = [0.0] * 24
        day = Date(2024, 1, 1)
        cases = [([ok, [math.inf] + ok[1:]], "raw", None),
                 ([ok, [math.nan] + ok[1:]], "per-curve", None),
                 ([ok, ok], "raw", [False, True]),
                 ([ok, [1.0] + ok[1:]], "per-curve", [False, True])]
        for rows, mode, flags in cases:
            with pytest.raises(ValueError) as want:
                LoadCurve(rows[1], "h1", day, normalized=mode != "raw",
                          degenerate=bool(flags and flags[1]))
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                Dataset.from_columns(rows, ["h0", "h1"], [day] * 2, mode,
                                     flags)
        with pytest.raises(ValueError, match=r"need \(2, 24\) values"):
            Dataset.from_columns([ok[:23]] * 2, ["h0", "h1"], [day] * 2)
        with pytest.raises(ValueError, match="2 household ids, but 1 dates"):
            Dataset.from_columns([ok] * 2, ["h0", "h1"], [day])
        assert len(Dataset.from_columns([], [], [])) == 0

    def test_file_to_file_builds_no_curve(self, tmp_path, monkeypatch):
        from loadclust import curves as curves_module
        from loadclust.io import read_curves, write_curves
        raw, _ = generate_synthetic(SyntheticSpec.default(3, 20, 0.1, 2), 4)
        write_curves(raw, tmp_path / "raw.csv")
        built = []
        post_init = curves_module.LoadCurve.__post_init__

        def counting(curve):
            built.append(curve)
            post_init(curve)

        monkeypatch.setattr(curves_module.LoadCurve, "__post_init__", counting)
        loaded, _ = read_curves(tmp_path / "raw.csv")
        for mode in ("per-curve", PER_HOUR):
            out = normalize_dataset(loaded, mode)
            write_curves(out, tmp_path / f"{mode}.csv")
            again, _ = read_curves(tmp_path / f"{mode}.csv")
            assert again == out
        assert loaded == raw
        assert built == []
        assert out[7] == again[7]
        assert len(built) == 2  # one curve per index, not the whole tuple


class TestNormalizeDataset:
    def test_per_curve(self):
        ds = Dataset((make_curve(range(24)), make_curve([5.0] * 24)))
        out = normalize_dataset(ds)
        assert out.normalization == "per-curve"
        assert not out[0].degenerate and out[1].degenerate
        assert len(out) == len(ds)

    def test_per_hour_columns(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(0.0, 5.0, size=(6, 24))
        rows[:, 0] = 3.0  # zero-variance hour column
        ds = Dataset(tuple(make_curve(r, hid=f"h{i}") for i, r in enumerate(rows)))
        out = normalize_dataset(ds, mode=PER_HOUR)
        m = out.to_matrix()
        assert np.all(m[:, 0] == 0.0)
        assert not any(c.degenerate for c in out)
        assert np.allclose(m[:, 1:].mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(m[:, 1:].std(axis=0), 1.0, atol=1e-9)

    def test_double_normalization_rejected(self):
        ds = normalize_dataset(Dataset((make_curve(range(24)),)))
        with pytest.raises(ValueError, match="already normalized"):
            normalize_dataset(ds)

    def test_empty_and_bad_mode(self):
        with pytest.raises(ValueError, match="empty"):
            normalize_dataset(Dataset(()))
        with pytest.raises(ValueError, match="unknown normalization mode"):
            normalize_dataset(Dataset((make_curve(range(24)),)), mode="raw")


class TestRawReading:
    def test_hour_range(self):
        for h in (-1, 24):
            with pytest.raises(ValueError, match="hour"):
                RawReading("h", Date(2024, 1, 1), h, 1.0)

    def test_kwh_validation(self):
        with pytest.raises(ValueError, match="kwh"):
            RawReading("h", Date(2024, 1, 1), 0, -0.1)
        with pytest.raises(ValueError, match="kwh"):
            RawReading("h", Date(2024, 1, 1), 0, math.nan)


class TestReshapeReadings:
    @staticmethod
    def day(hid, day, hours):
        return [RawReading(hid, day, h, float(v)) for h, v in hours]

    def test_complete_day_and_order(self):
        d1, d2 = Date(2024, 1, 2), Date(2024, 1, 1)
        readings = (
            self.day("b", d1, [(h, h) for h in range(24)])
            + self.day("a", d2, [(h, 2 * h) for h in range(24)])
        )
        ds, dropped = reshape_readings(readings)
        assert dropped == 0
        # sorted by (household, date), not input order
        assert [(c.household_id, c.date) for c in ds] == [("a", d2), ("b", d1)]
        assert ds[0].values == tuple(float(2 * h) for h in range(24))

    def test_incomplete_day_dropped_and_counted(self):
        d = Date(2024, 3, 31)  # a 23-hour DST day stays incomplete
        readings = self.day("a", d, [(h, 1.0) for h in range(23)])
        readings += self.day("a", Date(2024, 4, 1), [(h, 1.0) for h in range(24)])
        ds, dropped = reshape_readings(readings)
        assert dropped == 1
        assert len(ds) == 1 and ds[0].date == Date(2024, 4, 1)

    def test_duplicate_hour_keeps_last(self):
        d = Date(2024, 1, 1)
        readings = self.day("a", d, [(h, 1.0) for h in range(24)])
        readings.append(RawReading("a", d, 5, 99.0))
        ds, dropped = reshape_readings(readings)
        assert dropped == 0
        assert ds[0].values[5] == 99.0

    def test_25_readings_still_complete(self):
        # an extra duplicate must not push the day over 24 hours
        d = Date(2024, 10, 27)
        readings = self.day("a", d, [(h, 1.0) for h in range(24)])
        readings.append(RawReading("a", d, 2, 7.0))
        ds, dropped = reshape_readings(readings)
        assert len(ds) == 1 and dropped == 0


class TestSynthetic:
    def test_archetype_order_and_bounds(self):
        assert len(ARCHETYPE_ORDER) == 6
        assert default_archetypes(2) == default_archetypes(6)[:2]
        for bad in (0, 7):
            with pytest.raises(ValueError):
                default_archetypes(bad)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="archetype"):
            SyntheticSpec((), 5)
        with pytest.raises(ValueError, match="24"):
            SyntheticSpec(((1.0,) * 23,), 5)
        with pytest.raises(ValueError, match="curves_per_archetype"):
            SyntheticSpec.default(3, 0)
        for noise in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise_std"):
                SyntheticSpec.default(3, 5, noise_std=noise)
        with pytest.raises(ValueError, match="shift_range"):
            SyntheticSpec.default(3, 5, shift_range=-1)

    def test_shapes_and_labels(self):
        spec = SyntheticSpec.default(3, 4)
        ds, labels = generate_synthetic(spec, seed=0)
        assert len(ds) == 12 and ds.normalization == "raw"
        assert list(labels) == [0] * 4 + [1] * 4 + [2] * 4
        assert ds[0].household_id == "arch00" and ds[11].household_id == "arch02"
        assert ds[1].date == Date(2024, 1, 2)

    def test_zero_noise_zero_shift_reproduces_archetypes(self):
        spec = SyntheticSpec.default(2, 3)
        ds, labels = generate_synthetic(spec, seed=5)
        arch = default_archetypes(2)
        for c, lab in zip(ds, labels):
            assert c.values == arch[lab]

    def test_shift_only_is_a_circular_roll(self):
        spec = SyntheticSpec.default(1, 50, shift_range=3)
        ds, _ = generate_synthetic(spec, seed=2)
        template = np.asarray(default_archetypes(1)[0])
        offsets = set()
        for c in ds:
            rolls = [o for o in range(-3, 4)
                     if np.array_equal(np.roll(template, o), c.values)]
            assert rolls, "curve is not a circular shift of its archetype"
            offsets.update(rolls)
        assert len(offsets) > 1  # several distinct offsets actually drawn

    def test_determinism_and_seed_sensitivity(self):
        spec = SyntheticSpec.default(3, 5, noise_std=0.2, shift_range=2)
        a1, l1 = generate_synthetic(spec, seed=9)
        a2, l2 = generate_synthetic(spec, seed=9)
        b, _ = generate_synthetic(spec, seed=10)
        assert a1.to_matrix().tolist() == a2.to_matrix().tolist()
        assert np.array_equal(l1, l2)
        assert a1.to_matrix().tolist() != b.to_matrix().tolist()

    def test_noise_margin_preserves_archetype_identity(self):
        # every noisy shifted curve stays strictly closest (banded dtw on
        # z-normalized values) to its own archetype
        spec = SyntheticSpec.default(3, 10, noise_std=0.1, shift_range=2)
        ds, labels = generate_synthetic(spec, seed=7)
        nds = normalize_dataset(ds)
        protos = [z_normalize(make_curve(a)).values for a in default_archetypes(3)]
        cfg = MetricConfig("dtw", 4)
        for c, lab in zip(nds, labels):
            dists = [cfg.distance(c.values, p) for p in protos]
            assert int(np.argmin(dists)) == lab
            others = [d for i, d in enumerate(dists) if i != lab]
            assert dists[lab] < min(others)

    def test_flat_archetype_normalizes_degenerate(self):
        ds, labels = generate_synthetic(SyntheticSpec.default(6, 2), seed=0)
        nds = normalize_dataset(ds)
        flat_idx = ARCHETYPE_ORDER.index("flat")
        for c, lab in zip(nds, labels):
            assert c.degenerate == (lab == flat_idx)


# --- the one type rule --------------------------------------------------------

@pytest.fixture(scope="module")
def tiny():
    """Six normalized curves, their dtw matrix and average-linkage tree."""
    ds = normalize_dataset(generate_synthetic(
        SyntheticSpec.default(2, 3, 0.1), seed=0)[0])
    matrix = pairwise_matrix(ds)
    return ds, matrix, build_dendrogram(matrix, "average")


#: A bool, a float and a str, where a count or a window is due.
NOT_INTS = (True, 2.0, "2")

#: Every entry point of a count, window or flag: its call on ``tiny`` and
#: the wrongly typed values it must refuse.
ENTRY_POINTS = {
    "MetricConfig window": (lambda t, v: MetricConfig("dtw", v), NOT_INTS),
    "dtw window": (lambda t, v: dtw([0.0] * 3, [1.0] * 3, v), NOT_INTS),
    "DistanceMatrix n": (lambda t, v: DistanceMatrix(v, np.zeros(1)), NOT_INTS),
    "RawReading hour":
        (lambda t, v: RawReading("h", Date(2024, 1, 1), v, 1.0), NOT_INTS),
    "SyntheticSpec curves_per_archetype":
        (lambda t, v: SyntheticSpec.default(2, v), NOT_INTS),
    "SyntheticSpec noise_std":  # an int or a float
        (lambda t, v: SyntheticSpec.default(2, 2, v), (True, "0.1")),
    "SyntheticSpec shift_range":
        (lambda t, v: SyntheticSpec.default(2, 2, 0.1, v), NOT_INTS),
    "default_archetypes k": (lambda t, v: default_archetypes(v), NOT_INTS),
    "sweep k_min": (lambda t, v: sweep(t[0], MethodSpec("ahc"), v, 4), NOT_INTS),
    "sweep k_max": (lambda t, v: sweep(t[0], MethodSpec("ahc"), 2, v), NOT_INTS),
    "cut k": (lambda t, v: cut(t[2], v, t[1]), NOT_INTS),
    "cut_range k_min": (lambda t, v: cut_range(t[2], v, 4, t[1]), NOT_INTS),
    "cut_range k_max": (lambda t, v: cut_range(t[2], 2, v, t[1]), NOT_INTS),
    "MethodSpec size_weighted":  # a bool
        (lambda t, v: MethodSpec("ahc", size_weighted=v), (1, 1.0, "true")),
    "SweepReport k":
        (lambda t, v: SweepReport(MethodSpec("ahc"), [(v, 0.5)]), NOT_INTS),
    "SweepReport wcbcr":  # an int or a float
        (lambda t, v: SweepReport(MethodSpec("ahc"), [(2, v)]), (True, "0.5")),
    "FitOptions k": (lambda t, v: FitOptions(k=v), NOT_INTS),
    "kmeans k": (lambda t, v: kmeans(t[0], FitOptions(k=v)), NOT_INTS),
    "kmedoids k":
        (lambda t, v: kmedoids(t[0], FitOptions(k=v), matrix=t[1]), NOT_INTS),
    "gmm_em k": (lambda t, v: gmm_em(t[0], FitOptions(k=v)), NOT_INTS),
    **{f"fit {method} k":
       (lambda t, v, method=method: fit(t[0], MethodSpec(method), v), NOT_INTS)
       for method in METHODS},
    "ClusteringResult k": (lambda t, v: ClusteringResult(
        "ahc", v, (0, 1), (0, 1), MEDOID_INDEX, 0.0, 1, True), NOT_INTS),
}


@pytest.mark.parametrize("entry, value", [
    (entry, v) for entry, (_, values) in ENTRY_POINTS.items() for v in values])
def test_wrong_type_is_one_value_error_at_every_entry_point(tiny, entry,
                                                            value):
    """``check_types`` refuses the value: never a TypeError from deeper
    down, never a silent coercion."""
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError,
                       match=re.escape(f"has the wrong type: {value!r}") + "$"):
        call(tiny, value)


#: Every entry point of a cluster count or a k range (``ENTRY_POINTS``):
#: its least k, the largest k it can hold (None where it knows no curve
#: count) and which k it is: one k, or the k_min or k_max of a range whose
#: other end is 4 or 2, as in ``ENTRY_POINTS``.
K_RULES = {
    "default_archetypes k": (1, len(ARCHETYPE_ORDER), "k"),
    "sweep k_min": (2, 6, "k_min"),
    "sweep k_max": (2, 6, "k_max"),
    "cut k": (1, 6, "k"),
    "cut_range k_min": (1, 6, "k_min"),
    "cut_range k_max": (1, 6, "k_max"),
    "FitOptions k": (2, None, "k"),
    "kmeans k": (2, 6, "k"),
    "kmedoids k": (2, 6, "k"),
    "gmm_em k": (2, 6, "k"),
    **{f"fit {method} k": (1 if method == "ahc" else 2, 6, "k")
       for method in METHODS},
    "ClusteringResult k": (1, None, "k"),
}

#: Entry points whose k reaches them in a FitOptions, which refuses a k
#: below 2 without knowing the curve count.
TAKE_OPTIONS = ("kmeans k", "kmedoids k", "gmm_em k")


def k_refusal(entry, value) -> str:
    """The one wording of ``check_k`` for ``value`` at ``entry``."""
    least, n, role = K_RULES[entry]
    if value < least and entry in TAKE_OPTIONS:
        n = None
    top = "" if n is None else f" <= {n}"
    if role == "k":
        return f"k must satisfy {least} <= k{top}, got {value}"
    lo, hi = (value, 4) if role == "k_min" else (2, value)
    return f"k must satisfy {least} <= k_min <= k_max{top}, got [{lo}, {hi}]"


@pytest.mark.parametrize("entry, value", [
    (entry, v) for entry, (least, n, _) in K_RULES.items()
    for v in (least - 1, *(() if n is None else (n + 1,)))])
def test_bad_k_is_one_wording_at_every_entry_point(tiny, entry, value):
    """A k below its least, or above the curve count where one is known:
    the one ``check_k`` refusal, word for word, at every entry point."""
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError,
                       match="^" + re.escape(k_refusal(entry, value)) + "$"):
        call(tiny, value)
