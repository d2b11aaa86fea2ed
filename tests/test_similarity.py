import csv
import hashlib
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    ODD_NUMBERS,
    brute_force_ball_masks,
    brute_force_pairwise_matrix,
    csv_writer_to_csv,
    pearson,
)
from pretopo import (
    ConfigError,
    DataError,
    DegenerateSeriesError,
    EuclideanBall,
    FeatureTable,
    FilterSpace,
    ParseError,
    PearsonBall,
    PrefilterSpace,
    SizeBall,
    build_basis,
    core,
    datagen,
    similarity,
)
from pretopo.similarity import _read_item_csv, _write_item_csv, criterion_ball_masks

TOL = 1e-12


class TestPearson:
    def test_exact_positive_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=TOL)

    def test_exact_negative_linear(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=TOL)

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            pearson([5, 5, 5], [1, 2, 3])
        with pytest.raises(DegenerateSeriesError):
            pearson([1, 2, 3], [7, 7, 7])

    def test_result_clamped(self):
        assert -1.0 <= pearson([1.0, 1.0 + 1e-15, 3.0], [1.0, 1.0 + 1e-15, 3.0]) <= 1.0

    def test_length_contract(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson([1], [2])

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=12),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=-100, max_value=100),
    )
    @example(xs=[0.0, 6.103515625e-05, 5.5726793025997364e-11], a=1.0, b=2.0)
    def test_invariant_under_positive_affine_maps(self, xs, a, b):
        ys = list(range(len(xs)))
        spread = max(xs) - min(xs)
        # a * v + b rounds each mapped value by under 2**-51 * k, with k the
        # largest |a * v| plus |b|.  That moves the correlation by at most
        # 2**-50 * sqrt(2n) * k / (a * spread), which must stay under TOL / 2.
        k = max(abs(a * v) for v in xs) + abs(b)
        if spread < 1e-6 or 2**-49 * math.sqrt(2 * len(xs)) * k >= TOL * a * spread:
            return  # keep the variance clear of underflow, and the rounding under TOL
        scaled = [a * v + b for v in xs]
        assert pearson(scaled, ys) == pytest.approx(pearson(xs, ys), abs=TOL)


class TestPairwiseMatrix:
    def test_single_item_conventions(self):
        pos_table = FeatureTable(positions=[(1.0, 2.0)], sizes=[3.0])
        assert EuclideanBall(1.0).rows(pos_table)(0, 1).tolist() == [[0.0]]
        assert SizeBall(1.0).rows(pos_table)(0, 1).tolist() == [[0.0]]
        ser_table = FeatureTable(series=[[1.0, 2.0, 3.0]])
        assert PearsonBall(0.5).rows(ser_table)(0, 1).tolist() == [[1.0]]

    def test_identical_series_correlate_fully(self):
        t = FeatureTable(series=[[1.0, 5.0, 2.0], [1.0, 5.0, 2.0]])
        m = PearsonBall(0.5).rows(t)(0, t.n_items)
        assert m[0, 1] == pytest.approx(1.0, abs=TOL)

    def test_collinear_points_distances(self):
        t = FeatureTable(positions=[(0.0, 0.0), (3.0, 0.0), (4.0, 0.0)])
        m = EuclideanBall(1.0).rows(t)(0, t.n_items)
        assert m.tolist() == [[0, 3, 4], [3, 0, 1], [4, 1, 0]]

    def test_matrix_agrees_with_scalar_pearson(self):
        series = [[1.0, 4.0, 2.0, 8.0], [0.5, 3.0, 3.0, 6.0], [9.0, 2.0, 4.0, 1.0]]
        t = FeatureTable(series=series)
        m = PearsonBall(0.5).rows(t)(0, t.n_items)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert m[i, j] == pytest.approx(pearson(series[i], series[j]), abs=1e-9)

    def test_degenerate_series_carries_index(self):
        t = FeatureTable(series=[[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]])
        with pytest.raises(DegenerateSeriesError) as err:
            PearsonBall(0.5).rows(t)
        assert err.value.item == 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_pearson_rows_exact_under_power_of_two_scaling(self, data):
        """Scaling any row by 2**k, |k| <= 900, leaves every correlation bit
        for bit: no square under- or overflows at any scale."""
        n, length = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 8))
        # multiples of 2**-10 up to about 2**10: every row scales without rounding
        value = st.integers(-10**6, 10**6).map(lambda v: v / 1024)
        series = np.array(data.draw(st.lists(
            st.lists(value, min_size=length, max_size=length), min_size=n, max_size=n)))
        shifts = np.array(data.draw(st.lists(st.integers(-900, 900), min_size=n, max_size=n)))

        def outcome(rows):
            try:
                return PearsonBall(0.5).rows(FeatureTable(series=rows))(0, n).tobytes()
            except DegenerateSeriesError as exc:
                return exc.item

        assert outcome(np.ldexp(series, shifts[:, None])) == outcome(series)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_euclidean_balls_same_under_power_of_two_scaling(self, data):
        """Scaling the positions and the radius by 2**k, |k| <= 900, scales
        every distance bit for bit, so the balls are the same."""
        n = data.draw(st.integers(1, 6))
        # multiples of 2**-10 up to about 2**10: every difference is exact
        value = st.integers(-10**6, 10**6).map(lambda v: v / 1024)
        positions = np.array(data.draw(st.lists(st.tuples(value, value), min_size=n, max_size=n)))
        radius = data.draw(st.integers(1, 2 * 10**6)) / 1024
        k = data.draw(st.integers(-900, 900))
        table, scaled = FeatureTable(positions=positions), FeatureTable(positions=np.ldexp(positions, k))
        rows = EuclideanBall(np.ldexp(radius, k)).rows(scaled)(0, n)
        assert np.array_equal(rows, np.ldexp(EuclideanBall(radius).rows(table)(0, n), k))
        with np.errstate(over="ignore"):
            assert np.array_equal(rows, brute_force_pairwise_matrix(scaled, EuclideanBall(radius)))
        assert (criterion_ball_masks(scaled, EuclideanBall(np.ldexp(radius, k)))
                == criterion_ball_masks(table, EuclideanBall(radius)))

    def test_missing_feature_is_config_error(self):
        t = FeatureTable(series=[[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ConfigError):
            EuclideanBall(1.0).rows(t)
        with pytest.raises(ConfigError):
            PearsonBall(0.5).rows(FeatureTable(positions=[(0, 0)]))


class TestCriterionValidation:
    def test_thresholds(self):
        with pytest.raises(ConfigError):
            EuclideanBall(0.0)
        with pytest.raises(ConfigError):
            SizeBall(-1.0)
        with pytest.raises(ConfigError):
            SizeBall(math.nan)
        with pytest.raises(ConfigError):
            PearsonBall(-1.0)
        for channel in (["a"], {"a": 1}, 1):
            with pytest.raises(ConfigError, match="pearson channel must be a string"):
                PearsonBall(0.5, channel=channel)
        PearsonBall(1.0)  # closed upper end is fine


class TestBuildBasis:
    def test_euclidean_ball_membership(self):
        eps = 2.0
        t = FeatureTable(positions=[(0.0, 0.0), (0.0, eps / 2), (0.0, 10 * eps)])
        space = build_basis(t, [EuclideanBall(eps)])
        [ball] = space.neighborhoods_of(0)
        assert ball.members() == [0, 1]

    def test_prefilter_allows_distinct_witnesses(self):
        # item 0 is position-close to item 1 only and size-close to item 2
        # only; the two criteria may be satisfied by different witnesses
        t = FeatureTable(
            positions=[(0.0, 0.0), (1.0, 0.0), (100.0, 0.0)],
            sizes=[10.0, 50.0, 11.0],
        )
        criteria = [EuclideanBall(2.0), SizeBall(3.0)]
        probe_members = [1, 2]
        pre = build_basis(t, criteria, "prefilter")
        a = pre.universe.subset(probe_members)
        assert 0 in pre.pseudoclosure(a)
        post = build_basis(t, criteria, "filter")
        assert 0 not in post.pseudoclosure(post.universe.subset(probe_members))

    def test_mode_and_criteria_validation(self):
        t = FeatureTable(positions=[(0.0, 0.0)])
        with pytest.raises(ConfigError):
            build_basis(t, [])
        with pytest.raises(ConfigError):
            build_basis(t, [EuclideanBall(1.0)], mode="both")

    def test_pearson_self_pair_included_by_fiat(self):
        t = FeatureTable(series=[[1.0, 2.0, 3.0], [9.0, 1.0, 5.0]])
        space = build_basis(t, [PearsonBall(0.99)])
        for x in range(2):
            for ball in space.neighborhoods_of(x):
                assert x in ball

    def test_ball_symmetry_and_reflexivity(self):
        t = FeatureTable(
            positions=[(0.0, 0.0), (1.5, 0.2), (3.0, 1.0), (0.4, 4.0)],
            sizes=[1.0, 2.0, 8.0, 2.5],
            series=[[1, 2, 3, 1], [2, 4, 6, 1], [5, 1, 2, 9], [3, 3, 1, 2]],
        )
        for criterion in (EuclideanBall(2.0), SizeBall(1.0), PearsonBall(0.3)):
            space = build_basis(t, [criterion])
            balls = [space.neighborhoods_of(x)[0] for x in range(4)]
            for x in range(4):
                assert x in balls[x]
                for y in range(4):
                    assert (y in balls[x]) == (x in balls[y])

    def test_balls_grow_with_radius(self):
        t = FeatureTable(positions=[(float(i), 0.0) for i in range(6)])
        small = build_basis(t, [EuclideanBall(1.0)])
        large = build_basis(t, [EuclideanBall(2.5)])
        for x in range(6):
            assert small.neighborhoods_of(x)[0].issubset(large.neighborhoods_of(x)[0])
        for probe in ({0}, {2, 3}, {5}):
            a = small.universe.subset(probe)
            assert small.pseudoclosure(a).issubset(large.pseudoclosure(a))

    def test_kinds(self):
        t = FeatureTable(positions=[(0.0, 0.0), (1.0, 0.0)])
        assert isinstance(build_basis(t, [EuclideanBall(1.0)], "prefilter"), PrefilterSpace)
        assert isinstance(build_basis(t, [EuclideanBall(1.0)], "filter"), FilterSpace)


def random_table(rng, n):
    return FeatureTable(
        positions=[tuple(rng.uniform(0.0, 6.0, 2)) for _ in range(n)],
        sizes=rng.uniform(0.0, 10.0, n).tolist(),
        series=rng.normal(size=(n, 6)).tolist(),
    )


def unchecked(cls, **fields):
    """A criterion with values its constructor rejects, to probe the mask
    builder's own guarantees."""
    criterion = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(criterion, name, value)
    return criterion


class TestBallMasksOracle:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 600])
    @pytest.mark.parametrize(
        "criterion", [EuclideanBall(1.5), SizeBall(0.8), PearsonBall(0.2), PearsonBall(1.0)]
    )
    def test_packed_masks_match_per_hit_masks(self, n, criterion):
        table = random_table(np.random.default_rng(n), n)
        assert criterion_ball_masks(table, criterion) == brute_force_ball_masks(table, criterion)

    @pytest.mark.parametrize("criterion", [
        unchecked(EuclideanBall, radius=-1.0),
        unchecked(SizeBall, tolerance=-1.0),
        unchecked(PearsonBall, threshold=2.0, channel=None),
    ])
    def test_self_bit_kept_when_threshold_excludes_it(self, criterion):
        table = random_table(np.random.default_rng(5), 9)
        masks = criterion_ball_masks(table, criterion)
        assert masks == [1 << i for i in range(9)]
        assert masks == brute_force_ball_masks(table, criterion)


ALL_KINDS = [EuclideanBall(1.5), SizeBall(0.8), PearsonBall(0.2)]


class TestPairwiseRowsOracle:
    # at the default block size, 65 items fit one row strip and 600 or
    # 1,100 items take several
    @pytest.mark.parametrize("n", [1, 65, 600, 1100])
    @pytest.mark.parametrize("criterion", ALL_KINDS)
    def test_matrix_equals_full_broadcast(self, n, criterion):
        table = random_table(np.random.default_rng(n), n)
        assert np.array_equal(
            criterion.rows(table)(0, n), brute_force_pairwise_matrix(table, criterion)
        )

    @pytest.mark.parametrize("block_entries", [1, 37])
    @pytest.mark.parametrize("criterion", ALL_KINDS)
    def test_small_strips_match_oracles(self, monkeypatch, block_entries, criterion):
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
        table = random_table(np.random.default_rng(11), 65)
        rows = criterion.rows(table)
        strips = np.vstack([rows(lo, hi) for lo, hi in core._row_blocks(65, 65)])
        assert np.array_equal(strips, brute_force_pairwise_matrix(table, criterion))
        assert criterion_ball_masks(table, criterion) == brute_force_ball_masks(table, criterion)

    def test_correlations_clipped_to_unit_interval(self):
        # proportional and shifted copies round to 1 + 2**-52 before the clip
        x = np.random.default_rng(0).normal(size=6)
        table = FeatureTable(series=[list(x), list(3.0 * x), list(x + 1.0), list(-x)])
        matrix = PearsonBall(0.5).rows(table)(0, table.n_items)
        assert np.array_equal(matrix, brute_force_pairwise_matrix(table, PearsonBall(0.5)))
        assert matrix.max() == 1.0 and matrix.min() == -1.0

    def test_balls_are_closed(self):
        # grid points and integer sizes put many pairs exactly on the radius
        table = FeatureTable(
            positions=[(float(i % 4), float(i // 4)) for i in range(12)],
            sizes=[float(i % 3) for i in range(12)],
        )
        for criterion in (EuclideanBall(1.0), SizeBall(1.0)):
            masks = criterion_ball_masks(table, criterion)
            assert masks == brute_force_ball_masks(table, criterion)
            assert masks[0] >> 1 & 1

    @pytest.mark.parametrize("criterion", [EuclideanBall(0.5), SizeBall(0.01)])
    def test_ball_masks_never_hold_a_square_matrix(self, criterion):
        n = 3000
        table = random_table(np.random.default_rng(2), n)
        tracemalloc.start()
        try:
            criterion_ball_masks(table, criterion)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


class TestFeatureTableValidation:
    def test_mismatched_feature_lengths(self):
        with pytest.raises(ConfigError):
            FeatureTable(positions=[(0, 0)], sizes=[1.0, 2.0])

    def test_series_lengths_must_agree(self):
        with pytest.raises(ConfigError):
            FeatureTable(series=[[1, 2], [1, 2, 3]])
        with pytest.raises(ConfigError):
            FeatureTable(series=[[1.0]])

    def test_negative_sizes_rejected(self):
        with pytest.raises(ConfigError):
            FeatureTable(sizes=[-1.0])

    def test_ragged_series_are_checked_before_conversion(self):
        with pytest.raises(ConfigError, match=r"^series: all series must share one length, got \[2, 3\]$"):
            FeatureTable(series=[[1, 2], [1, 2, 3]])
        with pytest.raises(ConfigError, match=r"^day: all series must share one length, got \[2, 3\]$"):
            FeatureTable(channels={"day": [[1, 2, 3], [1, 2]]})

    @pytest.mark.parametrize("features, message", [
        ({"positions": [1.0, 2.0]}, "positions must be an array of n x k numbers"),
        ({"positions": [[1.0, 2.0], [3.0]]}, "positions must be an array of n x k numbers"),
        ({"positions": 1.0}, "positions must be an array of n x k numbers"),
        ({"sizes": [[1.0], [2.0]]}, "sizes must be an array of n numbers"),
        ({"series": [1.0, 2.0]}, "series must be an array of n x L numbers"),
        ({"series": [[1.0, 2.0], 3.0]}, "series must be an array of n x L numbers"),
        ({"channels": {"d": [1.0, 2.0]}}, "channel 'd' must be an array of n x L numbers"),
        ({"channels": {"d": np.zeros((2, 2, 2))}}, "channel 'd' must be an array of n x L numbers"),
    ], ids=["flat-positions", "ragged-positions", "scalar-positions", "column-sizes", "flat-series",
            "mixed-series", "flat-channel", "cube-channel"])
    def test_arrays_of_the_wrong_rank_are_config_errors(self, features, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            FeatureTable(**features)

    def test_lists_become_float64_arrays(self):
        table = FeatureTable(positions=[(0, 1), (2, 3)], sizes=[1, 2], series=[[1, 2], [3, 4]],
                             channels={"day": [[5, 6], [7, 8]]})
        features = [table.positions, table.sizes, table.series, table.channels["day"]]
        assert [(f.dtype, f.shape) for f in features] == [
            (np.float64, (2, 2)), (np.float64, (2,)), (np.float64, (2, 2)), (np.float64, (2, 2))]
        empty = FeatureTable(positions=[], sizes=[], series=[], channels={"day": []})
        assert [f.shape for f in (empty.positions, empty.sizes, empty.series, empty.channels["day"])] == [
            (0, 2), (0,), (0, 0), (0, 0)]

    @pytest.mark.parametrize("name, features", [
        ("positions", {"positions": [(0, 0), (0.5, 0), (math.nan, 0), (10, 0)]}),
        ("sizes", {"sizes": [1, 1, math.inf, 1]}),
        ("series", {"series": [[0.0, 1.0], [math.nan, 2.0]]}),
        ("channel 'day'", {"channels": {"day": [[0.0, 1.0], [1.0, -math.inf]]}}),
    ], ids=["positions", "sizes", "series", "channel"])
    def test_non_finite_values_rejected(self, name, features):
        with pytest.raises(DataError, match=f"^{re.escape(name)} holds a non-finite value$"):
            FeatureTable(**features)


class TestCsvRoundTrip:
    def test_positions_and_sizes(self, tmp_path):
        t = FeatureTable(positions=[(0.25, -1.5), (3.0, 2.0)], sizes=[1.0, 4.5])
        path = tmp_path / "f.csv"
        t.to_csv(path)
        back = FeatureTable.from_csv(path)
        assert table_bits(back) == table_bits(t)
        assert back.series is None

    def test_series(self, tmp_path):
        t = FeatureTable(series=[[0.1, 0.2, 0.3], [9.0, 8.0, 7.0]])
        path = tmp_path / "s.csv"
        t.to_csv(path)
        back = FeatureTable.from_csv(path)
        assert table_bits(back) == table_bits(t)
        assert back.positions is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("", encoding="utf-8")
        assert FeatureTable.from_csv(path).n_items == 0

    # blank rows are rows too: under a header (lf), or under a blank header line (crlf)
    @pytest.mark.parametrize("text", ["a,b\n1,2\n", "x,Y\n0,0\n", "x\n0\n", "note\n\n\"\"\n",
                                      "a,b\n\n\n", "\r\n\r\n\r\n"],
                             ids=["a-b", "x-Y", "x-alone", "quoted-empty-field", "lf", "crlf"])
    def test_rows_under_a_header_without_features_are_an_error(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8")
        message = f"{path}: line 1: header names no feature column (x and y, size, series_*)"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            FeatureTable.from_csv(path)

    @pytest.mark.parametrize("text", ["a,b\n"], ids=["header-only"])
    def test_header_without_features_and_no_rows_is_empty(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode())
        assert FeatureTable.from_csv(path).n_items == 0


# Item ids and values that csv must quote: commas, quotes, line breaks, and
# text beyond ASCII.  A NUL is left out: csv rejects it before Python 3.11.
ITEM_TEXT = st.text(
    st.sampled_from([",", '"', "\r", "\n", "é", "日", "\U0001f600"])
    | st.characters(codec="utf-8", exclude_characters="\x00"),
    max_size=8,
)


class TestItemTableRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(mapping=st.dictionaries(ITEM_TEXT, ITEM_TEXT, max_size=8))
    def test_reader_gives_back_what_the_writer_wrote(self, tmp_path_factory, mapping):
        path = tmp_path_factory.mktemp("items") / "items.csv"
        _write_item_csv(path, "value", mapping.items())
        back, line_of = _read_item_csv(path)
        assert back == mapping
        assert list(back) == list(mapping)
        assert sorted(line_of.values()) == list(line_of.values())


# Header names both readers must map alike: repeated names, a series index
# that int() reads in several spellings, one it rejects, and unread columns.
FEATURE_COLUMNS = ["x", "y", "size", "series_0", "series_1", "series_2"] * 4 + [
    "series_10", "series_01", "series_ 3", "series_a", "label", "", "X",
]
FINITE_REPRS = (st.floats(0, 100) | st.floats(allow_nan=False, allow_infinity=False)).map(repr)


@st.composite
def features_csv_bytes(draw):
    """Features files, mostly well-formed, with the odd line both readers
    must agree on: CRLF and CR endings, blank and whitespace-only lines,
    short rows, a trailing comma, odd number spellings, characters numpy
    and ``float`` treat differently, and bytes that are not UTF-8."""
    columns = draw(st.lists(st.sampled_from(FEATURE_COLUMNS), min_size=1, max_size=6))
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 16 + ["odd", "blank", "space", "short", "comma"]))
        cells = [draw(FINITE_REPRS) for _ in columns]
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t"])))
        elif kind == "short":
            lines.append(",".join(cells[:-1]))
        else:
            if kind == "odd":
                odd = st.sampled_from(ODD_NUMBERS + ['"1"', "1\x00", "\x1e1", "\u00e9"])
                cells[draw(st.integers(0, len(cells) - 1))] = draw(odd | st.text(max_size=3))
            lines.append(",".join(cells + [""] * (kind == "comma")))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (newline.join(lines) + newline * draw(st.sampled_from([0, 1, 1, 1, 2]))).encode()
    if draw(st.sampled_from([False] * 9 + [True])):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def table_bits(table):
    """Every feature's dtype, shape and bytes, so that -0.0 and 0.0, or two
    shapes of the same values, differ."""
    def bits(rows):
        return None if rows is None else (rows.dtype, rows.shape, rows.tobytes())
    channels = {name: bits(rows) for name, rows in table.channels.items()}
    return bits(table.positions), bits(table.sizes), bits(table.series), channels


def table_outcome(read, path):
    """What a reader returns, bit for bit, or the error it raises."""
    try:
        table = read(path)
    except Exception as exc:  # noqa: BLE001 - every error must match, whatever its type
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    if table is None:
        return ("handed over",)
    return ("ok", table_bits(table))


def write_bytes(tmp_path, data, name="f.csv"):
    path = tmp_path / name
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return path


def served_outcome(path):
    """``from_csv``'s outcome with the row reader patched to fail."""
    with mock.patch.object(FeatureTable, "_from_rows", side_effect=AssertionError("row reader used")):
        return table_outcome(FeatureTable.from_csv, path)


class TestColumnarFromCsv:
    @settings(max_examples=300, deadline=None)
    @given(data=features_csv_bytes(), block_chars=st.sampled_from([1, 7, 64, similarity._BLOCK_CHARS]))
    def test_matches_row_reader(self, tmp_path_factory, data, block_chars):
        path = write_bytes(tmp_path_factory.mktemp("features"), data)
        expected = table_outcome(FeatureTable._from_rows, path)
        with mock.patch.object(similarity, "_BLOCK_CHARS", block_chars):
            assert table_outcome(FeatureTable.from_csv, path) == expected
            columnar = table_outcome(FeatureTable._from_columns, path)
        if columnar != ("handed over",):
            assert columnar == expected

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=4, max_size=4), max_size=6))
    def test_float_reprs_are_served_bit_for_bit(self, tmp_path_factory, rows):
        text = "x,y,series_0,series_1\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)
        path = write_bytes(tmp_path_factory.mktemp("features"), text)
        expected = FeatureTable(positions=[(r[0], r[1]) for r in rows], series=[r[2:] for r in rows])
        assert served_outcome(path) == ("ok", table_bits(expected))
        assert table_outcome(FeatureTable._from_rows, path) == ("ok", table_bits(expected))

    @pytest.mark.parametrize("text", [
        "x,y\r\n1,2\r\n3,4\r\n",
        "x,y\r1,2\r3,4\r",
        "x,y\n1,2",
        "x,y\n",
        "x,y,\n1,2,\n3,4,\n",
        "label,x,size,y,note\nfoo,1,2,3,a b\nbar,4,5,6,\n",
        "x,y,x\n1,2,3\n",
        "size,series_1,series_0\n-0,.5,5.\n1E-300,4.9e-324,-0\n",
        "x,y\n 1 ,\t2\t\n",
    ], ids=["crlf", "cr", "no-final-newline", "header-only", "trailing-comma", "label-columns",
            "duplicate-name", "spellings", "padded"])
    def test_served_without_the_row_reader(self, tmp_path, text):
        path = write_bytes(tmp_path, text)
        expected = table_outcome(FeatureTable._from_rows, path)
        assert expected[0] == "ok"
        assert served_outcome(path) == expected

    def test_served_values(self, tmp_path):
        path = write_bytes(tmp_path, "x,y,x\n1,2,3\n")
        assert table_bits(FeatureTable.from_csv(path)) == table_bits(FeatureTable(positions=[(3.0, 2.0)]))
        path = write_bytes(tmp_path, "size,series_1,series_0\n-0,.5,5.\n1E-300,4.9e-324,-0\n")
        table = FeatureTable.from_csv(path)
        assert table_bits(table) == table_bits(
            FeatureTable(sizes=[-0.0, 1e-300], series=[[5.0, 0.5], [-0.0, 5e-324]])
        )

    def test_wide_rows_are_served(self, tmp_path):
        # pretopo ingest's half-hour table: 17,520 values a row, a line
        # longer than csv.field_size_limit() but every field short
        values = np.random.default_rng(3).random((3, 17520)) * 100
        FeatureTable(series=values.tolist()).to_csv(tmp_path / "f.csv")
        path = tmp_path / "f.csv"
        assert len(path.read_text(encoding="utf-8").splitlines()[1]) > csv.field_size_limit()
        expected = table_outcome(FeatureTable._from_rows, path)
        assert served_outcome(path) == expected == ("ok", table_bits(FeatureTable(series=values.tolist())))

    @pytest.mark.parametrize("data", [
        b'x,y\n"1",2\n',
        b"x,y\n1,2\x00\n",
        b"x,y\n1,2\x1c\n",
        b"x,y\n\x1f1,2\n",
        b"x,y\n1,2\n\n3,4\n",
        b"x,y\n1,2\n\n",
        b"x,y\r\n1,2\r\n\r\n",
        b"x,y\n\n",
        b"x,y\n1,2\n \n",
        b"x,y\n1,2\n3\n",
        b"x,y\n1_000,2\n",
        "x,y\n\u0661,2\n".encode(),
        b"x,y\nnan,2\n",
        b"x,y\n1,-inf\n",
        b"size\n1e400\n",
        b"series_a,series_1\n1,2\n",
        b"x,y\n1,2\n\xff,3\n",
        b"\xe9x,y\n1,2\n",
        b"label\nfoo\n",
        b"",
        b"x,y,size\n0,0,1\n1,0,-2\n",
    ], ids=["quote", "nul", "u001c", "u001f", "blank-line", "trailing-blank-line",
            "trailing-blank-crlf", "only-blank-rows", "space-line", "short-row", "underscore", "arabic-digit", "nan",
            "inf", "overflow", "series-index", "undecodable", "undecodable-header", "no-feature",
            "empty", "negative-size"])
    @pytest.mark.filterwarnings("error")
    def test_hands_over_what_it_cannot_vouch_for(self, tmp_path, data):
        path = write_bytes(tmp_path, data)
        assert FeatureTable._from_columns(path) is None
        assert table_outcome(FeatureTable.from_csv, path) == table_outcome(FeatureTable._from_rows, path)

    @pytest.mark.parametrize("text", [
        "series_0,series_1,series_2\n1,2,3\n4,5,6\n",
        "x,y,size\n0,0,1\n1,0,2\n",
        "x,y\n1,2\n\n",
        "",
    ], ids=["series", "points", "blank-line", "empty"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        readers = (FeatureTable.from_csv, FeatureTable._from_columns, FeatureTable._from_rows)
        path = write_bytes(tmp_path, text)
        plain = [table_outcome(read, path) for read in readers]
        write_bytes(tmp_path, b"\xef\xbb\xbf" + text.encode())
        assert [table_outcome(read, path) for read in readers] == plain

    def test_negative_size_is_bad_data_from_the_row_reader(self, tmp_path):
        path = write_bytes(tmp_path, "x,y,size\n0,0,-0\n1,0,1e-300\n2,0,-1e-300\n")
        with pytest.raises(DataError) as err:
            FeatureTable.from_csv(path)
        assert str(err.value) == f"{path}: line 4: column 'size' holds negative -1e-300"
        assert table_outcome(FeatureTable._from_rows, path) == table_outcome(FeatureTable.from_csv, path)

    def test_hands_over_when_loadtxt_drops_a_line(self, tmp_path):
        path = write_bytes(tmp_path, "x,y\n1,2\n3,4\n")
        loadtxt = np.loadtxt
        with mock.patch.object(np, "loadtxt", lambda *args, **kwargs: loadtxt(*args, **kwargs)[:-1]):
            assert FeatureTable._from_columns(path) is None

    def test_trailing_blank_line_fails_as_in_the_row_reader(self, tmp_path):
        path = write_bytes(tmp_path, "x,y\n1,2\n\n")
        with pytest.raises(ParseError) as err:
            FeatureTable.from_csv(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("where", ["header", "first row", "later row", "last row"])
    @pytest.mark.parametrize("width", [250, 251])
    def test_field_longer_than_csv_accepts(self, tmp_path, field_limit_250, where, width):
        # a number padded with zeros, so only its length can set it apart
        long = "1".zfill(width)
        header = "x,y,size" + (f",{long}" if where == "header" else "")
        rows = [f"{i},{i},1" for i in range(40)]
        row = {"first row": 0, "later row": 20, "last row": 39}.get(where)
        if row is not None:
            rows[row] = f"{row},{long},1"
        path = write_bytes(tmp_path, "\n".join([header, *rows]))
        expected = table_outcome(FeatureTable._from_rows, path)
        assert table_outcome(FeatureTable.from_csv, path) == expected
        if width > field_limit_250:
            assert expected[0] == "error" and expected[1] is ParseError
            assert FeatureTable._from_columns(path) is None
        else:
            assert served_outcome(path) == expected

    def test_long_line_of_short_fields_is_served(self, tmp_path, field_limit_250):
        path = write_bytes(tmp_path, "x,y,size," + ",".join(["label"] * 100) + "\n"
                           + "1,2,3," + ",".join(["0.123456789"] * 100) + "\n")
        expected = table_outcome(FeatureTable._from_rows, path)
        assert expected == ("ok", table_bits(FeatureTable(positions=[(1.0, 2.0)], sizes=[3.0])))
        assert served_outcome(path) == expected

    @pytest.mark.parametrize("text", [
        "x,y,size\n1,2,3\n4,5,6\n",
        "x,y,size\n1,2,3\n4,5,6",
        "x,y,size\r\n1,2,3\r\n4,5,6\r\n",
        "x,y,size\r1,2,3\r4,5,6",
        "x,y,size,label\n1,2,3," + "a" * 40 + "\n4,5,6,b\n",
    ], ids=["final-newline", "no-final-newline", "crlf", "cr", "row-longer-than-a-block"])
    def test_served_whatever_the_block_size(self, tmp_path, text):
        # block sizes from 1 to past the end of the file put a block
        # boundary between every two characters
        path = write_bytes(tmp_path, text)
        expected = table_outcome(FeatureTable._from_rows, path)
        assert expected[0] == "ok"
        for block_chars in range(1, len(text) + 2):
            with mock.patch.object(similarity, "_BLOCK_CHARS", block_chars):
                assert served_outcome(path) == expected

    @pytest.mark.parametrize("text", [
        "x,y\n1,2\n\n3,4\n",
        "x,y\r\n1,2\r\n\r\n3,4\r\n",
        "x,y\n1,2\n3,4\n\n",
        "x,y\n\n1,2\n",
    ], ids=["inner", "inner-crlf", "trailing", "first-row"])
    def test_blank_line_at_any_boundary_is_handed_over(self, tmp_path, text):
        path = write_bytes(tmp_path, text)
        expected = table_outcome(FeatureTable._from_rows, path)
        assert expected[:2] == ("error", ParseError)
        for block_chars in range(1, len(text) + 2):
            with mock.patch.object(similarity, "_BLOCK_CHARS", block_chars):
                assert FeatureTable._from_columns(path) is None
                assert table_outcome(FeatureTable.from_csv, path) == expected

    @pytest.mark.parametrize("block_chars", [1, 7, 64, similarity._BLOCK_CHARS])
    def test_crlf_split_across_two_reads(self, tmp_path, block_chars):
        # Python's text files decode 8,192 bytes at a time, so the first
        # read of the file ends on a "\r" whose "\n" the second begins with
        text = "x,y,hh\r\n" + "".join(f"{i % 10},{i % 7}\r\n" for i in range(4000))
        assert text[8191:8193] == "\r\n"
        path = write_bytes(tmp_path, text)
        expected = table_outcome(FeatureTable._from_rows, path)
        assert expected[0] == "ok"
        with mock.patch.object(similarity, "_BLOCK_CHARS", block_chars):
            assert served_outcome(path) == expected

    def test_plain_text_gz_name_reads_as_plain_name(self, tmp_path):
        # given a path, numpy picks a decompressor by its suffix
        text = "x,y,size\n0,0,1\n1,0,2\n"
        plain = table_outcome(FeatureTable.from_csv, write_bytes(tmp_path, text))
        path = write_bytes(tmp_path, text, "f.csv.gz")
        assert FeatureTable._from_columns(path) is None
        with mock.patch.object(FeatureTable, "_from_rows", wraps=FeatureTable._from_rows) as from_rows:
            assert table_outcome(FeatureTable.from_csv, path) == plain
        from_rows.assert_called_once_with(path)

    def test_reading_follows_the_data(self, tmp_path):
        # 15 MiB of text for 6 MiB of values: the text is read a block at a
        # time, not whole, and numpy parses the path
        values = np.random.default_rng(5).random((200, 4000))
        FeatureTable(series=values).to_csv(tmp_path / "f.csv")
        tracemalloc.start()
        try:
            table = FeatureTable.from_csv(tmp_path / "f.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.series.tobytes() == values.tobytes()
        assert peak < 2 * table.series.nbytes


class TestToCsv:
    @pytest.mark.parametrize("table", [
        datagen.generate(datagen.PointGenSpec((datagen.PointGroup(20, (0.0, 1.0), 2.0, (0.0, 3.0)),), 4))[0],
        datagen.generate(datagen.SeriesGenSpec((
            datagen.SeriesCluster(5, 12, datagen.Sine(4.0), 0.5),
            datagen.SeriesCluster(5, 12, datagen.Trend(-1e300)),
        ), 9))[0],
        FeatureTable(positions=[(-0.0, 5e-324)], sizes=[1e300], series=[[0.1, -2.5]]),
        FeatureTable(),
        FeatureTable(positions=[], sizes=[]),
        FeatureTable(series=[]),
    ], ids=["points", "series", "all-features", "empty", "no-points", "no-series"])
    def test_bytes_match_csv_writer(self, tmp_path, table):
        table.to_csv(tmp_path / "fast.csv")
        csv_writer_to_csv(table, tmp_path / "oracle.csv")
        assert hashlib.sha256((tmp_path / "fast.csv").read_bytes()).hexdigest() == hashlib.sha256(
            (tmp_path / "oracle.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("call, message", [
    (lambda path: FeatureTable(positions=[(0.0, 0.0, 0.0)]).to_csv(path),
     "csv schema supports planar positions only"),
    (lambda path: FeatureTable(series=[[1.0, 2.0]], channels={"day": [[1.0, 2.0]]}).to_csv(path),
     "csv schema holds no series channels"),
    (lambda path: build_basis(FeatureTable(sizes=[1.0, 2.0]), [SizeBall(1.0)], labels=["a"]),
     "label count does not match item count"),
    (lambda path: build_basis(FeatureTable(sizes=[1.0, 2.0]), ["euclid"]),
     "unknown criterion 'euclid'"),
], ids=["non-planar-csv", "channels-to-csv", "label-count", "not-a-criterion"])
def test_invalid_input_raises(tmp_path, call, message):
    with pytest.raises(ConfigError) as exc_info:
        call(tmp_path / "t.csv")
    assert str(exc_info.value) == message
    assert not (tmp_path / "t.csv").exists()
