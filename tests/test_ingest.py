import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ODD_NUMBERS, brute_force_widest_drop
from pretopo import ConfigError, DataError, ParseError, build_basis, ingest
from pretopo.ingest import (
    RESOLUTIONS,
    RawSeries,
    bucket_edges,
    build_resampled_table,
    build_resolution_criteria,
    load_csv,
    resample,
)

DAY = 86400.0


def write(tmp_path, text, name="raw.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def series(site, ts, values):
    return RawSeries(site, np.asarray(ts, dtype=float), np.asarray(values, dtype=float))


class TestLoadCsv:
    def test_empty_file(self, tmp_path):
        assert load_csv(write(tmp_path, "")) == []

    def test_single_site_three_rows(self, tmp_path):
        path = write(tmp_path, "site_id,timestamp,value\ns1,0,1.0\ns1,1800,2.0\ns1,3600,0.5\n")
        [s] = load_csv(path)
        assert s.site_id == "s1"
        assert s.timestamps.tolist() == [0.0, 1800.0, 3600.0]
        assert s.values.tolist() == [1.0, 2.0, 0.5]

    def test_sites_sorted_by_id(self, tmp_path):
        path = write(tmp_path, "site_id,timestamp,value\nzz,0,1\naa,0,1\nzz,60,1\naa,60,2\n")
        sites = load_csv(path)
        assert [s.site_id for s in sites] == ["aa", "zz"]

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = write(tmp_path, "site_id,timestamp,value\ns1,100,1\ns1,100,2\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_non_monotone_rejected(self, tmp_path):
        path = write(tmp_path, "site_id,timestamp,value\ns1,200,1\ns1,100,2\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_negative_value_rejected(self, tmp_path):
        path = write(tmp_path, "site_id,timestamp,value\ns1,0,-5\n")
        with pytest.raises(DataError):
            load_csv(path)

    @pytest.mark.parametrize("column", ["timestamp", "value"])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_reading_rejected(self, tmp_path, column, raw):
        row = {"timestamp": "1800", "value": "2.0", column: raw}
        path = write(
            tmp_path, f"site_id,timestamp,value\ns1,0,1.0\ns1,{row['timestamp']},{row['value']}\n"
        )
        with pytest.raises(DataError, match="line 3: non-finite"):
            load_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(tmp_path, "site_id,timestamp,value\ns1,0,1\ns1,60,not_a_number\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 3

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "a,b,c\n1,2,3\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_iso_timestamps(self, tmp_path):
        path = write(
            tmp_path,
            "site_id,timestamp,value\n"
            "s1,2021-01-01T00:00:00Z,1\n"
            "s1,2021-01-01T00:30:00+00:00,2\n"
            "s1,2021-01-01T01:00:00,3\n",
        )
        [s] = load_csv(path)
        assert s.timestamps.tolist() == [1609459200.0, 1609461000.0, 1609462800.0]

    def test_unparseable_timestamp(self, tmp_path):
        path = write(tmp_path, "site_id,timestamp,value\ns1,yesterday,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 2


SITE_IDS = ["a", "b", "site_007", " a", "a ", "", "\u00e9t\u00e9", "\u65e5\u672c", "#x", "a b", '"a"', "a,b"]


@st.composite
def raw_csv_texts(draw):
    """Raw reading files, mostly well-formed, with the odd line every reader
    must agree on: CRLF endings, blank, whitespace-only and ``#`` lines,
    extra or reordered columns, quoted and non-ASCII ids, interleaved sites,
    odd number spellings and a missing final newline."""
    columns = list(draw(st.permutations(["site_id", "timestamp", "value"])))
    for _ in range(draw(st.integers(0, 2))):
        columns.insert(draw(st.integers(0, len(columns))), draw(st.sampled_from(["extra", "x", ""])))
    sites = draw(st.lists(st.sampled_from(SITE_IDS), min_size=1, max_size=3, unique=True))
    clock = {site: draw(st.sampled_from([-5.0, 0.0, 1609459200.0])) for site in sites}
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 8 + ["odd", "blank", "space", "hash", "short"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        elif kind == "hash":
            lines.append("# comment")
        elif kind == "short":
            lines.append(draw(st.sampled_from(SITE_IDS)) + ",1")
        else:
            site = draw(st.sampled_from(sites))
            clock[site] += draw(st.sampled_from([1800.0, 1.0, 0.5]))
            ts = repr(clock[site]) if draw(st.booleans()) else str(int(clock[site]))
            value = f"{draw(st.floats(0, 1e6)):.4f}"
            cells = {"site_id": site, "timestamp": ts, "value": value}
            if kind == "odd":
                column = draw(st.sampled_from(["timestamp", "value", "value"]))
                cells[column] = draw(st.sampled_from(ODD_NUMBERS) | st.text(max_size=3))
            row = [cells.get(column, "z") for column in columns]
            lines.append(",".join(row + ["tail"] * draw(st.integers(0, 1))))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    return text


def load_outcome(load, path):
    """What a reader returns, bit for bit, or the error it raises."""
    try:
        sites = load(path)
    except Exception as exc:  # noqa: BLE001 - every error must match, whatever its type
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    if sites is None:
        return ("handed over",)
    return ("ok", [
        (s.site_id, s.timestamps.dtype, s.timestamps.tobytes(), s.values.dtype, s.values.tobytes())
        for s in sites
    ])


def ingest_year_text(n_sites=3, rows=400):
    """The benchmark's raw file in small: epoch half-hours, 4-decimal values."""
    lines = ["site_id,timestamp,value"]
    for i in range(n_sites):
        lines += [
            f"site_{i:03d},{1609459200 + t * 1800},{5.0 + math.sin(t / 7.0 + i):.4f}"
            for t in range(rows)
        ]
    return "\n".join(lines) + "\n"


class TestColumnarLoad:
    @settings(max_examples=300, deadline=None)
    @given(text=raw_csv_texts(), block_chars=st.sampled_from([1, 7, 64, ingest._BLOCK_CHARS]))
    def test_matches_row_reader(self, tmp_path_factory, text, block_chars):
        path = tmp_path_factory.mktemp("raw") / "raw.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = load_outcome(ingest._load_rows, path)
        with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
            assert load_outcome(load_csv, path) == expected
            columnar = load_outcome(ingest._load_columnar, path)
        if columnar != ("handed over",):
            assert columnar == expected

    @pytest.mark.parametrize("block_chars", [64, ingest._BLOCK_CHARS])
    def test_ingest_year_input_is_served_without_the_row_reader(self, tmp_path, block_chars):
        path = write(tmp_path, ingest_year_text())
        expected = load_outcome(ingest._load_rows, path)
        with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars), \
                mock.patch.object(ingest, "_load_rows", side_effect=AssertionError("row reader used")):
            assert load_outcome(load_csv, path) == expected
        assert [s.site_id for s in load_csv(path)] == ["site_000", "site_001", "site_002"]

    def test_interleaved_sites_are_served_without_the_row_reader(self, tmp_path):
        path = write(tmp_path, "site_id,timestamp,value\nb,0,1\na,0,2\nb,5,3\na,9,4\nb,6,5\n")
        with mock.patch.object(ingest, "_load_rows", side_effect=AssertionError("row reader used")):
            a, b = load_csv(path)
        assert (a.site_id, a.timestamps.tolist(), a.values.tolist()) == ("a", [0.0, 9.0], [2.0, 4.0])
        assert (b.site_id, b.timestamps.tolist(), b.values.tolist()) == ("b", [0.0, 5.0, 6.0], [1.0, 3.0, 5.0])

    def test_round_robin_sites_keep_file_order(self, tmp_path):
        # long enough that an unstable sort would reorder a site's rows
        lines = ["site_id,timestamp,value"]
        lines += [f"s{t % 3},{t},{t % 7}" for t in range(600)]
        path = write(tmp_path, "\n".join(lines) + "\n")
        expected = load_outcome(ingest._load_rows, path)
        with mock.patch.object(ingest, "_load_rows", side_effect=AssertionError("row reader used")):
            assert load_outcome(load_csv, path) == expected

    def test_hands_over_when_loadtxt_drops_a_line(self, tmp_path):
        path = write(tmp_path, "site_id,timestamp,value\ns1,0,1\ns1,1,2\n")
        loadtxt = np.loadtxt
        with mock.patch.object(np, "loadtxt", lambda *args, **kwargs: loadtxt(*args, **kwargs)[:-1]):
            assert ingest._load_columnar(path) is None

    @pytest.mark.parametrize("text", [
        "site_id,timestamp,value\n",
        "site_id,timestamp,value",
        "site_id,timestamp,value\r\n\r\n\n",
    ])
    def test_header_only_file_is_empty_without_warning(self, tmp_path, text):
        path = tmp_path / "raw.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_csv(path) == []
            assert ingest._load_columnar(path) == []

    @pytest.mark.parametrize("row", [
        '"s1",0,1', "s1,2021-01-01T00:00:00Z,1", "s1,1_000,1", "s1,0,-1", "s1,0,1\x1c", "s1,\x1f0,1",
    ])
    def test_hands_over_what_it_cannot_vouch_for(self, tmp_path, row):
        path = write(tmp_path, f"site_id,timestamp,value\n{row}\n")
        assert ingest._load_columnar(path) is None

    @pytest.mark.parametrize("data", [
        b"site_id,timestamp,value\ns1,0,1\n\xff\xfe,1,2\n",
        b"site_id,timestamp,value\ns\xc3,0,1\n",
        b"site_id,timestamp,value\n" + b"".join(b"s1,%d,1\n" % t for t in range(20000)) + b"\xe9,1,1\n",
    ])
    def test_undecodable_bytes_fail_as_in_the_row_reader(self, tmp_path, data):
        path = tmp_path / "raw.csv"
        path.write_bytes(data)
        assert load_outcome(load_csv, path) == load_outcome(ingest._load_rows, path)

    @pytest.mark.parametrize("where", ["header", "first row", "later row", "last row"])
    def test_hands_over_a_field_longer_than_csv_accepts(self, tmp_path, where):
        long = "x" * 300
        header = "site_id,timestamp,value" + (f",{long}" if where == "header" else "")
        rows = [f"s{i},{i},1" for i in range(40)]
        row = {"first row": 0, "later row": 20, "last row": 39}.get(where)
        if row is not None:
            rows[row] = f"{long},{row},1"
        path = write(tmp_path, "\n".join([header, *rows]))
        with mock.patch.object(ingest, "_BLOCK_CHARS", 64), mock.patch("csv.field_size_limit", return_value=250):
            assert ingest._load_columnar(path) is None
        assert ingest._load_columnar(path) is not None


class TestBucketEdges:
    def test_fixed_width(self):
        edges = bucket_edges("day", (0.0, 3.5 * DAY))
        assert edges == [0.0, DAY, 2 * DAY, 3 * DAY, 3.5 * DAY]

    def test_calendar_months(self):
        # 2021-01-15 .. 2021-03-20
        start = 1610668800.0
        end = 1616198400.0
        edges = bucket_edges("month", (start, end))
        assert edges[0] == start and edges[-1] == end
        assert len(edges) == 4  # partial jan, feb, partial mar
        feb1 = 1612137600.0
        mar1 = 1614556800.0
        assert edges[1] == feb1 and edges[2] == mar1

    def test_unknown_resolution(self):
        with pytest.raises(ConfigError):
            bucket_edges("year", (0.0, 100.0))

    @pytest.mark.parametrize("resolution", ["half_hour", "day", "week"])
    @pytest.mark.parametrize("window", [
        (0.0, 1.0), (0.1, 3.5 * DAY), (1609459200.0, 1609459200.0 + 17519 * 1800.0),
        (-7.25, 400 * DAY + 0.3), (1e15 + 0.5, 1e15 + 40 * DAY),
    ])
    def test_fixed_width_matches_python_float_arithmetic(self, resolution, window):
        start, end = window
        width = {"half_hour": 1800.0, "day": DAY, "week": 7 * DAY}[resolution]
        count = max(1, math.ceil((end - start) / width))
        edges = bucket_edges(resolution, window)
        assert all(type(e) is float for e in edges)
        assert edges == [start + i * width for i in range(count)] + [end]


class TestResample:
    def test_constant_series_constant_everywhere(self):
        ts = [i * 1800.0 for i in range(48 * 40)]
        s = series("s", ts, [3.25] * len(ts))
        window = (0.0, ts[-1])
        for resolution in ("half_hour", "day", "week", "month"):
            out = resample(s, resolution, window)
            assert np.allclose(out, 3.25, atol=0)

    def test_bucket_mean_of_two_samples(self):
        # two hourly samples inside a single day bucket average to 2
        s = series("s", [0.0, 3600.0], [1.0, 3.0])
        out = resample(s, "day", (0.0, 7200.0))
        assert out.tolist() == [2.0]

    def test_interior_gap_interpolated(self):
        # day buckets with means 2, <gap>, 4: the middle is the average
        s = series("s", [0.0, 10.0, 2 * DAY, 2 * DAY + 10], [2.0, 2.0, 4.0, 4.0])
        out = resample(s, "day", (0.0, 2 * DAY + 20))
        assert out.tolist() == [2.0, 3.0, 4.0]

    def test_no_overlap_rejected(self):
        s = series("s", [0.0, 100.0], [1.0, 1.0])
        with pytest.raises(DataError):
            resample(s, "day", (10 * DAY, 12 * DAY))

    def test_leading_gap_rejected(self):
        s = series("s", [DAY * 1.5, DAY * 2.5], [1.0, 1.0])
        with pytest.raises(DataError):
            resample(s, "day", (0.0, 3 * DAY))

    def test_trailing_gap_rejected(self):
        s = series("s", [0.0, DAY * 0.5], [1.0, 1.0])
        with pytest.raises(DataError):
            resample(s, "day", (0.0, 3 * DAY))

    def test_sum_aggregate_flag(self):
        s = series("s", [0.0, 3600.0], [1.0, 3.0])
        out = resample(s, "day", (0.0, 7200.0), aggregate="sum")
        assert out.tolist() == [4.0]

    def test_mean_preserving_on_exact_cover(self):
        # piecewise-constant readings covering each bucket exactly
        values = [5.0] * 24 + [7.0] * 24
        ts = [i * 3600.0 for i in range(48)]
        s = series("s", ts, values)
        out = resample(s, "day", (0.0, 48 * 3600.0))
        assert abs(out[0] - 5.0) < 1e-9 and abs(out[1] - 7.0) < 1e-9


class TestBuildResampledTable:
    def make_site(self, site_id, start_day, end_day, level=1.0):
        ts = [d * DAY for d in range(start_day, end_day)]
        vals = [level + 0.01 * (d % 7) for d in range(start_day, end_day)]
        return series(site_id, ts, vals)

    def test_common_window_and_alignment(self):
        sites = [self.make_site("a", 0, 100), self.make_site("b", 5, 95)]
        table = build_resampled_table(sites, resolutions=("day", "week"))
        assert table.site_ids == ["a", "b"]
        assert table.window == (5 * DAY, 94 * DAY)
        assert table.data["day"].shape == (2, 89)
        assert table.data["week"].shape[0] == 2

    def test_window_shrinking_site_dropped(self):
        sites = [
            self.make_site("a", 0, 100),
            self.make_site("b", 0, 100),
            self.make_site("c", 0, 100),
            self.make_site("late", 90, 100),  # would shrink the window to 10 days
        ]
        table = build_resampled_table(sites, resolutions=("day",))
        assert table.site_ids == ["a", "b", "c"]
        assert table.dropped == [("late", "shrinks the common window")]

    def test_all_sites_needed(self):
        with pytest.raises(DataError):
            build_resampled_table([], resolutions=("day",))

    def test_pairwise_disjoint_coverage_keeps_one_site(self):
        # each window spans two half-hour buckets
        sites = [
            series("A", [0.0, 3600.0], [1.0, 2.0]),
            series("B", [10000.0, 13600.0], [1.0, 2.0]),
            series("C", [20000.0, 23600.0], [1.0, 2.0]),
        ]
        table = build_resampled_table(sites, resolutions=("half_hour",))
        assert table.site_ids == ["C"]
        assert table.window == (20000.0, 23600.0)
        assert table.dropped == [("A", "shrinks the common window"), ("B", "shrinks the common window")]
        assert table.data["half_hour"].tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("sites, resolutions, message", [
        # the disjoint-coverage input: its 100 s window holds one half-hour bucket
        ([series(site, [t, t + 100.0], [1.0, 2.0]) for site, t in (("A", 0.0), ("B", 1000.0), ("C", 2000.0))],
         ("half_hour",), "resolution 'half_hour': the common window [2000.0, 2100.0] holds 1 bucket"),
        ([series(site, [d * DAY for d in range(5)], [1.0, 2.0, 1.0, 2.0, 1.0]) for site in "ab"],
         ("day", "week"), f"resolution 'week': the common window [0.0, {4 * DAY}] holds 1 bucket"),
    ])
    def test_single_bucket_window_is_a_config_error(self, sites, resolutions, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_resampled_table(sites, resolutions=resolutions)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=8,
    ))
    def test_widest_drop_matches_full_scan(self, spans):
        # a small grid of starts and lengths makes equal starts, ends and widths common
        pool = [
            series(f"s{i}", sorted({float(a), float(a + n)}), [1.0] * len({a, a + n}))
            for i, (a, n) in enumerate(spans)
        ]
        assert ingest._widest_drop(pool) is brute_force_widest_drop(pool)

    @pytest.mark.parametrize("aggregate", ["mean", "sum"])
    def test_rows_equal_per_site_resampling(self, aggregate):
        sites = [self.make_site("a", 0, 100), self.make_site("b", 3, 97, level=2.0),
                 series("c", [d * 3600.0 for d in range(24 * 100)], [1.0 + d % 5 for d in range(2400)])]
        table = build_resampled_table(sites, resolutions=RESOLUTIONS, aggregate=aggregate)
        for resolution in RESOLUTIONS:
            expected = np.vstack([resample(s, resolution, table.window, aggregate) for s in sites])
            assert table.data[resolution].tobytes() == expected.tobytes()

    def test_unknown_aggregate_and_resolution(self):
        sites = [self.make_site("a", 0, 10), self.make_site("b", 0, 10)]
        with pytest.raises(ConfigError, match="unknown aggregate 'median'"):
            build_resampled_table(sites, resolutions=("year",), aggregate="median")
        with pytest.raises(ConfigError, match="unknown resolution 'year'"):
            build_resampled_table(sites, resolutions=("day", "year"))

    def test_site_with_interior_outage_kept(self):
        ts = [d * DAY for d in range(0, 50) if not 20 <= d <= 25]
        site = series("gappy", ts, [1.0 + (d % 3) for d in range(len(ts))])
        other = self.make_site("full", 0, 50)
        table = build_resampled_table([site, other], resolutions=("day",))
        assert set(table.site_ids) == {"full", "gappy"}


class TestResolutionCriteria:
    def test_one_criterion_per_resolution(self):
        sites = [TestBuildResampledTable().make_site(s, 0, 400) for s in ("a", "b")]
        table = build_resampled_table(sites)
        criteria = build_resolution_criteria(table, 0.7)
        assert [c.channel for c in criteria] == list(RESOLUTIONS)
        assert all(c.threshold == 0.7 for c in criteria)

    def test_per_resolution_thresholds(self):
        sites = [TestBuildResampledTable().make_site(s, 0, 400) for s in ("a", "b")]
        table = build_resampled_table(sites, resolutions=("day", "month"))
        criteria = build_resolution_criteria(table, {"day": 0.6, "month": 0.9})
        assert [(c.channel, c.threshold) for c in criteria] == [("day", 0.6), ("month", 0.9)]

    @pytest.mark.parametrize("rho, message", [
        ({"day": 0.6}, "'rho' has no threshold for ['month']"),
        ("abc", "'rho' must be a number, got 'abc'"),
        (None, "needs 'rho'"),
    ], ids=["missing-resolution", "not-a-number", "none"])
    def test_bad_rho_is_a_config_error(self, rho, message):
        sites = [TestBuildResampledTable().make_site(s, 0, 400) for s in ("a", "b")]
        table = build_resampled_table(sites, resolutions=("day", "month"))
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_resolution_criteria(table, rho)

    def test_similar_daily_dissimilar_monthly_pair_split_in_prefilter_mode(self):
        # both sites share a weekly rhythm (daily-scale similarity) but have
        # opposite annual drifts, so the month-scale criterion must keep each
        # out of the other's expansion
        days = 364
        weekly = [math.sin(2 * math.pi * d / 7.0) for d in range(days)]
        annual = [math.sin(2 * math.pi * d / float(days)) for d in range(days)]
        ts = [d * DAY for d in range(days)]
        base = 10.0
        s1 = series("s1", ts, [base + weekly[d] + 0.2 * annual[d] for d in range(days)])
        s2 = series("s2", ts, [base + weekly[d] - 0.2 * annual[d] for d in range(days)])
        table = build_resampled_table([s1, s2], resolutions=("day", "month"))
        ft = table.as_feature_table()

        day_only = build_basis(ft, build_resolution_criteria(table, 0.5)[:1], "prefilter")
        both = build_basis(ft, build_resolution_criteria(table, 0.5), "prefilter")
        probe = day_only.universe.subset([0])
        assert 1 in day_only.pseudoclosure(probe)
        assert 1 not in both.pseudoclosure(probe)
