import math

import numpy as np
import pytest

from pretopo import ConfigError, DataError, ParseError, build_basis
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
