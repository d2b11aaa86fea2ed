import contextlib
import csv
import gzip
import itertools
import logging
import math
import os
import random
import re
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ODD_NUMBERS, brute_force_resample, brute_force_widest_drop
from pretopo import ConfigError, DataError, FeatureTable, ParseError, build_basis, ingest, similarity
from pretopo.ingest import (
    RESOLUTIONS,
    RawSeries,
    ResampledTable,
    _bucket_edges,
    build_resampled_table,
    build_resolution_criteria,
    load_csv,
    resample,
)

DAY = 86400.0
# 48 half-hours from 2021-01-01 in epoch milliseconds, read as seconds
EPOCH_MS_WINDOW = (1609459200000.0, 1609459200000.0 + 47 * 1800000.0)
# windows that a resolution's buckets cannot cut: calendar months end with
# year 9999 and with the platform's time_t, and a bucket count must be a
# finite array size
UNCUT_WINDOWS = [
    ("month", EPOCH_MS_WINDOW), ("month", (-1e308, 1e308)),
    ("week", (-1e308, 1e308)), ("day", (0.0, 2e300)),
]


def write(tmp_path, text, name="raw.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
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
    @given(text=raw_csv_texts(), block_chars=st.sampled_from([1, 7, 64, similarity._BLOCK_CHARS]))
    def test_matches_row_reader(self, tmp_path_factory, text, block_chars):
        path = tmp_path_factory.mktemp("raw") / "raw.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = load_outcome(ingest._load_rows, path)
        with mock.patch.object(similarity, "_BLOCK_CHARS", block_chars):
            assert load_outcome(load_csv, path) == expected
            columnar = load_outcome(ingest._load_columnar, path)
        if columnar != ("handed over",):
            assert columnar == expected

    @pytest.mark.parametrize("block_chars", [64, similarity._BLOCK_CHARS])
    def test_ingest_year_input_is_served_without_the_row_reader(self, tmp_path, block_chars):
        path = write(tmp_path, ingest_year_text())
        expected = load_outcome(ingest._load_rows, path)
        with mock.patch.object(similarity, "_BLOCK_CHARS", block_chars), \
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

    def test_round_robin_past_256_sites_keep_file_order(self, tmp_path):
        # 300 sites take 16-bit ranks, which numpy sorts by radix sort
        lines = ["site_id,timestamp,value"]
        lines += [f"s{t % 300},{t},{t % 7}" for t in range(1200)]
        path = write(tmp_path, "\n".join(lines) + "\n")
        expected = load_outcome(ingest._load_rows, path)
        with mock.patch.object(ingest, "_load_rows", side_effect=AssertionError("row reader used")):
            assert load_outcome(load_csv, path) == expected
        assert len(expected[1]) == 300

    @pytest.mark.parametrize("sites", [["s1"], ["s1", "s2"]], ids=["one-site", "two-sites"])
    @pytest.mark.parametrize("spelling", ["-0", "-00", "+0", "9007199254740993", "99999999999999999999"])
    def test_integer_timestamps_read_as_float_reads_them(self, tmp_path, sites, spelling):
        path = write(tmp_path, "site_id,timestamp,value\n" + "".join(f"{s},{spelling},1\n" for s in sites))
        expected = load_outcome(ingest._load_rows, path)
        assert load_outcome(ingest._load_columnar, path) == expected
        first = [(float(spelling) + 0.0).hex()] * len(sites)  # "-0" is the instant 0
        for read in (load_csv, ingest._load_rows):
            assert [s.timestamps[0].hex() for s in read(path)] == first

    @pytest.mark.parametrize("spelling", ["5\u01fe", "\u09035", "-\U0001175e"])
    def test_non_ascii_timestamps_fail_as_in_the_row_reader(self, tmp_path, spelling):
        # numpy's integer parser reads these as 512, 22595 and -71470
        path = write(tmp_path, f"site_id,timestamp,value\ns1,{spelling},1\n")
        expected = load_outcome(ingest._load_rows, path)
        assert expected[:2] == ("error", ParseError)
        assert load_outcome(load_csv, path) == expected
        assert ingest._load_columnar(path) is None

    @pytest.mark.parametrize("block_chars", [64, similarity._BLOCK_CHARS])
    def test_blocks_mixing_integer_and_fractional_timestamps(self, tmp_path, block_chars):
        stamps = [str(1800 * t) for t in range(30)]
        stamps[1] = "1800"
        stamps[12] = "21600.5"
        path = write(tmp_path, "site_id,timestamp,value\n" + "".join(f"s1,{t},1\n" for t in stamps))
        expected = load_outcome(ingest._load_rows, path)
        with mock.patch.object(similarity, "_BLOCK_CHARS", block_chars), \
                mock.patch.object(ingest, "_load_rows", side_effect=AssertionError("row reader used")):
            assert load_outcome(load_csv, path) == expected
        assert load_csv(path)[0].timestamps[12] == 21600.5

    @pytest.mark.parametrize("block_chars", [64, similarity._BLOCK_CHARS])
    @pytest.mark.parametrize("text", [
        "timestamp,value,site_id\n" + "".join(f"{t},{t % 5},s{t // 20}\n" for t in range(60)),
        "site_id,timestamp,value\n" + "".join(f"s{t // 7},{t},1\n" for t in range(40)),
        "site_id,timestamp,value\n" + "".join(f"s{t % 2}{t % 4 // 2},{t},1\n" for t in range(40)),
    ], ids=["site-id-last", "boundaries-inside-blocks", "ids-prefixing-ids"])
    def test_site_layouts_are_served_without_the_row_reader(self, tmp_path, text, block_chars):
        path = write(tmp_path, text)
        expected = load_outcome(ingest._load_rows, path)
        with mock.patch.object(similarity, "_BLOCK_CHARS", block_chars), \
                mock.patch.object(ingest, "_load_rows", side_effect=AssertionError("row reader used")):
            assert load_outcome(load_csv, path) == expected

    def test_each_file_is_parsed_in_one_call_on_its_path(self, tmp_path):
        # runs of one site: without the site column; interleaved sites: with it
        year = write(tmp_path, ingest_year_text(), "year.csv")
        mixed = write(tmp_path, RAW_HEADER + "".join(f"s{t % 3},{t},1\n" for t in range(2000)), "mixed.csv")
        for path, names in [(year, ("timestamp", "value")), (mixed, ("site_id", "timestamp", "value"))]:
            with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
                assert load_outcome(ingest._load_columnar, path) == load_outcome(ingest._load_rows, path)
            calls = [(call.args[0], np.dtype(call.kwargs["dtype"]).names) for call in loadtxt.call_args_list]
            assert calls == [(os.path.abspath(path), names)]

    def test_parsed_site_ids_are_one_object_per_site(self, tmp_path):
        # the table holds a number per row, and each site's id once beside it
        path = write(tmp_path, RAW_HEADER + "".join(f"site {t % 3},{t},1\n" for t in range(600)))
        read, tables = similarity._loadtxt, []
        with mock.patch.object(ingest, "_loadtxt", lambda *a, **kw: tables.append(read(*a, **kw)) or tables[-1]), \
                mock.patch.object(ingest, "_by_site", wraps=ingest._by_site) as by_site:
            assert load_outcome(load_csv, path) == load_outcome(ingest._load_rows, path)
        [table] = tables
        assert table.dtype["site_id"] == np.int32
        assert table["site_id"][:4].tolist() == [0, 1, 2, 0]
        assert by_site.call_args.args[2] == ["site 0", "site 1", "site 2"]

    @pytest.mark.parametrize("text", [
        ingest_year_text(),
        "timestamp,value,site_id\n0,1,a\n5,2,b\n",
        "site_id,timestamp,value\ns1,2021-01-01T00:00:00Z,1\n",
        "",
    ], ids=["ingest-year", "site-id-last", "row-reader", "empty"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        readers = (load_csv, ingest._load_columnar, ingest._load_rows)
        path = write(tmp_path, text)
        plain = [load_outcome(read, path) for read in readers]
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert [load_outcome(read, path) for read in readers] == plain

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
        with mock.patch.object(similarity, "_BLOCK_CHARS", 64), mock.patch("csv.field_size_limit", return_value=250):
            assert ingest._load_columnar(path) is None
        assert ingest._load_columnar(path) is not None


RAW_HEADER = "site_id,timestamp,value\n"
READERS = ("_read_file", "_load_rows")


def served_by(path):
    """``load_csv``'s outcome on ``path``, and the readers it called, in
    ``READERS`` order: the whole-file parse, the row reader."""
    with contextlib.ExitStack() as stack:
        spies = [stack.enter_context(mock.patch.object(ingest, name, wraps=getattr(ingest, name)))
                 for name in READERS]
        outcome = load_outcome(load_csv, path)
    return outcome, [name for name, spy in zip(READERS, spies) if spy.called]


def site_rows(sites, steps):
    """Rows of each site in turn, one per step, with the step as timestamp."""
    return "".join(f"{site},{t},{t % 7}.25\n" for site in sites for t in steps)


def interleaved_rows(sites, steps):
    """Rows of every site at each step in turn, with the step as timestamp."""
    return "".join(f"{site},{t},{t % 5}\n" for t in steps for site in sites)


def features_outcome(path):
    """``FeatureTable.from_csv``'s positions and sizes, bit for bit."""
    table = FeatureTable.from_csv(path)
    return table.positions.tobytes(), table.sizes.tobytes()


class TestReaderChoice:
    """Every layout reads as the row reader reads it, and the reader that
    serves it follows from what the prepass sees in the file."""

    @pytest.mark.parametrize("text, readers", [
        (RAW_HEADER + site_rows(["s3", "s2", "s1"], range(100)), ["_read_file"]),
        (RAW_HEADER + interleaved_rows(["s3", "s1", "s2"], range(100)), ["_read_file"]),
        (RAW_HEADER + site_rows(["s0"], range(3000)) + "".join(f"s{t % 2 + 1},{t},1\n" for t in range(40)),
         ["_read_file"]),
        ("timestamp,value,site_id\n" + "".join(f"{t},{t % 5},s{t // 20}\n" for t in range(60)),
         ["_read_file"]),
        (RAW_HEADER + "s1,0,1\n\ns1,1,2\n\n\ns1,2,3\n\ns2,0,4\ns2,5,5\n\n\n", ["_read_file"]),
        (RAW_HEADER + site_rows(["a", "b"], range(50)).rstrip("\n"), ["_read_file"]),
        (RAW_HEADER + site_rows(["s10", "s1", "s100", "s"], range(60)), ["_read_file"]),
        (RAW_HEADER + site_rows(["\u00e9t\u00e9", "\u65e5\u672c", "ete"], range(60)), ["_read_file"]),
        (RAW_HEADER + site_rows(["s1", "s2"], range(80)) + "s2,80.5,1\n", ["_read_file"]),
        (RAW_HEADER + "s1,-0,1\ns1,5,2\ns2,0,3\ns2,7,4\ns3,-00,5\n", ["_read_file"]),
        (RAW_HEADER + "".join(f"s{i},{t},1\n" for i in range(ingest._BLOCK_RUNS) for t in range(3)),
         ["_read_file"]),
        (RAW_HEADER + "".join(f"s{i},{t},1\n" for i in range(ingest._BLOCK_RUNS + 1) for t in range(3)),
         ["_read_file"]),
        (RAW_HEADER + interleaved_rows(["\u00e9t\u00e9", "\u65e5\u672c", "ete"], range(100)), ["_read_file"]),
        (RAW_HEADER + interleaved_rows([" s1", "007", "s1", "7", "s1 "], range(100)), ["_read_file"]),
        (RAW_HEADER + "s1,-0.0,1\ns1,0.5,2\ns2,-0,3\n", ["_read_file"]),
        (RAW_HEADER + "\u00e9t\u00e9,-0,1\n\u00e9t\u00e9,5,2\ns2,-00,3\n", ["_read_file"]),
    ], ids=["descending-ids", "interleaved", "interleaved-tail", "site-id-last", "empty-lines-in-runs",
            "no-final-newline", "ids-prefixing-ids", "non-ascii-ids", "fractional-last-row",
            "zero-timestamps", "few-short-runs", "many-short-runs", "interleaved-non-ascii-ids",
            "interleaved-spaces-and-zeros", "float-minus-zeros", "non-ascii-minus-zeros"])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["utf-8", "bom"])
    def test_layout_matches_row_reader(self, tmp_path, text, readers, bom):
        path = tmp_path / "raw.csv"
        path.write_bytes(bom + text.encode())
        outcome, used = served_by(path)
        assert outcome == load_outcome(ingest._load_rows, path)
        assert outcome[0] == "ok"
        assert used == readers

    def test_a_block_opening_inside_a_run_gives_that_run_its_own_entry(self):
        # the block before ended inside s1's run: _by_site alone joins the two
        text = "\ns1,2,1\ns1,3,1\n\ns2,0,1\n"
        assert ingest._block_runs(text, len(text) - 1) == [("s1", 2), ("s2", 1)]

    @pytest.mark.parametrize("text, stretches", [
        (RAW_HEADER + site_rows(["a"], range(40)) + site_rows(["b"], range(5)), ["a", "b"]),
        (RAW_HEADER + site_rows(["a"], range(20)) + site_rows(["b"], range(20)) + site_rows(["a"], range(20, 40)),
         ["a", "b", "a"]),
    ], ids=["site-over-blocks", "site-comes-back"])
    def test_runs_of_every_block_are_joined_by_site(self, tmp_path, text, stretches):
        # small blocks split a site into several runs, which the slice branch
        # joins (one stretch per site) or the gather branch sums (a site back)
        path = write(tmp_path, text)
        expected = load_outcome(ingest._load_rows, path)
        with mock.patch.object(similarity, "_BLOCK_CHARS", 64), \
                mock.patch.object(ingest, "_by_site", wraps=ingest._by_site) as by_site:
            assert served_by(path) == (expected, ["_read_file"])
        names = by_site.call_args.args[2]
        assert [site for site, _ in itertools.groupby(names)] == stretches
        assert names.count("a") >= 3  # site a spans three blocks or more

    def test_short_line_with_the_site_id_last_fails_as_in_the_row_reader(self, tmp_path):
        rows = [f"{t},{t % 5},s{t // 20}" for t in range(60)]
        rows[30] = "7,5"
        path = write(tmp_path, "timestamp,value,site_id\n" + "\n".join(rows) + "\n")
        expected = load_outcome(ingest._load_rows, path)
        assert expected[:2] == ("error", ParseError)
        assert served_by(path) == (expected, ["_read_file", "_load_rows"])

    @pytest.mark.parametrize("text", [
        RAW_HEADER + site_rows(["s1", "s2"], range(100)),
        RAW_HEADER + site_rows(["b-1", "s2"], range(100)),
        RAW_HEADER + site_rows(["s1", "s2"], range(100)) + "s3,-0,1\n",
        RAW_HEADER + interleaved_rows(["b-1", "s-2"], range(100)),
    ], ids=["from-zero", "minus-in-an-id", "minus-zero", "interleaved-minus-in-ids"])
    def test_timestamps_from_zero_parse_once(self, tmp_path, text):
        # one int64 parse of the path, whatever "-" the text holds: "-0" is 0
        path = write(tmp_path, text)
        expected = load_outcome(ingest._load_rows, path)
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            assert load_outcome(load_csv, path) == expected
        assert [call.args[0] for call in loadtxt.call_args_list] == [os.path.abspath(path)]
        assert [s.timestamps[0].hex() for s in load_csv(path)] == ["0x0.0p+0"] * len(expected[1])

    @pytest.mark.parametrize("text", [
        RAW_HEADER + site_rows(["s1", "s2"], range(80)) + "s2,80.5,1\n",
        RAW_HEADER + interleaved_rows(["s1", "s2"], range(80)) + "s2,80.5,1\n",
    ], ids=["fractional-last-row", "interleaved-fractional"])
    def test_float64_parse_follows_an_int64_timestamp_failure(self, tmp_path, text):
        path = write(tmp_path, text)
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            outcome, used = served_by(path)
        assert (outcome, used) == (load_outcome(ingest._load_rows, path), ["_read_file"])
        assert [np.dtype(call.kwargs["dtype"])["timestamp"] for call in loadtxt.call_args_list] == [
            np.int64, np.float64]

    @pytest.mark.parametrize("text", [
        RAW_HEADER + site_rows(["s1", "s2"], range(80)) + "s2,80\n",
        RAW_HEADER + site_rows(["s1", "s2"], range(80)) + "s2,80,x\n",
        RAW_HEADER + interleaved_rows(["s1", "s2"], range(80)) + "s2\n",
        RAW_HEADER + interleaved_rows(["s1", "s2"], range(80)) + "s2,80,x\n",
    ], ids=["short-line", "non-numeric-value", "interleaved-short-line", "interleaved-non-numeric-value"])
    def test_other_failures_hand_over_after_one_parse(self, tmp_path, text):
        # numpy names the dtype of the field it failed on: a short line or a
        # float64 value calls for no float64 timestamps
        path = write(tmp_path, text)
        expected = load_outcome(ingest._load_rows, path)
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            assert served_by(path) == (expected, ["_read_file", "_load_rows"])
        assert expected[:2] == ("error", ParseError)
        assert loadtxt.call_count == 1

    def test_over_limit_line_in_a_run_goes_to_the_row_reader(self, tmp_path):
        rows = [f"s1,{t},1" for t in range(40)]
        rows[20] = "s1,20," + "1" * 300
        path = write(tmp_path, RAW_HEADER + "\n".join(rows) + "\n")
        limit = csv.field_size_limit(250)
        try:
            outcome, used = served_by(path)
            expected = load_outcome(ingest._load_rows, path)
        finally:
            csv.field_size_limit(limit)
        assert expected[:2] == ("error", ParseError)
        assert (outcome, used) == (expected, ["_load_rows"])

    def test_long_lines_of_short_fields_are_served(self, tmp_path, field_limit_250):
        # label columns make the header and every row longer than csv
        # accepts as one field, and each field shorter
        labels = ",".join(f"label_{k:02d}" for k in range(30))
        lines = [f"s{i // 20},{i % 20},{i % 3}.5," + labels for i in range(60)]
        path = write(tmp_path, RAW_HEADER.rstrip("\n") + "," + labels + "\n" + "\n".join(lines) + "\n")
        assert min(map(len, lines)) > field_limit_250
        expected = load_outcome(ingest._load_rows, path)
        assert expected[0] == "ok"
        assert served_by(path) == (expected, ["_read_file"])

    def test_plain_text_gz_name_reads_as_plain_name(self, tmp_path):
        text = ingest_year_text()
        plain = load_outcome(load_csv, write(tmp_path, text))
        assert served_by(write(tmp_path, text, "raw.csv.gz")) == (plain, ["_load_rows"])

    def test_gzip_file_fails_as_in_the_row_reader(self, tmp_path):
        path = tmp_path / "raw.csv.gz"
        path.write_bytes(gzip.compress(ingest_year_text().encode()))
        expected = load_outcome(ingest._load_rows, path)
        assert expected[:2] == ("error", ParseError)
        assert served_by(path) == (expected, ["_load_rows"])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_is_read_once(self, tmp_path):
        text = ingest_year_text()
        expected = load_outcome(ingest._load_rows, write(tmp_path, text))
        pipe = tmp_path / "raw.pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,), kwargs={"encoding": "utf-8"})
        writer.start()
        try:
            served = served_by(pipe)
        finally:
            if writer.is_alive():  # a writer may still wait for a reader
                os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert served == (expected, ["_load_rows"])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("load, text", [
        (lambda path: load_outcome(load_csv, path),
         RAW_HEADER + "s1,2021-01-01T00:00:00Z,1\ns1,2021-01-01T00:30:00Z,2\n"),
        (features_outcome, 'x,y,size\n"1",2,3\n4,5,6\n'),
    ], ids=["raw-iso-timestamps", "features-quoted-cell"])
    def test_a_pipe_the_columnar_reader_would_hand_over_loads(self, tmp_path, load, text):
        # the load runs in a thread of its own, so one that opens the pipe a
        # second time, and so waits for a writer forever, fails the test
        pipe = tmp_path / "in.pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,), kwargs={"encoding": "utf-8"})
        outcome = []
        reader = threading.Thread(target=lambda: outcome.append(load(pipe)), daemon=True)
        writer.start()
        reader.start()
        reader.join(timeout=30)
        hung = reader.is_alive()
        while reader.is_alive():  # give a second open of the pipe an empty writer
            with contextlib.suppress(OSError):
                os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=1)
        if writer.is_alive():
            os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=60)
        assert not hung
        assert outcome == [load(write(tmp_path, text))]


class TestBucketEdges:
    def test_fixed_width(self):
        edges = _bucket_edges("day", (0.0, 3.5 * DAY)).tolist()
        assert edges == [0.0, DAY, 2 * DAY, 3 * DAY, 3.5 * DAY]

    def test_calendar_months(self):
        # 2021-01-15 .. 2021-03-20
        start = 1610668800.0
        end = 1616198400.0
        edges = _bucket_edges("month", (start, end)).tolist()
        assert edges[0] == start and edges[-1] == end
        assert len(edges) == 4  # partial jan, feb, partial mar
        feb1 = 1612137600.0
        mar1 = 1614556800.0
        assert edges[1] == feb1 and edges[2] == mar1

    def test_unknown_resolution(self):
        with pytest.raises(ConfigError):
            _bucket_edges("year", (0.0, 100.0))

    @pytest.mark.parametrize("resolution", ["half_hour", "day", "week"])
    @pytest.mark.parametrize("window", [
        (0.0, 1.0), (0.1, 3.5 * DAY), (1609459200.0, 1609459200.0 + 17519 * 1800.0),
        (-7.25, 400 * DAY + 0.3), (1e15 + 0.5, 1e15 + 40 * DAY), EPOCH_MS_WINDOW,
    ])
    def test_fixed_width_matches_python_float_arithmetic(self, resolution, window):
        start, end = window
        width = {"half_hour": 1800.0, "day": DAY, "week": 7 * DAY}[resolution]
        count = max(1, math.ceil((end - start) / width))
        edges = _bucket_edges(resolution, window).tolist()
        assert all(type(e) is float for e in edges)
        assert edges == [start + i * width for i in range(count)] + [end]

    @pytest.mark.parametrize("resolution, window", UNCUT_WINDOWS)
    def test_window_the_resolution_cannot_cut_is_a_data_error(self, resolution, window):
        site = series("s", list(window), [1.0, 2.0])
        with pytest.raises(DataError) as exc_info:
            resample(site, resolution, window)
        message = str(exc_info.value)
        assert message.startswith(f"resolution {resolution!r}: the window {list(window)} cannot be cut")
        assert message.endswith("; timestamps are read as seconds since 1970")


def random_resample_case(rng, resolution):
    """A window and one site's readings: some exactly on bucket edges or on
    the window end, some outside the window, values of 0.0 and -0.0, and
    buckets left empty inside the window or at its ends.  Returns the
    window, the timestamps, the values and the set of those situations drawn."""
    width = {"half_hour": 1800.0, "day": DAY, "week": 7 * DAY, "month": 30 * DAY}[resolution]
    start = 1609459200.0 + rng.choice([0.0, rng.randrange(2 * 86400 * 90) / 2])
    n = rng.randint(1, 8)
    end = start + (n if rng.random() < 0.3 else rng.uniform(n - 1, n) + 1e-3) * width
    edges = _bucket_edges(resolution, (start, end)).tolist()
    kinds, ts = set(), set()
    for k in range(len(edges) - 1):
        if rng.random() < 0.15:
            if 0 < k < len(edges) - 2:
                kinds.add("interior gap")
            continue
        if rng.random() < 0.4:
            ts.add(edges[k])
            if k:
                kinds.add("on an interior edge")
        ts.update(rng.uniform(edges[k], edges[k + 1]) for _ in range(rng.randint(0, 3)))
    if rng.random() < 0.4:
        ts.add(end)
        kinds.add("on the window end")
    for outside in (start - rng.uniform(1.0, width), end + rng.uniform(1.0, width)):
        if rng.random() < 0.3:
            ts.add(outside)
            kinds.add("outside the window")
    ts = sorted(ts)
    values = [rng.choice([0.0, -0.0, rng.uniform(0.0, 100.0), float(rng.randrange(10))]) for _ in ts]
    kinds.update(str(v) for v in values if v == 0.0)
    return (start, end), ts, values, kinds


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

    @pytest.mark.parametrize("aggregate", ["mean", "sum"])
    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    def test_matches_brute_force_oracle(self, resolution, aggregate):
        rng = random.Random(f"{resolution}:{aggregate}")
        seen = set()
        for _ in range(300):
            window, ts, values, kinds = random_resample_case(rng, resolution)
            s = series("s", ts, values)
            edges = _bucket_edges(resolution, window)
            try:
                expected = ("ok", brute_force_resample(s.timestamps, s.values, edges, aggregate).tobytes())
            except DataError as exc:
                expected = ("error", str(exc))
                seen.add(str(exc).split("' ", 1)[1])
            try:
                got = ("ok", resample(s, resolution, window, aggregate).tobytes())
            except DataError as exc:
                got = ("error", str(exc))
            assert got == expected, (window, ts, values)
            seen |= kinds if expected[0] == "ok" else kinds - {"interior gap"}
        # every situation the cases are drawn to cover came up
        assert seen >= {
            "on an interior edge", "on the window end", "outside the window", "-0.0", "0.0",
            "interior gap", "has no samples inside the window",
            "leaves a leading or trailing bucket empty",
        }, seen


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

    def test_dropped_sites_are_logged(self, caplog):
        holey = [-DAY] + [d * DAY + DAY / 2 for d in range(1, 100)]  # no reading on day 0
        sites = [self.make_site("a", 0, 100), self.make_site("b", 0, 100),
                 self.make_site("late", 90, 100), series("holey", holey, [1.0] * len(holey))]
        with caplog.at_level(logging.WARNING, logger="pretopo.ingest"):
            table = build_resampled_table(sites, resolutions=("day",))
        assert table.site_ids == ["a", "b"]
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("pretopo.ingest", logging.WARNING, "dropping site late: shrinks the common window"),
            ("pretopo.ingest", logging.WARNING,
             "dropping site holey: site 'holey' leaves a leading or trailing bucket empty"),
        ]

    def test_site_with_interior_outage_kept(self):
        ts = [d * DAY for d in range(0, 50) if not 20 <= d <= 25]
        site = series("gappy", ts, [1.0 + (d % 3) for d in range(len(ts))])
        other = self.make_site("full", 0, 50)
        table = build_resampled_table([site, other], resolutions=("day",))
        assert set(table.site_ids) == {"full", "gappy"}


class TestCsvOutputs:
    def test_writing_features_follows_the_data(self, tmp_path):
        # one year of half-hours for 40 sites: 5.3 MB of float64
        matrix = np.random.default_rng(3).random((40, 17_520))
        table = ResampledTable([f"s{i}" for i in range(40)], {"half_hour": matrix}, (0.0, 1.0))
        outputs = table.csv_outputs(tmp_path)
        tracemalloc.start()
        try:
            for path, write_file in outputs:
                write_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * matrix.nbytes
        assert FeatureTable.from_csv(tmp_path / "features_half_hour.csv").series.tobytes() == matrix.tobytes()


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


@pytest.mark.parametrize("call, message", [
    (lambda: resample(RawSeries("s", np.array([5.0]), np.array([1.0])), "day", (5.0, 5.0)),
     "empty window (5.0, 5.0)"),
    (lambda: build_resolution_criteria(ResampledTable([], {}, (0.0, 1.0)), 0.5),
     "resampled table is empty"),
], ids=["empty-window", "empty-table"])
def test_invalid_input_raises(call, message):
    with pytest.raises(ConfigError) as exc_info:
        call()
    assert str(exc_info.value) == message
