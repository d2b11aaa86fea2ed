"""Consumption series ingestion: CSV loading, windowing, bucket resampling.

The raw format is one reading per row (``site_id,timestamp,value``), sorted
by time within each site.  Sites are aligned on the intersection of their
coverage windows and aggregated into equal-length vectors at half-hour, day,
week and calendar-month steps; each step then feeds one correlation
criterion, so a site's profile must match at every time scale at once.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError, read_number
from .similarity import FeatureTable, PearsonBall, _columnar, _csv_rows, _empty_lines, _HandOver
from .similarity import _header, _line_blocks, _loadtxt, _write_item_csv

RESOLUTIONS = ("half_hour", "day", "week", "month")
AGGREGATES = ("mean", "sum")
# Sites are dropped before resampling until the common window spans at least
# this share of the median site coverage.
_MIN_WINDOW_FRACTION = 0.8
_FIXED_WIDTH = {"half_hour": 1800.0, "day": 86400.0, "week": 604800.0}
_RAW_COLUMNS = ("site_id", "timestamp", "value")
# The most runs of one site's lines a block may hold for the prepass to pass
# the site runs it found by string search to the parse, which then skips the
# site-id column: finding a run searches the rest of its block, so a block
# of many short runs costs as many searches.  Past it, the parse reads the
# site ids too.  With lines of about 26 characters (some 5,000 a block),
# the two took the same time near 13 runs a block.
_BLOCK_RUNS = 12


@dataclass
class RawSeries:
    """One site's readings; timestamps strictly increasing, values >= 0."""

    site_id: str
    timestamps: np.ndarray
    values: np.ndarray

    @property
    def coverage(self) -> tuple[float, float]:
        return float(self.timestamps[0]), float(self.timestamps[-1])


def _parse_timestamp(raw: str) -> float:
    try:
        return float(raw) + 0.0  # "-0" is the instant 0, not -0.0
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise ValueError(f"bad timestamp {raw!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def load_csv(path) -> list[RawSeries]:
    """Read, group and validate raw readings; sites come back sorted by id.

    A regular file with numeric timestamps and no quote characters is
    parsed column by column with numpy's C reader.  Any other input (a
    pipe, a compressed suffix) and any file that reader cannot prove it
    reads exactly as the row reader does (ISO timestamps, quoted fields, a
    malformed row, a rejected reading) is read row by row, so ISO parsing
    and every error message come from :func:`_load_rows` alone.  Both
    readers take UTF-8 text and skip a leading byte-order mark.
    """
    sites = _load_columnar(path)
    return _load_rows(path) if sites is None else sites


def _load_columnar(path) -> list[RawSeries] | None:
    """:func:`_load_rows`'s result through one ``np.loadtxt`` call on the
    path, or None where the two readers might disagree.

    Without a ``"`` every field is the text between commas, as ``csv``
    splits it.  ``loadtxt`` skips empty lines as the row reader does; every
    other line must give one row.  numpy parses numbers exactly as
    ``float`` does but rejects a few spellings ``float`` takes (``1_000``,
    non-ASCII digits); those files, and files with a rejected reading, go
    to the row reader, as does every file :func:`_columnar` hands over.

    A prepass over the blocks of :func:`_line_blocks` makes every check
    that does not parse a number.  When ``site_id`` is the first column, it
    also finds each block's runs of one site's lines by string search; if
    every block is a few such runs, the parse skips the site-id column.
    Otherwise it parses the site ids too, and the runs are those of equal
    adjacent ids.
    """
    def read(fh):
        names = _header(fh)
        if not all(column in names for column in _RAW_COLUMNS):
            return None
        usecols = [names.index(column) for column in _RAW_COLUMNS]
        runs, n_rows, ascii = _prepass(_line_blocks(fh), usecols[0] == 0)
        if not n_rows:
            return []  # loadtxt warns on a file with no rows
        return _by_site(*_read_file(path, usecols, runs, n_rows, ascii))

    return _columnar(path, read)


def _prepass(blocks, site_first: bool) -> tuple[tuple | None, int, bool]:
    """Over the ``blocks`` of :func:`_line_blocks`: the runs of one site's
    lines (a site's runs in adjacent blocks are one run) as
    :func:`_read_file` gives them, the number of non-empty lines, and
    whether every block is ASCII.  The runs are None unless ``site_first``
    and :func:`_block_runs` finds them in every block."""
    sites: list[str] = []
    rows: list[int] = []
    runs = site_first
    n_rows, ascii = 0, True
    for text, end in blocks:
        ascii = ascii and text.isascii()
        block_rows = _block_runs(text, end, sites, rows) if runs else None
        if block_rows is None:
            runs = False
            block_rows = text.count("\n", 0, end) - _empty_lines(text, 0, end)
        n_rows += block_rows
    return ((sites, np.arange(len(sites)), np.array(rows)) if runs else None), n_rows, ascii


def _block_runs(text: str, end: int, sites: list[str], rows: list[int]) -> int | None:
    """Append to ``sites`` and ``rows`` the site id and line count of each
    run of one site's lines in a block of :func:`_line_blocks` (a run that
    goes on from the previous block adds to its last), and return the
    block's count of non-empty lines; None for more than ``_BLOCK_RUNS``
    runs, or a line without a comma.

    A line's site id is the text before its first comma, so
    ``"\\n" + site + ","`` occurs exactly at the ``"\\n"`` before each line
    of that site.  A run reaches the end of the last such line in the
    block, and every line it spans is the site's or empty.
    """
    start, block_runs, block_rows = 0, 0, 0  # start: the "\n" before the next line
    while start < end:
        if text[start + 1] == "\n":  # an empty line between runs
            start += 1
            continue
        comma = text.find(",", start, text.find("\n", start + 1))
        if comma < 0 or block_runs == _BLOCK_RUNS:
            return None
        key = text[start:comma + 1]
        stop = text.find("\n", text.rfind(key, start, end) + 1)
        n = text.count(key, start, stop)
        others = text.count("\n", start, stop) - n
        if others and others != _empty_lines(text, start, stop):
            return None
        site = key[1:-1]
        if block_runs == 0 and sites and sites[-1] == site:
            rows[-1] += n
        else:
            sites.append(site)
            rows.append(n)
        block_runs += 1
        block_rows += n
        start = stop
    return block_rows


def _read_file(path, usecols, runs, n_rows, ascii):
    """``(timestamps, values, names, codes, rows)`` from :func:`_loadtxt` on
    the whole file, which must give the ``n_rows`` rows the prepass
    counted; run ``k`` of one site's rows, in file order, is ``rows[k]``
    rows of site ``names[codes[k]]``.  Given the prepass's ``runs``, the
    call skips the site-id column.  Without them, it parses each site id
    into its number in order of first appearance, so the table holds no
    Python object per row, and a run is a stretch of equal numbers.

    Timestamps are parsed as int64 on ASCII text, and as float64 on any
    other (numpy's integer parser reads some other characters as digits:
    "5\u01fe" gives 512).  Only a timestamp the int64 call does not take
    (``1800.5``, ``1e9``, one past the int64 range) parses the file again
    as float64; numpy names the dtype of the field it failed on, and the
    timestamp is the one int64 field.  Any other failure hands over."""
    site_field, converters = [], None
    if runs is None:
        site_codes = defaultdict()
        site_codes.default_factory = site_codes.__len__  # a new id's number
        site_field, converters = [("site_id", np.int32)], {usecols[0]: site_codes.__getitem__}
    else:
        usecols = usecols[1:]

    def parse(ts_type):
        fields = [*site_field, ("timestamp", ts_type), ("value", np.float64)]
        return _loadtxt(path, dtype=fields, usecols=usecols, ndmin=1, converters=converters)

    try:
        try:
            table = parse(np.int64 if ascii else np.float64)
        except ValueError as exc:
            if not (ascii and " to int64 " in str(exc)):
                raise
            table = parse(np.float64)
    except ValueError:
        raise _HandOver from None
    if len(table) != n_rows:
        raise _HandOver
    if runs is None:
        codes = table["site_id"]
        starts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
        runs = list(site_codes), codes[np.append(0, starts)], np.diff(starts, prepend=0, append=n_rows)
    # + 0.0 makes the float64 copy and reads "-0" as 0, as _parse_timestamp does
    return table["timestamp"] + 0.0, table["value"].copy(), *runs


def _by_site(ts, values, names, run_codes, lengths) -> list[RawSeries]:
    """Each site's readings, sites in id order, from the columns of every
    row in file order and each run of one site's rows: ``lengths[k]`` rows
    of site ``names[run_codes[k]]``."""
    if not (np.isfinite(ts).all() and np.isfinite(values).all() and (values >= 0).all()):
        raise _HandOver
    site_ids = sorted(set(names))
    rank = {site: k for k, site in enumerate(site_ids)}
    # the smallest unsigned type, so that numpy sorts up to 65,536 sites by radix sort
    rank_type = np.min_scalar_type(len(site_ids) - 1)
    run_rank = np.array([rank[name] for name in names], rank_type)[run_codes]
    changes = run_rank[1:] != run_rank[:-1]
    if np.count_nonzero(changes) + 1 == len(site_ids):
        # each site is one stretch of runs (one site's runs in adjacent
        # blocks make one): its readings are sliced where they lie
        first = np.flatnonzero(np.append(True, changes))
        run_rank, lengths = run_rank[first], np.add.reduceat(lengths, first)
    else:
        # each site's rows, in file order, gathered in site-id order, one
        # column at a time and in place
        order = np.argsort(np.repeat(run_rank, lengths), kind="stable")
        ts[:] = ts[order]
        values[:] = values[order]
        del order
        # rows per site, summed over its runs (exact in float64)
        lengths = np.bincount(run_rank, lengths, len(site_ids)).astype(np.intp)
        run_rank = np.arange(len(site_ids))
    ends = np.cumsum(lengths)
    rising = ts[1:] > ts[:-1]
    rising[ends[:-1] - 1] = True  # a run's first reading follows another site's last
    if not rising.all():
        raise _HandOver
    starts = ends - lengths
    return [
        RawSeries(site_ids[k], ts[a:b], values[a:b])
        for k, a, b in sorted(zip(run_rank.tolist(), starts.tolist(), ends.tolist()))
    ]


def _load_rows(path) -> list[RawSeries]:
    """The row reader: ``csv`` rows one at a time, every check with its line."""
    per_site: dict[str, tuple[list[float], list[float]]] = {}
    last_ts: dict[str, float] = {}
    reader = _csv_rows(path)
    _, header = next(reader, (1, None))
    if header is None:
        return []
    try:
        si, ti, vi = (header.index(column) for column in _RAW_COLUMNS)
    except ValueError:
        raise ParseError("header must contain site_id,timestamp,value", path=path, line=1) from None
    inf = math.inf
    for line, row in reader:
        if not row:
            continue
        try:
            site = row[si]
            ts_raw = row[ti]
            value = float(row[vi])
            ts = _parse_timestamp(ts_raw)
        except (IndexError, ValueError) as exc:
            raise ParseError(str(exc), path=path, line=line) from None
        prev = last_ts.get(site, -inf)
        # A comparison with NaN is false, so this one test on the hot
        # path also rejects every non-finite reading; the branch below
        # only works out which rule the row broke.
        if not (0.0 <= value < inf and prev < ts < inf):
            if not (math.isfinite(value) and math.isfinite(ts)):
                message = f"non-finite reading (timestamp {ts_raw!r}, value {row[vi]!r})"
            elif value < 0:
                message = f"negative consumption {value}"
            else:
                message = f"timestamps for site {site!r} must be strictly increasing"
            raise DataError(message, path=path, line=line)
        last_ts[site] = ts
        if site not in per_site:
            per_site[site] = ([], [])
        bucket = per_site[site]
        bucket[0].append(ts)
        bucket[1].append(value)
    return [
        RawSeries(site, np.asarray(per_site[site][0]), np.asarray(per_site[site][1]))
        for site in sorted(per_site)
    ]


def _month_edges(start: float, end: float) -> list[float]:
    edges = [start]
    dt = datetime.fromtimestamp(start, tz=timezone.utc)
    year, month = dt.year, dt.month
    while True:
        month += 1
        if month == 13:
            year, month = year + 1, 1
        edge = datetime(year, month, 1, tzinfo=timezone.utc).timestamp()
        if edge >= end:
            break
        edges.append(edge)
    edges.append(end)
    return edges


def _bucket_edges(resolution: str, window: tuple[float, float]) -> np.ndarray:
    """Bucket boundaries covering [start, end); the last bucket may be partial.
    A window that the calendar or an array cannot cut, such as epoch
    milliseconds at month steps, raises :class:`DataError`."""
    start, end = window
    if end <= start:
        raise ConfigError(f"empty window {window}")
    if resolution not in RESOLUTIONS:
        raise ConfigError(f"unknown resolution {resolution!r}")
    try:
        if resolution == "month":
            return np.asarray(_month_edges(start, end))
        width = _FIXED_WIDTH[resolution]
        count = max(1, int(np.ceil((end - start) / width)))
        # start + i * width in float64, the same two roundings as in Python floats
        return np.append(start + np.arange(count) * width, end)
    except (ValueError, OverflowError, OSError) as exc:
        raise DataError(
            f"resolution {resolution!r}: the window {list(window)} cannot be cut into "
            f"buckets ({exc}); timestamps are read as seconds since 1970"
        ) from None


def _check_aggregate(aggregate: str) -> None:
    if aggregate not in AGGREGATES:
        raise ConfigError(f"unknown aggregate {aggregate!r}")


def resample(
    series: RawSeries,
    resolution: str,
    window: tuple[float, float],
    aggregate: str = "mean",
) -> np.ndarray:
    """Aggregate one site's readings into the window's buckets.

    The window is closed: a reading exactly at the end boundary lands in the
    final bucket.  Empty buckets between filled ones are linearly
    interpolated from their neighbors; an empty leading or trailing bucket
    means the site does not cover the window and raises :class:`DataError`.
    """
    _check_aggregate(aggregate)
    return _resample(series, _bucket_edges(resolution, window), aggregate)


def _resample(series: RawSeries, edges: np.ndarray, aggregate: str) -> np.ndarray:
    n_buckets = len(edges) - 1
    ts = series.timestamps
    # bucket k holds readings bounds[k]:bounds[k + 1]; the last bucket is closed
    bounds = np.searchsorted(ts, edges, side="left")
    bounds[-1] = np.searchsorted(ts, edges[-1], side="right")
    lo, hi = bounds[0], bounds[-1]
    if lo == hi:
        raise DataError(f"site {series.site_id!r} has no samples inside the window")
    counts = np.diff(bounds)
    idx = np.repeat(np.arange(n_buckets), counts)
    # bincount adds a bucket's readings in reading order, from 0.0
    sums = np.bincount(idx, weights=series.values[lo:hi], minlength=n_buckets)
    filled = np.flatnonzero(counts)
    if filled[0] != 0 or filled[-1] != n_buckets - 1:
        raise DataError(
            f"site {series.site_id!r} leaves a leading or trailing bucket empty"
        )
    out = np.empty(n_buckets, dtype=np.float64)
    if aggregate == "mean":
        out[filled] = sums[filled] / counts[filled]
    else:
        out[filled] = sums[filled]
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        out[empty] = np.interp(empty, filled, out[filled])
    return out


@dataclass
class ResampledTable:
    """Aligned per-resolution matrices (one row per kept site)."""

    site_ids: list[str]
    data: dict[str, np.ndarray]
    window: tuple[float, float]
    dropped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def resolutions(self) -> tuple[str, ...]:
        return tuple(self.data)

    def as_feature_table(self) -> FeatureTable:
        return FeatureTable(channels=dict(self.data))

    def csv_outputs(self, out_dir) -> list[tuple[Path, Callable[[Path], None]]]:
        """``(path, write)`` for the site index, then a features CSV per
        resolution, whose rows become Python floats one at a time as it is written."""
        return [(Path(out_dir) / "sites.csv",
                 lambda path: _write_item_csv(path, "site_id", enumerate(self.site_ids)))] + [
            (Path(out_dir) / f"features_{resolution}.csv",
             lambda path, matrix=matrix: FeatureTable(series=matrix).to_csv(path))
            for resolution, matrix in self.data.items()
        ]


def _drop(dropped: list[tuple[str, str]], site_id: str, reason: str) -> None:
    """Record a dropped site and log it; ``logging`` is imported only here."""
    import logging

    dropped.append((site_id, reason))
    logging.getLogger(__name__).warning("dropping site %s: %s", site_id, reason)


def _widest_drop(pool: list[RawSeries]) -> RawSeries:
    """The first site in ``pool`` whose removal leaves the widest window.

    Without site k the window starts at the largest start, or at the second
    largest when k holds the largest, and likewise ends at the smallest or
    second smallest end; so one pass prices every candidate.
    """
    starts = [s.coverage[0] for s in pool]
    ends = [s.coverage[1] for s in pool]
    indices = range(len(pool))
    i_start = max(indices, key=starts.__getitem__)
    i_end = min(indices, key=ends.__getitem__)
    next_start = max(starts[:i_start] + starts[i_start + 1:])
    next_end = min(ends[:i_end] + ends[i_end + 1:])
    widths = [
        (next_end if k == i_end else ends[i_end])
        - (next_start if k == i_start else starts[i_start])
        for k in indices
    ]
    # max() keeps the first of equal widths, and any width beats none
    return pool[max(indices, key=widths.__getitem__)]


def _common_window(pool: list[RawSeries]) -> tuple[float, float]:
    return max(s.coverage[0] for s in pool), min(s.coverage[1] for s in pool)


def build_resampled_table(
    sites: list[RawSeries],
    resolutions: tuple[str, ...] = RESOLUTIONS,
    aggregate: str = "mean",
) -> ResampledTable:
    """Align sites on a common window and resample at every resolution.

    The window is the intersection of site coverages; sites that would
    shrink it below 80 % of the median coverage are dropped first, then
    sites failing to fill the window's edge buckets are dropped as
    resampling discovers them.  A window that holds a single bucket at some
    resolution raises :class:`ConfigError`, and one it cannot cut into
    buckets :class:`DataError`.
    """
    if not sites:
        raise DataError("no sites to resample")
    dropped: list[tuple[str, str]] = []
    pool = list(sites)
    spans = sorted(s.coverage[1] - s.coverage[0] for s in pool)
    mid = len(spans) // 2
    # the median as statistics.median computes it, without importing statistics
    median = spans[mid] if len(spans) % 2 else (spans[mid - 1] + spans[mid]) / 2
    target = _MIN_WINDOW_FRACTION * median
    while len(pool) > 1:
        start, end = _common_window(pool)
        if end - start >= target:
            break
        best_site = _widest_drop(pool)
        pool = [s for s in pool if s is not best_site]
        _drop(dropped, best_site.site_id, "shrinks the common window")

    window = _common_window(pool)
    if window[1] <= window[0]:
        raise DataError("sites share no common time window")
    _check_aggregate(aggregate)
    edges = {resolution: _bucket_edges(resolution, window) for resolution in resolutions}
    for resolution, bounds in edges.items():
        # a one-value series has no correlation to cluster on
        if len(bounds) < 3:
            raise ConfigError(
                f"resolution {resolution!r}: the common window {list(window)} holds "
                f"{len(bounds) - 1} bucket, and at least 2 are needed"
            )

    # one row per site of the pool, of which the kept sites fill the first
    data = {resolution: np.empty((len(pool), len(edges[resolution]) - 1))
            for resolution in resolutions}
    kept: list[str] = []
    for s in pool:
        try:
            for resolution, matrix in data.items():
                # a site dropped part-way leaves a row the next kept site overwrites
                matrix[len(kept)] = _resample(s, edges[resolution], aggregate)
        except DataError as exc:
            _drop(dropped, s.site_id, str(exc))
            continue
        kept.append(s.site_id)
    if not kept:
        raise DataError("every site was dropped during resampling")
    data = {resolution: matrix[:len(kept)] for resolution, matrix in data.items()}
    return ResampledTable(site_ids=kept, data=data, window=window, dropped=dropped)


def resolution_options(resolutions, aggregate, where: str) -> tuple[tuple[str, ...], str]:
    """``resolutions`` as a tuple and ``aggregate``, both checked before any
    reading is loaded; ``where`` names their source in the error."""
    if (not isinstance(resolutions, list) or not resolutions
            or any(r not in RESOLUTIONS for r in resolutions)):
        raise ConfigError(
            f"{where}: 'resolutions' must be a non-empty list of "
            f"{', '.join(RESOLUTIONS)}; got {resolutions!r}"
        )
    if len(set(resolutions)) != len(resolutions):
        raise ConfigError(f"{where}: 'resolutions' names a resolution twice; got {resolutions!r}")
    _check_aggregate(aggregate)
    return tuple(resolutions), aggregate


def raw_series_options(dataset: dict) -> tuple[tuple[str, ...], str, list[PearsonBall]]:
    """A raw_series dataset's resolutions, aggregate and one correlation ball
    per resolution, checked before its readings are loaded."""
    resolutions, aggregate = resolution_options(
        dataset.get("resolutions", list(RESOLUTIONS)),
        dataset.get("aggregate", "mean"),
        "raw_series dataset",
    )
    return resolutions, aggregate, _resolution_balls(resolutions, dataset.get("rho"))


def build_resolution_criteria(
    table: ResampledTable,
    rho: float | dict[str, float],
) -> list[PearsonBall]:
    """One correlation criterion per resolution, bound to its channel."""
    if not table.site_ids or not table.data:
        raise ConfigError("resampled table is empty")
    return _resolution_balls(table.resolutions, rho)


def _resolution_balls(resolutions, rho) -> list[PearsonBall]:
    """A ``PearsonBall`` per resolution from ``rho``, a threshold for all or
    a map with one for each resolution."""
    if rho is None:
        raise ConfigError("raw_series dataset needs 'rho' (scalar or per-resolution map)")
    if isinstance(rho, dict):
        missing = [r for r in resolutions if r not in rho]
        if missing:
            raise ConfigError(f"raw_series dataset: 'rho' has no threshold for {missing}")
        thresholds = [
            read_number(rho[r], f"raw_series dataset: 'rho' for {r!r}") for r in resolutions
        ]
    else:
        thresholds = [read_number(rho, "raw_series dataset: 'rho'")] * len(resolutions)
    # PearsonBall raises for a threshold outside (-1, 1]
    return [PearsonBall(threshold=t, channel=r) for r, t in zip(resolutions, thresholds)]
