"""Consumption series ingestion: CSV loading, windowing, bucket resampling.

The raw format is one reading per row (``site_id,timestamp,value``), sorted
by time within each site.  Sites are aligned on the intersection of their
coverage windows and aggregated into equal-length vectors at half-hour, day,
week and calendar-month steps; each step then feeds one correlation
criterion, so a site's profile must match at every time scale at once.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError, read_number
from .similarity import FeatureTable, PearsonBall, _csv_rows, _hands_over, _write_item_csv

RESOLUTIONS = ("half_hour", "day", "week", "month")
AGGREGATES = ("mean", "sum")
# Sites are dropped before resampling until the common window spans at least
# this share of the median site coverage.
_MIN_WINDOW_FRACTION = 0.8
_FIXED_WIDTH = {"half_hour": 1800.0, "day": 86400.0, "week": 604800.0}
_RAW_COLUMNS = ("site_id", "timestamp", "value")
# Characters of text parsed per np.loadtxt call.  It bounds the site-id
# strings held at once (one Python str per row) to a few MB; and while it is
# at most csv.field_size_limit(), only a block's first line, carried over
# from the previous read, can hold a field longer than csv accepts.
_BLOCK_CHARS = 1 << 17


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
        return float(raw)
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

    A file with numeric timestamps and no quote characters is parsed column
    by column with numpy's C reader.  Any file that reader cannot prove it
    reads exactly as the row reader does (ISO timestamps, quoted fields, a
    malformed row, a rejected reading) is read again row by row, so ISO
    parsing and every error message come from :func:`_load_rows` alone.
    Both readers take UTF-8 text and skip a leading byte-order mark.
    """
    try:
        sites = _load_columnar(path)
    except UnicodeDecodeError:  # reported by the row reader, at its own position
        sites = None
    return _load_rows(path) if sites is None else sites


def _load_columnar(path) -> list[RawSeries] | None:
    """:func:`_load_rows`'s result through ``np.loadtxt``, or None where the
    two readers might disagree.

    The file is read with universal newlines, so ``\\r`` and ``\\r\\n`` end a
    line as they end a ``csv`` row.  Without a ``"`` every field is the text
    between commas, as ``csv`` splits it.  ``loadtxt`` skips empty lines as
    the row reader does; every other line must give one row.  numpy parses
    numbers exactly as ``float`` does but rejects a few spellings ``float``
    takes (``1_000``, non-ASCII digits); those files, and files with a
    rejected reading, go to the row reader.

    When ``site_id`` is the first column, a block whose every non-empty
    line starts with its first line's site id and a comma is one site's
    run, and ``loadtxt`` skips its site-id column.  Timestamps are parsed
    as int64 until a block holds one that is not an integer; from then on,
    and for a block holding a 0 (``"-0"`` is -0.0 to ``float``) or a
    character outside ASCII, as float64.
    """
    run_sites: list[str] = []  # the site id of each run of equal ids, in file order
    run_lengths: list[np.ndarray] = []  # per block, the lengths of its runs
    ts_blocks, value_blocks = [], []
    field_limit = csv.field_size_limit()
    integer_ts = True
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline().rstrip("\n")
        if _hands_over(header) or len(header) > field_limit:
            return None
        names = header.split(",")
        if not all(column in names for column in _RAW_COLUMNS):
            return None
        usecols = [names.index(column) for column in _RAW_COLUMNS]
        site_first = usecols[0] == 0
        tail = ""
        while True:
            block = fh.read(_BLOCK_CHARS)
            if _hands_over(block):
                return None
            text = tail + block
            lines = text.split("\n")
            tail = lines.pop() if block else ""  # a line the next read completes
            # lines after the first lie inside the block
            if len(block) > field_limit or (lines and len(lines[0]) > field_limit):
                return None  # a field may be longer than csv accepts
            # A line's site id is the text before its first comma, and
            # "\n" + site + "," can only start a line.
            site = lines[0].partition(",")[0] if lines else ""
            site_lines = (
                text.count("\n" + site + ",", 0, len(text) - len(tail))
                + text.startswith(site + ",")
                if site_first and lines and lines[-1].startswith(site + ",") else 0
            )
            # an empty line starts with no site id, so if every line does, none is empty
            n_rows = len(lines) if site_lines == len(lines) else len(lines) - lines.count("")
            if n_rows:
                one_site = site_lines == n_rows
                columns = usecols[1:] if one_site else usecols
                rows = None
                # numpy's integer parser reads some non-ASCII characters as
                # digits ("5\u01fe" gives 512), so only ASCII text takes it
                if integer_ts and text.isascii():
                    try:
                        rows = _read_block(lines, columns, np.int64)
                    except ValueError:
                        integer_ts = False
                    else:
                        if not rows["timestamp"].all():
                            rows = None
                if rows is None:
                    try:
                        rows = _read_block(lines, columns, np.float64)
                    except ValueError:
                        return None
                if len(rows) != n_rows:
                    return None
                if one_site:
                    run_sites.append(site)
                    run_lengths.append(np.array([n_rows]))
                else:
                    sites = rows["site_id"]
                    starts = np.flatnonzero(sites[1:] != sites[:-1]) + 1
                    run_sites += sites[np.append(0, starts)].tolist()
                    run_lengths.append(np.diff(starts, prepend=0, append=n_rows))
                ts_blocks.append(rows["timestamp"].astype(np.float64))
                value_blocks.append(rows["value"].copy())
            if not block:
                break
    if not ts_blocks:
        return []
    # drop each column's blocks once joined, so that one column at a time is held twice
    ts = np.concatenate(ts_blocks)
    ts_blocks.clear()
    values = np.concatenate(value_blocks)
    value_blocks.clear()
    if not (np.isfinite(ts).all() and np.isfinite(values).all() and (values >= 0).all()):
        return None

    # each site's rows, in file order, gathered in site-id order
    site_ids = sorted(set(run_sites))
    rank = {site: k for k, site in enumerate(site_ids)}
    # the smallest unsigned type, so that numpy sorts up to 65,536 sites by radix sort
    rank_type = np.min_scalar_type(len(site_ids) - 1)
    run_rank = np.fromiter(map(rank.__getitem__, run_sites), rank_type, len(run_sites))
    lengths = np.concatenate(run_lengths)
    if (run_rank[1:] < run_rank[:-1]).any():
        order = np.argsort(np.repeat(run_rank, lengths), kind="stable")
        ts, values = ts[order], values[order]
    # rows per site, summed over its runs (exact in float64)
    ends = np.cumsum(np.bincount(run_rank, lengths, len(site_ids))).astype(np.intp)
    rising = ts[1:] > ts[:-1]
    rising[ends[:-1] - 1] = True  # a site's first reading follows another site's last
    if not rising.all():
        return None
    starts = np.append(0, ends[:-1])
    return [
        RawSeries(site, ts[a:b], values[a:b])
        for site, a, b in zip(site_ids, starts.tolist(), ends.tolist())
    ]


def _read_block(lines: list[str], usecols: list[int], ts_type) -> np.ndarray:
    """One block's rows from ``np.loadtxt``: ``timestamp`` as ``ts_type``,
    ``value`` as float64, and ``site_id`` first when ``usecols`` holds three
    columns.  Raises ValueError for a field the dtype does not take."""
    fields = [("timestamp", ts_type), ("value", np.float64)]
    if len(usecols) == 3:
        fields.insert(0, ("site_id", object))
    with warnings.catch_warnings():
        # numpy 1.x reads a float such as "1.5" into an integer column,
        # truncated, with a DeprecationWarning; as an error it is a ValueError
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(
            lines, dtype=fields, delimiter=",", comments=None, usecols=usecols, ndmin=1,
        )


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
    """Bucket boundaries covering [start, end); the last bucket may be partial."""
    start, end = window
    if end <= start:
        raise ConfigError(f"empty window {window}")
    if resolution == "month":
        return np.asarray(_month_edges(start, end))
    try:
        width = _FIXED_WIDTH[resolution]
    except KeyError:
        raise ConfigError(f"unknown resolution {resolution!r}") from None
    count = max(1, int(np.ceil((end - start) / width)))
    # start + i * width in float64, the same two roundings as in Python floats
    return np.append(start + np.arange(count) * width, end)


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
    resolution raises :class:`ConfigError`.
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
