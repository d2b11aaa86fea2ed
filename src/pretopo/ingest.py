"""Consumption series ingestion: CSV loading, windowing, bucket resampling.

The raw format is one reading per row (``site_id,timestamp,value``), sorted
by time within each site.  Sites are aligned on the intersection of their
coverage windows and aggregated into equal-length vectors at half-hour, day,
week and calendar-month steps; each step then feeds one correlation
criterion, so a site's profile must match at every time scale at once.
"""

from __future__ import annotations

import csv
import logging
import math
import statistics
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError, DataError, ParseError, read_number
from .similarity import FeatureTable, PearsonBall, _csv_rows, _hands_over

logger = logging.getLogger(__name__)

RESOLUTIONS = ("half_hour", "day", "week", "month")
AGGREGATES = ("mean", "sum")
# Sites are dropped before resampling until the common window spans at least
# this share of the median site coverage.
_MIN_WINDOW_FRACTION = 0.8
_FIXED_WIDTH = {"half_hour": 1800.0, "day": 86400.0, "week": 604800.0}
_RAW_DTYPE = np.dtype([("site_id", object), ("timestamp", np.float64), ("value", np.float64)])
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


def _parse_timestamp(raw: str, lineno: int) -> float:
    try:
        return float(raw)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ParseError(f"bad timestamp {raw!r}", line=lineno) from exc
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
    """
    run_sites: list[str] = []  # the site id of each run of equal ids, in file order
    run_lengths: list[int] = []
    ts_blocks, value_blocks = [], []
    field_limit = csv.field_size_limit()
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if _hands_over(header) or len(header) > field_limit:
            return None
        names = header.split(",")
        if not all(column in names for column in _RAW_DTYPE.names):
            return None
        usecols = [names.index(column) for column in _RAW_DTYPE.names]
        tail = ""
        while True:
            block = fh.read(_BLOCK_CHARS)
            if _hands_over(block):
                return None
            lines = (tail + block).split("\n")
            tail = lines.pop() if block else ""  # a line the next read completes
            # lines after the first lie inside the block
            if len(block) > field_limit or (lines and len(lines[0]) > field_limit):
                return None  # a field may be longer than csv accepts
            n_rows = len(lines) - lines.count("")
            if n_rows:
                try:
                    rows = np.loadtxt(
                        lines, dtype=_RAW_DTYPE, delimiter=",",
                        comments=None, usecols=usecols, ndmin=1,
                    )
                except ValueError:
                    return None
                if len(rows) != n_rows:
                    return None
                sites = rows["site_id"]
                starts = np.flatnonzero(sites[1:] != sites[:-1]) + 1
                run_sites += sites[np.append(0, starts)].tolist()
                run_lengths += np.diff(starts, prepend=0, append=n_rows).tolist()
                ts_blocks.append(rows["timestamp"].copy())
                value_blocks.append(rows["value"].copy())
            if not block:
                break
    if not ts_blocks:
        return []
    ts = np.concatenate(ts_blocks)
    values = np.concatenate(value_blocks)
    if not (np.isfinite(ts).all() and np.isfinite(values).all() and (values >= 0).all()):
        return None

    # each site's rows, in file order, gathered in site-id order
    site_ids = sorted(set(run_sites))
    rank = {site: k for k, site in enumerate(site_ids)}
    run_rank = [rank[site] for site in run_sites]
    row_rank = np.repeat(run_rank, run_lengths)
    if run_rank != sorted(run_rank):
        order = np.argsort(row_rank, kind="stable")
        ts, values = ts[order], values[order]
    ends = np.cumsum(np.bincount(row_rank, minlength=len(site_ids)))
    rising = ts[1:] > ts[:-1]
    rising[ends[:-1] - 1] = True  # a site's first reading follows another site's last
    if not rising.all():
        return None
    starts = np.append(0, ends[:-1])
    return [
        RawSeries(site, ts[a:b], values[a:b])
        for site, a, b in zip(site_ids, starts.tolist(), ends.tolist())
    ]


def _load_rows(path) -> list[RawSeries]:
    """The row reader: ``csv`` rows one at a time, every check with its line."""
    per_site: dict[str, tuple[list[float], list[float]]] = {}
    last_ts: dict[str, float] = {}
    with open(path, newline="") as fh:
        reader = _csv_rows(fh)
        header = next(reader, None)
        if header is None:
            return []
        try:
            si = header.index("site_id")
            ti = header.index("timestamp")
            vi = header.index("value")
        except ValueError:
            raise ParseError("header must contain site_id,timestamp,value", line=1) from None
        inf = math.inf
        lineno = 1
        for row in reader:
            lineno += 1
            if not row:
                continue
            try:
                site = row[si]
                ts_raw = row[ti]
                value = float(row[vi])
            except (IndexError, ValueError) as exc:
                raise ParseError(str(exc), line=lineno) from None
            ts = _parse_timestamp(ts_raw, lineno)
            prev = last_ts.get(site, -inf)
            # A comparison with NaN is false, so this one test on the hot
            # path also rejects every non-finite reading; the branch below
            # only works out which rule the row broke.
            if not (0.0 <= value < inf and prev < ts < inf):
                if not (math.isfinite(value) and math.isfinite(ts)):
                    raise DataError(
                        f"line {lineno}: non-finite reading "
                        f"(timestamp {ts_raw!r}, value {row[vi]!r})"
                    )
                if value < 0:
                    raise DataError(f"line {lineno}: negative consumption {value}")
                raise DataError(
                    f"line {lineno}: timestamps for site {site!r} must be strictly increasing"
                )
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


def bucket_edges(resolution: str, window: tuple[float, float]) -> list[float]:
    """Bucket boundaries covering [start, end); the last bucket may be partial."""
    return _bucket_edges(resolution, window).tolist()


def _bucket_edges(resolution: str, window: tuple[float, float]) -> np.ndarray:
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
    ts, values = series.timestamps, series.values
    lo = np.searchsorted(ts, edges[0], side="left")
    hi = np.searchsorted(ts, edges[-1], side="right")
    if lo == hi:
        raise DataError(f"site {series.site_id!r} has no samples inside the window")
    ts, values = ts[lo:hi], values[lo:hi]
    idx = np.searchsorted(edges, ts, side="right") - 1
    np.minimum(idx, n_buckets - 1, out=idx)
    sums = np.bincount(idx, weights=values, minlength=n_buckets)
    counts = np.bincount(idx, minlength=n_buckets)
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

    def write_csvs(self, out_dir) -> list[str]:
        """One features CSV per resolution plus the site index; returns paths."""
        from pathlib import Path

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        sites_path = out / "sites.csv"
        with open(sites_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["item_id", "site_id"])
            for i, site in enumerate(self.site_ids):
                writer.writerow([i, site])
        written.append(str(sites_path))
        for resolution, matrix in self.data.items():
            path = out / f"features_{resolution}.csv"
            FeatureTable(series=[list(map(float, row)) for row in matrix]).to_csv(path)
            written.append(str(path))
        return written


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
    spans = [s.coverage[1] - s.coverage[0] for s in pool]
    target = _MIN_WINDOW_FRACTION * statistics.median(spans)
    while len(pool) > 1:
        start, end = _common_window(pool)
        if end - start >= target:
            break
        best_site = _widest_drop(pool)
        pool = [s for s in pool if s is not best_site]
        dropped.append((best_site.site_id, "shrinks the common window"))
        logger.warning("dropping site %s: shrinks the common window", best_site.site_id)

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

    kept: list[str] = []
    rows: list[list[np.ndarray]] = []  # per kept site, one vector per resolution
    for s in pool:
        try:
            rows.append([_resample(s, edges[resolution], aggregate) for resolution in resolutions])
        except DataError as exc:
            dropped.append((s.site_id, str(exc)))
            logger.warning("dropping site %s: %s", s.site_id, exc)
            continue
        kept.append(s.site_id)
    if not kept:
        raise DataError("every site was dropped during resampling")
    data = {
        resolution: np.vstack([row[k] for row in rows])
        for k, resolution in enumerate(resolutions)
    }
    return ResampledTable(site_ids=kept, data=data, window=window, dropped=dropped)


def raw_series_options(dataset: dict) -> tuple[tuple[str, ...], str, list[PearsonBall]]:
    """A raw_series dataset's resolutions, aggregate and one correlation ball
    per resolution, checked before its readings are loaded."""
    resolutions = dataset.get("resolutions", list(RESOLUTIONS))
    if (not isinstance(resolutions, list) or not resolutions
            or any(r not in RESOLUTIONS for r in resolutions)):
        raise ConfigError(
            f"raw_series dataset: 'resolutions' must be a non-empty list of "
            f"{', '.join(RESOLUTIONS)}; got {resolutions!r}"
        )
    aggregate = dataset.get("aggregate", "mean")
    _check_aggregate(aggregate)
    return tuple(resolutions), aggregate, _resolution_balls(resolutions, dataset.get("rho"))


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
