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

from .errors import ConfigError, DataError, ParseError
from .similarity import FeatureTable, PearsonBall

logger = logging.getLogger(__name__)

RESOLUTIONS = ("half_hour", "day", "week", "month")
_FIXED_WIDTH = {"half_hour": 1800.0, "day": 86400.0, "week": 604800.0}


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
    """Read, group and validate raw readings; sites come back sorted by id."""
    per_site: dict[str, tuple[list[float], list[float]]] = {}
    last_ts: dict[str, float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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
    start, end = window
    if end <= start:
        raise ConfigError(f"empty window {window}")
    if resolution == "month":
        return _month_edges(start, end)
    try:
        width = _FIXED_WIDTH[resolution]
    except KeyError:
        raise ConfigError(f"unknown resolution {resolution!r}") from None
    count = max(1, int(np.ceil((end - start) / width)))
    return [start + i * width for i in range(count)] + [end]


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
    if aggregate not in ("mean", "sum"):
        raise ConfigError(f"unknown aggregate {aggregate!r}")
    edges = np.asarray(bucket_edges(resolution, window))
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


def build_resampled_table(
    sites: list[RawSeries],
    resolutions: tuple[str, ...] = RESOLUTIONS,
    aggregate: str = "mean",
    min_window_fraction: float = 0.8,
) -> ResampledTable:
    """Align sites on a common window and resample at every resolution.

    The window is the intersection of site coverages; sites that would
    shrink it below ``min_window_fraction`` of the median coverage are
    dropped first, then sites failing to fill the window's edge buckets are
    dropped as resampling discovers them.
    """
    if not sites:
        raise DataError("no sites to resample")
    dropped: list[tuple[str, str]] = []
    pool = list(sites)
    spans = {s.site_id: s.coverage[1] - s.coverage[0] for s in pool}
    median_span = statistics.median(spans.values())
    target = min_window_fraction * median_span

    def window_of(current: list[RawSeries]) -> tuple[float, float]:
        start = max(s.coverage[0] for s in current)
        end = min(s.coverage[1] for s in current)
        return start, end

    while len(pool) > 1:
        start, end = window_of(pool)
        if end - start >= target:
            break
        # drop the site whose removal widens the window the most
        best_site, best_width = None, -1.0
        for candidate in pool:
            rest = [s for s in pool if s is not candidate]
            w0, w1 = window_of(rest)
            if w1 - w0 > best_width:
                best_site, best_width = candidate, w1 - w0
        pool = [s for s in pool if s is not best_site]
        dropped.append((best_site.site_id, "shrinks the common window"))
        logger.warning("dropping site %s: shrinks the common window", best_site.site_id)

    start, end = window_of(pool)
    if end <= start:
        raise DataError("sites share no common time window")
    window = (start, end)

    vectors: dict[str, dict[str, np.ndarray]] = {}
    failed: set[str] = set()
    for s in pool:
        per_res = {}
        try:
            for resolution in resolutions:
                per_res[resolution] = resample(s, resolution, window, aggregate)
        except DataError as exc:
            failed.add(s.site_id)
            dropped.append((s.site_id, str(exc)))
            logger.warning("dropping site %s: %s", s.site_id, exc)
            continue
        vectors[s.site_id] = per_res

    kept = [s.site_id for s in pool if s.site_id not in failed]
    if not kept:
        raise DataError("every site was dropped during resampling")
    data = {
        resolution: np.vstack([vectors[site][resolution] for site in kept])
        for resolution in resolutions
    }
    return ResampledTable(site_ids=kept, data=data, window=window, dropped=dropped)


def build_resolution_criteria(
    table: ResampledTable,
    rho: float | dict[str, float],
) -> list[PearsonBall]:
    """One correlation criterion per resolution, bound to its channel."""
    if not table.site_ids or not table.data:
        raise ConfigError("resampled table is empty")
    criteria = []
    for resolution in table.resolutions:
        threshold = rho[resolution] if isinstance(rho, dict) else rho
        criteria.append(PearsonBall(threshold=float(threshold), channel=resolution))
    return criteria
