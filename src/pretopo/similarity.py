"""Similarity criteria over item features, and neighborhood bases built from them.

Items carry optional features (a planar position, a scalar size, one or more
series).  A criterion turns one feature into a closed ball around each item;
a list of criteria becomes a neighborhood basis, and hence a pseudoclosure
space, via :func:`build_basis`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    FilterSpace,
    NeighborhoodBasis,
    PrefilterSpace,
    PseudoclosureSpace,
    Universe,
    _row_blocks,
    pack_rows,
)
from .errors import ConfigError, DataError, DegenerateSeriesError, ParseError


def _csv_rows(fh):
    """``csv`` rows of ``fh``; a malformed row, such as a field longer than
    ``csv.field_size_limit()``, raises :class:`ParseError` with its line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


@dataclass
class FeatureTable:
    """Per-item features. Every present feature covers all items.

    ``channels`` holds named auxiliary series matrices (one series per item
    and channel); they let several series-based criteria with different
    sampling coexist over the same items.
    """

    positions: list[tuple[float, ...]] | None = None
    sizes: list[float] | None = None
    series: list[list[float]] | None = None
    channels: dict[str, list[list[float]]] = field(default_factory=dict)

    def __post_init__(self):
        counts = {
            name: len(rows)
            for name, rows in (
                ("positions", self.positions),
                ("sizes", self.sizes),
                ("series", self.series),
            )
            if rows is not None
        }
        counts.update({f"channel {k!r}": len(v) for k, v in self.channels.items()})
        if len(set(counts.values())) > 1:
            raise ConfigError(f"feature lengths disagree: {counts}")
        for name, rows in [("series", self.series)] + [
            (k, v) for k, v in self.channels.items()
        ]:
            if rows is None:
                continue
            lengths = {len(s) for s in rows}
            if len(lengths) > 1:
                raise ConfigError(f"{name}: all series must share one length, got {sorted(lengths)}")
            if len(rows) and min(lengths) < 2:
                raise ConfigError(f"{name}: series must have length >= 2")
        if self.sizes is not None and any(s < 0 for s in self.sizes):
            raise ConfigError("sizes must be non-negative")

    @property
    def n_items(self) -> int:
        for rows in (self.positions, self.sizes, self.series, *self.channels.values()):
            if rows is not None:
                return len(rows)
        return 0

    def series_channel(self, channel: str | None) -> list[list[float]]:
        if channel is None:
            if self.series is None:
                raise ConfigError("table has no series feature")
            return self.series
        if channel not in self.channels:
            raise ConfigError(f"table has no series channel {channel!r}")
        return self.channels[channel]

    def to_csv(self, path) -> None:
        """Write the x,y,size,series_* schema (row order is item order)."""
        header = []
        if self.positions is not None:
            dims = len(self.positions[0]) if self.positions else 2
            if dims != 2:
                raise ConfigError("csv schema supports planar positions only")
            header += ["x", "y"]
        if self.sizes is not None:
            header.append("size")
        length = 0
        if self.series is not None:
            length = len(self.series[0]) if self.series else 0
            header += [f"series_{i}" for i in range(length)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(self.n_items):
                row: list = []
                if self.positions is not None:
                    row += [repr(self.positions[i][0]), repr(self.positions[i][1])]
                if self.sizes is not None:
                    row.append(repr(self.sizes[i]))
                if self.series is not None:
                    row += [repr(v) for v in self.series[i]]
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path) -> "FeatureTable":
        with open(path, newline="") as fh:
            reader = _csv_rows(fh)
            header = next(reader, None)
            if header is None:
                return cls()
            rows = list(reader)
        cols = {name: idx for idx, name in enumerate(header)}

        def series_index(name: str) -> int:
            try:
                return int(name.split("_", 1)[1])
            except ValueError as exc:
                raise ParseError(
                    f"{path}: series column {name!r} needs an integer index", line=1
                ) from exc

        series_cols = sorted(
            (name for name in cols if name.startswith("series_")), key=series_index
        )

        def column(name: str) -> list[float]:
            idx = cols[name]
            values = []
            # the header is line 1
            for line, row in enumerate(rows, start=2):
                try:
                    value = float(row[idx])
                except (IndexError, ValueError) as exc:
                    cell = row[idx] if idx < len(row) else None
                    raise ParseError(
                        f"{path}: column {name!r} needs a number, got {cell!r}", line=line
                    ) from exc
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}: line {line}: column {name!r} holds non-finite {value!r}"
                    )
                values.append(value)
            return values

        positions = sizes = series = None
        if "x" in cols and "y" in cols:
            positions = list(zip(column("x"), column("y")))
        if "size" in cols:
            sizes = column("size")
        if series_cols:
            series = [list(row) for row in zip(*map(column, series_cols))]
        return cls(positions=positions, sizes=sizes, series=series)


@dataclass(frozen=True)
class EuclideanBall:
    """Items within Euclidean distance ``radius`` of each other's position."""

    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ConfigError(f"euclidean radius must be > 0, got {self.radius}")


@dataclass(frozen=True)
class SizeBall:
    """Items whose size differs by at most ``tolerance``."""

    tolerance: float

    def __post_init__(self):
        if self.tolerance < 0:
            raise ConfigError(f"size tolerance must be >= 0, got {self.tolerance}")


@dataclass(frozen=True)
class PearsonBall:
    """Items whose series correlate at least ``threshold`` (one-sided:
    anticorrelated series are dissimilar)."""

    threshold: float
    channel: str | None = None

    def __post_init__(self):
        if not -1 < self.threshold <= 1:
            raise ConfigError(f"pearson threshold must lie in (-1, 1], got {self.threshold}")


Criterion = EuclideanBall | SizeBall | PearsonBall

DISTANCE_KINDS = (EuclideanBall, SizeBall)


def is_distance_criterion(criterion: Criterion) -> bool:
    return isinstance(criterion, DISTANCE_KINDS)


def _pairwise_rows(table: FeatureTable, criterion: Criterion):
    """The criterion's pairwise matrix as a function of ``(lo, hi)`` that
    returns rows ``lo:hi``: distances (diagonal 0) or correlations (diagonal 1).

    The feature arrays are built once, here; each call allocates only its
    own rows, so no n x n array exists unless a caller stacks them.
    """
    n = table.n_items
    if isinstance(criterion, EuclideanBall):
        if table.positions is None:
            raise ConfigError("euclidean criterion needs a position feature")
        pts = np.asarray(table.positions, dtype=np.float64).reshape(n, -1)

        def euclidean_rows(lo: int, hi: int) -> np.ndarray:
            diff = pts[lo:hi, None, :] - pts[None, :, :]
            out = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            np.fill_diagonal(out[:, lo:], 0.0)
            return out

        return euclidean_rows
    if isinstance(criterion, SizeBall):
        if table.sizes is None:
            raise ConfigError("size criterion needs a size feature")
        s = np.asarray(table.sizes, dtype=np.float64)
        return lambda lo, hi: np.abs(s[lo:hi, None] - s[None, :])
    if isinstance(criterion, PearsonBall):
        data = np.asarray(table.series_channel(criterion.channel), dtype=np.float64)
        centered = data - data.mean(axis=1, keepdims=True)
        norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
        for i, nv in enumerate(norms):
            if nv == 0.0:
                raise DegenerateSeriesError("constant series has no linear signal", item=i)

        def pearson_rows(lo: int, hi: int) -> np.ndarray:
            # one matvec per row: a block matmul rounds most entries differently
            out = np.empty((hi - lo, n), dtype=np.float64)
            for i in range(lo, hi):
                row = centered @ centered[i]
                np.divide(row, norms * norms[i], out=row)
                out[i - lo] = row
                out[i - lo, i] = 1.0
            np.clip(out, -1.0, 1.0, out=out)
            return out

        return pearson_rows
    raise ConfigError(f"unknown criterion {criterion!r}")


def pairwise_matrix(table: FeatureTable, criterion: Criterion) -> np.ndarray:
    """Symmetric matrix of distances (diagonal 0) or correlations (diagonal 1)."""
    n = table.n_items
    out = np.empty((n, n), dtype=np.float64)
    if n:
        rows = _pairwise_rows(table, criterion)
        for lo, hi in _row_blocks(n, n):
            out[lo:hi] = rows(lo, hi)
    return out


def criterion_ball_masks(table: FeatureTable, criterion: Criterion) -> list[int]:
    """Per item, the bitmask of items inside its criterion ball (self included).

    The pairwise rows are thresholded and packed one row strip at a time.
    """
    n = table.n_items
    if not n:
        return []
    rows = _pairwise_rows(table, criterion)
    masks: list[int] = []
    for lo, hi in _row_blocks(n, n):
        block = rows(lo, hi)
        if isinstance(criterion, PearsonBall):
            hits = block >= criterion.threshold
        elif isinstance(criterion, EuclideanBall):
            hits = block <= criterion.radius
        else:
            hits = block <= criterion.tolerance
        np.fill_diagonal(hits[:, lo:], True)  # self-pair by fiat
        masks += pack_rows(hits)
    return masks


def check_mode(mode) -> None:
    """Raise :class:`ConfigError` unless ``mode`` names a conjunction semantics."""
    if mode not in ("prefilter", "filter"):
        raise ConfigError(f"unknown mode {mode!r}")


def build_basis(
    table: FeatureTable,
    criteria: list[Criterion],
    mode: str = "prefilter",
    labels=None,
) -> PseudoclosureSpace:
    """Package one ball per criterion and item into a pseudoclosure space.

    ``mode`` selects the conjunction semantics: ``"prefilter"`` requires each
    criterion ball to meet the probed set on its own, ``"filter"`` requires a
    single witness inside all balls at once.
    """
    if not criteria:
        raise ConfigError("at least one criterion is required")
    check_mode(mode)
    n = table.n_items
    per_criterion = [criterion_ball_masks(table, c) for c in criteria]
    basis = NeighborhoodBasis.from_masks(
        n, [[balls[x] for balls in per_criterion] for x in range(n)]
    )
    universe = Universe.of_size(n) if labels is None else Universe.with_labels(labels)
    if universe.size != n:
        raise ConfigError("label count does not match item count")
    cls = PrefilterSpace if mode == "prefilter" else FilterSpace
    return cls(universe, basis)
