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
    ``csv.field_size_limit()``, raises :class:`ParseError` with the file's
    name and the row's line, and bytes that are not UTF-8 one with the
    file's name."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"{fh.name}: {exc}", line=reader.line_num) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{fh.name}: input is not UTF-8 text ({exc})") from None


def _hands_over(text: str) -> bool:
    """Whether ``text`` holds a character ``csv`` with ``float`` and numpy's
    C reader treat differently: ``csv`` quoting, a NUL, or the separators
    U+001C..U+001F, which numpy strips from a number as whitespace and
    ``float`` rejects."""
    return any(char in text for char in '"\x00\x1c\x1d\x1e\x1f')


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
        """Write the x,y,size,series_* schema (row order is item order), one
        line per row ended by ``\\r\\n``, as ``csv.writer`` writes it: no
        header name or float ``repr`` needs quoting."""
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
            fh.write(",".join(header) + "\r\n")
            for i in range(self.n_items):
                row: list = []
                if self.positions is not None:
                    row += [self.positions[i][0], self.positions[i][1]]
                if self.sizes is not None:
                    row.append(self.sizes[i])
                if self.series is not None:
                    row += self.series[i]
                fh.write(",".join(map(repr, row)) + "\r\n")

    @classmethod
    def from_csv(cls, path) -> "FeatureTable":
        """Read the x,y,size,series_* schema.

        A file is parsed column by column with numpy's C reader when that
        reader provably reads it as the row reader does.  Every other file is
        read row by row, so every error message and line number comes from
        :meth:`_from_rows` alone: quotes, a NUL or U+001C..U+001F, a blank
        line, a short row, number spellings numpy rejects but ``float``
        accepts (``1_000``, non-ASCII digits), a NaN or infinite cell, a
        ``series_`` column without an integer index, bytes that are not
        UTF-8 and a field longer than ``csv.field_size_limit()``.
        """
        table = cls._from_columns(path)
        return cls._from_rows(path) if table is None else table

    @classmethod
    def _from_columns(cls, path) -> "FeatureTable | None":
        """:meth:`_from_rows`'s table through ``np.loadtxt``, or None where
        the two readers might disagree.

        The file is read with universal newlines, so ``\\r`` and ``\\r\\n``
        end a line as they end a ``csv`` row, and without a ``"`` every field
        is the text between commas.  Every line must give one row: the row
        reader raises on a blank line, which ``loadtxt`` would skip.  Fields,
        not lines, are held to ``csv``'s size limit, since a row of 17,520
        values is a longer line than ``csv`` accepts as one field.  The text
        and its lines, a few bytes a cell, stay below the row reader's one
        ``str`` object a cell.
        """
        try:
            with open(path) as fh:
                text = fh.read()
        except UnicodeDecodeError:  # reported by the row reader, at its own position
            return None
        if _hands_over(text):
            return None
        lines = text.split("\n")
        del text
        if lines[-1] == "":
            lines.pop()  # the last line's terminator
        if not lines or "" in lines:
            return None
        limit = csv.field_size_limit()
        if any(len(line) > limit and max(map(len, line.split(","))) > limit for line in lines):
            return None
        try:
            features = _feature_columns(lines[0].split(","), path)
        except ParseError:
            return None
        usecols = [idx for columns in features.values() for _, idx in columns]
        if not usecols:
            return None
        body = lines[1:]
        values = np.empty((0, len(usecols)))
        if body:  # loadtxt warns on no lines
            try:
                values = np.loadtxt(
                    body, dtype=np.float64, delimiter=",",
                    comments=None, usecols=usecols, ndmin=2,
                )
            except ValueError:
                return None
            if len(values) != len(body) or not np.isfinite(values).all():
                return None
        data = {}
        for feature, columns in features.items():
            data[feature], values = values[:, :len(columns)], values[:, len(columns):]
        return cls(
            positions=list(map(tuple, data["positions"].tolist())) if "positions" in data else None,
            sizes=data["sizes"][:, 0].tolist() if "sizes" in data else None,
            series=data["series"].tolist() if "series" in data else None,
        )

    @classmethod
    def _from_rows(cls, path) -> "FeatureTable":
        """The row reader: ``csv`` rows, every cell through ``float`` and
        every check with its line."""
        with open(path, newline="") as fh:
            reader = _csv_rows(fh)
            header = next(reader, None)
            if header is None:
                return cls()
            rows = list(reader)
        features = _feature_columns(header, path)

        def column(name: str, idx: int) -> list[float]:
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

        data = {feature: [column(*c) for c in columns] for feature, columns in features.items()}
        return cls(
            positions=list(zip(*data["positions"])) if "positions" in data else None,
            sizes=data["sizes"][0] if "sizes" in data else None,
            series=[list(row) for row in zip(*data["series"])] if "series" in data else None,
        )


def _feature_columns(header: list[str], path) -> dict[str, list[tuple[str, int]]]:
    """The columns each feature in ``header`` reads, as (name, index) pairs
    in reading order: positions from ``x`` and ``y``, sizes from ``size`` and
    series from ``series_*`` by ascending index.  A repeated name reads its
    last column."""
    cols = {name: idx for idx, name in enumerate(header)}

    def series_index(name: str) -> int:
        try:
            return int(name.split("_", 1)[1])
        except ValueError as exc:
            raise ParseError(
                f"{path}: series column {name!r} needs an integer index", line=1
            ) from exc

    names = {}
    if "x" in cols and "y" in cols:
        names["positions"] = ["x", "y"]
    if "size" in cols:
        names["sizes"] = ["size"]
    series_cols = sorted((name for name in cols if name.startswith("series_")), key=series_index)
    if series_cols:
        names["series"] = series_cols
    return {feature: [(name, cols[name]) for name in group] for feature, group in names.items()}


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
