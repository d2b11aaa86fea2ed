"""Similarity criteria over item features, and neighborhood bases built from them.

Items carry optional features (a planar position, a scalar size, one or more
series).  A criterion turns one feature into a closed ball around each item;
a list of criteria becomes a neighborhood basis, and hence a pseudoclosure
space, via :func:`build_basis`.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import MISSING, dataclass, field, fields
from typing import get_args

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
from .errors import ConfigError, DataError, DegenerateSeriesError, ParseError, malformed, read_number


def _csv_rows(path):
    """``(line, row)`` for each ``csv`` row of the UTF-8 file at ``path``,
    past any byte-order mark, where ``line`` is the physical line the row
    starts on: the header's is 1, and a blank line, a quoted field's line
    breaks and each LF, CR or CRLF ending count as in an editor.  The file
    stays open until the rows run out or the generator is dropped.  A
    malformed row, such as a field longer than ``csv.field_size_limit()``,
    raises :class:`ParseError` naming the file and the line the row starts
    on; bytes that are not UTF-8 raise one naming the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        line = 1
        try:
            for row in reader:
                yield line, row
                line = reader.line_num + 1
        except csv.Error as exc:
            raise ParseError(str(exc), path=fh.name, line=line) from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 text ({exc})", path=fh.name) from None


def _write_item_csv(path, column: str, rows) -> None:
    """Write an item table: the header ``item_id,<column>``, then one row
    per ``(item id, value)`` pair of ``rows``, through ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("item_id", column), *rows])


def _read_item_csv(path) -> tuple[dict[str, str], dict[str, int]]:
    """Item id -> second column, and item id -> the line of its row."""
    reader = _csv_rows(path)
    next(reader, None)  # the header
    out, seen_at = {}, {}
    for line, row in reader:
        if len(row) < 2:
            raise ConfigError(f"malformed row {row!r}", path=path, line=line)
        if row[0] in out:
            raise ConfigError(
                f"item id {row[0]!r} repeats line {seen_at[row[0]]}", path=path, line=line
            )
        out[row[0]] = row[1]
        seen_at[row[0]] = line
    return out, seen_at


def _hands_over(text: str) -> bool:
    """Whether ``text`` holds a character ``csv`` with ``float`` and numpy's
    C reader treat differently: ``csv`` quoting, a NUL, or the separators
    U+001C..U+001F, which numpy strips from a number as whitespace and
    ``float`` rejects."""
    return any(char in text for char in '"\x00\x1c\x1d\x1e\x1f')


# The most characters of text a columnar reader's prepass reads at a time,
# so that it holds a few MB of text at once, whatever the file's size.
_BLOCK_CHARS = 1 << 17
# np.loadtxt opens a path ending in one of these through a decompressor
# (numpy's DataSource), where the row readers read the file as text.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


class _HandOver(Exception):
    """The file may hold something the columnar reader does not read as the
    row reader does."""


def _columnar(path, read):
    """``read(fh)`` on the file at ``path``, open as UTF-8 text past any
    byte-order mark, with universal newlines, so ``\\r`` and ``\\r\\n`` end a
    line as they end a ``csv`` row; None where a columnar reader hands the
    file over to its row reader, which reports any error at its own position:
    ``read`` returns None or raises :class:`_HandOver`, or the bytes are not
    UTF-8.  A path that is not a regular file, which may be read only once
    (a pipe), or whose name numpy would decompress is handed over unopened."""
    if not os.path.isfile(path) or str(path).endswith(_COMPRESSED):
        return None
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return read(fh)
    except (_HandOver, UnicodeDecodeError):
        return None


def _header(fh) -> list[str]:
    """The names in the first line of ``fh``, split at each comma as
    ``csv`` splits a line without a ``"``; :class:`_HandOver` where the line
    holds a character of :func:`_hands_over` or a name longer than ``csv``
    accepts."""
    header = fh.readline().rstrip("\n")
    names = header.split(",")
    if _hands_over(header) or max(map(len, names)) > csv.field_size_limit():
        raise _HandOver
    return names


def _line_blocks(fh):
    """The rest of ``fh`` as ``(text, end)``, read in blocks of at most
    ``_BLOCK_CHARS`` and ``csv.field_size_limit()`` characters: ``text`` is
    ``"\\n"``, the line carried over from earlier reads, then the block, and
    its whole lines are those that start after each ``"\\n"`` before
    ``text[end]``, its last ``"\\n"``.  What follows ``text[end]`` is carried
    over; the last line of the file gets a ``"\\n"`` if it has none.  Only the
    first line, the one carried over, can be longer than a block, so it alone
    may hold a field longer than ``csv`` accepts, which hands over, as does a
    block holding a character of :func:`_hands_over`."""
    field_limit = csv.field_size_limit()
    size = min(_BLOCK_CHARS, field_limit)
    carried = []  # the pieces of a line no read has ended yet
    while True:
        block = fh.read(size) or ("\n" if any(carried) else "")
        if not block:
            return
        if _hands_over(block):
            raise _HandOver
        cut = block.rfind("\n")
        if cut < 0:
            carried.append(block)
            continue
        text = "".join(("\n", *carried, block))
        first = text.find("\n", 1)
        if first - 1 > field_limit and max(map(len, text[1:first].split(","))) > field_limit:
            raise _HandOver
        yield text, len(text) - len(block) + cut
        carried = [block[cut + 1:]]


def _empty_lines(text: str, start: int, stop: int) -> int:
    """The empty lines that start after a ``"\\n"`` of ``text[start:stop]``."""
    count, at = 0, text.find("\n\n", start, stop + 1)
    while at >= 0:
        count += 1
        at = text.find("\n\n", at + 1, stop + 1)
    return count


def _loadtxt(path, **kwargs) -> np.ndarray:
    """The rows of the CSV file at ``path``, past its header, from
    ``np.loadtxt`` with ``kwargs`` (its ``dtype``, ``usecols``, ``ndmin``
    and ``converters``); ValueError for a field the dtype does not take."""
    with warnings.catch_warnings():
        # numpy 1.x reads a float such as "1.5" into an integer column,
        # truncated, with a DeprecationWarning; as an error it is a ValueError
        warnings.simplefilter("error", DeprecationWarning)
        # an absolute path, which numpy never takes for a URL to download
        return np.loadtxt(os.path.abspath(path), delimiter=",", comments=None, skiprows=1,
                          encoding="utf-8-sig", **kwargs)


def _float_array(rows, name: str, empty_shape: tuple[int, ...]) -> np.ndarray | None:
    """``rows`` (None stays None) as a float64 array, shaped ``empty_shape``
    when it holds no item; :class:`DataError` if a value is not finite."""
    if rows is None:
        return None
    array = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(array).all():
        raise DataError(f"{name} holds a non-finite value")
    return array if len(array) else array.reshape(empty_shape)


@dataclass
class FeatureTable:
    """Per-item features as float64 arrays, each covering all items:
    ``positions`` n x 2, ``sizes`` n, ``series`` and every channel n x L.
    Lists are converted; a NaN or infinite value is a :class:`DataError`.

    ``channels`` holds named auxiliary series matrices (one series per item
    and channel); they let several series-based criteria with different
    sampling coexist over the same items.
    """

    positions: np.ndarray | None = None
    sizes: np.ndarray | None = None
    series: np.ndarray | None = None
    channels: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        features = {"positions": self.positions, "sizes": self.sizes, "series": self.series}
        counts = {name: len(rows) for name, rows in features.items() if rows is not None}
        counts.update({f"channel {k!r}": len(v) for k, v in self.channels.items()})
        if len(set(counts.values())) > 1:
            raise ConfigError(f"feature lengths disagree: {counts}")
        for name, rows in [("series", self.series), *self.channels.items()]:
            if rows is None:
                continue
            lengths = {len(s) for s in rows}
            if len(lengths) > 1:
                raise ConfigError(f"{name}: all series must share one length, got {sorted(lengths)}")
            if len(rows) and min(lengths) < 2:
                raise ConfigError(f"{name}: series must have length >= 2")
        self.positions = _float_array(self.positions, "positions", (0, 2))
        self.sizes = _float_array(self.sizes, "sizes", (0,))
        self.series = _float_array(self.series, "series", (0, 0))
        self.channels = {k: _float_array(v, f"channel {k!r}", (0, 0)) for k, v in self.channels.items()}
        if self.sizes is not None and (self.sizes < 0).any():
            raise ConfigError("sizes must be non-negative")

    @property
    def n_items(self) -> int:
        for rows in (self.positions, self.sizes, self.series, *self.channels.values()):
            if rows is not None:
                return len(rows)
        return 0

    def series_channel(self, channel: str | None) -> np.ndarray:
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
            if self.positions.shape[1] != 2:
                raise ConfigError("csv schema supports planar positions only")
            header += ["x", "y"]
        if self.sizes is not None:
            header.append("size")
        if self.series is not None:
            header += [f"series_{i}" for i in range(self.series.shape[1])]
        columns = [c for c in (self.positions, self.sizes, self.series) if c is not None]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            # blocks of 4,096 values, or of one row, become Python floats at once
            for lo, hi in _row_blocks(self.n_items, 64 * len(header)):
                # the empty block writes empty rows for a table of channels alone
                block = np.hstack([np.empty((hi - lo, 0)), *(c[lo:hi].reshape(hi - lo, -1) for c in columns)])
                fh.writelines(",".join(map(repr, row)) + "\r\n" for row in block.tolist())

    @classmethod
    def from_csv(cls, path) -> "FeatureTable":
        """Read the x,y,size,series_* schema.

        A file is parsed column by column with numpy's C reader when that
        reader provably reads it as the row reader does.  Every other file is
        read row by row, so every error message and line number comes from
        :meth:`_from_rows` alone: quotes, a NUL or U+001C..U+001F, a blank
        line, a short row, number spellings numpy rejects but ``float``
        accepts (``1_000``, non-ASCII digits), a NaN or infinite cell, a
        negative size, a ``series_`` column without an integer index, bytes
        that are not UTF-8 and a field longer than ``csv.field_size_limit()``.
        """
        table = cls._from_columns(path)
        return cls._from_rows(path) if table is None else table

    @classmethod
    def _from_columns(cls, path) -> "FeatureTable | None":
        """:meth:`_from_rows`'s table through one ``np.loadtxt`` call on the
        path, or None where the two readers might disagree (see
        :func:`_columnar`).  Without a ``"`` every field is the text between
        commas.  Every line must give one row, so a blank line, which the row
        reader rejects and ``loadtxt`` skips, hands over."""
        def read(fh):
            try:
                features = _feature_columns(_header(fh), path)
            except ParseError:
                return None
            usecols = [idx for columns in features.values() for _, idx in columns]
            if not usecols:
                return None
            n_rows = 0
            for text, end in _line_blocks(fh):
                if _empty_lines(text, 0, end):
                    return None
                n_rows += text.count("\n", 0, end)
            values = np.empty((0, len(usecols)))
            if n_rows:  # loadtxt warns on no lines
                try:
                    values = _loadtxt(path, dtype=np.float64, usecols=usecols, ndmin=2)
                except ValueError:
                    return None
                if len(values) != n_rows or not np.isfinite(values).all():
                    return None
            data = {}
            for feature, columns in features.items():
                data[feature], values = values[:, :len(columns)], values[:, len(columns):]
            if "sizes" in data and (data["sizes"] < 0).any():
                return None
            return cls(
                positions=data.get("positions"),
                sizes=data["sizes"][:, 0] if "sizes" in data else None,
                series=data.get("series"),
            )

        return _columnar(path, read)

    @classmethod
    def _from_rows(cls, path) -> "FeatureTable":
        """The row reader: ``csv`` rows, every cell through ``float`` and
        every check with its line."""
        reader = _csv_rows(path)
        _, header = next(reader, (1, None))
        if header is None:
            return cls()
        rows = list(reader)
        features = _feature_columns(header, path)
        # a header alone, or with the blank rows to_csv writes for channels alone, reads as no item
        if not features and any(row for _, row in rows):
            raise ParseError("header names no feature column (x and y, size, series_*)", path=path, line=1)

        def column(name: str, idx: int) -> list[float]:
            values = []
            for line, row in rows:
                try:
                    value = float(row[idx])
                except (IndexError, ValueError) as exc:
                    cell = row[idx] if idx < len(row) else None
                    raise ParseError(
                        f"column {name!r} needs a number, got {cell!r}", path=path, line=line
                    ) from exc
                if not math.isfinite(value):
                    raise DataError(
                        f"column {name!r} holds non-finite {value!r}", path=path, line=line
                    )
                if value < 0 and name == "size":
                    raise DataError(f"column 'size' holds negative {value!r}", path=path, line=line)
                values.append(value)
            return values

        data = {feature: [column(*c) for c in columns] for feature, columns in features.items()}
        return cls(
            positions=np.column_stack(data["positions"]) if "positions" in data else None,
            sizes=data["sizes"][0] if "sizes" in data else None,
            series=np.column_stack(data["series"]) if "series" in data else None,
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
                f"series column {name!r} needs an integer index", path=path, line=1
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
    distance = True

    def __post_init__(self):
        if not self.radius > 0:
            raise ConfigError(f"euclidean radius must be > 0, got {self.radius}")

    def rows(self, table: FeatureTable):
        if table.positions is None:
            raise ConfigError("euclidean criterion needs a position feature")

        def euclidean_rows(lo: int, hi: int) -> np.ndarray:
            with np.errstate(over="ignore"):
                diff = table.positions[lo:hi, None, :] - table.positions[None, :, :]
                squares = np.einsum("ijk,ijk->ij", diff, diff)
                rows = np.sqrt(squares)
                # a sum of squares that overflowed, or fell below the normal range
                # and lost bits, is redone from its differences divided by the
                # power of two of their largest magnitude, and scaled back
                redo = np.nonzero((squares < np.finfo(np.float64).tiny) | (squares == np.inf))
                part = diff[redo]
                _, exponents = np.frexp(np.abs(part).max(axis=1))
                part = np.ldexp(part, -exponents[:, None])
                rows[redo] = np.ldexp(np.sqrt(np.einsum("ij,ij->i", part, part)), exponents)
            return rows

        return euclidean_rows

    def within(self, rows: np.ndarray) -> np.ndarray:
        return rows <= self.radius


@dataclass(frozen=True)
class SizeBall:
    """Items whose size differs by at most ``tolerance``."""

    tolerance: float
    distance = True

    def __post_init__(self):
        if not self.tolerance >= 0:
            raise ConfigError(f"size tolerance must be >= 0, got {self.tolerance}")

    def rows(self, table: FeatureTable):
        if table.sizes is None:
            raise ConfigError("size criterion needs a size feature")
        return lambda lo, hi: np.abs(table.sizes[lo:hi, None] - table.sizes[None, :])

    def within(self, rows: np.ndarray) -> np.ndarray:
        return rows <= self.tolerance


@dataclass(frozen=True)
class PearsonBall:
    """Items whose series correlate at least ``threshold`` (one-sided:
    anticorrelated series are dissimilar)."""

    threshold: float
    channel: str | None = None
    distance = False

    def __post_init__(self):
        if not -1 < self.threshold <= 1:
            raise ConfigError(f"pearson threshold must lie in (-1, 1], got {self.threshold}")
        if self.channel is not None and not isinstance(self.channel, str):
            raise ConfigError(f"pearson channel must be a string, got {self.channel!r}")

    def rows(self, table: FeatureTable):
        data = table.series_channel(self.channel)
        n = table.n_items
        # each row times the power of two that puts its largest magnitude in
        # [1, 2): exact, so no sum or square under- or overflows, and every
        # correlation is the same bits at any scale
        _, exponents = np.frexp(np.maximum(data.max(axis=1, initial=0.0), -data.min(axis=1, initial=0.0)))
        centered = np.ldexp(data, (1 - exponents)[:, None])
        centered -= centered.mean(axis=1, keepdims=True)
        norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
        constant = np.flatnonzero(norms == 0.0)
        if constant.size:
            where = "" if self.channel is None else f" in channel {self.channel!r}"
            raise DegenerateSeriesError(f"constant series{where} has no linear signal", item=int(constant[0]))

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

    def within(self, rows: np.ndarray) -> np.ndarray:
        return rows >= self.threshold


# Each criterion gives ``rows(table)``, its pairwise matrix as a function of
# ``(lo, hi)`` that allocates only rows ``lo:hi``: distances (diagonal 0) or
# correlations (diagonal 1); ``within(rows)``, which of them its balls hold;
# and ``distance``, a class attribute: whether the closest-node walk may rank
# items by those rows.
Criterion = EuclideanBall | SizeBall | PearsonBall


def criterion_from_dict(doc) -> Criterion:
    """The criterion a config object describes: ``kind`` is the class name
    without ``Ball``, lower-cased; a field without a default is a required
    JSON number, and one with a default is taken as given."""
    if not isinstance(doc, dict):
        raise ConfigError(f"criterion must be an object, got {doc!r}")
    kind = doc.get("kind")
    for ball in get_args(Criterion):
        if kind == ball.__name__.removesuffix("Ball").lower():
            with malformed(f"criterion {kind!r}"):
                return ball(**{
                    f.name: read_number(doc[f.name], f"{kind} {f.name!r}")
                    if f.default is MISSING else doc.get(f.name, f.default)
                    for f in fields(ball)
                })
    raise ConfigError(f"unknown criterion kind {kind!r}")


def criterion_ball_masks(table: FeatureTable, criterion: Criterion) -> list[int]:
    """Per item, the bitmask of items inside its criterion ball (self included).

    The pairwise rows are thresholded and packed one row strip at a time.
    """
    n = table.n_items
    if not n:
        return []
    if not isinstance(criterion, Criterion):
        raise ConfigError(f"unknown criterion {criterion!r}")
    rows = criterion.rows(table)
    masks: list[int] = []
    for lo, hi in _row_blocks(n, n):
        hits = criterion.within(rows(lo, hi))
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
    universe = Universe.of_size(n) if labels is None else Universe.with_labels(labels)
    if universe.size != n:
        raise ConfigError("label count does not match item count")
    per_criterion = []
    for c in criteria:
        try:
            per_criterion.append(criterion_ball_masks(table, c))
        except DegenerateSeriesError as exc:  # named by its label: a raw_series run's site id
            raise DegenerateSeriesError(exc.reason, item=universe.label_of(exc.item)) from None
    basis = NeighborhoodBasis.from_masks(n, zip(*per_criterion))
    cls = PrefilterSpace if mode == "prefilter" else FilterSpace
    return cls(universe, basis)
