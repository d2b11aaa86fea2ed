"""Synthetic datasets with known ground truth: grouped points and shaped series.

Point groups are isotropic Gaussian blobs with uniformly drawn item sizes;
series clusters share a base waveform plus independent Gaussian noise.  All
sampling runs on the pinned generator from :mod:`pretopo.rng`, so a spec and
a seed always reproduce the same table bit for bit.

The generator is counter-based: draw k of a spec's stream is
mix(rng_seed + k·0x9E3779B97F4A7C15 mod 2⁶⁴).  A generator keeps one count of
the draws made so far and computes each group's or cluster's draws as one
numpy block (series clusters in row blocks) starting there.  The order is
part of the format: per point an x normal, a y normal, then a size uniform
(five draws); per series reading one normal (two draws); a cluster with
``noise_sigma == 0`` draws nothing.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .core import _row_blocks
from .errors import ConfigError, _check_document, malformed, read_field, read_number
from .rng import _per_element, normals, splitmix64, uniforms
from .similarity import FeatureTable, _write_item_csv

# A spec is refused before anything is drawn when one of its arrays would
# pass numpy's index range, or its draws a stream's 2**64 counter values.
_MAX_SIZE = int(np.iinfo(np.intp).max)
_MAX_DRAWS = 1 << 64


def _check_draws(draws: int, what: str) -> None:
    if draws > _MAX_DRAWS:
        raise ConfigError(
            f"{what} need {draws} draws, more than the 2**64 of a splitmix64 stream"
        )


def _check_finite(spec) -> None:
    """Raise :class:`ConfigError` unless every float field of ``spec``, and
    every float in a tuple field, is finite."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, float) and not math.isfinite(x):
                raise ConfigError(f"{type(spec).__name__} {f.name} must be finite, got {value}")


@dataclass(frozen=True)
class PointGroup:
    count: int
    center: tuple[float, float]
    dispersion: float
    size_range: tuple[float, float]

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("group count must be >= 1")
        if 5 * self.count > _MAX_SIZE:  # one block of 5 draws per point
            raise ConfigError(f"group count must be at most {_MAX_SIZE // 5}, got {self.count}")
        _check_finite(self)
        if not self.dispersion > 0:
            raise ConfigError("dispersion must be > 0")
        lo, hi = self.size_range
        if lo > hi or lo < 0:
            raise ConfigError(f"bad size range [{lo}, {hi}]")


@dataclass(frozen=True)
class PointGenSpec:
    groups: tuple[PointGroup, ...]
    rng_seed: int = 0

    def __post_init__(self):
        _check_draws(5 * sum(g.count for g in self.groups), "point group counts")


# -- waveforms ---------------------------------------------------------------


def _check_period(period: float) -> None:
    if not period > 0:  # also rejects NaN
        raise ConfigError(f"waveform period must be > 0, got {period}")


@dataclass(frozen=True)
class Sine:
    period: float
    amplitude: float = 1.0
    phase: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        _check_period(self.period)
        _check_finite(self)

    def values(self, t: np.ndarray) -> np.ndarray:
        angle = 2.0 * math.pi * (t - self.phase) / self.period
        return self.offset + self.amplitude * _per_element(math.sin, angle)


@dataclass(frozen=True)
class Square:
    """Symmetric square pulse: +amplitude for the duty fraction, else -amplitude."""

    period: float
    amplitude: float = 1.0
    phase: float = 0.0
    duty: float = 0.5
    offset: float = 0.0

    def __post_init__(self):
        _check_period(self.period)
        _check_finite(self)

    def values(self, t: np.ndarray) -> np.ndarray:
        # numpy's % rounds as Python's float % does
        frac = ((t - self.phase) % self.period) / self.period
        return self.offset + np.where(frac < self.duty, self.amplitude, -self.amplitude)


@dataclass(frozen=True)
class Trend:
    slope: float
    intercept: float = 0.0

    def __post_init__(self):
        _check_finite(self)

    def values(self, t: np.ndarray) -> np.ndarray:
        return self.intercept + self.slope * t


@dataclass(frozen=True)
class Mix:
    """Sum of component waveforms."""

    components: tuple["Waveform", ...]

    def __post_init__(self):
        if not self.components:
            raise ConfigError("mix waveform needs at least one component")

    def values(self, t: np.ndarray) -> np.ndarray:
        # sum adds arrays left to right from 0; it compensates Python floats from 3.12
        return sum(c.values(t) for c in self.components)


Waveform = Sine | Square | Trend | Mix


@dataclass(frozen=True)
class SeriesCluster:
    count: int
    length: int
    shape: Waveform
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("cluster count must be >= 1")
        if self.count > _MAX_SIZE:
            raise ConfigError(f"cluster count must be at most {_MAX_SIZE}, got {self.count}")
        if self.length < 2:
            raise ConfigError("series length must be >= 2")
        if 2 * self.length > _MAX_SIZE:  # the draws of one series form one block
            raise ConfigError(f"series length must be at most {_MAX_SIZE // 2}, got {self.length}")
        _check_finite(self)
        if self.noise_sigma < 0:
            raise ConfigError("noise sigma must be >= 0")


@dataclass(frozen=True)
class SeriesGenSpec:
    clusters: tuple[SeriesCluster, ...]
    rng_seed: int = 0

    def __post_init__(self):
        lengths = {c.length for c in self.clusters}
        if len(lengths) > 1:
            raise ConfigError(f"clusters must share one series length, got {sorted(lengths)}")
        items = sum(c.count for c in self.clusters)
        if items > _MAX_SIZE:
            raise ConfigError(f"cluster counts sum to {items} series, more than {_MAX_SIZE}")
        _check_draws(
            sum(2 * c.count * c.length for c in self.clusters if c.noise_sigma),
            "series cluster counts and lengths",
        )


# -- generators --------------------------------------------------------------


def _overflow(what: str) -> ConfigError:
    return ConfigError(f"{what}: spec numbers overflow to a non-finite value")


def _check_drawn(what: str, *arrays: np.ndarray) -> None:
    """Raise :class:`ConfigError` if a generated value is not finite: finite
    spec numbers can still overflow once combined."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise _overflow(what)


def _table(rows: int, width: int) -> np.ndarray:
    """An uninitialised float64 table; past numpy's byte limit, a MemoryError."""
    try:
        return np.empty((rows, width))
    except ValueError as exc:  # "array is too big", raised before allocating
        raise MemoryError(str(exc)) from None


def generate_points(spec: PointGenSpec) -> tuple[FeatureTable, list[int]]:
    """Draw every group's points and sizes; labels record the group index.

    Per point the stream consumes exactly two normals (x, y offsets) and one
    uniform (the size), in that order: five draws.
    """
    positions = _table(sum(g.count for g in spec.groups), 2)
    sizes = np.empty(len(positions))
    labels: list[int] = []
    item = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for g_idx, g in enumerate(spec.groups):
            raw = splitmix64(spec.rng_seed, 5 * item, 5 * g.count).reshape(g.count, 5)
            rows = slice(item, item + g.count)
            positions[rows] = g.dispersion * normals(raw[:, :4].reshape(g.count, 2, 2)) + g.center
            sizes[rows] = uniforms(raw[:, 4], *g.size_range)
            _check_drawn(f"point group {g_idx}", positions[rows], sizes[rows])
            item += g.count
            labels.extend([g_idx] * g.count)
    return FeatureTable(positions=positions, sizes=sizes), labels


def generate_series(spec: SeriesGenSpec) -> tuple[FeatureTable, list[int]]:
    """Draw every cluster's series: base waveform plus pointwise noise.

    A noisy cluster is drawn in blocks of whole series, so the stream for a
    large cluster is never held at once.
    """
    length = spec.clusters[0].length if spec.clusters else 0
    series = _table(sum(c.count for c in spec.clusters), length)
    labels: list[int] = []
    item = drawn = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for c_idx, cluster in enumerate(spec.clusters):
            what = f"series cluster {c_idx}"
            try:
                base = cluster.shape.values(np.arange(length))
            except ValueError as exc:  # math.sin of an angle that overflowed
                raise _overflow(what) from exc
            if not cluster.noise_sigma:
                _check_drawn(what, base)
                series[item:item + cluster.count] = base
            else:
                width = 2 * length  # draws per series
                for lo, hi in _row_blocks(cluster.count, width):
                    raw = splitmix64(spec.rng_seed, drawn + lo * width, (hi - lo) * width)
                    noise = normals(raw.reshape(hi - lo, length, 2), 0.0, cluster.noise_sigma)
                    rows = series[item + lo:item + hi]
                    np.add(base, noise, out=rows)
                    _check_drawn(what, rows)
                drawn += cluster.count * width
            item += cluster.count
            labels.extend([c_idx] * cluster.count)
    return FeatureTable(series=series), labels


# -- JSON specs and CSV outputs ----------------------------------------------


def _objects(value, what: str) -> list:
    """``value`` if it is a list of JSON objects, else a config error."""
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise ConfigError(f"{what} must be a list of objects, got {value!r}")
    return value


def _number_pair(value, what: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{what} must be a list of two numbers, got {value!r}")
    return read_number(value[0], what), read_number(value[1], what)


def waveform_from_dict(doc: dict) -> Waveform:
    try:
        kind = doc["kind"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"waveform spec needs a 'kind': {doc!r}") from exc
    what = f"{kind} waveform"
    with malformed(f"waveform spec {kind!r}"):
        for shape in (Sine, Square, Trend):
            if kind == shape.__name__.lower():
                # every field is a number; one without a default is required
                return shape(**{
                    f.name: read_field(doc, f.name, what,
                                       default=None if f.default is MISSING else f.default)
                    for f in fields(shape)
                })
        if kind == "mix":
            components = _objects(doc["components"], f"{what}: 'components'")
            return Mix(tuple(waveform_from_dict(c) for c in components))
    raise ConfigError(f"unknown waveform kind {kind!r}")


def spec_from_dict(doc: dict) -> PointGenSpec | SeriesGenSpec:
    """The generator spec a JSON object describes; a field of the wrong type
    or shape is a :class:`ConfigError` that names the field."""
    what = "generator spec"
    kind = _check_document(doc, what).get("kind")
    with malformed(what):
        seed = read_field(doc, "rng_seed", what, int, 0)
        if kind == "points":
            groups = tuple(
                PointGroup(
                    count=read_field(g, "count", what, int),
                    center=_number_pair(g["center"], f"{what}: 'center'"),
                    dispersion=read_field(g, "dispersion", what),
                    size_range=_number_pair(g["size_range"], f"{what}: 'size_range'"),
                )
                for g in _objects(doc["groups"], f"{what}: 'groups'")
            )
            return PointGenSpec(groups=groups, rng_seed=seed)
        if kind == "series":
            clusters = tuple(
                SeriesCluster(
                    count=read_field(c, "count", what, int),
                    length=read_field(c, "length", what, int),
                    shape=waveform_from_dict(c["shape"]),
                    noise_sigma=read_field(c, "noise_sigma", what, default=0.0),
                )
                for c in _objects(doc["clusters"], f"{what}: 'clusters'")
            )
            return SeriesGenSpec(clusters=clusters, rng_seed=seed)
    raise ConfigError(f"generator spec kind must be 'points' or 'series', got {kind!r}")


def generate(spec: PointGenSpec | SeriesGenSpec) -> tuple[FeatureTable, list[int]]:
    if isinstance(spec, PointGenSpec):
        return generate_points(spec)
    return generate_series(spec)


def write_labels_csv(path, labels: list[int]) -> None:
    _write_item_csv(path, "label", enumerate(labels))
