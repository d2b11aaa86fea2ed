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

import csv
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import _row_blocks
from .errors import ConfigError, read_number
from .rng import normals, splitmix64, uniforms
from .similarity import FeatureTable

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

    def value(self, t: int) -> float:
        return self.offset + self.amplitude * math.sin(2.0 * math.pi * (t - self.phase) / self.period)


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

    def value(self, t: int) -> float:
        frac = ((t - self.phase) % self.period) / self.period
        return self.offset + (self.amplitude if frac < self.duty else -self.amplitude)


@dataclass(frozen=True)
class Trend:
    slope: float
    intercept: float = 0.0

    def __post_init__(self):
        _check_finite(self)

    def value(self, t: int) -> float:
        return self.intercept + self.slope * t


@dataclass(frozen=True)
class Mix:
    """Sum of component waveforms."""

    components: tuple["Waveform", ...]

    def __post_init__(self):
        if not self.components:
            raise ConfigError("mix waveform needs at least one component")

    def value(self, t: int) -> float:
        return sum(c.value(t) for c in self.components)


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


def generate_points(spec: PointGenSpec) -> tuple[FeatureTable, list[int]]:
    """Draw every group's points and sizes; labels record the group index.

    Per point the stream consumes exactly two normals (x, y offsets) and one
    uniform (the size), in that order: five draws.
    """
    positions: list[tuple[float, float]] = []
    sizes: list[float] = []
    labels: list[int] = []
    drawn = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for g_idx, g in enumerate(spec.groups):
            cx, cy = g.center
            raw = splitmix64(spec.rng_seed, drawn, 5 * g.count).reshape(g.count, 5)
            drawn += raw.size
            x = cx + g.dispersion * normals(raw[:, 0:2])
            y = cy + g.dispersion * normals(raw[:, 2:4])
            s = uniforms(raw[:, 4], *g.size_range)
            _check_drawn(f"point group {g_idx}", x, y, s)
            positions.extend(zip(x.tolist(), y.tolist()))
            sizes.extend(s.tolist())
            labels.extend([g_idx] * g.count)
    return FeatureTable(positions=positions, sizes=sizes), labels


def generate_series(spec: SeriesGenSpec) -> tuple[FeatureTable, list[int]]:
    """Draw every cluster's series: base waveform plus pointwise noise.

    A noisy cluster is drawn in blocks of whole series, so the stream for a
    large cluster is never held at once.
    """
    series: list[list[float]] = []
    labels: list[int] = []
    drawn = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for c_idx, cluster in enumerate(spec.clusters):
            what = f"series cluster {c_idx}"
            try:
                base = np.array([cluster.shape.value(t) for t in range(cluster.length)])
            except ValueError as exc:  # math.sin of an angle that overflowed
                raise _overflow(what) from exc
            if not cluster.noise_sigma:
                _check_drawn(what, base)
                series.extend(base.tolist() for _ in range(cluster.count))
            else:
                width = 2 * cluster.length  # draws per series
                for lo, hi in _row_blocks(cluster.count, width):
                    raw = splitmix64(spec.rng_seed, drawn + lo * width, (hi - lo) * width)
                    noise = normals(raw.reshape(hi - lo, cluster.length, 2), 0.0, cluster.noise_sigma)
                    rows = base + noise
                    _check_drawn(what, rows)
                    series.extend(rows.tolist())
                drawn += cluster.count * width
            labels.extend([c_idx] * cluster.count)
    return FeatureTable(series=series), labels


# -- JSON specs and CSV outputs ----------------------------------------------


def _objects(value, what: str) -> list:
    """``value`` if it is a list of JSON objects, else a config error."""
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise ConfigError(f"{what} must be a list of objects, got {value!r}")
    return value


def _number(doc: dict, key: str, what: str, convert=float, default=None):
    """``doc[key]`` read as a number, or ``default`` when one is given and
    the key is absent; errors name the key after ``what``."""
    value = doc[key] if default is None else doc.get(key, default)
    return read_number(value, f"{what}: {key!r}", convert)


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
    try:
        if kind == "sine":
            return Sine(
                period=_number(doc, "period", what),
                amplitude=_number(doc, "amplitude", what, default=1.0),
                phase=_number(doc, "phase", what, default=0.0),
                offset=_number(doc, "offset", what, default=0.0),
            )
        if kind == "square":
            return Square(
                period=_number(doc, "period", what),
                amplitude=_number(doc, "amplitude", what, default=1.0),
                phase=_number(doc, "phase", what, default=0.0),
                duty=_number(doc, "duty", what, default=0.5),
                offset=_number(doc, "offset", what, default=0.0),
            )
        if kind == "trend":
            return Trend(
                slope=_number(doc, "slope", what),
                intercept=_number(doc, "intercept", what, default=0.0),
            )
        if kind == "mix":
            components = _objects(doc["components"], f"{what}: 'components'")
            return Mix(tuple(waveform_from_dict(c) for c in components))
    except KeyError as exc:
        raise ConfigError(f"waveform spec {kind!r} is missing {exc}") from exc
    raise ConfigError(f"unknown waveform kind {kind!r}")


def spec_from_dict(doc: dict) -> PointGenSpec | SeriesGenSpec:
    """The generator spec a JSON object describes; a field of the wrong type
    or shape is a :class:`ConfigError` that names the field."""
    if not isinstance(doc, dict):
        raise ConfigError("generator spec must be a JSON object")
    kind = doc.get("kind")
    what = "generator spec"
    try:
        seed = _number(doc, "rng_seed", what, int, 0)
        if kind == "points":
            groups = tuple(
                PointGroup(
                    count=_number(g, "count", what, int),
                    center=_number_pair(g["center"], f"{what}: 'center'"),
                    dispersion=_number(g, "dispersion", what),
                    size_range=_number_pair(g["size_range"], f"{what}: 'size_range'"),
                )
                for g in _objects(doc["groups"], f"{what}: 'groups'")
            )
            return PointGenSpec(groups=groups, rng_seed=seed)
        if kind == "series":
            clusters = tuple(
                SeriesCluster(
                    count=_number(c, "count", what, int),
                    length=_number(c, "length", what, int),
                    shape=waveform_from_dict(c["shape"]),
                    noise_sigma=_number(c, "noise_sigma", what, default=0.0),
                )
                for c in _objects(doc["clusters"], f"{what}: 'clusters'")
            )
            return SeriesGenSpec(clusters=clusters, rng_seed=seed)
    except KeyError as exc:
        raise ConfigError(f"generator spec is missing {exc}") from exc
    raise ConfigError(f"generator spec kind must be 'points' or 'series', got {kind!r}")


def spec_from_json(text: str) -> PointGenSpec | SeriesGenSpec:
    return spec_from_dict(json.loads(text))


def generate(spec: PointGenSpec | SeriesGenSpec) -> tuple[FeatureTable, list[int]]:
    if isinstance(spec, PointGenSpec):
        return generate_points(spec)
    return generate_series(spec)


def write_labels_csv(path, labels: list[int]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id", "label"])
        for i, label in enumerate(labels):
            writer.writerow([i, label])
