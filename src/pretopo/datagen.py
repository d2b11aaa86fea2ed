"""Synthetic datasets with known ground truth: grouped points and shaped series.

Point groups are isotropic Gaussian blobs with uniformly drawn item sizes;
series clusters share a base waveform plus independent Gaussian noise.  All
sampling runs on the pinned generator from :mod:`pretopo.rng`, so a spec and
a seed always reproduce the same table bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .rng import SplitMix64
from .similarity import FeatureTable


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
        if self.length < 2:
            raise ConfigError("series length must be >= 2")
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


# -- generators --------------------------------------------------------------


def generate_points(spec: PointGenSpec) -> tuple[FeatureTable, list[int]]:
    """Draw every group's points and sizes; labels record the group index.

    Per point the stream consumes exactly two normals (x, y offsets) and one
    uniform (the size), in that order.
    """
    rng = SplitMix64(spec.rng_seed)
    positions: list[tuple[float, float]] = []
    sizes: list[float] = []
    labels: list[int] = []
    for g_idx, g in enumerate(spec.groups):
        cx, cy = g.center
        lo, hi = g.size_range
        for _ in range(g.count):
            x = cx + g.dispersion * rng.gauss()
            y = cy + g.dispersion * rng.gauss()
            positions.append((x, y))
            sizes.append(rng.uniform(lo, hi))
            labels.append(g_idx)
    return FeatureTable(positions=positions, sizes=sizes), labels


def generate_series(spec: SeriesGenSpec) -> tuple[FeatureTable, list[int]]:
    """Draw every cluster's series: base waveform plus pointwise noise."""
    rng = SplitMix64(spec.rng_seed)
    series: list[list[float]] = []
    labels: list[int] = []
    for c_idx, cluster in enumerate(spec.clusters):
        base = [cluster.shape.value(t) for t in range(cluster.length)]
        for _ in range(cluster.count):
            if cluster.noise_sigma:
                series.append([b + rng.gauss(0.0, cluster.noise_sigma) for b in base])
            else:
                series.append(list(base))
            labels.append(c_idx)
    return FeatureTable(series=series), labels


# -- JSON specs and CSV outputs ----------------------------------------------


def waveform_from_dict(doc: dict) -> Waveform:
    try:
        kind = doc["kind"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"waveform spec needs a 'kind': {doc!r}") from exc
    try:
        if kind == "sine":
            return Sine(
                period=float(doc["period"]),
                amplitude=float(doc.get("amplitude", 1.0)),
                phase=float(doc.get("phase", 0.0)),
                offset=float(doc.get("offset", 0.0)),
            )
        if kind == "square":
            return Square(
                period=float(doc["period"]),
                amplitude=float(doc.get("amplitude", 1.0)),
                phase=float(doc.get("phase", 0.0)),
                duty=float(doc.get("duty", 0.5)),
                offset=float(doc.get("offset", 0.0)),
            )
        if kind == "trend":
            return Trend(slope=float(doc["slope"]), intercept=float(doc.get("intercept", 0.0)))
        if kind == "mix":
            return Mix(tuple(waveform_from_dict(c) for c in doc["components"]))
    except KeyError as exc:
        raise ConfigError(f"waveform spec {kind!r} is missing {exc}") from exc
    raise ConfigError(f"unknown waveform kind {kind!r}")


def spec_from_dict(doc: dict) -> PointGenSpec | SeriesGenSpec:
    if not isinstance(doc, dict):
        raise ConfigError("generator spec must be a JSON object")
    kind = doc.get("kind")
    try:
        seed = int(doc.get("rng_seed", 0))
        if kind == "points":
            groups = tuple(
                PointGroup(
                    count=int(g["count"]),
                    center=(float(g["center"][0]), float(g["center"][1])),
                    dispersion=float(g["dispersion"]),
                    size_range=(float(g["size_range"][0]), float(g["size_range"][1])),
                )
                for g in doc["groups"]
            )
            return PointGenSpec(groups=groups, rng_seed=seed)
        if kind == "series":
            clusters = tuple(
                SeriesCluster(
                    count=int(c["count"]),
                    length=int(c["length"]),
                    shape=waveform_from_dict(c["shape"]),
                    noise_sigma=float(c.get("noise_sigma", 0.0)),
                )
                for c in doc["clusters"]
            )
            return SeriesGenSpec(clusters=clusters, rng_seed=seed)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed generator spec: {exc!r}") from exc
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
