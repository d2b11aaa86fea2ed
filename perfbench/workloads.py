"""Benchmark workloads: seeded input generation and ``pretopo cluster`` configs.

Each build function takes a generator seed and an empty directory, and
writes the program's inputs there: the data file, ``labels.csv`` (ground
truth for ``pretopo eval``) and ``config.json`` (the run config).  It records
a ``datagen.generate`` and a ``datagen.write`` span on the tracer it gets.

Sizes are chosen so that one ``pretopo cluster`` process takes a few
seconds, which lets a run take several samples within its time budget while
keeping each workload's cost profile:

* ``points-dense``: the dense m x m overlap scoring dominates, and the m x m
  float64 matrix sets the peak memory.
* ``series-walk``: the random seed walk, closure growth and quasi-hierarchy
  loops dominate; the family barely overlaps.
* ``ingest-year``: CSV parsing and resampling of year-long half-hour rows
  dominate; clustering is a small share.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from pretopo import datagen  # noqa: E402

# Reused by import so the raw-readings fixture stays the C9 acceptance one.
from test_acceptance import _consumption_spec  # noqa: E402

POINT_GROUP_COUNT = 150
SERIES_PER_SHAPE = 200
INGEST_SITES = 40
RAW_START_EPOCH = 1609459200  # 2021-01-01T00:00:00Z, as in the C9 gate
RAW_STEP_S = 1800


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    build: Callable[[int, Path, Tracer], None]
    # ARI floor for an input whose seed expected.json does not pin; set
    # below the lowest ARI of the pinned inputs.
    min_ari: float
    # Independent datasets per run.  More than one where the work a dataset
    # costs depends on its seed, so a run's median is not one draw's.
    inputs: int = 1


def _write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _generate_features(spec_doc: dict, out: Path, tracer: Tracer) -> None:
    """What ``pretopo generate`` does: draw the table, write features and labels."""
    spec = datagen.spec_from_dict(spec_doc)
    with tracer.span("datagen.generate"):
        table, labels = datagen.generate(spec)
    with tracer.span("datagen.write"):
        table.to_csv(out / "features.csv")
        datagen.write_labels_csv(out / "labels.csv", labels)


def build_points_dense(seed: int, out: Path, tracer: Tracer) -> None:
    """The ROADMAP points sweep: 4 groups, dispersion 2.0, two criteria."""
    groups = [
        ((0.0, 0.0), (1.0, 2.0)),
        ((10.0, 0.0), (8.0, 10.0)),
        ((30.0, 0.0), (8.0, 10.0)),
        ((10.0, 25.0), (4.0, 5.0)),
    ]
    spec = {
        "kind": "points",
        "rng_seed": seed,
        "groups": [
            {"count": POINT_GROUP_COUNT, "center": list(center),
             "dispersion": 2.0, "size_range": list(sizes)}
            for center, sizes in groups
        ],
    }
    _generate_features(spec, out, tracer)
    _write_json({
        "schema_version": 1,
        "dataset": {"kind": "features", "path": str(out / "features.csv")},
        "criteria": [
            {"kind": "euclidean", "radius": 1.0},
            {"kind": "size", "tolerance": 0.5},
        ],
        "mode": "prefilter",
        "d": 0,
        "seed_func": "closest_node",
        "th_qh": 0.5,
        "rng_seed": 0,
    }, out / "config.json")


def build_series_walk(seed: int, out: Path, tracer: Tracer) -> None:
    """``configs/series_benchmark.json`` with more series per shape."""
    config = json.loads((ROOT / "configs" / "series_benchmark.json").read_text())
    spec = config["dataset"]["spec"]
    spec["rng_seed"] = seed
    for cluster in spec["clusters"]:
        cluster["count"] = SERIES_PER_SHAPE
    _generate_features(spec, out, tracer)
    config["dataset"] = {"kind": "features", "path": str(out / "features.csv")}
    del config["output_dir"]
    _write_json(config, out / "config.json")


def build_ingest_year(seed: int, out: Path, tracer: Tracer) -> None:
    """The C9 consumption fixture, fewer sites: one raw CSV of readings."""
    spec = _consumption_spec(n_sites=INGEST_SITES, seed=seed)
    with tracer.span("datagen.generate"):
        table, labels = datagen.generate_series(spec)
    with tracer.span("datagen.write"):
        sites = [f"site_{i:03d}" for i in range(table.n_items)]
        with open(out / "raw.csv", "w") as fh:
            fh.write("site_id,timestamp,value\n")
            for site, series in zip(sites, table.series):
                fh.writelines(
                    f"{site},{RAW_START_EPOCH + t * RAW_STEP_S},{v:.4f}\n"
                    for t, v in enumerate(series)
                )
        with open(out / "labels.csv", "w") as fh:
            fh.write("item_id,label\n")
            fh.writelines(f"{site},{label}\n" for site, label in zip(sites, labels))
    _write_json({
        "schema_version": 1,
        "dataset": {
            "kind": "raw_series",
            "path": str(out / "raw.csv"),
            "resolutions": ["half_hour", "day", "week", "month"],
            "rho": 0.8,
        },
        "mode": "prefilter",
        "d": 2,
        "seed_func": "random_neighbor",
        "th_qh": 0.5,
        "rng_seed": 31,
    }, out / "config.json")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("points-dense", 1, build_points_dense, min_ari=0.7, inputs=8),
        Workload("series-walk", 2021, build_series_walk, min_ari=0.95),
        Workload("ingest-year", 777, build_ingest_year, min_ari=0.95),
    )
}
