"""Command-line front end: generate, cluster, eval, render, ingest.

Every run is a pure function of its config and input files; rerunning a
command writes byte-identical outputs.  Exit codes: 0 success, 2 for
configuration or parse problems and refused paths, 3 for bad data or an
array too large to allocate.

:mod:`pretopo.datagen` and :mod:`pretopo.ingest` are imported by the
commands that run them, so a ``cluster`` process on a features file starts
without loading either.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DataError, ParseError, _check_document, read_field
from .evaluation import Partition, adjusted_rand_index, confusion_matrix
from .hierarchy import (
    ClosestNode,
    ClusteringResult,
    QuasiHierarchy,
    RandomNeighbor,
    check_quasihierarchy_options,
    flatten,
    quasistructural_analysis,
)
from .similarity import (
    Criterion,
    FeatureTable,
    _read_item_csv,
    build_basis,
    check_mode,
    criterion_from_dict,
)

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]
_OUTLIER_COLOR = "#000000"


def _load_json(path, what: str):
    """The JSON value in the UTF-8 file at ``path``; invalid JSON is a
    :class:`ConfigError` naming ``what``.  The document's reader checks it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text ({exc})", path=path) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what}: invalid JSON ({exc})") from exc


def _write_text(text: str) -> Callable[[Path], None]:
    """A write step that puts ``text`` in its path as UTF-8."""
    return lambda path: Path(path).write_text(text, encoding="utf-8")


def _write_outputs(outputs) -> None:
    """Run ``write(path)`` for every ``(name, path, write)``, once every path
    is checked to name its own file in an existing directory."""
    files = {}
    for name, path, _ in outputs:
        shown = f"{name} {str(path)!r}"
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            raise ConfigError(f"{shown} is not a file path in an existing directory")
        file = Path(path).resolve()
        if file in files:
            raise ConfigError(f"{shown} names the same file as {files[file]}")
        files[file] = shown
    for _, path, write in outputs:
        write(path)


# -- generate ------------------------------------------------------------


def cmd_generate(args) -> dict:
    from . import datagen

    spec = datagen.spec_from_dict(_load_json(args.spec, "generator spec"))
    table, labels = datagen.generate(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    features_path = out_dir / "features.csv"
    labels_path = out_dir / "labels.csv"
    _write_outputs([
        ("output", features_path, table.to_csv),
        ("output", labels_path, lambda path: datagen.write_labels_csv(path, labels)),
    ])
    return {
        "items": table.n_items,
        "features_csv": str(features_path),
        "labels_csv": str(labels_path),
    }


# -- cluster --------------------------------------------------------------


@dataclass(frozen=True)
class RunPlan:
    """A checked cluster config: everything a run needs but the data, which
    ``read_dataset()`` reads as (table, item labels or None)."""

    read_dataset: Callable[[], tuple[FeatureTable, list[str] | None]]
    criteria: tuple[Criterion, ...]
    mode: str
    d: int
    seed_func: ClosestNode | RandomNeighbor
    th_qh: float
    tie_break: str
    rng_seed: int
    output_dir: str


def _dataset_from_config(dataset: dict, criteria_docs: list):
    """Check a dataset object and the criteria without reading any data;
    returns the criteria and a function that reads the dataset."""
    kind = dataset.get("kind")
    if kind in ("features", "raw_series") and not isinstance(dataset.get("path"), str):
        raise ConfigError(f"{kind} dataset needs a 'path' string")
    if kind == "raw_series":
        from . import ingest

        resolutions, aggregate, criteria = ingest.raw_series_options(dataset)

        def read_raw_series():
            sites = ingest.load_csv(dataset["path"])
            if not sites:
                return FeatureTable(), None
            table = ingest.build_resampled_table(sites, resolutions, aggregate)
            return table.as_feature_table(), list(table.site_ids)

        return criteria, read_raw_series
    criteria = [criterion_from_dict(c) for c in criteria_docs]
    if kind not in ("features", "generate"):
        raise ConfigError(f"unknown dataset kind {kind!r}")
    # neither table holds a series channel: raw_series builds its own criteria
    for criterion in criteria:
        if getattr(criterion, "channel", None) is not None:
            raise ConfigError(f"table has no series channel {criterion.channel!r}")
    if kind == "generate":
        from . import datagen

        spec = datagen.spec_from_dict(dataset.get("spec", {}))
        return criteria, lambda: (datagen.generate(spec)[0], None)
    return criteria, lambda: (FeatureTable.from_csv(dataset["path"]), None)


def plan_cluster(doc: dict) -> RunPlan:
    """Check a cluster config, reading no data, so that a bad config raises
    :class:`ConfigError` before the dataset is read."""
    _check_document(doc, "cluster config")
    d = read_field(doc, "d", "cluster config", int, 0)
    if d < 0:
        raise ConfigError(f"cluster config: 'd' must be >= 0, got {d}")
    th_qh = read_field(doc, "th_qh", "cluster config", float, 0.5)
    rng_seed = read_field(doc, "rng_seed", "cluster config", int, 0)
    mode = doc.get("mode", "prefilter")
    check_mode(mode)
    tie_break = doc.get("equivalence_tie_break", "lowest_index")
    check_quasihierarchy_options(th_qh, tie_break)
    output_dir = doc.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigError(f"cluster config: 'output_dir' must be a string, got {output_dir!r}")
    seed_name = doc.get("seed_func", "closest_node")
    if seed_name not in ("closest_node", "random_neighbor"):
        raise ConfigError(f"unknown seed_func {seed_name!r}")
    criteria_docs = doc.get("criteria", [])
    if not isinstance(criteria_docs, list):
        raise ConfigError(
            f"cluster config: 'criteria' must be a list of objects, got {criteria_docs!r}"
        )
    dataset = doc.get("dataset")
    if not isinstance(dataset, dict):
        raise ConfigError("config needs a 'dataset' object")
    criteria, read_dataset = _dataset_from_config(dataset, criteria_docs)
    if not criteria:
        raise ConfigError("at least one criterion is required")
    if seed_name == "closest_node":
        seed_func = ClosestNode.from_criteria(criteria)
    else:
        seed_func = RandomNeighbor(rng_seed)
    return RunPlan(
        read_dataset, tuple(criteria), mode, d, seed_func, th_qh, tie_break, rng_seed, output_dir
    )


def run(plan: RunPlan) -> tuple[QuasiHierarchy, ClusteringResult]:
    """Read the plan's dataset and cluster it."""
    table, item_labels = plan.read_dataset()
    space = build_basis(table, plan.criteria, plan.mode, labels=item_labels)
    hierarchy = quasistructural_analysis(
        space, table, plan.d, plan.seed_func, plan.th_qh, plan.tie_break, plan.rng_seed
    )
    return hierarchy, flatten(hierarchy)


def cmd_cluster(args) -> dict:
    plan = plan_cluster(_load_json(args.config, "cluster config"))
    hierarchy, result = run(plan)
    out_dir = Path(args.out_dir or plan.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_outputs([
        ("output", out_dir / "assignment.csv", result.to_csv),
        ("output", out_dir / "hierarchy.json", _write_text(hierarchy.to_json())),
        ("output", out_dir / "hierarchy.dot", _write_text(hierarchy.to_dot())),
    ])
    return {
        "clusters": len(result.clusters),
        "outliers": len(result.outliers),
        "sets": len(hierarchy.family),
        "roots": len(hierarchy.roots),
    }


# -- eval -----------------------------------------------------------------


def cmd_eval(args) -> dict:
    found, _ = _read_item_csv(args.assignment)
    truth, _ = _read_item_csv(args.labels)
    if set(found) != set(truth):
        raise ConfigError("assignment and labels cover different item ids")
    items = list(truth)
    p = Partition(tuple(items), tuple(truth[i] for i in items))
    q = Partition(tuple(items), tuple(found[i] for i in items))
    matrix, rows, cols = confusion_matrix(p, q)
    return {
        "ari": adjusted_rand_index(p, q),
        "confusion": {"matrix": matrix, "rows": rows, "cols": cols},
        "n_items": len(items),
    }


# -- render ---------------------------------------------------------------


def svg_scatter(
    positions,
    cluster_ids,
    sizes=None,
    width: int = 640,
    height: int = 480,
) -> str:
    """Static scatter plot of n x 2 positions: one color per cluster, outliers black."""
    margin = 40.0
    # the positions times the power of two that puts their largest magnitude
    # in [1, 2): exact, so every ratio and the drawing stay the same, and no
    # span overflows.  A zero span counts as one unit of the input; the clip
    # keeps that unit, and the scale it gives, finite.
    _, exponent = math.frexp(abs(positions).max(initial=0.0))
    unit = math.ldexp(1.0, min(max(1 - exponent, -1013), 1000))
    positions = positions * unit
    if len(positions):
        (x0, y0), (x1, y1) = positions.min(axis=0), positions.max(axis=0)
    else:
        x0 = y0 = 0.0
        x1 = y1 = 1.0
    span_x = (x1 - x0) or unit
    span_y = (y1 - y0) or unit
    scale = min((width - 2 * margin) / span_x, (height - 2 * margin) / span_y)

    def to_px(p):
        return (
            margin + (p[0] - x0) * scale,
            height - margin - (p[1] - y0) * scale,
        )

    if sizes is not None and len(sizes):
        s_hi = max(sizes) or 1.0
        radii = [3.0 + 9.0 * math.sqrt(max(s, 0.0) / s_hi) for s in sizes]
    else:
        radii = [4.0] * len(positions)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for p, cid, r in zip(positions, cluster_ids, radii):
        px, py = to_px(p)
        color = _OUTLIER_COLOR if cid < 0 else _PALETTE[cid % len(_PALETTE)]
        lines.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{r:.2f}" '
            f'fill="{color}" fill-opacity="0.75"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_render(args) -> dict:
    # every input is read before any output is written
    texts = {}
    if args.svg:
        if not (args.assignment and args.features):
            raise ConfigError("svg output needs --assignment and --features")
        table = FeatureTable.from_csv(args.features)
        if table.positions is None:
            raise ConfigError("scatter rendering needs x,y columns in the features csv")
        assignment, line_of = _read_item_csv(args.assignment)
        if len(assignment) != table.n_items:
            raise ConfigError("assignment and features disagree on item count")
        cluster_ids = []
        for item in map(str, range(table.n_items)):
            if item not in assignment:
                raise ConfigError(
                    f"no row for item id {item!r} of the features", path=args.assignment
                )
            try:
                cluster_ids.append(int(assignment[item]))
            except ValueError:
                raise ConfigError(
                    f"cluster id {assignment[item]!r} is not an integer",
                    path=args.assignment, line=line_of[item],
                ) from None
        texts["svg"] = svg_scatter(table.positions, cluster_ids, table.sizes)
    if args.dot:
        if not args.hierarchy:
            raise ConfigError("dot output needs --hierarchy")
        hierarchy = QuasiHierarchy.from_json_dict(_load_json(args.hierarchy, "hierarchy json"))
        texts["dot"] = hierarchy.to_dot(min_size=args.min_size)
    if not texts:
        raise ConfigError("nothing to render: pass --svg and/or --dot")
    wrote = {kind: getattr(args, kind) for kind in texts}
    _write_outputs([(f"--{kind}", wrote[kind], _write_text(text)) for kind, text in texts.items()])
    return wrote


# -- ingest ---------------------------------------------------------------


def cmd_ingest(args) -> dict:
    from . import ingest

    resolutions, aggregate = ingest.resolution_options(
        args.resolutions or list(ingest.RESOLUTIONS), args.aggregate, "ingest"
    )
    sites = ingest.load_csv(args.input)
    if not sites:
        raise DataError("input csv contains no readings")
    table = ingest.build_resampled_table(sites, resolutions, aggregate)
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    outputs = table.csv_outputs(args.out_dir)
    _write_outputs([("output", path, write) for path, write in outputs])
    return {
        "sites": len(table.site_ids),
        "dropped": [list(d) for d in table.dropped],
        "window": list(table.window),
        "buckets": {r: int(table.data[r].shape[1]) for r in table.resolutions},
        "files": [str(path) for path, _ in outputs],
    }


# -- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pretopo",
        description="Multi-criteria hierarchical clustering on pretopological spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset from a JSON spec")
    p.add_argument("--spec", required=True, help="generator spec (JSON)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("cluster", help="run the full clustering pipeline")
    p.add_argument("--config", required=True, help="run config (JSON)")
    p.add_argument("--out-dir", default=None, help="overrides output_dir from the config")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("eval", help="compare an assignment against ground truth")
    p.add_argument("--assignment", required=True, help="item_id,cluster_id csv")
    p.add_argument("--labels", required=True, help="item_id,label csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="draw clusters (svg) and/or the hierarchy (dot)")
    p.add_argument("--assignment", help="item_id,cluster_id csv")
    p.add_argument("--features", help="features csv with x,y columns")
    p.add_argument("--svg", help="output scatter svg path")
    p.add_argument("--hierarchy", help="hierarchy json")
    p.add_argument("--dot", help="output dot path")
    p.add_argument("--min-size", type=int, default=3,
                   help="hide hierarchy sets smaller than this (default 3)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("ingest", help="resample a raw consumption csv")
    p.add_argument("--input", required=True, help="site_id,timestamp,value csv")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resolutions", nargs="+", help="bucket widths (default: all)")
    p.add_argument("--aggregate", default="mean", help="bucket aggregate (default mean)")
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        print(json.dumps(args.func(args), sort_keys=True))
        return 0
    except (ConfigError, ParseError) as exc:
        error, code = exc, 2
    except OSError as exc:  # a path the system refuses; its message names the path
        error, code = ConfigError(str(exc)), 2
    except DataError as exc:
        error, code = exc, 3
    except MemoryError as exc:  # numpy raises a private subclass
        error, code = MemoryError(str(exc)), 3
    print(json.dumps({"error": type(error).__name__, "message": str(error)}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
