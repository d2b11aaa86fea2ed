"""Command-line front end: generate, cluster, eval, render, ingest.

Every run is a pure function of its config and input files; rerunning a
command writes byte-identical outputs.  Exit codes: 0 success, 2 for
configuration or parse problems, 3 for bad data.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import datagen, ingest
from .errors import ConfigError, DataError, ParseError
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
    EuclideanBall,
    FeatureTable,
    PearsonBall,
    SizeBall,
    _csv_rows,
    build_basis,
    check_mode,
)

_SCHEMA_VERSION = 1

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]
_OUTLIER_COLOR = "#000000"


def _check_schema_version(doc: dict, what: str) -> None:
    version = doc.get("schema_version", _SCHEMA_VERSION)
    if version != _SCHEMA_VERSION:
        raise ConfigError(f"{what}: unsupported schema_version {version}")


def _load_json(path, what: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: input is not UTF-8 text ({exc})") from None
    except OSError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what}: expected a JSON object")
    _check_schema_version(doc, what)
    return doc


def _dump_json(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def criterion_from_dict(doc) -> Criterion:
    if not isinstance(doc, dict):
        raise ConfigError(f"criterion must be an object, got {doc!r}")
    kind = doc.get("kind")
    try:
        if kind == "euclidean":
            return EuclideanBall(radius=float(doc["radius"]))
        if kind == "size":
            return SizeBall(tolerance=float(doc["tolerance"]))
        if kind == "pearson":
            return PearsonBall(
                threshold=float(doc["threshold"]), channel=doc.get("channel")
            )
    except KeyError as exc:
        raise ConfigError(f"criterion {kind!r} is missing {exc}") from exc
    raise ConfigError(f"unknown criterion kind {kind!r}")


# -- generate ------------------------------------------------------------


def cmd_generate(args) -> int:
    spec = datagen.spec_from_dict(_load_json(args.spec, "generator spec"))
    table, labels = datagen.generate(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    features_path = out_dir / "features.csv"
    labels_path = out_dir / "labels.csv"
    table.to_csv(features_path)
    datagen.write_labels_csv(labels_path, labels)
    print(json.dumps({
        "items": table.n_items,
        "features_csv": str(features_path),
        "labels_csv": str(labels_path),
    }, sort_keys=True))
    return 0


# -- cluster --------------------------------------------------------------


def _dataset_from_config(doc: dict):
    """Check the config's dataset and criteria without reading any data.

    Returns the criteria and a function that reads the dataset, returning
    (table, item labels or None).
    """
    criteria_docs = doc.get("criteria", [])
    if not isinstance(criteria_docs, list):
        raise ConfigError(
            f"cluster config: 'criteria' must be a list of objects, got {criteria_docs!r}"
        )
    dataset = doc.get("dataset")
    if not isinstance(dataset, dict):
        raise ConfigError("config needs a 'dataset' object")
    kind = dataset.get("kind")
    if kind in ("features", "raw_series") and not isinstance(dataset.get("path"), str):
        raise ConfigError(f"{kind} dataset needs a 'path' string")
    if kind == "raw_series":
        resolutions, aggregate, criteria = _raw_series_options(dataset)

        def read_raw_series():
            sites = ingest.load_csv(dataset["path"])
            if not sites:
                return FeatureTable(), None
            table = ingest.build_resampled_table(sites, resolutions, aggregate)
            return table.as_feature_table(), list(table.site_ids)

        return criteria, read_raw_series
    criteria = [criterion_from_dict(c) for c in criteria_docs]
    if kind == "generate":
        spec = datagen.spec_from_dict(dataset.get("spec", {}))
        return criteria, lambda: (datagen.generate(spec)[0], None)
    if kind == "features":
        return criteria, lambda: (FeatureTable.from_csv(dataset["path"]), None)
    raise ConfigError(f"unknown dataset kind {kind!r}")


def _raw_series_options(dataset: dict):
    """A raw_series dataset's resolutions, aggregate and one correlation ball
    per resolution, checked before its readings are loaded."""
    resolutions = dataset.get("resolutions", list(ingest.RESOLUTIONS))
    if (not isinstance(resolutions, list) or not resolutions
            or any(r not in ingest.RESOLUTIONS for r in resolutions)):
        raise ConfigError(
            f"raw_series dataset: 'resolutions' must be a non-empty list of "
            f"{', '.join(ingest.RESOLUTIONS)}; got {resolutions!r}"
        )
    aggregate = dataset.get("aggregate", "mean")
    ingest.check_aggregate(aggregate)
    rho = dataset.get("rho")
    if rho is None:
        raise ConfigError("raw_series dataset needs 'rho' (scalar or per-resolution map)")
    if isinstance(rho, dict):
        missing = [r for r in resolutions if r not in rho]
        if missing:
            raise ConfigError(f"raw_series dataset: 'rho' has no threshold for {missing}")
        rho = {r: _number(rho[r], f"raw_series dataset: 'rho' for {r!r}") for r in resolutions}
    else:
        rho = dict.fromkeys(resolutions, _number(rho, "raw_series dataset: 'rho'"))
    # PearsonBall raises for a threshold outside (-1, 1]
    criteria = [PearsonBall(threshold=rho[r], channel=r) for r in resolutions]
    return tuple(resolutions), aggregate, criteria


def _number(value, what: str, convert=float):
    """``convert(value)``, reporting a value it rejects as a config error."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc


def _config_number(doc: dict, key: str, default, convert):
    return _number(doc.get(key, default), f"cluster config: {key!r}", convert)


def run_cluster(doc: dict) -> tuple[QuasiHierarchy, ClusteringResult]:
    """Cluster the dataset a cluster config names.

    Every check that needs no data runs first, so a bad config raises
    :class:`ConfigError` before the dataset is read.
    """
    d = _config_number(doc, "d", 0, int)
    if d < 0:
        raise ConfigError(f"cluster config: 'd' must be >= 0, got {d}")
    th_qh = _config_number(doc, "th_qh", 0.5, float)
    rng_seed = _config_number(doc, "rng_seed", 0, int)
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
    criteria, read_dataset = _dataset_from_config(doc)
    if not criteria:
        raise ConfigError("at least one criterion is required")
    if seed_name == "closest_node":
        seed_func = ClosestNode.from_criteria(criteria)
    else:
        seed_func = RandomNeighbor(rng_seed)

    table, item_labels = read_dataset()
    space = build_basis(table, criteria, mode, labels=item_labels)
    hierarchy = quasistructural_analysis(
        space, table, d, seed_func, th_qh, tie_break=tie_break
    )
    return hierarchy, flatten(hierarchy)


def cmd_cluster(args) -> int:
    doc = _load_json(args.config, "cluster config")
    hierarchy, result = run_cluster(doc)
    out_dir = Path(args.out_dir or doc.get("output_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    result.to_csv(out_dir / "assignment.csv")
    _dump_json(hierarchy.to_json_dict(), out_dir / "hierarchy.json")
    with open(out_dir / "hierarchy.dot", "w") as fh:
        fh.write(hierarchy.to_dot())
    summary = {
        "clusters": len(result.clusters),
        "outliers": len(result.outliers),
        "sets": len(hierarchy.family),
        "roots": len(hierarchy.roots),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


# -- eval -----------------------------------------------------------------


def _read_two_column_csv(path, what: str) -> dict[str, str]:
    try:
        with open(path, newline="") as fh:
            reader = _csv_rows(fh)
            header = next(reader, None)
            if header is None:
                return {}
            out = {}
            seen_at = {}
            for line, row in enumerate(reader, start=2):
                if len(row) < 2:
                    raise ConfigError(f"{what}: malformed row {row!r}")
                if row[0] in out:
                    raise ConfigError(
                        f"{what}: line {line}: item id {row[0]!r} repeats line {seen_at[row[0]]}"
                    )
                out[row[0]] = row[1]
                seen_at[row[0]] = line
            return out
    except OSError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def cmd_eval(args) -> int:
    found = _read_two_column_csv(args.assignment, "assignment csv")
    truth = _read_two_column_csv(args.labels, "labels csv")
    if set(found) != set(truth):
        raise ConfigError("assignment and labels cover different item ids")
    items = list(truth)
    p = Partition(tuple(items), tuple(truth[i] for i in items))
    q = Partition(tuple(items), tuple(found[i] for i in items))
    matrix, rows, cols = confusion_matrix(p, q)
    print(json.dumps({
        "ari": adjusted_rand_index(p, q),
        "confusion": {"matrix": matrix, "rows": rows, "cols": cols},
        "n_items": len(items),
    }, sort_keys=True))
    return 0


# -- render ---------------------------------------------------------------


def svg_scatter(
    positions,
    cluster_ids,
    sizes=None,
    width: int = 640,
    height: int = 480,
) -> str:
    """Static scatter plot: one fill color per cluster, outliers black."""
    margin = 40.0
    xs = [p[0] for p in positions]
    ys = [p[1] for p in positions]
    if positions:
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
    else:
        x0 = y0 = 0.0
        x1 = y1 = 1.0
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    scale = min((width - 2 * margin) / span_x, (height - 2 * margin) / span_y)

    def to_px(p):
        return (
            margin + (p[0] - x0) * scale,
            height - margin - (p[1] - y0) * scale,
        )

    if sizes is not None and sizes:
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


def cmd_render(args) -> int:
    wrote = {}
    if args.svg:
        if not (args.assignment and args.features):
            raise ConfigError("svg output needs --assignment and --features")
        table = FeatureTable.from_csv(args.features)
        if table.positions is None:
            raise ConfigError("scatter rendering needs x,y columns in the features csv")
        assignment = _read_two_column_csv(args.assignment, "assignment csv")
        if len(assignment) != table.n_items:
            raise ConfigError("assignment and features disagree on item count")
        try:
            cluster_ids = [int(assignment[str(i)]) for i in range(table.n_items)]
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"assignment csv: {exc!r}") from exc
        svg = svg_scatter(table.positions, cluster_ids, table.sizes)
        with open(args.svg, "w") as fh:
            fh.write(svg)
        wrote["svg"] = args.svg
    if args.dot:
        if not args.hierarchy:
            raise ConfigError("dot output needs --hierarchy")
        doc = _load_json(args.hierarchy, "hierarchy json")
        try:
            hierarchy = QuasiHierarchy.from_json_dict(doc)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"hierarchy json: {exc!r}") from exc
        with open(args.dot, "w") as fh:
            fh.write(hierarchy.to_dot(min_size=args.min_size))
        wrote["dot"] = args.dot
    if not wrote:
        raise ConfigError("nothing to render: pass --svg and/or --dot")
    print(json.dumps(wrote, sort_keys=True))
    return 0


# -- ingest ---------------------------------------------------------------


def cmd_ingest(args) -> int:
    sites = ingest.load_csv(args.input)
    if not sites:
        raise DataError("input csv contains no readings")
    table = ingest.build_resampled_table(
        sites, tuple(args.resolutions), args.aggregate
    )
    written = table.write_csvs(args.out_dir)
    print(json.dumps({
        "sites": len(table.site_ids),
        "dropped": [list(d) for d in table.dropped],
        "window": list(table.window),
        "buckets": {r: int(table.data[r].shape[1]) for r in table.resolutions},
        "files": written,
    }, sort_keys=True))
    return 0


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
    p.add_argument("--resolutions", nargs="+", default=list(ingest.RESOLUTIONS),
                   choices=list(ingest.RESOLUTIONS))
    p.add_argument("--aggregate", default="mean", choices=["mean", "sum"])
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnicodeDecodeError as exc:
        error, code = ParseError(f"input is not UTF-8 text ({exc})"), 2
    except (ConfigError, ParseError, OSError) as exc:
        error, code = exc, 2
    except DataError as exc:
        error, code = exc, 3
    print(json.dumps({"error": type(error).__name__, "message": str(error)}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
