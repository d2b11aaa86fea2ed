"""Traced run of ``pretopo cluster``: one span around each library call.

Calls the public functions of ``ingest``, ``similarity`` and ``hierarchy``
in the order ``cli.cmd_cluster`` (through ``quasistructural_analysis``)
does, writes the same three outputs through the same public writers, and
dumps the spans and the counters read off each call's return value as JSON.
Counters are computed outside the spans they describe.

    python3 perfbench/traced.py CONFIG OUT_DIR TRACE_JSON

Only the ``features`` and ``raw_series`` dataset kinds with at least one
item are mirrored; those are what the workloads feed the CLI.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from pretopo import hierarchy, ingest  # noqa: E402
from pretopo.cli import criterion_from_dict  # noqa: E402
from pretopo.similarity import FeatureTable, build_basis  # noqa: E402

OUTPUTS = ("assignment.csv", "hierarchy.json", "hierarchy.dot")


def load_dataset(dataset: dict, tracer: Tracer):
    """Returns (feature table, criteria or None, item labels or None)."""
    if dataset["kind"] == "features":
        with tracer.span("similarity.from_csv"):
            table = FeatureTable.from_csv(dataset["path"])
        return table, None, None
    path = dataset["path"]
    with tracer.span("ingest.load_csv"):
        sites = ingest.load_csv(path)
    tracer.count("ingest.rows", sum(len(s.timestamps) for s in sites))
    tracer.count("ingest.bytes", Path(path).stat().st_size)
    with tracer.span("ingest.resample"):
        table = ingest.build_resampled_table(
            sites,
            tuple(dataset.get("resolutions", ingest.RESOLUTIONS)),
            dataset.get("aggregate", "mean"),
        )
    buckets = sum(matrix.shape[1] for matrix in table.data.values())
    tracer.count("ingest.cells", len(table.site_ids) * buckets)
    tracer.count("ingest.dropped_sites", len(table.dropped))
    criteria = ingest.build_resolution_criteria(table, dataset["rho"])
    return table.as_feature_table(), criteria, list(table.site_ids)


def cluster(config: dict, out_dir: Path, tracer: Tracer) -> None:
    table, criteria, item_labels = load_dataset(config["dataset"], tracer)
    if criteria is None:
        criteria = [criterion_from_dict(c) for c in config.get("criteria", [])]
    mode = config.get("mode", "prefilter")
    d = int(config.get("d", 0))
    th_qh = float(config.get("th_qh", 0.5))
    rng_seed = int(config.get("rng_seed", 0))
    tie_break = config.get("equivalence_tie_break", "lowest_index")
    n = table.n_items

    with tracer.span("similarity.build_basis"):
        space = build_basis(table, criteria, mode, labels=item_labels)
    balls = [len(ball) for row in space.basis.sets for ball in row]
    tracer.count("similarity.ball_mean", sum(balls) / len(balls))
    tracer.count("similarity.matrix_bytes", len(criteria) * n * n * 8)

    if config.get("seed_func", "closest_node") == "closest_node":
        seed_func = hierarchy.ClosestNode.from_criteria(criteria)
    else:
        seed_func = hierarchy.RandomNeighbor(rng_seed)
    with tracer.span("hierarchy.seeds"):
        seeds = hierarchy.elementary_quasiclosures(space, table, d, seed_func)
    tracer.count("hierarchy.seed_mean", sum(len(s.members) for s in seeds) / len(seeds))

    with tracer.span("hierarchy.closed"):
        family = hierarchy.elementary_closed_subsets(space, seeds)
    m = len(family)
    tracer.count("hierarchy.family_m", m)

    with tracer.span("hierarchy.adjacency"):
        adjacency = hierarchy.extract_adjacency(family)
    pairs = m * (m - 1) // 2
    # a pair that intersects scores > 0 in both directions
    intersecting = int(np.count_nonzero(adjacency)) // 2
    tracer.count("hierarchy.adjacency_pairs", pairs)
    tracer.count("hierarchy.adjacency_useful", intersecting / pairs if pairs else 0.0)
    tracer.count("hierarchy.adjacency_bytes", m * m * 8)

    with tracer.span("hierarchy.quasihierarchy"):
        qh = hierarchy.extract_quasihierarchy(
            family, adjacency, th_qh, universe=space.universe, tie_break=tie_break
        )
    tracer.count("hierarchy.survivors_k", len(qh.family))
    tracer.count("hierarchy.edges", len(qh.parent_edges))
    tracer.count("hierarchy.roots", len(qh.roots))

    with tracer.span("hierarchy.flatten"):
        result = hierarchy.flatten(qh)
    tracer.count("hierarchy.clusters", len(result.clusters))
    tracer.count("hierarchy.outliers", len(result.outliers))

    with tracer.span("cli.write_outputs"):
        out_dir.mkdir(parents=True, exist_ok=True)
        result.to_csv(out_dir / "assignment.csv")
        with open(out_dir / "hierarchy.json", "w") as fh:
            json.dump(qh.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        with open(out_dir / "hierarchy.dot", "w") as fh:
            fh.write(qh.to_dot())
    tracer.count("cli.output_bytes", sum((out_dir / f).stat().st_size for f in OUTPUTS))


def main(argv: list[str]) -> int:
    config_path, out_dir, trace_path = argv
    tracer = Tracer()
    with tracer.span("cli.cluster"):
        cluster(json.loads(Path(config_path).read_text()), Path(out_dir), tracer)
    Path(trace_path).write_text(json.dumps(tracer.to_json_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
