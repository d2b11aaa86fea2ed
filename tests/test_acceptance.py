"""Acceptance gate: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The slowest gate (9, the 400-site ingestion smoke test) takes
about 12 seconds; everything else finishes in seconds.
"""

import copy
import hashlib
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    all_subsets,
    brute_force_closure,
    random_filter_space,
    random_graph_space,
    random_isotone_space,
    random_prefilter_space,
)
from pretopo import (
    ClosedFamily,
    ElementSet,
    Partition,
    adjusted_rand_index,
    check_additivity,
    check_isotony,
    check_singleton_union,
    confusion_matrix,
    extract_adjacency,
    pseudoclosure_from_prefilter_roundtrip,
)
from pretopo.cli import main as cli_main, plan_cluster, run
from pretopo.datagen import Mix, SeriesCluster, SeriesGenSpec, Sine, Square, generate, generate_series, spec_from_dict

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
TOL = 1e-12


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def load_config(name):
    with open(CONFIG_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def run_clustering(config, rho=None):
    """Run a generate-dataset config through ``plan_cluster`` and ``run``,
    with every pearson threshold set to ``rho`` when given; returns
    (labels, result)."""
    config = copy.deepcopy(config)
    for c in config["criteria"]:
        if c["kind"] == "pearson" and rho is not None:
            c["threshold"] = rho
    _, labels = generate(spec_from_dict(config["dataset"]["spec"]))
    _, result = run(plan_cluster(config))
    return labels, result


def found_partition(result, n):
    return Partition.from_labels([result.assignment.get(i, -1) for i in range(n)])


def test_c1_series_benchmark_ari_one():
    """Seeded 6x30x60 series benchmark: the correlation threshold is picked
    by a sweep over {0.5 .. 0.9}; the calibrated run must reach ARI 1.0 with
    a 6x6 diagonal confusion matrix of 30s, in under 30 seconds."""
    config = load_config("series_benchmark.json")
    sweep = {}
    for rho in (0.5, 0.6, 0.7, 0.8, 0.9):
        labels, result = run_clustering(config, rho=rho)
        truth = Partition.from_labels(labels)
        found = found_partition(result, len(labels))
        sweep[rho] = adjusted_rand_index(truth, found)
    best = max(sweep.values())
    calibrated_rho = min(r for r, v in sweep.items() if v == best)
    assert best == 1.0, f"sweep results {sweep}"
    assert calibrated_rho == config["criteria"][0]["threshold"], (
        "shipped config must pin the calibrated threshold"
    )

    start = time.monotonic()
    labels, result = run_clustering(config, rho=calibrated_rho)
    truth = Partition.from_labels(labels)
    found = found_partition(result, len(labels))
    ari = adjusted_rand_index(truth, found)
    elapsed = time.monotonic() - start
    assert ari == 1.0
    assert len(result.clusters) == 6 and len(result.outliers) == 0

    matrix, _, _ = confusion_matrix(truth, found)
    assert len(matrix) == 6 and all(len(row) == 6 for row in matrix)
    for i, row in enumerate(matrix):
        assert row[i] == 30 and sum(row) == 30
    assert elapsed < 30.0
    report("C1", f"sweep {sweep}, rho={calibrated_rho}, ARI=1.0, {elapsed:.2f}s")


def test_c2_multicriteria_points_with_outlier():
    """Four groups split pairwise by position or size plus one isolate:
    exactly 4 clusters, exactly 1 outlier, ARI 1.0 with the outlier as its
    own label."""
    config = load_config("points_multicriteria.json")
    labels, result = run_clustering(config)
    assert len(result.clusters) == 4
    assert len(result.outliers) == 1
    truth = Partition.from_labels(labels)
    found = found_partition(result, len(labels))
    ari = adjusted_rand_index(truth, found)
    assert ari == 1.0
    report("C2", f"4 clusters, outlier item {result.outliers.members()[0]}, ARI=1.0")


def test_c3_closure_matches_brute_force_oracle():
    """200 random isotone spaces with at most 8 items: iterated closure must
    equal the enumerated smallest closed superset for every subset."""
    rng = random.Random(2024)
    mismatches = 0
    checked = 0
    for _ in range(200):
        space = random_isotone_space(rng, rng.randint(1, 8))
        for a in all_subsets(space.size):
            checked += 1
            if space.closure(a) != brute_force_closure(space, a):
                mismatches += 1
    assert mismatches == 0
    report("C3", f"{checked} closures across 200 spaces, 0 mismatches")


def test_c4_axiom_suite_exhaustive():
    """Exhaustive axioms on 10-item fixtures: empty set fixed, expansion,
    isotony for every kind, singleton-union additivity for graphs, and the
    interior/closure duality."""
    n = 10
    rng = random.Random(99)
    fixtures = [
        random_prefilter_space(rng, n),
        random_filter_space(rng, n),
        random_graph_space(rng, n),
    ]
    for space in fixtures:
        empty = space.universe.empty_set()
        assert space.pseudoclosure(empty) == empty
        for a in all_subsets(n):
            grown = space.pseudoclosure(a)
            assert a.issubset(grown)
            assert space.interior(a) == space.pseudoclosure(a.complement()).complement()
        assert check_isotony(space).ok

    graph = fixtures[2]
    assert check_singleton_union(graph).ok
    assert check_additivity(graph).ok
    report("C4", f"3 fixtures x {1 << n} subsets, all axioms exact")


def test_c5_adjacency_formula_worked_pair():
    """The documented pair (sizes 3 and 5, intersection 2) scores 0.24 one
    way and 10/9 the other, and containment always scores the parent at
    least 1."""
    family = ClosedFamily(
        [ElementSet.from_members(7, [1, 2, 3]), ElementSet.from_members(7, [2, 3, 4, 5, 6])]
    )
    adj = extract_adjacency(family)
    assert abs(adj[0, 1] - 0.24) < TOL
    assert abs(adj[1, 0] - 10.0 / 9.0) < TOL

    rng = random.Random(5)
    containments = 0
    for _ in range(200):
        small_mask = rng.getrandbits(10) | 1
        big_mask = small_mask | rng.getrandbits(10)
        if big_mask == small_mask:
            continue
        fam = ClosedFamily([ElementSet(10, small_mask), ElementSet(10, big_mask)])
        a = extract_adjacency(fam)
        assert a[1, 0] >= 1.0 - TOL
        containments += 1
    report("C5", f"worked entries exact, {containments} containment pairs >= 1")


def test_c6_prefilter_roundtrip_identity():
    """Operator -> recovered neighborhoods -> operator is the identity on
    every subset, for isotone fixtures of every kind up to 6 items."""
    rng = random.Random(606)
    count = 0
    for n in range(1, 7):
        for builder in (random_prefilter_space, random_filter_space, random_graph_space):
            for _ in range(4):
                assert pseudoclosure_from_prefilter_roundtrip(builder(rng, n))
                count += 1
    report("C6", f"{count} spaces reconstructed exactly")


def test_c7_ari_properties_and_oracle():
    """Adjusted Rand index: symmetry, label-permutation invariance, the two
    boundary cases, and agreement with brute-force pair counting within
    1e-12 on 100 random partition pairs."""

    def oracle(lp, lq):
        a = b = c = d = 0
        for i, j in itertools.combinations(range(len(lp)), 2):
            sp, sq = lp[i] == lp[j], lq[i] == lq[j]
            if sp and sq:
                a += 1
            elif sp:
                b += 1
            elif sq:
                c += 1
            else:
                d += 1
        denom = (a + b) * (b + d) + (a + c) * (c + d)
        return 1.0 if denom == 0 else float(Fraction(2 * (a * d - b * c), denom))

    ident = Partition.from_labels([0, 0, 1, 1, 2])
    assert adjusted_rand_index(ident, ident) == 1.0
    assert adjusted_rand_index(
        Partition.from_labels([9, 9, 9, 9]), Partition.from_labels([0, 1, 2, 3])
    ) == pytest.approx(0.0, abs=TOL)

    rng = random.Random(77)
    max_diff = 0.0
    for _ in range(100):
        n = rng.randint(2, 12)
        lp = [rng.randint(0, 3) for _ in range(n)]
        lq = [rng.randint(0, 3) for _ in range(n)]
        p, q = Partition.from_labels(lp), Partition.from_labels(lq)
        ours = adjusted_rand_index(p, q)
        assert ours == adjusted_rand_index(q, p)
        perm = {v: (v * 7 + 3) % 11 for v in set(lp)}
        assert ours == adjusted_rand_index(Partition.from_labels([perm[v] for v in lp]), q)
        max_diff = max(max_diff, abs(ours - oracle(lp, lq)))
    assert max_diff < TOL
    report("C7", f"100 oracle pairs, max diff {max_diff:.2e}")


def test_c8_pipeline_determinism(tmp_path, capsys):
    """Two identical CLI runs produce byte-identical assignment csv,
    hierarchy json and scatter svg."""
    config = str(CONFIG_DIR / "points_multicriteria.json")
    blobs = {}
    for tag in ("first", "second"):
        out_dir = tmp_path / tag
        assert cli_main(["cluster", "--config", config, "--out-dir", str(out_dir)]) == 0
        # features regenerate deterministically for the scatter input
        spec = load_config("points_multicriteria.json")["dataset"]["spec"]
        spec_path = tmp_path / f"{tag}_spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        data_dir = tmp_path / f"{tag}_data"
        assert cli_main(["generate", "--spec", str(spec_path), "--out-dir", str(data_dir)]) == 0
        svg = tmp_path / f"{tag}.svg"
        assert cli_main([
            "render", "--assignment", str(out_dir / "assignment.csv"),
            "--features", str(data_dir / "features.csv"), "--svg", str(svg),
        ]) == 0
        blobs[tag] = (
            (out_dir / "assignment.csv").read_bytes(),
            (out_dir / "hierarchy.json").read_bytes(),
            svg.read_bytes(),
        )
    capsys.readouterr()
    assert blobs["first"] == blobs["second"]
    report("C8", "assignment.csv, hierarchy.json and svg byte-identical")


def _consumption_spec(n_sites=400, length=17520, seed=777):
    """Year-long half-hour profiles in three families: twin daily peaks,
    a half-day plateau, and a flat day with a weekly dip; each family gets
    its own annual phase."""

    def annual(phase_frac):
        return Sine(period=float(length), amplitude=0.6, offset=5.0,
                    phase=phase_frac * length)

    shapes = [
        Mix((Sine(period=24.0, amplitude=1.0), annual(0.0))),
        Mix((Square(period=48.0, amplitude=1.0, duty=0.5), annual(1.0 / 3.0))),
        Mix((Square(period=336.0, amplitude=1.0, duty=5.0 / 7.0), annual(2.0 / 3.0))),
    ]
    counts = [n_sites - 2 * (n_sites // 3), n_sites // 3, n_sites // 3]
    return SeriesGenSpec(
        clusters=tuple(
            SeriesCluster(c, length, s, 0.2) for c, s in zip(counts, shapes)
        ),
        rng_seed=seed,
    )


def test_c9_ingestion_scale_smoke(tmp_path):
    """400 synthetic sites, one year at half-hour sampling: write the raw
    csv, then load, resample at all four resolutions and cluster it through
    ``plan_cluster`` and ``run`` (a ``raw_series`` config, as ``pretopo
    cluster`` runs it) in under 5 minutes, recovering the three generating
    shapes with ARI >= 0.95."""
    spec = _consumption_spec()
    table, labels = generate_series(spec)
    n = table.n_items
    start_epoch = 1609459200  # 2021-01-01T00:00:00Z
    raw_path = tmp_path / "raw.csv"
    stamps = [f",{start_epoch + t * 1800}," for t in range(len(table.series[0]))]
    with open(raw_path, "w", encoding="utf-8") as fh:
        fh.write("site_id,timestamp,value\n")
        for i in range(n):
            # one "site,<epoch>,<value>" row per reading, formatted in one step
            site = f"site_{i:03d}"
            fh.write("".join(site + stamp + "%.4f\n" for stamp in stamps) % tuple(table.series[i]))
    # the fixture's bytes are pinned, so a change to the writer cannot go unnoticed
    assert hashlib.sha256(raw_path.read_bytes()).hexdigest() == (
        "f18488550a667a60460bf59d95e8c2cd53063d8f32c6e541f1034d9d70011900"
    )

    # the same wiring as a `pretopo cluster` run of this config
    start = time.monotonic()
    plan = plan_cluster({
        "dataset": {"kind": "raw_series", "path": str(raw_path), "rho": 0.8},
        "d": 2, "seed_func": "random_neighbor", "th_qh": 0.5, "rng_seed": 31,
    })
    assert [c.channel for c in plan.criteria] == ["half_hour", "day", "week", "month"]
    hierarchy, result = run(plan)
    elapsed = time.monotonic() - start
    assert hierarchy.universe.size == 400

    truth = Partition.from_labels(labels)
    found = found_partition(result, n)
    ari = adjusted_rand_index(truth, found)
    assert elapsed < 300.0
    assert len(result.clusters) == 3
    assert ari >= 0.95
    report("C9", f"ARI={ari:.3f}, load, resample and cluster {elapsed:.0f}s")
