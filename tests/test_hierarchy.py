import hashlib
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    all_subsets,
    brute_force_closest_walk,
    brute_force_closure,
    brute_force_pairwise_matrix,
    brute_force_random_walk,
    random_graph_space,
    random_isotone_space,
    random_prefilter_space,
)
from pretopo import (
    ClosedFamily,
    ClosestNode,
    ConfigError,
    ElementSet,
    EuclideanBall,
    FeatureTable,
    GraphSpace,
    PearsonBall,
    QuasiHierarchy,
    RandomNeighbor,
    Seed,
    SizeBall,
    Universe,
    build_basis,
    datagen,
    elementary_closed_subsets,
    elementary_quasiclosures,
    extract_adjacency,
    extract_quasihierarchy,
    flatten,
    quasistructural_analysis,
)

TOL = 1e-12
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def line_table():
    return FeatureTable(positions=[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (10.0, 0.0)])


def line_space():
    return build_basis(line_table(), [EuclideanBall(1.5)])


class TestFindNeighbors:
    def test_zero_steps(self):
        assert ClosestNode(EuclideanBall(1.5)).walker(line_space(), line_table(), 0)(0) == []

    def test_closest_walk_on_line(self):
        path = ClosestNode(EuclideanBall(1.5)).walker(line_space(), line_table(), 2)(0)
        assert path == [1, 2]

    def test_walk_never_revisits(self):
        path = ClosestNode(EuclideanBall(1.5)).walker(line_space(), line_table(), 3)(1)
        assert sorted(path + [1]) == [0, 1, 2, 3]

    def test_random_walk_reproducible(self):
        space, table = line_space(), line_table()
        first = RandomNeighbor(99).walker(space, table, 3)(2)
        second = RandomNeighbor(99).walker(space, table, 3)(2)
        assert first == second

    def test_random_walk_stays_in_neighbor_structure(self):
        space, table = line_space(), line_table()
        # item 3 has no neighbors within the ball, so the walk halts at once
        assert RandomNeighbor(1).walker(space, table, 5)(3) == []

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 130])
    def test_random_walk_matches_candidate_list_draw(self, n):
        rng = random.Random(n)
        for space in (random_prefilter_space(rng, n), random_graph_space(rng, n, p=0.05)):
            for rng_seed in (0, 7):
                for x in range(n):
                    assert RandomNeighbor(rng_seed).walker(space, None, 4)(x) == (
                        brute_force_random_walk(space, x, 4, rng_seed)
                    )

    @pytest.mark.parametrize("d", [2, 5])
    def test_random_walk_on_series_benchmark_matches_candidate_list_draw(self, d):
        config = json.loads((CONFIG_DIR / "series_benchmark.json").read_text())
        table, _ = datagen.generate(datagen.spec_from_dict(config["dataset"]["spec"]))
        space = build_basis(table, [PearsonBall(config["criteria"][0]["threshold"])])
        rng_seed = config["rng_seed"]
        seeds = elementary_quasiclosures(space, table, d, RandomNeighbor(rng_seed))
        assert [seed.members.members() for seed in seeds] == [
            sorted([x, *brute_force_random_walk(space, x, d, rng_seed)]) for x in range(space.size)
        ]

    def test_closest_node_requires_distance_criterion(self):
        with pytest.raises(ConfigError):
            ClosestNode(PearsonBall(0.5))
        with pytest.raises(ConfigError):
            ClosestNode.from_criteria([PearsonBall(0.5)])
        assert ClosestNode.from_criteria([PearsonBall(0.5), SizeBall(1.0)]).criterion == SizeBall(1.0)

    def test_shorter_path_when_universe_exhausted(self):
        path = ClosestNode(EuclideanBall(1.5)).walker(line_space(), line_table(), 99)(0)
        assert len(path) == 3


def walk_table(rng, n, ties):
    """Positions and sizes drawn at random, or from a few repeated values
    so that many distances tie exactly."""
    if ties:
        positions = [tuple(map(float, rng.integers(0, 3, 2))) for _ in range(n)]
        sizes = rng.integers(0, 3, n).astype(float).tolist()
    else:
        positions = [tuple(rng.uniform(0.0, 6.0, 2)) for _ in range(n)]
        sizes = rng.uniform(0.0, 10.0, n).tolist()
    return FeatureTable(positions=positions, sizes=sizes)


class TestClosestWalkOracle:
    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("criterion", [EuclideanBall(1.0), SizeBall(0.5)])
    def test_every_origin_matches_scalar_scan(self, n, ties, criterion):
        table = walk_table(np.random.default_rng(n), n, ties)
        space = build_basis(table, [criterion])
        matrix = brute_force_pairwise_matrix(table, criterion).tolist()
        for d in (1, 2, 4):
            seeds = elementary_quasiclosures(space, table, d, ClosestNode(criterion))
            for x in range(n):
                want = brute_force_closest_walk(matrix, x, d)
                assert ClosestNode(criterion).walker(space, table, d)(x) == want
                assert seeds[x].members.members() == sorted([x, *want])

    def test_ties_go_to_lowest_index(self):
        table = FeatureTable(positions=[(0.0, 0.0), (5.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (1.0, 0.0)])
        space = build_basis(table, [EuclideanBall(1.0)])
        assert ClosestNode(EuclideanBall(1.0)).walker(space, table, 2)(0) == [2, 4]

    def test_non_finite_distances_never_chosen(self):
        # finite positions 3e308 apart are at distance inf: beyond the float range
        table = FeatureTable(positions=[(0.0, 0.0), (1.5e308, 0.0), (-1.5e308, 0.0), (3.0, 0.0)])
        criterion = EuclideanBall(1.0)
        space = build_basis(table, [criterion])
        with np.errstate(over="ignore"):
            matrix = brute_force_pairwise_matrix(table, criterion).tolist()
        assert matrix[1] == [1.5e308, 0.0, math.inf, 1.5e308]
        for x in range(4):
            path = ClosestNode(criterion).walker(space, table, 3)(x)
            assert path == brute_force_closest_walk(matrix, x, 3)
        assert ClosestNode(criterion).walker(space, table, 3)(0) == [3, 1]

    def test_rows_built_once_per_seed_pass(self, monkeypatch):
        space = line_space()  # its balls read the rows too: built before counting
        calls = []
        real = EuclideanBall.rows
        monkeypatch.setattr(EuclideanBall, "rows", lambda *a: calls.append(a) or real(*a))
        seeds = elementary_quasiclosures(space, line_table(), 2, ClosestNode(EuclideanBall(1.5)))
        assert len(seeds) == 4 and len(calls) == 1

    @pytest.mark.parametrize("ties", [False, True])
    def test_walk_exhausts_universe(self, ties):
        n = 12
        table = walk_table(np.random.default_rng(3), n, ties)
        space = build_basis(table, [SizeBall(0.5)])
        matrix = brute_force_pairwise_matrix(table, SizeBall(0.5)).tolist()
        for x in range(n):
            path = ClosestNode(SizeBall(0.5)).walker(space, table, n + 5)(x)
            assert sorted([x, *path]) == list(range(n))
            assert path == brute_force_closest_walk(matrix, x, n + 5)


class TestElementaryQuasiclosures:
    def test_one_seed_per_item(self):
        seeds = elementary_quasiclosures(line_space(), line_table(), 1, ClosestNode(EuclideanBall(1.5)))
        assert [s.origin for s in seeds] == [0, 1, 2, 3]

    def test_zero_degree_gives_singletons(self):
        seeds = elementary_quasiclosures(line_space(), line_table(), 0, RandomNeighbor(0))
        assert all(s.members.members() == [s.origin] for s in seeds)

    def test_far_item_seeds_with_its_nearest(self):
        seeds = elementary_quasiclosures(line_space(), line_table(), 1, ClosestNode(EuclideanBall(1.5)))
        assert seeds[3].members.members() == [2, 3]

    def test_seed_contains_origin(self):
        with pytest.raises(ValueError):
            Seed(0, ElementSet.from_members(3, [1]))


def family_of(n, *member_lists):
    return ClosedFamily(ElementSet.from_members(n, m) for m in member_lists)


class TestElementaryClosedSubsets:
    def test_closed_seeds_pass_through_deduplicated(self):
        g = GraphSpace(Universe.of_size(4), [[], [], [], []])
        # duplicate member sets collapse even when origins differ
        seeds = [Seed(0, ElementSet.from_members(4, [0, 1])),
                 Seed(1, ElementSet.from_members(4, [0, 1])),
                 Seed(2, ElementSet.from_members(4, [2]))]
        family = elementary_closed_subsets(g, seeds)
        assert [s.members() for s in family] == [[2], [0, 1]]

    def test_chain_records_intermediates(self):
        g = GraphSpace(Universe.of_size(5), [[], [2], [3], [], []])
        family = elementary_closed_subsets(g, [Seed(1, ElementSet.from_members(5, [1]))])
        assert [s.members() for s in family] == [[1], [1, 2], [1, 2, 3]]

    def test_shared_chains_stored_once(self):
        g = GraphSpace(Universe.of_size(4), [[1], [0], [], []])
        seeds = [Seed(0, ElementSet.from_members(4, [0, 1])), Seed(1, ElementSet.from_members(4, [0, 1]))]
        family = elementary_closed_subsets(g, seeds)
        assert [s.members() for s in family] == [[0, 1]]

    def test_canonical_order(self):
        g = GraphSpace(Universe.of_size(4), [[], [], [], []])
        seeds = [Seed(3, ElementSet.from_members(4, [3, 0])), Seed(1, ElementSet.from_members(4, [1]))]
        family = elementary_closed_subsets(g, seeds)
        assert [s.members() for s in family] == [[1], [0, 3]]

    def test_every_pseudoclosure_call_lands_in_bigger_bucket(self):
        rng = random.Random(19)
        for _ in range(20):
            space = random_isotone_space(rng, 6)
            seeds = [Seed(x, ElementSet.from_members(6, [x])) for x in range(6)]
            family = elementary_closed_subsets(space, seeds)
            # each family member's closure chain is inside the family
            for s in family:
                grown = space.pseudoclosure(s)
                if grown != s:
                    assert grown in list(family)


class TestExtractAdjacency:
    def test_disjoint_pairs_stay_zero(self):
        family = family_of(6, [0, 1], [2, 3], [4, 5])
        adj = extract_adjacency(family)
        assert np.count_nonzero(adj) == 0

    def test_worked_pair(self):
        # F = {1,2,3}, G = {2,3,4,5,6}: intersection 2, sizes 3 and 5
        family = family_of(7, [1, 2, 3], [2, 3, 4, 5, 6])
        adj = extract_adjacency(family)
        f, g = 0, 1  # canonical order puts the smaller set first
        assert adj[f, g] == pytest.approx(0.24, abs=TOL)
        assert adj[g, f] == pytest.approx(10.0 / 9.0, abs=TOL)

    def test_containment_parent_entry_at_least_one(self):
        family = family_of(6, [0, 1], [0, 1, 2, 3])
        adj = extract_adjacency(family)
        assert adj[1, 0] == pytest.approx(2.0, abs=TOL)  # (4/2)*(2/2)
        assert adj[0, 1] == pytest.approx(0.25, abs=TOL)  # (2/4)*(2/4)
        rng = random.Random(29)
        for _ in range(50):
            small = rng.getrandbits(8) | 1
            extra = rng.getrandbits(8)
            big = small | extra
            if big == small:
                continue
            fam = ClosedFamily([ElementSet(8, small), ElementSet(8, big)])
            a = extract_adjacency(fam)
            assert a[1, 0] >= 1.0 - TOL

    def test_diagonal_zero(self):
        family = family_of(4, [0, 1], [1, 2])
        adj = extract_adjacency(family)
        assert adj[0, 0] == 0 and adj[1, 1] == 0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            ClosedFamily([ElementSet(3, 0), ElementSet.from_members(3, [0])])

    @pytest.mark.parametrize("sets", [
        [ElementSet(3, 0b11), ElementSet(5, 0b11000)],
        [ElementSet(3, 0b11), ElementSet(5, 0b11)],
    ], ids=["distinct-masks", "one-mask"])
    def test_sets_of_two_universes_rejected(self, sets):
        with pytest.raises(ValueError, match="^a closed family holds non-empty sets of one universe$"):
            ClosedFamily(sets)


class TestExtractQuasihierarchy:
    def test_threshold_validation(self):
        family = family_of(2, [0], [1])
        adj = extract_adjacency(family)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                extract_quasihierarchy(family, adj, bad)

    def test_disjoint_sets_all_roots(self):
        family = family_of(6, [0, 1], [2, 3], [4, 5])
        h = extract_quasihierarchy(family, extract_adjacency(family), 0.5)
        assert h.parent_edges == []
        assert h.roots == [0, 1, 2]

    def test_containment_gives_parent_edge(self):
        # sizes 2 and 6: the small side's mutual relation is (2/6)^2 < 0.5,
        # so no equivalence, and the big set becomes the parent
        family = family_of(7, [0, 1], [0, 1, 2, 3, 4, 5])
        h = extract_quasihierarchy(family, extract_adjacency(family), 0.5)
        assert [s.members() for s in h.family] == [[0, 1], [0, 1, 2, 3, 4, 5]]
        assert [(p, c) for p, c, _ in h.parent_edges] == [(1, 0)]
        assert h.roots == [1]

    def test_mutual_relation_keeps_largest(self):
        # sizes 2 and 3 with full containment: mutual at th 0.4, keep size 3
        family = family_of(4, [0, 1], [0, 1, 2])
        h = extract_quasihierarchy(family, extract_adjacency(family), 0.4)
        assert [s.members() for s in h.family] == [[0, 1, 2]]
        assert h.roots == [0]

    def test_equal_size_tie_keeps_lowest_canonical_index(self):
        family = family_of(4, [0, 1, 2], [1, 2, 3])
        adj = extract_adjacency(family)
        assert adj[0, 1] == pytest.approx(2.0 / 3.0, abs=TOL)
        h = extract_quasihierarchy(family, adj, 0.5)
        assert [s.members() for s in h.family] == [[0, 1, 2]]

    def test_random_tie_break_is_seeded(self):
        family = family_of(4, [0, 1, 2], [1, 2, 3])
        adj = extract_adjacency(family)
        picks = {
            tuple(
                s.members()[0]
                for s in extract_quasihierarchy(
                    family, adj, 0.5, tie_break="random", tie_rng_seed=seed
                ).family
            )
            for seed in range(10)
        }
        assert len(picks) == 2  # both sets win under some seed

    def test_surviving_containments_always_linked(self):
        rng = random.Random(37)
        for _ in range(30):
            masks = {rng.getrandbits(6) for _ in range(5)}
            masks.discard(0)
            if not masks:
                continue
            family = ClosedFamily(ElementSet(6, m) for m in masks)
            h = extract_quasihierarchy(family, extract_adjacency(family), 0.7)
            edges = {(p, c) for p, c, _ in h.parent_edges}
            for i, small in enumerate(h.family):
                for j, big in enumerate(h.family):
                    if i != j and small.issubset(big) and len(small) < len(big):
                        assert (j, i) in edges


class TestQuasistructuralAnalysis:
    def test_random_tie_break_takes_its_own_seed(self):
        """The shipped series config with a random tie-break: the pick draws
        from tie_rng_seed, 0 whether passed or by default, not from the
        walk's seed (11)."""
        config = json.loads((CONFIG_DIR / "series_benchmark.json").read_text())
        table, _ = datagen.generate(datagen.spec_from_dict(config["dataset"]["spec"]))
        space = build_basis(table, [PearsonBall(config["criteria"][0]["threshold"])])
        walk = RandomNeighbor(config["rng_seed"])
        digests = {
            hashlib.sha256(quasistructural_analysis(
                space, table, config["d"], walk, config["th_qh"], "random", *seed
            ).to_json().encode()).hexdigest()
            for seed in ((), (0,))
        }
        assert digests == {"1afaa01bf855e8620712a064e70a9a244c8fde5cd04a49531500268313ae8bfa"}

    def test_empty_universe(self):
        table = FeatureTable(positions=[])
        space = build_basis(table, [EuclideanBall(1.0)])
        h = quasistructural_analysis(space, table, 0, RandomNeighbor(0), 0.5)
        assert len(h.family) == 0 and h.roots == []
        assert flatten(h).clusters == []

    def test_single_item(self):
        table = FeatureTable(positions=[(0.0, 0.0)])
        space = build_basis(table, [EuclideanBall(1.0)])
        h = quasistructural_analysis(space, table, 0, ClosestNode(EuclideanBall(1.0)), 0.5)
        assert len(h.roots) == 1
        assert h.family[h.roots[0]].members() == [0]

    def test_two_well_separated_groups(self):
        table = FeatureTable(positions=[(0, 0), (1, 0), (10, 0), (11, 0)])
        space = build_basis(table, [EuclideanBall(2.0)])
        h = quasistructural_analysis(space, table, 0, ClosestNode(EuclideanBall(2.0)), 0.5)
        roots = sorted(h.family[r].members() for r in h.roots)
        assert roots == [[0, 1], [2, 3]]

    def test_roots_are_closed_in_isotone_spaces(self):
        rng = random.Random(41)
        for _ in range(25):
            space = random_isotone_space(rng, 7)
            seeds = elementary_quasiclosures(space, None, 2, RandomNeighbor(7))
            family = elementary_closed_subsets(space, seeds)
            h = extract_quasihierarchy(family, extract_adjacency(family), 0.5, universe=space.universe)
            for r in h.roots:
                root = h.family[r]
                assert space.pseudoclosure(root) == root

    def test_exhaustive_seed_roots_match_brute_force_closures(self):
        # th 1.0 rules out equivalent pairs (mutual relations of distinct
        # sets multiply to < 1), so the hierarchy is the pure chain
        # structure and every root must be a completed closure of a seed
        rng = random.Random(43)
        for _ in range(15):
            n = rng.randint(2, 8)
            space = random_isotone_space(rng, n)
            seeds = elementary_quasiclosures(space, None, n - 1, RandomNeighbor(rng.randint(0, 99)))
            family = elementary_closed_subsets(space, seeds)
            h = extract_quasihierarchy(family, extract_adjacency(family), 1.0, universe=space.universe)
            oracle_closures = {brute_force_closure(space, s.members).mask for s in seeds}
            for r in h.roots:
                assert h.family[r].mask in oracle_closures

    def test_scoring_never_holds_an_m_by_m_matrix(self):
        # the points-dense benchmark's shape: 4 x 150 points, m ~ 3,000 sets
        groups = [((0, 0), (1, 2)), ((10, 0), (8, 10)), ((30, 0), (8, 10)), ((10, 25), (4, 5))]
        spec = datagen.PointGenSpec(rng_seed=1, groups=tuple(
            datagen.PointGroup(150, center, 2.0, sizes) for center, sizes in groups
        ))
        table, _ = datagen.generate(spec)
        space = build_basis(table, [EuclideanBall(1.0), SizeBall(0.5)])
        seed_func = ClosestNode(EuclideanBall(1.0))
        family = elementary_closed_subsets(
            space, elementary_quasiclosures(space, table, 0, seed_func)
        )
        m = len(family)
        assert m > 2500

        def peak_bytes(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bound = m * m * 8 / 4
        assert peak_bytes(lambda: quasistructural_analysis(space, table, 0, seed_func, 0.5)) < bound
        # the bound does tell the two apart
        assert peak_bytes(lambda: extract_adjacency(family)) > bound


class TestFlatten:
    def test_disjoint_roots_assign_everything(self):
        table = FeatureTable(positions=[(0, 0), (1, 0), (10, 0), (11, 0)])
        space = build_basis(table, [EuclideanBall(2.0)])
        res = flatten(quasistructural_analysis(space, table, 0, RandomNeighbor(0), 0.5))
        assert len(res.clusters) == 2
        assert sorted(res.assignment) == [0, 1, 2, 3]
        assert len(res.outliers) == 0
        for item, cid in res.assignment.items():
            assert item in res.clusters[cid]

    def test_singleton_root_becomes_outlier(self):
        table = FeatureTable(positions=[(0, 0), (1, 0), (50, 0)])
        space = build_basis(table, [EuclideanBall(2.0)])
        res = flatten(quasistructural_analysis(space, table, 0, RandomNeighbor(0), 0.5))
        assert len(res.clusters) == 1
        assert res.outliers.members() == [2]
        assert 2 not in res.assignment

    def test_universe_root_replaced_by_children(self):
        # one dense blob: the whole universe closes, so the flat cut drops to
        # the children of that root
        family = family_of(4, [0, 1], [2, 3], [0, 1, 2, 3])
        h = extract_quasihierarchy(family, extract_adjacency(family), 0.9,
                                   universe=Universe.of_size(4))
        assert [s.members() for s in (h.family[r] for r in h.roots)] == [[0, 1, 2, 3]]
        res = flatten(h)
        assert sorted(c.members() for c in res.clusters) == [[0, 1], [2, 3]]

    def test_overlapping_roots_smallest_wins(self):
        # overlap of one item is too weak for any edge at th 0.5, so both
        # sets stay roots and the shared item goes to the smaller one
        family = family_of(6, [0, 1, 2], [2, 3, 4, 5])
        h = extract_quasihierarchy(family, extract_adjacency(family), 0.5,
                                   universe=Universe.of_size(6))
        assert len(h.roots) == 2
        res = flatten(h)
        assert res.assignment[2] == 0  # the three-element cluster
        assert res.assignment[3] == 1


class TestDeterminismAndExport:
    def _run(self):
        table = FeatureTable(
            positions=[(0, 0), (1, 0), (0.5, 1), (10, 0), (11, 0), (10.5, 1)],
            sizes=[1, 1.2, 1.1, 5, 5.2, 5.1],
        )
        space = build_basis(table, [EuclideanBall(2.0), SizeBall(1.0)])
        h = quasistructural_analysis(space, table, 1, ClosestNode(EuclideanBall(2.0)), 0.5)
        return h, flatten(h)

    def test_repeat_runs_identical(self):
        h1, r1 = self._run()
        h2, r2 = self._run()
        assert json.dumps(h1.to_json_dict(), sort_keys=True) == json.dumps(h2.to_json_dict(), sort_keys=True)
        assert r1.assignment == r2.assignment
        assert r1.outliers == r2.outliers

    def test_json_round_trip(self):
        h, _ = self._run()
        doc = json.loads(json.dumps(h.to_json_dict()))
        back = QuasiHierarchy.from_json_dict(doc)
        assert back.to_json_dict() == h.to_json_dict()

    def test_dot_output(self):
        family = family_of(6, [0, 1, 2], [0, 1, 2, 3, 4, 5], [4])
        h = extract_quasihierarchy(family, extract_adjacency(family), 0.9,
                                   universe=Universe.of_size(6))
        dot = h.to_dot()
        assert "n0 -> " not in dot  # size-3 set has no child in the rendering
        assert dot.count("->") == len([e for e in h.parent_edges])
        filtered = h.to_dot(min_size=3)
        assert "(n=1)" not in filtered
        assert "(n=3)" in filtered

    def test_assignment_csv(self, tmp_path):
        _, res = self._run()
        path = tmp_path / "assignment.csv"
        res.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "item_id,cluster_id"
        assert len(rows) == 7


GOOD_HIERARCHY = {"schema_version": 1, "threshold": 0.5, "universe_size": 3,
                  "sets": [[0], [0, 1]], "edges": [[1, 0, 1.0]], "roots": [1]}


@pytest.mark.parametrize("edit", [
    {"universe_size": None},
    {"sets": None},
    {"threshold": None},
    {"sets": [[0], [0, 3]]},
    {"edges": [[1, 0]]},
    {"edges": [[1, 0, 1.0, 2]]},
    {"sets": [0, 1]},
    {"roots": 1},
    {"universe_size": -1},
    {"schema_version": 99},
], ids=["missing-universe-size", "missing-sets", "missing-threshold", "member-out-of-range",
        "edge-of-two-numbers", "edge-of-four-numbers", "set-not-a-list", "roots-not-a-list",
        "negative-universe-size", "unsupported-schema-version"])
def test_malformed_hierarchy_json_raises_config_error(edit):
    doc = {k: v for k, v in {**GOOD_HIERARCHY, **edit}.items() if v is not None}
    with pytest.raises(ConfigError, match="^hierarchy json[: ]"):
        QuasiHierarchy.from_json_dict(doc)


def test_empty_set_in_hierarchy_json_is_refused_by_the_family():
    doc = dict(GOOD_HIERARCHY, sets=[[], [0]])
    with pytest.raises(ConfigError) as exc_info:
        QuasiHierarchy.from_json_dict(doc)
    assert str(exc_info.value) == (
        "hierarchy json: ValueError('a closed family holds non-empty sets of one universe')"
    )


def test_empty_hierarchy_json_names_the_missing_key():
    with pytest.raises(ConfigError) as exc_info:
        QuasiHierarchy.from_json_dict({})
    assert str(exc_info.value) == "hierarchy json is missing 'universe_size'"


def test_to_json_is_the_file_text():
    h = QuasiHierarchy.from_json_dict(GOOD_HIERARCHY)
    assert h.to_json() == json.dumps(GOOD_HIERARCHY, sort_keys=True, indent=2) + "\n"
    assert QuasiHierarchy.from_json_dict(json.loads(h.to_json())).to_json() == h.to_json()


@pytest.mark.parametrize("table, d, seed_func, error, message", [
    (line_table(), -1, RandomNeighbor(0), ValueError, "neighbor count d must be >= 0"),
    (None, 1, ClosestNode(EuclideanBall(1.5)), ConfigError, "closest-node walk needs a feature table"),
    (line_table(), 1, "walk", ConfigError, "unknown seed function 'walk'"),
], ids=["negative-d", "closest-node-without-table", "not-a-seed-function"])
def test_invalid_walk_raises(table, d, seed_func, error, message):
    with pytest.raises(error) as exc_info:
        elementary_quasiclosures(line_space(), table, d, seed_func)
    assert str(exc_info.value) == message
