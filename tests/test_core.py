import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    OddBumpSpace,
    all_subsets,
    brute_force_closure,
    brute_force_pseudoclosure_prefilter,
    random_graph_space,
    random_isotone_space,
    random_prefilter_space,
    unpack_kth_set_bit,
)
from pretopo import (
    ConfigError,
    ElementSet,
    FilterSpace,
    GraphSpace,
    NeighborhoodBasis,
    PrefilterSpace,
    Universe,
    check_additivity,
    check_isotony,
    check_singleton_union,
    core,
    reconstruct_neighborhoods,
)
from pretopo.core import _kth_set_bit


def mod4_prefilter():
    # two criteria per item: the next and the previous item around a 4-cycle
    n = 4
    bases = [[(1 << x) | (1 << ((x + 1) % n)), (1 << x) | (1 << ((x - 1) % n))] for x in range(n)]
    return PrefilterSpace(Universe.of_size(n), NeighborhoodBasis.from_masks(n, bases))


def chain_graph():
    return GraphSpace(Universe.of_size(5), [[], [2], [3], [], []])


class TestPseudoclosure:
    def test_empty_set_stays_empty(self):
        for space in (mod4_prefilter(), chain_graph()):
            assert space.pseudoclosure(space.universe.empty_set()) == space.universe.empty_set()

    def test_graph_node_plus_out_neighbors(self):
        g = chain_graph()
        assert g.pseudoclosure(g.universe.subset([1])).members() == [1, 2]

    def test_mod4_prefilter_single_item(self):
        # brute-force evaluation per element: only item 0 has every basis set
        # intersecting {0}; its neighbors each fail one criterion
        space = mod4_prefilter()
        oracle = brute_force_pseudoclosure_prefilter(
            [[b.mask for b in space.basis.sets[x]] for x in range(4)], 0b0001, 4
        )
        assert oracle == 0b0001
        assert space.pseudoclosure(space.universe.subset([0])).members() == [0]

    def test_filter_semantics_single_witness(self):
        space = mod4_prefilter()
        fspace = FilterSpace(space.universe, space.basis)
        # intersection basis of item 1 is {1}; {0} cannot reach it
        assert fspace.pseudoclosure(fspace.universe.subset([0])).members() == [0]
        assert fspace.neighborhoods_of(1) == [fspace.universe.subset([1])]

    def test_index_contract(self):
        g = chain_graph()
        with pytest.raises(ValueError):
            g.pseudoclosure(ElementSet.from_members(9, [1]))


class TestClosure:
    def test_fixed_point_returned_unchanged(self):
        g = chain_graph()
        closed = g.universe.subset([1, 2, 3])
        assert g.pseudoclosure(closed) == closed
        assert g.closure(closed) == closed

    def test_graph_chain_expands_twice(self):
        g = chain_graph()
        assert g.closure(g.universe.subset([1])).members() == [1, 2, 3]

    def test_universe_is_closed(self):
        for space in (mod4_prefilter(), chain_graph()):
            full = ElementSet(space.size, space.universe.full_mask)
            assert space.closure(full) == full

    def test_closure_is_idempotent(self):
        rng = random.Random(1)
        for _ in range(30):
            space = random_isotone_space(rng, rng.randint(1, 7))
            a = ElementSet(space.size, rng.getrandbits(space.size))
            once = space.closure(a)
            assert space.closure(once) == once

    def test_smallest_closed_superset_oracle(self):
        rng = random.Random(7)
        for _ in range(40):
            space = random_isotone_space(rng, rng.randint(1, 6))
            for a in all_subsets(space.size):
                assert space.closure(a) == brute_force_closure(space, a)

    def test_iteration_is_monotone_and_short(self):
        rng = random.Random(3)
        for _ in range(20):
            space = random_isotone_space(rng, 6)
            a_mask = rng.getrandbits(6)
            chain = [a_mask]
            while True:
                grown = space.pseudoclosure(ElementSet(6, chain[-1])).mask
                if grown == chain[-1]:
                    break
                chain.append(grown)
            assert len(chain) <= 6 + 1
            for earlier, later in zip(chain, chain[1:]):
                assert earlier & ~later == 0


class TestInterior:
    def test_full_and_empty(self):
        for space in (mod4_prefilter(), chain_graph()):
            u = space.universe
            full = ElementSet(u.size, u.full_mask)
            assert space.interior(full) == full
            assert space.interior(u.empty_set()) == u.empty_set()

    def test_graph_worked_example(self):
        g = GraphSpace(Universe.of_size(3), [[], [2], []])
        assert g.interior(g.universe.subset([0, 2])).members() == [0]

    def test_duality_definition(self):
        rng = random.Random(11)
        for _ in range(30):
            space = random_isotone_space(rng, 6)
            for a in all_subsets(6):
                assert space.interior(a) == space.pseudoclosure(a.complement()).complement()

    def test_membership_via_contained_basis_set(self):
        # x interior to A exactly when one of its neighborhoods fits inside A
        rng = random.Random(13)
        for builder in (random_prefilter_space,):
            space = builder(rng, 5)
            fspace = FilterSpace(space.universe, space.basis)
            for sp in (space, fspace):
                for a in all_subsets(5):
                    inside = sp.interior(a)
                    for x in range(5):
                        expected = any(b.issubset(a) for b in sp.neighborhoods_of(x))
                        assert (x in inside) == expected


class TestNeighborhoods:
    def test_prefilter_returns_stored_basis(self):
        space = mod4_prefilter()
        assert space.neighborhoods_of(2) == list(space.basis.sets[2])

    def test_filter_returns_intersection(self):
        space = mod4_prefilter()
        fspace = FilterSpace(space.universe, space.basis)
        [inter] = fspace.neighborhoods_of(0)
        expected = space.basis.sets[0][0] & space.basis.sets[0][1]
        assert inter == expected

    def test_graph_no_edges_gives_singleton(self):
        g = GraphSpace(Universe.of_size(4), [[], [], [], []])
        assert g.neighborhoods_of(2) == [g.universe.subset([2])]

    def test_graph_is_the_one_slot_prefilter_of_predecessors(self):
        g = GraphSpace(Universe.of_size(4), [[1, 2], [2], [], [0]])
        assert isinstance(g, PrefilterSpace)
        assert [row[0].members() for row in g.basis.sets] == [[0, 3], [0, 1], [0, 1, 2], [3]]

    def test_graph_space_transposes_no_bit_matrix(self, monkeypatch):
        # T(y), y plus its successors, is read off the edge lists
        def unpack(*_):
            raise AssertionError("GraphSpace unpacked a bit matrix")

        monkeypatch.setattr(core, "unpack_masks", unpack)
        g = GraphSpace(Universe.of_size(3), [[1], [2], []])
        assert g.closure(g.universe.subset([0])).members() == [0, 1, 2]

    def test_graph_neighbor_mask_is_successors_minus_self(self):
        # a self-loop does not make x its own neighbor
        g = GraphSpace(Universe.of_size(3), [[0, 2], [1], []])
        assert [g.neighbor_mask(x) for x in range(3)] == [0b100, 0, 0]

    def test_filter_neighbor_mask_is_the_union_of_the_balls(self):
        # item 0's one neighborhood is the intersection {0}; a random walk
        # from 0 still steps into either ball
        basis = NeighborhoodBasis.from_masks(3, [[0b011, 0b101], [0b010], [0b100]])
        space = FilterSpace(Universe.of_size(3), basis)
        assert space.neighborhoods_of(0) == [ElementSet(3, 0b001)]
        assert space.neighbor_mask(0) == 0b110

    def test_basis_must_contain_owner(self):
        with pytest.raises(ValueError):
            NeighborhoodBasis.from_masks(2, [[0b10], [0b10]])


class TestPropertyChecks:
    def test_prefilter_and_graph_are_isotone(self):
        rng = random.Random(5)
        for _ in range(10):
            assert check_isotony(random_prefilter_space(rng, 5)).ok
            assert check_isotony(random_graph_space(rng, 5)).ok

    def test_non_isotone_space_yields_witness(self):
        space = OddBumpSpace(Universe.of_size(4))
        ok, witness = check_isotony(space)
        assert not ok
        small, large = witness
        assert small.issubset(large)
        assert not space.pseudoclosure(small).issubset(space.pseudoclosure(large))

    def test_graph_is_additive_and_singleton_determined(self):
        rng = random.Random(9)
        for _ in range(10):
            g = random_graph_space(rng, 5)
            assert check_additivity(g).ok
            assert check_singleton_union(g).ok

    def test_multi_criteria_prefilter_not_additive(self):
        # exhaustive search over the 4-element two-criteria fixture finds a
        # violating pair, e.g. opposite corners of the cycle
        space = mod4_prefilter()
        ok, (a, b) = check_additivity(space)
        assert not ok
        lhs = space.pseudoclosure(a | b)
        rhs = space.pseudoclosure(a) | space.pseudoclosure(b)
        assert lhs != rhs

    def test_filter_space_is_additive(self):
        # a single intersected basis set means membership has one witness,
        # which distributes over unions
        rng = random.Random(17)
        for _ in range(10):
            pre = random_prefilter_space(rng, 5)
            assert check_additivity(FilterSpace(pre.universe, pre.basis)).ok

    def test_empty_universe_vacuously_true(self):
        g = GraphSpace(Universe.of_size(0), [])
        assert check_isotony(g).ok
        assert check_additivity(g).ok

    def test_sampled_mode_beyond_cutoff(self):
        rng = random.Random(23)
        g = random_graph_space(rng, 14)
        assert check_isotony(g, trials=200, rng_seed=1).ok
        assert check_additivity(g, trials=200, rng_seed=1).ok
        assert check_singleton_union(g, trials=200, rng_seed=1).ok

    def test_sampled_witnesses_are_pinned(self):
        # above 12 items the checks draw their cases from random.Random(0);
        # these witnesses fix the order of the draws
        space = OddBumpSpace(Universe.of_size(14))

        def members(witness):
            return tuple(set(w.members()) for w in witness)

        ok, witness = check_isotony(space)
        assert not ok
        assert members(witness) == ({7, 12, 13}, {1, 7, 12, 13})
        ok, witness = check_additivity(space)
        assert not ok
        assert members(witness) == ({1, 4, 7, 12}, {1, 3, 6, 7, 8, 10, 11, 12, 13})
        ok, witness = check_singleton_union(space)
        assert not ok
        assert members(witness) == ({1, 7, 12, 13},)


class TestAxioms:
    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=1023), st.integers(min_value=0, max_value=2**30))
    def test_contains_and_empty_axioms_random_spaces(self, mask_bits, seed):
        rng = random.Random(seed)
        space = random_isotone_space(rng, 10)
        a = ElementSet(10, mask_bits)
        assert a.issubset(space.pseudoclosure(a))
        assert space.pseudoclosure(space.universe.empty_set()) == space.universe.empty_set()


class TestKthSetBit:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_unpacked_bits(self, data):
        n = data.draw(st.integers(1, 300))
        mask = data.draw(st.integers(1, (1 << n) - 1))
        mask |= data.draw(st.sampled_from([0, 1, 1 << (n - 1), 1 | 1 << (n - 1)]))
        count = mask.bit_count()
        for k in {0, count - 1, data.draw(st.integers(0, count - 1))}:
            assert _kth_set_bit(mask, k) == unpack_kth_set_bit(mask, n, k)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 1200])
    def test_edge_masks(self, n):
        for mask in (1, 1 << (n - 1), (1 << n) - 1, 1 | 1 << (n - 1)):
            for k in range(mask.bit_count()):
                assert _kth_set_bit(mask, k) == unpack_kth_set_bit(mask, n, k)


# a basis over a universe of 3 items, each item's set holding it
OTHER_UNIVERSE_BASIS = NeighborhoodBasis(((ElementSet(3, 0b101),), (ElementSet(3, 0b010),)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Universe(-1), ValueError, "universe size must be >= 0, got -1"),
    (lambda: Universe(2, ("a",)), ValueError, "label count does not match universe size"),
    (lambda: Universe(2, ("a", "a")), ValueError, "labels must be unique"),
    (lambda: ElementSet.from_members(1, [3]), ValueError,
     "item index 3 out of range for universe of size 1"),
    (lambda: ElementSet(3, 1) | ElementSet(4, 1), ValueError,
     "element sets belong to universes of different size"),
    (lambda: NeighborhoodBasis(((),)), ValueError, "item 0 has an empty basis list"),
    (lambda: PrefilterSpace(Universe(2), NeighborhoodBasis.from_masks(2, [[1]])), ValueError,
     "basis does not cover the universe"),
    (lambda: PrefilterSpace(Universe(2), OTHER_UNIVERSE_BASIS), ValueError,
     "basis sets lie outside the space's universe of size 2"),
    (lambda: FilterSpace(Universe(2), OTHER_UNIVERSE_BASIS), ValueError,
     "basis sets lie outside the space's universe of size 2"),
    (lambda: GraphSpace(Universe(2), [[1]]), ValueError, "adjacency list does not cover the universe"),
    (lambda: GraphSpace(Universe(2), [[2], []]), ValueError, "edge 0->2 leaves the universe"),
    (lambda: reconstruct_neighborhoods(GraphSpace(Universe(13), [[]] * 13)), ConfigError,
     "neighborhood reconstruction is exponential; universe of 13 items exceeds 12"),
], ids=["universe-negative-size", "universe-label-count", "universe-duplicate-labels",
        "member-out-of-range", "elementset-universes",
        "empty-basis-list", "prefilter-basis-cover", "prefilter-basis-universe",
        "filter-basis-universe", "graph-edge-list-length", "graph-edge-leaves",
        "reconstruct-too-large"])
def test_invalid_input_raises(call, error, message):
    with pytest.raises(error) as exc_info:
        call()
    assert str(exc_info.value) == message
