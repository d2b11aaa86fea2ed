"""Differential checks of the space operators against per-element
evaluation, on seeded spaces across byte and 64-bit boundaries,
and of incremental closure growth against re-evaluating the operator."""

import random

import pytest

from helpers import (
    OddBumpSpace,
    brute_force_family,
    brute_force_pseudoclosure_filter,
    brute_force_pseudoclosure_graph,
    brute_force_pseudoclosure_prefilter,
    random_filter_space,
    random_graph_space,
    random_isotone_space,
    random_prefilter_space,
)
from pretopo import (
    ClosestNode,
    ElementSet,
    EuclideanBall,
    FilterSpace,
    GraphSpace,
    NeighborhoodBasis,
    PrefilterSpace,
    PseudoclosureSpace,
    Seed,
    SizeBall,
    Universe,
    build_basis,
    datagen,
    elementary_closed_subsets,
    elementary_quasiclosures,
)

SIZES = [0, 1, 7, 8, 9, 63, 64, 65, 130]


def sparse_prefilter_space(rng, n, max_sets=4):
    """Ragged, asymmetric basis lists whose sets hold about three items, so
    closures take several steps instead of filling the universe at once."""
    bases = []
    for x in range(n):
        row = []
        for _ in range(rng.randint(1, max_sets)):
            mask = 1 << x
            for _ in range(3):
                mask |= 1 << rng.randrange(n)
            row.append(mask)
        bases.append(row)
    return PrefilterSpace(Universe.of_size(n), NeighborhoodBasis.from_masks(n, bases))


def spaces(n):
    rng = random.Random(1000 + n)
    pre = [random_prefilter_space(rng, n, max_sets=4), sparse_prefilter_space(rng, n)]
    graphs = [random_graph_space(rng, n, p=2 / max(n, 1)), random_graph_space(rng, n)]
    return pre + [FilterSpace(p.universe, p.basis) for p in pre] + [random_filter_space(rng, n)] + graphs


def oracle(space):
    """The space's pseudoclosure as a mask function, evaluated per element."""
    if isinstance(space, GraphSpace):
        return lambda a_mask: brute_force_pseudoclosure_graph(space.edges, a_mask)
    masks = [[b.mask for b in row] for row in space.basis.sets]
    brute = (
        brute_force_pseudoclosure_filter
        if isinstance(space, FilterSpace)
        else brute_force_pseudoclosure_prefilter
    )
    return lambda a_mask: brute(masks, a_mask, space.size)


def probe_masks(rng, n):
    full = (1 << n) - 1
    sparse = [sum(1 << i for i in {rng.randrange(n) for _ in range(3)}) for _ in range(4)] if n else []
    return [0, full] + [rng.getrandbits(n) for _ in range(6)] + sparse


@pytest.mark.parametrize("n", SIZES)
def test_operators_match_per_element_evaluation(n):
    rng = random.Random(n)
    full = (1 << n) - 1
    for space in spaces(n):
        a = oracle(space)
        for mask in probe_masks(rng, n):
            s = ElementSet(n, mask)
            assert space.pseudoclosure(s).mask == a(mask)
            assert space.interior(s).mask == a(mask ^ full) ^ full
            closed = mask
            while a(closed) != closed:
                closed = a(closed)
            assert space.closure(s).mask == closed


@pytest.mark.parametrize("n", SIZES)
def test_family_matches_oracle_growth(n):
    rng = random.Random(2000 + n)
    for space in spaces(n):
        seeds = [
            Seed(x, ElementSet.from_members(n, [x] + rng.sample(range(n), min(n, 2))))
            for x in range(n)
        ]
        family = elementary_closed_subsets(space, seeds)
        expected = brute_force_family(oracle(space), [s.members.mask for s in seeds])
        assert sorted(s.mask for s in family) == sorted(expected)


@pytest.mark.parametrize("n", range(9))
def test_short_rows_act_as_rows_padded_with_their_last_set(n):
    """An item with fewer basis sets than the deepest item acts as if it
    repeated its last set: a prefilter or filter space built from random
    short-row bases has the operator and the neighborhoods of the one built
    from the same bases padded by hand to equal depth."""
    rng = random.Random(7000 + n)
    universe, padded_rows = Universe.of_size(n), 0
    for _ in range(10):
        for space in (random_prefilter_space(rng, n, max_sets=4), sparse_prefilter_space(rng, n)):
            short = space.basis
            depth = max(map(len, short.sets), default=0)
            padded = NeighborhoodBasis(tuple(row + row[-1:] * (depth - len(row)) for row in short.sets))
            padded_rows += sum(len(row) < depth for row in short.sets)
            for kind in (PrefilterSpace, FilterSpace):
                a, b = kind(universe, short), kind(universe, padded)
                assert [a._pseudoclosure_mask(m) for m in range(1 << n)] == [
                    b._pseudoclosure_mask(m) for m in range(1 << n)]
                for x in range(n):
                    # a padded prefilter row lists its last set more than once
                    assert set(a.neighborhoods_of(x)) == set(b.neighborhoods_of(x))
    assert padded_rows or n < 2


# -- incremental growth -------------------------------------------------------


class _CardinalityStep(PseudoclosureSpace):
    """A non-isotone operator: a(A) adds the item whose index is |A|.  It
    carries no reach, so every call re-evaluates from all of A."""

    def grow(self, mask, parent=0, parent_reach=None):
        k = mask.bit_count()
        return (mask | (1 << k) if mask and k < self.size else mask), None


def growth_spaces(n):
    """Every space kind, with sparse graphs so chains take several steps."""
    rng = random.Random(3000 + n)
    graphs = [random_graph_space(rng, n, p=2 / max(n, 1)), random_graph_space(rng, n, p=0.1)]
    return spaces(n) + graphs + [_CardinalityStep(Universe.of_size(n))]


def closed_family_masks(space, seed_masks):
    seeds = [Seed((m & -m).bit_length() - 1, ElementSet(space.size, m)) for m in seed_masks]
    return sorted(s.mask for s in elementary_closed_subsets(space, seeds))


def counted_family_masks(space, seed_masks):
    """:func:`closed_family_masks` and the number of ``grow`` calls it made."""
    grow, calls = space.grow, []
    space.grow = lambda *args: calls.append(args) or grow(*args)
    try:
        return closed_family_masks(space, seed_masks), len(calls)
    finally:
        del space.grow


def same_operator_spaces(edges):
    """A graph space and the prefilter and filter spaces with its operator:
    x joins a(A) when A meets {x} plus x's predecessors."""
    n = len(edges)
    graph = GraphSpace(Universe.of_size(n), edges)
    basis = NeighborhoodBasis(tuple(tuple(graph.neighborhoods_of(x)) for x in range(n)))
    return [graph, PrefilterSpace(graph.universe, basis), FilterSpace(graph.universe, basis)]


@pytest.mark.parametrize("n", SIZES)
def test_grow_from_any_subset_matches_operator(n):
    """grow(B, A, reach(A)) equals a(B), and B's reach equals the reach
    grown from the empty parent, for every kind and any A within B."""
    rng = random.Random(4000 + n)
    for space in growth_spaces(n):
        for mask in probe_masks(rng, n):
            parent = mask & rng.getrandbits(max(n, 1))
            _, parent_reach = space.grow(parent)
            grown, reach = space.grow(mask, parent, parent_reach)
            assert grown == space._pseudoclosure_mask(mask)
            assert (grown, reach) == space.grow(mask)


@pytest.mark.parametrize("n", SIZES)
def test_family_matches_operator_growth_for_every_kind(n):
    rng = random.Random(5000 + n)
    for space in growth_spaces(n):
        seed_masks = [(1 << x) | (1 << rng.randrange(n)) for x in range(n)]
        expected = brute_force_family(space._pseudoclosure_mask, seed_masks)
        assert closed_family_masks(space, seed_masks) == sorted(expected)


@pytest.mark.parametrize("n", SIZES)
def test_family_same_for_every_seed_order(n):
    """The family does not depend on the order of the seeds or on repeats
    among them, each of its sets is grown once, and it holds every seed's
    closure, the last and largest set of the seed's chain; on every kind,
    isotone or not."""
    rng = random.Random(6000 + n)
    kinds = growth_spaces(n) + [random_isotone_space(rng, n) for _ in range(3)]
    kinds.append(OddBumpSpace(Universe.of_size(n)))
    for space in kinds:
        seed_masks = [(1 << x) | (1 << rng.randrange(n)) for x in range(n)]
        expected = sorted(brute_force_family(space._pseudoclosure_mask, seed_masks))
        shuffled = rng.sample(seed_masks, n)
        repeated = rng.sample(seed_masks * 2, 2 * n)
        for order in (seed_masks, seed_masks[::-1], shuffled, repeated):
            assert counted_family_masks(space, order) == (expected, len(expected))
        for mask in seed_masks:
            chain = [mask]
            while (grown := space._pseudoclosure_mask(chain[-1])) != chain[-1]:
                chain.append(grown)
            closed = space.closure(ElementSet(n, mask)).mask
            assert closed == chain[-1]
            assert all(step & ~closed == 0 for step in chain)
            assert closed in expected


def test_set_reached_from_two_parents():
    """a({0}) = a({1}) = {0, 1, 2}, which then grows on to {0, 1, 2, 3}."""
    edges = [[1, 2], [0, 2], [3], []]
    for space in same_operator_spaces(edges):
        assert space.pseudoclosure(ElementSet(4, 0b0001)).mask == 0b0111
        assert space.pseudoclosure(ElementSet(4, 0b0010)).mask == 0b0111
        family = closed_family_masks(space, [0b0001, 0b0010])
        assert family == sorted(brute_force_family(space._pseudoclosure_mask, [0b0001, 0b0010]))
        assert family == [0b0001, 0b0010, 0b0111, 0b1111]


def test_seed_inside_another_seeds_chain():
    """The chain {0} -> {0,1} -> {0,1,2} -> ... passes through the seeds
    {0, 1} and {0, 1, 2}, whose chains are walked first: the seed {0}'s
    chain stops at {0, 1}."""
    edges = [[1], [2], [3], [4], []]
    seed_masks = [0b00011, 0b00111, 0b00001]
    for space in same_operator_spaces(edges):
        family = closed_family_masks(space, seed_masks)
        assert family == sorted(brute_force_family(space._pseudoclosure_mask, seed_masks))
        assert family == [0b00001, 0b00011, 0b00111, 0b01111, 0b11111]


def test_family_matches_operator_growth_on_point_sweep():
    """The ROADMAP's points sweep at n = 400 with d = 0: two criteria in
    prefilter mode, where the closed family has chains of many steps."""
    groups = [([0, 0], [1, 2]), ([10, 0], [8, 10]), ([30, 0], [8, 10]), ([10, 25], [4, 5])]
    spec = datagen.spec_from_dict({"kind": "points", "rng_seed": 1, "groups": [
        {"count": 100, "center": c, "dispersion": 2.0, "size_range": r} for c, r in groups
    ]})
    table, _ = datagen.generate(spec)
    criteria = [EuclideanBall(1.0), SizeBall(0.5)]
    space = build_basis(table, criteria, "prefilter")
    seeds = elementary_quasiclosures(space, table, 0, ClosestNode(criteria[0]))
    family = elementary_closed_subsets(space, seeds)
    expected = brute_force_family(space._pseudoclosure_mask, [s.members.mask for s in seeds])
    assert sorted(s.mask for s in family) == sorted(expected)
    assert len(family) > 4 * space.size  # many sets beyond the seeds
