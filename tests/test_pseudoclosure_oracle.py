"""Differential checks of the neighborhood-space operators against
per-element evaluation, on seeded spaces across byte and 64-bit boundaries."""

import random

import pytest

from helpers import (
    brute_force_family,
    brute_force_pseudoclosure_filter,
    brute_force_pseudoclosure_prefilter,
    random_filter_space,
    random_prefilter_space,
)
from pretopo import (
    ElementSet,
    FilterSpace,
    NeighborhoodBasis,
    PrefilterSpace,
    Seed,
    Universe,
    elementary_closed_subsets,
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
    return pre + [FilterSpace(p.universe, p.basis) for p in pre] + [random_filter_space(rng, n)]


def oracle(space):
    """The space's pseudoclosure as a mask function, evaluated per element."""
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
