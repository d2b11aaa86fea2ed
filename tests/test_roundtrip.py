"""Reconstructing neighborhoods from the operator and back.

For isotone spaces the minimal sets V with x interior to V generate the
original pseudoclosure again, so operator -> neighborhoods -> operator is
the identity on every subset.
"""

import random

import pytest

from helpers import (
    OddBumpSpace,
    all_subsets,
    random_filter_space,
    random_graph_space,
    random_prefilter_space,
)
from pretopo import (
    GraphSpace,
    Universe,
    UnsupportedSpaceError,
    pseudoclosure_from_prefilter_roundtrip,
    reconstruct_neighborhoods,
)


def test_roundtrip_prefilter_4():
    rng = random.Random(2)
    for _ in range(10):
        assert pseudoclosure_from_prefilter_roundtrip(random_prefilter_space(rng, 4))


def test_roundtrip_graph_4():
    rng = random.Random(3)
    for _ in range(10):
        assert pseudoclosure_from_prefilter_roundtrip(random_graph_space(rng, 4))


def test_roundtrip_filter_3():
    rng = random.Random(4)
    for _ in range(10):
        assert pseudoclosure_from_prefilter_roundtrip(random_filter_space(rng, 3))


def test_roundtrip_up_to_six_items_all_kinds():
    rng = random.Random(5)
    for n in range(1, 7):
        for builder in (random_prefilter_space, random_filter_space, random_graph_space):
            assert pseudoclosure_from_prefilter_roundtrip(builder(rng, n))


def test_reconstructed_sets_contain_their_item():
    rng = random.Random(6)
    space = random_prefilter_space(rng, 5)
    for x, family in enumerate(reconstruct_neighborhoods(space)):
        assert family, "every item has at least the universe as neighborhood"
        for v in family:
            assert x in v


def test_graph_reconstruction_is_predecessors_plus_self():
    g = GraphSpace(Universe.of_size(4), [[1], [2], [], [1]])
    families = reconstruct_neighborhoods(g)
    for x in range(4):
        assert families[x] == g.neighborhoods_of(x)


def test_non_isotone_space_rejected():
    with pytest.raises(UnsupportedSpaceError):
        pseudoclosure_from_prefilter_roundtrip(OddBumpSpace(Universe.of_size(4)))


def test_empty_universe_roundtrip():
    assert pseudoclosure_from_prefilter_roundtrip(GraphSpace(Universe.of_size(0), []))
