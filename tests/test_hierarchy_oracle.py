"""Differential check: row-blocked adjacency and quasi-hierarchy extraction
against the pair-by-pair oracles in ``helpers``.

Results must agree bit for bit: the matrix bytes, the JSON document and
the DOT rendering.
"""

import random

import pytest

from helpers import brute_force_adjacency, brute_force_quasihierarchy
from pretopo import ClosedFamily, ElementSet, Universe, hierarchy
from pretopo.hierarchy import extract_adjacency, extract_quasihierarchy

THRESHOLDS = (0.3, 0.5, 0.7, 1.0)
TIE_BREAKS = ("lowest_index", "random")
# universe sizes either side of the byte and 64-bit word boundaries
SIZES = (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 70)


def random_masks(rng, n, count, density):
    masks = set()
    for _ in range(count):
        mask = 1 << rng.randrange(n)
        for x in range(n):
            if rng.random() < density:
                mask |= 1 << x
        masks.add(mask)
    return masks


def containment_chain(rng, n):
    """Nested sets grown one random batch of items at a time."""
    order = rng.sample(range(n), n)
    masks, mask = set(), 0
    pos = 0
    while pos < n:
        step = rng.randint(1, max(1, n // 4))
        for x in order[pos:pos + step]:
            mask |= 1 << x
        pos += step
        masks.add(mask)
    return masks


def equal_size_sets(rng, n, count):
    size = rng.randint(1, n)
    return {
        sum(1 << x for x in rng.sample(range(n), size)) for _ in range(count)
    }


def random_family(rng, n):
    masks = random_masks(rng, n, rng.randint(0, 15), rng.choice((0.05, 0.3, 0.7)))
    masks |= containment_chain(rng, n)
    masks |= equal_size_sets(rng, n, rng.randint(1, 8))
    return ClosedFamily(ElementSet(n, mask) for mask in masks)


def families():
    rng = random.Random(20240611)
    out = [ClosedFamily([]), ClosedFamily([ElementSet(5, 0b10110)])]
    for n in SIZES:
        for _ in range(3):
            out.append(random_family(rng, n))
    return out


def assert_same_hierarchy(family, adj, th, tie_break, tie_rng_seed):
    universe = Universe.of_size(family[0].n if len(family) else 0)
    got = extract_quasihierarchy(
        family, adj, th, universe=universe, tie_break=tie_break, tie_rng_seed=tie_rng_seed
    )
    want = brute_force_quasihierarchy(
        family, adj, th, universe=universe, tie_break=tie_break, tie_rng_seed=tie_rng_seed
    )
    assert got.to_json_dict() == want.to_json_dict()
    assert got.to_dot() == want.to_dot()
    assert got.universe_coverage == want.universe_coverage


@pytest.mark.parametrize("block_entries", [1, 37, hierarchy._BLOCK_ENTRIES])
def test_matches_brute_force_oracle(monkeypatch, block_entries):
    monkeypatch.setattr(hierarchy, "_BLOCK_ENTRIES", block_entries)
    for f_idx, family in enumerate(families()):
        adj = extract_adjacency(family)
        assert adj.tobytes() == brute_force_adjacency(family).tobytes()
        for th in THRESHOLDS:
            for tie_break in TIE_BREAKS:
                assert_same_hierarchy(family, adj, th, tie_break, tie_rng_seed=f_idx)


def test_row_block_not_dividing_family_size(monkeypatch):
    rng = random.Random(5)
    family = ClosedFamily(ElementSet(12, m) for m in random_masks(rng, 12, 40, 0.3))
    m = len(family)
    rows = 3 if m % 3 else 4
    assert m % rows
    monkeypatch.setattr(hierarchy, "_BLOCK_ENTRIES", rows * m)
    assert [hi - lo for lo, hi in hierarchy._row_blocks(m, m)][-1] == m % rows
    adj = extract_adjacency(family)
    assert adj.tobytes() == brute_force_adjacency(family).tobytes()
    for th in THRESHOLDS:
        for tie_break in TIE_BREAKS:
            assert_same_hierarchy(family, adj, th, tie_break, tie_rng_seed=3)


def test_empty_and_single_set_families():
    empty = ClosedFamily([])
    adj = extract_adjacency(empty)
    assert adj.shape == (0, 0)
    h = extract_quasihierarchy(empty, adj, 0.5)
    assert h.parent_edges == [] and h.roots == [] and len(h.family) == 0

    single = ClosedFamily([ElementSet.from_members(9, [0, 8])])
    adj = extract_adjacency(single)
    assert adj.tobytes() == brute_force_adjacency(single).tobytes()
    h = extract_quasihierarchy(single, adj, 0.5)
    assert h.roots == [0] and h.parent_edges == []
