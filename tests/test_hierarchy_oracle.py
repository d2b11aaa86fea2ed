"""Differential check: overlap components, and the adjacency and
quasi-hierarchy extraction that work one component at a time in row strips,
against the pair-by-pair oracles in ``helpers``; the matrix-free scorer of
``quasistructural_analysis`` included.

Results must agree bit for bit: the matrix bytes, the JSON document and
the DOT rendering.
"""

import random
import tracemalloc

import numpy as np
import pytest

from helpers import (
    brute_force_adjacency,
    brute_force_overlap_components,
    brute_force_quasihierarchy,
)
from pretopo import ClosedFamily, ElementSet, Universe, core
from pretopo.hierarchy import (
    _quasihierarchy,
    extract_adjacency,
    extract_quasihierarchy,
)

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


def interleaved_components(rng, n_blocks, block, singletons):
    """Random sets inside disjoint item blocks, plus one-item sets on items
    of their own; canonical order interleaves the blocks' sets by size."""
    n = n_blocks * block + singletons
    masks = set()
    for b in range(n_blocks):
        items = range(b * block, (b + 1) * block)
        for _ in range(rng.randint(2, 9)):
            masks.add(sum(1 << x for x in rng.sample(items, rng.randint(1, block))))
    masks |= {1 << x for x in range(n_blocks * block, n)}
    return ClosedFamily(ElementSet(n, mask) for mask in masks)


def disjoint_family(rng, n):
    """A partition of the items into runs: every set is its own component."""
    masks, lo = [], 0
    while lo < n:
        hi = min(n, lo + rng.randint(1, 4))
        masks.append(sum(1 << x for x in range(lo, hi)))
        lo = hi
    return ClosedFamily(ElementSet(n, mask) for mask in masks)


def giant_family(rng, n):
    """Random sets that all hold item 0: one component."""
    return ClosedFamily(
        ElementSet(n, 1 | rng.getrandbits(n)) for _ in range(rng.randint(2, 30))
    )


def chain_family(rng, n):
    """Runs of random length, each overlapping the next by one item: the
    overlap graph is a path, in an order that canonical sorting scrambles."""
    masks, lo = [], 0
    while lo < n - 1:
        hi = min(n, lo + rng.randint(2, 5))
        masks.append(sum(1 << x for x in range(lo, hi)))
        lo = hi - 1
    return ClosedFamily(ElementSet(n, mask) for mask in masks)


def pair_chain_family(n):
    """{i, i+1} for every i: consecutive pairs relate by 1/2 both ways, so at
    th_qh <= 0.5 the mutual graph is a path of equal-size, tied sets."""
    return ClosedFamily(ElementSet(n, 0b11 << i) for i in range(n - 1))


def shaped_families():
    rng = random.Random(77)
    out = []
    for _ in range(3):
        out.append(interleaved_components(rng, rng.randint(2, 5), rng.randint(2, 9), rng.randint(0, 6)))
    out += [disjoint_family(rng, n) for n in (1, 9, 40)]
    out += [giant_family(rng, n) for n in (3, 17, 70)]
    out += [chain_family(rng, n) for n in (2, 12, 70)]
    out += [pair_chain_family(n) for n in (2, 3, 9, 40)]
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


def assert_same_components(family):
    got = family.overlap_components
    assert all(np.array_equal(c, np.sort(c)) for c in got)
    assert sorted(c.tolist() for c in got) == brute_force_overlap_components(family)


@pytest.mark.parametrize("block_entries", [1, 37, core._BLOCK_ENTRIES])
def test_matches_brute_force_oracle(monkeypatch, block_entries):
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
    for f_idx, family in enumerate(families()):
        adj = extract_adjacency(family)
        assert adj.tobytes() == brute_force_adjacency(family).tobytes()
        for th in THRESHOLDS:
            for tie_break in TIE_BREAKS:
                assert_same_hierarchy(family, adj, th, tie_break, tie_rng_seed=f_idx)


@pytest.mark.parametrize("block_entries", [1, 37, core._BLOCK_ENTRIES])
def test_shaped_families_match_oracles(monkeypatch, block_entries):
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
    for f_idx, family in enumerate(shaped_families()):
        assert_same_components(family)
        adj = extract_adjacency(family)
        assert adj.tobytes() == brute_force_adjacency(family).tobytes()
        for th in THRESHOLDS:
            for tie_break in TIE_BREAKS:
                assert_same_hierarchy(family, adj, th, tie_break, tie_rng_seed=f_idx)


@pytest.mark.parametrize("block_entries", [1, 37, core._BLOCK_ENTRIES])
def test_matrix_free_scoring_matches_oracle(monkeypatch, block_entries):
    """The scorer ``quasistructural_analysis`` runs, which stores no matrix,
    against the oracle hierarchy over the oracle weights."""
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
    for f_idx, family in enumerate(families() + shaped_families()):
        universe = Universe.of_size(family[0].n if len(family) else 0)
        adj = brute_force_adjacency(family)
        for th in (0.25,) + THRESHOLDS:
            for tie_break in TIE_BREAKS:
                kwargs = dict(universe=universe, tie_break=tie_break, tie_rng_seed=f_idx)
                got = _quasihierarchy(family, th, **kwargs)
                want = brute_force_quasihierarchy(family, adj, th, **kwargs)
                assert got.to_json_dict() == want.to_json_dict()
                assert got.to_dot() == want.to_dot()


def test_mutual_band_edge(monkeypatch):
    """A subset F of G scores (|F|/|G|)**2 towards G, as rounded, the edge of
    the band of columns scanned for mutual pairs: at exactly that threshold
    the pair is mutual, one ulp above it is a parent edge."""
    # one row per strip, so F's row alone sets the band
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 1)
    family = ClosedFamily([ElementSet(4, 0b11), ElementSet(4, 0b1111)])
    adj = extract_adjacency(family)
    assert (adj[0, 1], adj[1, 0]) == (0.25, 2.0)
    assert _quasihierarchy(family, 0.25).family.sets == [family[1]]
    n = 30
    for big in range(2, n + 1):
        for small in range(1, big):
            family = ClosedFamily([ElementSet(n, (1 << small) - 1), ElementSet(n, (1 << big) - 1)])
            adj = brute_force_adjacency(family)
            edge = (small / big) * (small / big)
            for th in (edge, np.nextafter(edge, 2.0)):
                got = _quasihierarchy(family, th).to_json_dict()
                assert got == brute_force_quasihierarchy(family, adj, th).to_json_dict()
                assert len(got["sets"]) == (1 if th == edge else 2)


def test_components_match_oracle():
    for family in families() + shaped_families():
        assert_same_components(family)
    assert ClosedFamily([]).overlap_components == []
    # a family holds no empty set
    with pytest.raises(ValueError):
        ClosedFamily([ElementSet(4, 0), ElementSet(4, 0b11), ElementSet(4, 0b110)])


def test_counts_of_shaped_families():
    rng = random.Random(3)
    family = disjoint_family(rng, 40)
    assert len(family.overlap_components) == len(family)
    assert len(giant_family(rng, 70).overlap_components) == 1
    assert len(chain_family(rng, 70).overlap_components) == 1
    family = pair_chain_family(40)
    h = extract_quasihierarchy(family, extract_adjacency(family), 0.5, tie_break="random", tie_rng_seed=1)
    # one equivalence group of 39 tied sets: a single, randomly drawn survivor
    assert len(h.family) == 1 and h.roots == [0] and h.family[0] != family[0]


def test_components_never_unpack_all_bits():
    """The m x n bits are unpacked one row block at a time."""
    rng = random.Random(4)
    n = 8000
    family = ClosedFamily(
        ElementSet.from_members(n, rng.sample(range(n), 160)) for _ in range(2000)
    )
    tracemalloc.start()
    try:
        components = family.overlap_components
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(components) == 1
    assert peak < len(family) * n / 4


def test_arbitrary_weights_on_intersecting_pairs():
    """The passes may only assume that non-intersecting sets score 0: random
    asymmetric weights elsewhere must give the oracle's result too."""
    rng = np.random.default_rng(11)
    for f_idx, family in enumerate(families() + shaped_families()):
        adj = extract_adjacency(family)
        adj[adj > 0] = rng.choice([0.2, 0.3, 0.5, 0.6, 0.7, 1.0, 1.5], size=int((adj > 0).sum()))
        for th in THRESHOLDS:
            for tie_break in TIE_BREAKS:
                assert_same_hierarchy(family, adj, th, tie_break, tie_rng_seed=f_idx)


def test_row_block_not_dividing_family_size(monkeypatch):
    rng = random.Random(5)
    family = ClosedFamily(ElementSet(12, m) for m in random_masks(rng, 12, 40, 0.3))
    m = len(family)
    # the family is one overlap component, so its strips split all m sets
    assert len(family.overlap_components) == 1
    rows = 3 if m % 3 else 4
    assert m % rows
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", rows * m)
    assert [hi - lo for lo, hi in core._row_blocks(m, m)][-1] == m % rows
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
