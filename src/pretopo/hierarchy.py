"""From seeds to a quasi-hierarchy of closed subsets.

The pipeline has four phases:

1. grow one seed per item (the item plus ``d`` walked neighbors),
2. expand every seed by iterated pseudoclosure, keeping all intermediate
   sets (the elementary closed subsets),
3. score every intersecting pair of subsets with size-ratio weights,
4. threshold the scores into parent/child edges, collapsing pairs that are
   strongly related in both directions.

Flattening the result yields ordinary clusters plus outliers.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass

import numpy as np

from .core import (
    ElementSet,
    PseudoclosureSpace,
    Universe,
    _kth_set_bit,
    _row_blocks,
    unpack_masks,
)
from .errors import _SCHEMA_VERSION, ConfigError, _check_document, malformed, read_field, read_number
from .similarity import Criterion, FeatureTable, _write_item_csv


@dataclass(frozen=True)
class Seed:
    """An item together with the neighbors walked from it."""

    origin: int
    members: ElementSet

    def __post_init__(self):
        if self.origin not in self.members:
            raise ValueError("seed must contain its origin")


@dataclass(frozen=True)
class ClosestNode:
    """Walk to the nearest unvisited item, measured by a distance criterion."""

    criterion: Criterion

    def __post_init__(self):
        if not getattr(self.criterion, "distance", False):
            raise ConfigError(
                f"{type(self.criterion).__name__} does not define a distance"
            )

    @classmethod
    def from_criteria(cls, criteria: list[Criterion]) -> "ClosestNode":
        for c in criteria:
            if getattr(c, "distance", False):
                return cls(c)
        raise ConfigError("no distance-kind criterion available for the closest-node walk")

    def walker(self, space: PseudoclosureSpace, table: FeatureTable | None, d: int):
        if table is None:
            raise ConfigError("closest-node walk needs a feature table")
        n = space.size
        # the distances the criterion's balls threshold, one row per step
        rows = self.criterion.rows(table)

        def closest_walk(first_node: int) -> list[int]:
            path: list[int] = []
            visited = np.zeros(n, dtype=bool)
            visited[first_node] = True
            last = first_node
            for _ in range(d):
                row = rows(last, last + 1)[0]
                # as a strict < scan: visited items never compete
                row[visited] = np.inf
                best = int(row.argmin())  # ties go to the lowest index
                if row[best] == np.inf:
                    break
                path.append(best)
                visited[best] = True
                last = best
            return path

        return closest_walk


@dataclass(frozen=True)
class RandomNeighbor:
    """Walk to a uniformly random unvisited neighbor of the current item."""

    rng_seed: int = 0

    def walker(self, space: PseudoclosureSpace, table: FeatureTable | None, d: int):
        def random_walk(first_node: int) -> list[int]:
            # one stream per origin so seeds are independent of walk order
            rng = random.Random(f"{self.rng_seed}:{first_node}")
            path: list[int] = []
            visited = 1 << first_node
            last = first_node
            for _ in range(d):
                candidates_mask = space.neighbor_mask(last) & ~visited
                if not candidates_mask:
                    break
                # the k-th set bit, drawn as from the ascending candidate list
                nxt = _kth_set_bit(candidates_mask, rng.randrange(candidates_mask.bit_count()))
                path.append(nxt)
                visited |= 1 << nxt
                last = nxt
            return path

        return random_walk


# Each seed function gives ``walker(space, table, d)``: its ``d``-step walk
# as a function of the first node, with whatever it reads off ``table``
# built once.  Each step starts from the last node reached and never
# revisits a node; the walk ends early when no candidate remains, so the
# path may be shorter than ``d``.
SeedFunc = ClosestNode | RandomNeighbor


def elementary_quasiclosures(
    space: PseudoclosureSpace,
    table: FeatureTable | None,
    d: int,
    seed_func: SeedFunc,
) -> list[Seed]:
    """One seed per item: the item plus its walked neighbors."""
    n = space.size
    if not n:
        return []
    if d < 0:
        raise ValueError("neighbor count d must be >= 0")
    if not isinstance(seed_func, SeedFunc):
        raise ConfigError(f"unknown seed function {seed_func!r}")
    walk = seed_func.walker(space, table, d)
    return [Seed(x, ElementSet.from_members(n, [x, *walk(x)])) for x in range(n)]


class ClosedFamily:
    """A deduplicated family of non-empty subsets of one universe (else
    ``ValueError``) in canonical order.

    Canonical order is cardinality ascending, ties broken by the numeric
    value of the member bitmask, so equal inputs always produce the same
    indexing.
    """

    def __init__(self, sets):
        sets = list(sets)
        unique = {s.mask: s for s in sets}
        if 0 in unique or len({s.n for s in sets}) > 1:
            raise ValueError("a closed family holds non-empty sets of one universe")
        self.sets: list[ElementSet] = sorted(unique.values(), key=ElementSet.sort_key)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def __getitem__(self, i: int) -> ElementSet:
        return self.sets[i]

    @functools.cached_property
    def overlap_components(self) -> list[np.ndarray]:
        """The family split into overlap components: two sets share one
        when a chain of sets, each meeting the next, links them.

        Each component is an ascending array of set indices; components are
        ordered by their smallest item.  Sets in different components are
        disjoint, so every intersecting pair lies inside one component.
        """
        m = len(self.sets)
        if not m:
            return []
        n = self.sets[0].n
        masks = [s.mask for s in self.sets]
        label = np.arange(n)
        first = np.empty(m, dtype=np.intp)
        # a set links its smallest item to each of its items, and joins that
        # item's component.  The sets' bits are unpacked in row blocks, never
        # all m x n at once.
        for lo, hi in _row_blocks(m, n):
            bits = unpack_masks(masks[lo:hi], n)
            sets, items = np.divmod(np.flatnonzero(bits), n)
            first[lo:hi] = bits.argmax(axis=1)
            label = _merge(label, first[lo + sets], items)
        label = label[first]
        order = np.argsort(label, kind="stable")
        return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, ClosedFamily) and self.sets == other.sets

    def __repr__(self) -> str:
        return f"ClosedFamily({len(self.sets)} sets)"


def elementary_closed_subsets(space: PseudoclosureSpace, seeds: list[Seed]) -> ClosedFamily:
    """Every set met while iterating the pseudoclosure from each seed.

    Each seed's chain (the seed, its pseudoclosure, and so on up to its
    closure) is walked in seed order and stops at the first set already
    found: that set's chain was walked to its end when it was found.  So
    every set is grown exactly once, from the set before it in its chain.
    A seed over another universe raises ``ValueError``.
    """
    seen: set[int] = set()
    for seed in seeds:
        for mask in space._chain(seed.members):
            if mask in seen:
                break
            seen.add(mask)
    return ClosedFamily(ElementSet(space.size, m) for m in seen)


def _merge(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Join the connected components that the edges ``a[e] -- b[e]`` link.

    ``label`` maps every node to the smallest node of its component so far
    (``np.arange(count)`` before any edge); the updated map is returned.
    Each round hooks the larger root of every edge that joins two trees to
    the smaller one, then jumps pointers until every node points at its
    root.  A node only ever points at a smaller node, so the smallest node
    of a component is never hooked and ends as its root.
    """
    while True:
        la, lb = label[a], label[b]
        joins = la != lb
        if not joins.any():
            return label
        a, b, la, lb = a[joins], b[joins], la[joins], lb[joins]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _incidence(family: ClosedFamily, sets: np.ndarray) -> np.ndarray:
    """0/1 matrix with one row per set in ``sets`` and one column per item
    that any of them holds.

    Its dtype keeps matmul sums of 0/1 terms exact: float32 below 2**24
    columns, float64 (exact to 2**53) beyond.
    """
    bits = unpack_masks([family[i].mask for i in sets.tolist()], family[0].n)
    bits = bits[:, bits.any(axis=0)]
    return bits.astype(np.float32 if bits.shape[1] < 1 << 24 else np.float64)


def _scored_strips(family: ClosedFamily, components, mutual_at: float | None = None):
    """The weights inside each component, in row strips of exact
    intersection counts.

    Each component is an ascending array of set indices, so its sizes
    ascend too.  For its rows ``lo:hi`` this yields ``(rows, cols, fwd,
    bwd)`` with ``rows = sets[lo:hi]`` and ``cols = sets[lo:end]``, from one
    matmul of the component's incidence matrix: every pair of the component
    is met once, in the row of its earlier set.  ``fwd[r, c]`` is the weight
    from F = rows[r] to G = cols[c], (|F&G|/|G|) * (|F|/|G|), and
    ``bwd[r, c]`` the weight back, (|F&G|/|F|) * (|G|/|F|).  Each is formed
    from the same two correctly rounded quotients and one product as the
    scalar formula, so it is bit-identical to it.

    ``end`` is the component's end; with ``mutual_at``, columns that cannot
    relate to the strip's rows at that threshold both ways are left out.
    For |F| <= |G| the weight from F is at most (|F|/|G|)**2, so a mutual
    pair needs |G| <= |F| / sqrt(th); the band is widened by 1e-9 relative,
    far beyond the few roundings in a weight, so it never drops a pair that
    scores >= th.
    """
    sizes = np.array([len(s) for s in family], dtype=np.float64)
    reach = None if mutual_at is None else (1 + 1e-9) / np.sqrt(mutual_at)
    for sets in components:
        inc = _incidence(family, sets)
        own = sizes[sets]
        for lo, hi in _row_blocks(len(sets), len(sets)):
            end = len(sets)
            if reach is not None:
                end = int(np.searchsorted(own, own[hi - 1] * reach, side="right"))
            rows, cols = sets[lo:hi], sets[lo:end]
            counts = inc[lo:hi] @ inc[lo:end].T
            s_rows, s_cols = own[lo:hi, None], own[lo:end]
            fwd = counts / s_cols
            fwd *= s_rows / s_cols
            bwd = counts / s_rows
            bwd *= s_cols / s_rows
            yield rows, cols, fwd, bwd


def extract_adjacency(family: ClosedFamily) -> np.ndarray:
    """Relation-strength matrix over the family.

    For intersecting distinct sets F and G the entry from G to F is
    (|G|/|F|) * (|F&G|/|F|) and symmetrically; disjoint pairs and the
    diagonal stay 0.  Containment makes the larger set's entry at least 1.

    This dense m x m float64 matrix is for inspection: the clustering
    pipeline scores the same weights strip by strip and never stores it.
    Only pairs inside one of the family's overlap components can
    intersect; they are filled from :func:`_scored_strips`.
    """
    m = len(family)
    adj = np.zeros((m, m), dtype=np.float64)
    components = [sets for sets in family.overlap_components if len(sets) > 1]
    for rows, cols, fwd, bwd in _scored_strips(family, components):
        adj[np.ix_(rows, cols)] = fwd
        adj[np.ix_(cols, rows)] = bwd.T
    np.fill_diagonal(adj, 0.0)
    return adj


@dataclass
class QuasiHierarchy:
    """Thresholded parent/child structure over a family of subsets."""

    universe: Universe
    family: ClosedFamily
    threshold: float
    parent_edges: list[tuple[int, int, float]]
    roots: list[int]

    def children_of(self, idx: int) -> list[int]:
        return [c for p, c, _ in self.parent_edges if p == idx]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": _SCHEMA_VERSION,
            "threshold": self.threshold,
            "universe_size": self.universe.size,
            "sets": [s.members() for s in self.family],
            "edges": [[p, c, w] for p, c, w in self.parent_edges],
            "roots": list(self.roots),
        }

    def to_json(self) -> str:
        """The ``hierarchy.json`` text: :meth:`to_json_dict`, keys sorted, indent 2."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_dot(self, min_size: int = 1) -> str:
        """Graphviz rendering; nodes smaller than ``min_size`` are dropped."""
        keep = {i for i, s in enumerate(self.family) if len(s) >= min_size}
        lines = ["digraph quasihierarchy {", "  rankdir=TB;"]
        for i in sorted(keep):
            size = len(self.family[i])
            shape = "doubleoctagon" if i in self.roots else "ellipse"
            lines.append(f'  n{i} [label="set {i} (n={size})", shape={shape}];')
        for p, c, w in self.parent_edges:
            if p in keep and c in keep:
                lines.append(f'  n{p} -> n{c} [label="{w:.3f}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "QuasiHierarchy":
        """Inverse of :meth:`to_json_dict`.

        Edges and roots index the ``sets`` list, so the sets must already be
        in canonical order and every index must fall inside it.  Every
        number must be a JSON number, an integer where it counts or indexes.
        Any malformed document raises :class:`ConfigError`.
        """
        what = "hierarchy json"
        _check_document(doc, what)
        with malformed(what):
            n = read_field(doc, "universe_size", what, int)
            universe = Universe.of_size(n)
            member = f"{what}: set member"
            listed = [ElementSet.from_members(n, [read_number(x, member, int) for x in s])
                      for s in doc["sets"]]
            family = ClosedFamily(listed)
            if family.sets != listed:
                raise ConfigError(f"{what}: sets must be distinct and in canonical order")
            end, weight = f"{what}: edge end", f"{what}: edge weight"
            edges = [(read_number(p, end, int), read_number(c, end, int), read_number(w, weight))
                     for p, c, w in doc["edges"]]
            roots = [read_number(r, f"{what}: root", int) for r in doc["roots"]]
            m = len(family)
            bad = [i for p, c, _ in edges for i in (p, c) if not 0 <= i < m]
            bad += [r for r in roots if not 0 <= r < m]
            if bad:
                raise ConfigError(f"{what}: set index {bad[0]} out of range for {m} sets")
            return cls(universe, family, read_field(doc, "threshold", what), edges, roots)


def check_quasihierarchy_options(th_qh: float, tie_break) -> None:
    """Raise :class:`ConfigError` unless ``th_qh`` lies in (0, 1] and
    ``tie_break`` names a known rule."""
    if not 0 < th_qh <= 1:
        raise ConfigError(f"th_qh must lie in (0, 1], got {th_qh}")
    if tie_break not in ("lowest_index", "random"):
        raise ConfigError(f"unknown tie_break {tie_break!r}")


def extract_quasihierarchy(
    family: ClosedFamily,
    adjacency: np.ndarray,
    th_qh: float,
    universe: Universe | None = None,
    tie_break: str = "lowest_index",
    tie_rng_seed: int = 0,
) -> QuasiHierarchy:
    """Prune mutually related subsets, then wire parent edges.

    Pairs related above ``th_qh`` in both directions are equivalent; in each
    connected group only the largest set survives (ties go to the lowest
    canonical index, or to a seeded random pick when ``tie_break="random"``).
    Among survivors, an edge runs from the strictly larger set of every pair
    whose relation reaches ``th_qh``; roots are the sets without a parent.

    ``adjacency`` must be 0 between sets that do not intersect, as
    :func:`extract_adjacency` makes it: both scans then only read pairs
    inside one of the family's overlap components, in row strips, without
    copying an m x m or survivor x survivor array.  Edges come out in the
    row-major pair order of a scan over the survivors.  An ``adjacency``
    that is not m x m for the family's m sets raises ``ValueError``.
    """
    m = len(family)
    if np.shape(adjacency) != (m, m):
        raise ValueError(f"adjacency of shape {np.shape(adjacency)} does not fit a family of {m} sets")

    def read_strips(components, mutual_at=None):
        # any weights may sit on intersecting pairs: no band
        for sets in components:
            for lo, hi in _row_blocks(len(sets), len(sets)):
                rows, cols = sets[lo:hi], sets[lo:]
                yield (rows, cols, adjacency[np.ix_(rows, cols)],
                       adjacency[np.ix_(cols, rows)].T)

    return _quasihierarchy(family, th_qh, universe, tie_break, tie_rng_seed, read_strips)


def _quasihierarchy(
    family: ClosedFamily,
    th_qh: float,
    universe: Universe | None = None,
    tie_break: str = "lowest_index",
    tie_rng_seed: int = 0,
    strips=None,
) -> QuasiHierarchy:
    """The two passes of :func:`extract_quasihierarchy` over the weights
    ``strips(components, mutual_at)`` yields, as :func:`_scored_strips`
    does; nothing is stored between the passes.  By default the weights
    are those of :func:`extract_adjacency`, scored strip by strip from
    intersection counts, so no m x m array is ever allocated.  A
    ``universe`` whose size is not that of the family's sets raises
    ``ValueError``."""
    check_quasihierarchy_options(th_qh, tie_break)
    if strips is None:
        strips = functools.partial(_scored_strips, family)
    m = len(family)
    if universe is None:
        universe = Universe.of_size(family[0].n if m else 0)
    elif m and universe.size != family[0].n:
        raise ValueError(f"universe of size {universe.size} does not fit sets over {family[0].n} items")

    sizes = np.array([len(s) for s in family], dtype=np.intp)
    components = [sets for sets in family.overlap_components if len(sets) > 1]

    # equivalence groups: join mutually related pairs, which intersect and
    # so share a component, strip by strip
    label = np.arange(m)
    for rows, cols, fwd, bwd in strips(components, mutual_at=th_qh):
        r, c = np.nonzero((fwd >= th_qh) & (bwd >= th_qh))
        upper = c > r
        label = _merge(label, rows[r[upper]], cols[c[upper]])

    # the members of each equivalence group, largest first and ascending
    # within a size; groups ordered by their smallest member
    order = np.lexsort((-sizes, label))
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    picks = starts.copy()
    if tie_break == "random":
        rng = random.Random(tie_rng_seed)
        largest = np.repeat(sizes[order[starts]], np.diff(starts, append=m))
        tied = np.add.reduceat(sizes[order] == largest, starts)
        for g in np.flatnonzero(tied > 1).tolist():
            picks[g] += rng.randrange(int(tied[g]))
    survivors = np.sort(order[picks]).tolist()

    # survivors ascend, so they keep the canonical order of ``family``
    pruned_family = ClosedFamily(family[i] for i in survivors)
    k = len(survivors)
    kept = np.zeros(m, dtype=bool)
    kept[survivors] = True
    position = np.cumsum(kept) - 1
    survivor_components = [s for s in (sets[kept[sets]] for sets in components) if len(s) > 1]
    found = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]
    # a strip holds each pair once, in the row of its earlier, never larger
    # set: the edge runs back from a strictly larger column
    for rows, cols, _, bwd in strips(survivor_components):
        r, c = np.nonzero((bwd >= th_qh) & (sizes[cols] > sizes[rows, None]))
        found.append((position[cols[c]], position[rows[r]], bwd[r, c]))
    parents, children, weights = (np.concatenate(column) for column in zip(*found))
    # the row-major pair order of a scan over survivors
    order = np.lexsort((children, parents))
    edges = list(zip(parents[order].tolist(), children[order].tolist(), weights[order].tolist()))
    has_parent = np.zeros(k, dtype=bool)
    has_parent[children] = True
    roots = np.flatnonzero(~has_parent).tolist()
    return QuasiHierarchy(
        universe=universe,
        family=pruned_family,
        threshold=th_qh,
        parent_edges=edges,
        roots=roots,
    )


def quasistructural_analysis(
    space: PseudoclosureSpace,
    table: FeatureTable | None,
    d: int,
    seed_func: SeedFunc,
    th_qh: float,
    tie_break: str = "lowest_index",
    tie_rng_seed: int = 0,
) -> QuasiHierarchy:
    """Run the full pipeline: seeds, closures, scores, thresholded hierarchy.

    ``tie_rng_seed`` seeds the pick among equally large equivalent sets when
    ``tie_break="random"``.  Scoring is matrix-free: its memory follows the
    overlap components' strips, not m x m."""
    seeds = elementary_quasiclosures(space, table, d, seed_func)
    family = elementary_closed_subsets(space, seeds)
    return _quasihierarchy(family, th_qh, space.universe, tie_break, tie_rng_seed)


@dataclass
class ClusteringResult:
    """Flat view of a quasi-hierarchy: clusters, assignment, outliers."""

    assignment: dict[int, int]
    clusters: list[ElementSet]
    outliers: ElementSet
    hierarchy: QuasiHierarchy

    def to_csv(self, path) -> None:
        """item_id,cluster_id rows; outliers get cluster_id -1."""
        universe = self.hierarchy.universe
        _write_item_csv(path, "cluster_id", (
            (universe.label_of(i), self.assignment.get(i, -1)) for i in range(universe.size)
        ))


def flatten(hierarchy: QuasiHierarchy) -> ClusteringResult:
    """Cut the hierarchy into disjointly assigned clusters plus outliers.

    The cut is the set of roots; a root covering the whole universe is
    replaced by its children.  Items lying in several cut sets go to the
    smallest one (ties to the lowest canonical index).  Items in no cut set
    of size at least 2 are outliers.
    """
    universe = hierarchy.universe
    full_mask = universe.full_mask
    cut: list[int] = []
    for r in hierarchy.roots:
        if universe.size and hierarchy.family[r].mask == full_mask:
            cut.extend(hierarchy.children_of(r))
        else:
            cut.append(r)
    cut = sorted(set(cut))

    clusters = [hierarchy.family[i] for i in cut if len(hierarchy.family[i]) >= 2]
    # canonical family order lists clusters smallest-first, so taking the
    # first containing cluster realizes "smallest set wins, ties to the
    # lowest canonical index"
    assignment: dict[int, int] = {}
    for cluster_id, cset in enumerate(clusters):
        for item in cset:
            assignment.setdefault(item, cluster_id)
    assigned_mask = 0
    for item in assignment:
        assigned_mask |= 1 << item
    outliers = ElementSet(universe.size, full_mask & ~assigned_mask)
    return ClusteringResult(
        assignment=assignment,
        clusters=clusters,
        outliers=outliers,
        hierarchy=hierarchy,
    )
