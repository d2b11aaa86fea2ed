"""Shared test oracles and fixture builders.

Everything here is brute force on purpose: oracles must stay independent of
the code paths they check.
"""

import csv
import math
import random
import sys

import numpy as np

from pretopo import (
    ClosedFamily,
    ConfigError,
    DataError,
    DegenerateSeriesError,
    ElementSet,
    EuclideanBall,
    FeatureTable,
    FilterSpace,
    GraphSpace,
    NeighborhoodBasis,
    PearsonBall,
    PrefilterSpace,
    PseudoclosureSpace,
    QuasiHierarchy,
    SizeBall,
    Universe,
)
from pretopo.core import unpack_masks
from pretopo.datagen import Sine, Square, Trend

# Cell spellings on both sides of what np.loadtxt and float() accept alike.
ODD_NUMBERS = [
    "1_000", " 1.0 ", "\t2\t", "0x10", "-1.5", "nan", "-nan", "inf", "-inf", "Infinity", "1e400",
    "-1e400", "1e-400", "-1e-400", "-0.0", "+0", "1.", ".5", "+.5", "1e5", "1E+05", "00012",
    "", " ", ".", "e5", "1e", "+", "1..2", "1d5", "\u0661", "\u20031", "1\u2003", "1\x0c", "1\x1c", "\x1f1",
    "0x1p3", "nan(1)", "abc", "2021-01-01T00:00:00Z", "2021-01-01 00:30:00+00:00", "#",
    "-0", "-00", "9007199254740993", "99999999999999999999", "5\u01fe", "\u09035", "-\U0001175e",
]


def brute_force_closure(space, a):
    """Smallest fixed set containing ``a``: enumerate all subsets, keep the
    fixed points that contain ``a``, intersect them."""
    n = space.size
    full = (1 << n) - 1
    result = full
    found = False
    for mask in range(1 << n):
        s = ElementSet(n, mask)
        if a.mask & ~mask == 0 and space.pseudoclosure(s).mask == mask:
            result &= mask
            found = True
    assert found, "the universe itself must be a fixed point"
    return ElementSet(n, result)


def brute_force_pseudoclosure_prefilter(basis_masks, a_mask, n):
    """Direct per-element evaluation: x joins when every basis set meets A."""
    out = 0
    for x in range(n):
        if all(bm & a_mask for bm in basis_masks[x]):
            out |= 1 << x
    return out


def brute_force_pseudoclosure_filter(basis_masks, a_mask, n):
    """Direct per-element evaluation: x joins when the intersection of its
    basis sets meets A."""
    out = 0
    for x in range(n):
        inter = (1 << n) - 1
        for bm in basis_masks[x]:
            inter &= bm
        if inter & a_mask:
            out |= 1 << x
    return out


def brute_force_pseudoclosure_graph(edges, a_mask):
    """Direct per-element evaluation: A plus the successors of each member,
    read from the edge lists."""
    out = a_mask
    for x, targets in enumerate(edges):
        if a_mask >> x & 1:
            for y in targets:
                out |= 1 << y
    return out


def brute_force_family(pseudoclosure, seed_masks):
    """Walk every seed's pseudoclosure chain to its fixed point, keeping each
    set on the way; ``pseudoclosure`` maps a mask to a mask."""
    seen = set()
    for mask in seed_masks:
        while mask not in seen:
            seen.add(mask)
            mask = pseudoclosure(mask)
    return seen


def pearson(x, y) -> float:
    """Sample correlation of two equal-length sequences, clamped to [-1, 1].

    Raises :class:`DegenerateSeriesError` when either input is constant.
    """
    n = len(x)
    if n != len(y):
        raise ValueError(f"length mismatch: {n} vs {len(y)}")
    if n < 2:
        raise ValueError("correlation needs at least two samples")
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxx = math.fsum((v - mx) ** 2 for v in x)
    syy = math.fsum((v - my) ** 2 for v in y)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateSeriesError("constant series has no linear signal")
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    return max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))


def brute_force_pairwise_matrix(table, criterion):
    """The whole pairwise matrix in one broadcast: an n x n x d difference
    tensor for positions, one matrix-vector product per row for series."""
    n = table.n_items
    if n == 0:
        return np.zeros((0, 0))
    if isinstance(criterion, EuclideanBall):
        if table.positions is None:
            raise ConfigError("euclidean criterion needs a position feature")
        pts = np.asarray(table.positions, dtype=np.float64).reshape(n, -1)
        diff = pts[:, None, :] - pts[None, :, :]
        sums = np.einsum("ijk,ijk->ij", diff, diff)
        out = np.sqrt(sums)
        # a sum that overflowed or left the normal range, redone pair by pair
        # from the differences divided by the power of two of the largest
        for i in range(n):
            for j in range(n):
                if not sys.float_info.min <= sums[i, j] < math.inf:
                    exponent = math.frexp(max(abs(float(c)) for c in diff[i, j]))[1]
                    total = 0.0
                    for c in diff[i, j]:
                        scaled = math.ldexp(float(c), -exponent)
                        total += scaled * scaled
                    try:
                        out[i, j] = math.ldexp(math.sqrt(total), exponent)
                    except OverflowError:
                        out[i, j] = math.inf
        return out
    if isinstance(criterion, SizeBall):
        if table.sizes is None:
            raise ConfigError("size criterion needs a size feature")
        s = np.asarray(table.sizes, dtype=np.float64)
        return np.abs(s[:, None] - s[None, :])
    if isinstance(criterion, PearsonBall):
        data = np.asarray(table.series_channel(criterion.channel), dtype=np.float64)
        centered = data - data.mean(axis=1, keepdims=True)
        norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
        for i, nv in enumerate(norms):
            if nv == 0.0:
                raise DegenerateSeriesError("constant series has no linear signal", item=i)
        out = np.ones((n, n), dtype=np.float64)
        for i in range(n):
            row = centered @ centered[i]
            np.divide(row, norms * norms[i], out=row)
            out[i, :] = row
            out[i, i] = 1.0
        np.clip(out, -1.0, 1.0, out=out)
        return out
    raise ConfigError(f"unknown criterion {criterion!r}")


def brute_force_ball_masks(table, criterion):
    """Per item, the ball mask built bit by bit from the oracle pairwise
    matrix; the item itself is always a member."""
    matrix = brute_force_pairwise_matrix(table, criterion)
    if isinstance(criterion, PearsonBall):
        hits = matrix >= criterion.threshold
    elif isinstance(criterion, EuclideanBall):
        hits = matrix <= criterion.radius
    else:
        hits = matrix <= criterion.tolerance
    masks = []
    for i in range(table.n_items):
        mask = 1 << i
        for j in np.flatnonzero(hits[i]):
            mask |= 1 << int(j)
        masks.append(mask)
    return masks


def brute_force_closest_walk(matrix, first_node, d):
    """The closest-node walk as a scalar scan over rows of ``matrix``: each
    step takes the first unvisited item at a strictly smaller distance."""
    path = []
    visited = {first_node}
    last = first_node
    for _ in range(d):
        best, best_d = -1, math.inf
        for j in range(len(matrix)):
            if j not in visited and matrix[last][j] < best_d:
                best, best_d = j, matrix[last][j]
        if best < 0:
            break
        path.append(best)
        visited.add(best)
        last = best
    return path


def unpack_kth_set_bit(mask, n, k):
    """Set bit ``k`` of an ``n``-bit ``mask``, read off its unpacked bits."""
    return int(np.flatnonzero(unpack_masks([mask], n)[0])[k])


def brute_force_random_walk(space, first_node, d, rng_seed):
    """The random-neighbor walk drawn from the explicit candidate list."""
    n = space.size
    rng = random.Random(f"{rng_seed}:{first_node}")
    path = []
    visited = 1 << first_node
    last = first_node
    for _ in range(d):
        candidates = ElementSet(n, space.neighbor_mask(last) & ~visited).members()
        if not candidates:
            break
        nxt = candidates[rng.randrange(len(candidates))]
        path.append(nxt)
        visited |= 1 << nxt
        last = nxt
    return path


def random_prefilter_space(rng, n, max_sets=3):
    bases = []
    for x in range(n):
        k = rng.randint(1, max_sets)
        row = []
        for _ in range(k):
            mask = rng.getrandbits(n) & ((1 << n) - 1)
            row.append(mask | (1 << x))
        bases.append(row)
    return PrefilterSpace(Universe.of_size(n), NeighborhoodBasis.from_masks(n, bases))


def random_filter_space(rng, n, max_sets=3):
    pre = random_prefilter_space(rng, n, max_sets)
    return FilterSpace(pre.universe, pre.basis)


def random_graph_space(rng, n, p=0.3):
    edges = [
        [y for y in range(n) if y != x and rng.random() < p] for x in range(n)
    ]
    return GraphSpace(Universe.of_size(n), edges)


class OddBumpSpace(PseudoclosureSpace):
    """Deliberately non-isotone: odd-sized sets get item 0 added."""

    def grow(self, mask, parent=0, parent_reach=None):
        return (mask | 1 if mask.bit_count() % 2 else mask), None


def random_isotone_space(rng, n):
    builder = rng.choice([random_prefilter_space, random_filter_space, random_graph_space])
    return builder(rng, n)


def all_subsets(n):
    return (ElementSet(n, mask) for mask in range(1 << n))


def brute_force_adjacency(family):
    """Pair-by-pair relation strengths: (|G|/|F|) * (|F&G|/|F|) from G to F."""
    m = len(family)
    adj = np.zeros((m, m), dtype=np.float64)
    sets = family.sets
    sizes = [len(s) for s in sets]
    if 0 in sizes:
        raise ValueError("closed family must not contain the empty set")
    for i in range(m):
        mi, ni = sets[i].mask, sizes[i]
        for j in range(i + 1, m):
            inter = (mi & sets[j].mask).bit_count()
            if inter == 0:
                continue
            nj = sizes[j]
            adj[i, j] = (ni / nj) * (inter / nj)
            adj[j, i] = (nj / ni) * (inter / ni)
    return adj


def brute_force_overlap_components(family):
    """Union-find over every pair of sets that share an item: the components
    as ascending lists of set indices, ordered by their first set."""
    m = len(family)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if family[i].mask & family[j].mask:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def brute_force_quasihierarchy(
    family, adjacency, th_qh, universe=None, tie_break="lowest_index", tie_rng_seed=0
):
    """Scan every pair for mutual relations, keep the largest set of each
    equivalence group, then scan every survivor pair for parent edges."""
    m = len(family)
    if universe is None:
        universe = Universe.of_size(family[0].n if m else 0)

    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if adjacency[i, j] >= th_qh and adjacency[j, i] >= th_qh:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    rng = random.Random(tie_rng_seed)
    survivors = []
    for members in groups.values():
        best_size = max(len(family[i]) for i in members)
        candidates = [i for i in members if len(family[i]) == best_size]
        if tie_break == "random" and len(candidates) > 1:
            survivors.append(candidates[rng.randrange(len(candidates))])
        else:
            survivors.append(min(candidates))
    survivors.sort()

    pruned_family = ClosedFamily(family[i] for i in survivors)
    pruned_adj = adjacency[np.ix_(survivors, survivors)]
    k = len(pruned_family)
    edges = []
    has_parent = [False] * k
    for i in range(k):
        si = len(pruned_family[i])
        for j in range(k):
            if i != j and pruned_adj[i, j] >= th_qh and si > len(pruned_family[j]):
                edges.append((i, j, float(pruned_adj[i, j])))
                has_parent[j] = True
    return QuasiHierarchy(
        universe=universe,
        family=pruned_family,
        threshold=th_qh,
        parent_edges=edges,
        roots=[i for i in range(k) if not has_parent[i]],
    )


def brute_force_widest_drop(pool):
    """The site whose removal widens the common window the most, first in
    pool order among equals: the former scan that recomputes the window of
    every candidate's remaining sites, seeded with -inf so that it picks a
    site even when every window left is empty."""

    def window_of(current):
        return max(s.coverage[0] for s in current), min(s.coverage[1] for s in current)

    best_site, best_width = None, -math.inf
    for candidate in pool:
        rest = [s for s in pool if s is not candidate]
        w0, w1 = window_of(rest)
        if w1 - w0 > best_width:
            best_site, best_width = candidate, w1 - w0
    return best_site


def brute_force_resample(timestamps, values, edges, aggregate, site_id="s"):
    """One site's bucket aggregates: each reading placed by a scan of the
    edges, bucket k holding edges[k] <= t < edges[k + 1] and the last bucket
    closed at the window end; a bucket's sum adds its readings in reading
    order, from 0.0.  Interior empty buckets are interpolated with
    ``np.interp``, as in the package."""
    edges = [float(e) for e in edges]
    n = len(edges) - 1
    sums, counts = [0.0] * n, [0] * n
    for t, v in zip(timestamps.tolist(), values.tolist()):
        for k in range(n):
            if edges[k] <= t < edges[k + 1] or (k == n - 1 and t == edges[n]):
                sums[k] += v
                counts[k] += 1
                break
    if not any(counts):
        raise DataError(f"site {site_id!r} has no samples inside the window")
    if not (counts[0] and counts[-1]):
        raise DataError(f"site {site_id!r} leaves a leading or trailing bucket empty")
    filled = [k for k in range(n) if counts[k]]
    empty = [k for k in range(n) if not counts[k]]
    out = [0.0] * n
    for k in filled:
        out[k] = sums[k] / counts[k] if aggregate == "mean" else sums[k]
    gaps = np.interp(empty, filled, [out[k] for k in filled]).tolist() if empty else []
    for k, value in zip(empty, gaps):
        out[k] = value
    return np.asarray(out, dtype=np.float64)


_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Scalar splitmix64, one Python big-int step per draw: the oracle for
    the counter-based blocks of :mod:`pretopo.rng`."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) / float(1 << 53)
        return lo + u * (hi - lo)

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        u1 = ((self.next_u64() >> 11) + 1) / float(1 << 53)  # in (0, 1], log-safe
        u2 = (self.next_u64() >> 11) / float(1 << 53)
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return mu + sigma * z


def scalar_generate_points(spec):
    """``datagen.generate_points`` as one scalar draw at a time."""
    rng = SplitMix64(spec.rng_seed)
    positions, sizes, labels = [], [], []
    for g_idx, g in enumerate(spec.groups):
        cx, cy = g.center
        lo, hi = g.size_range
        for _ in range(g.count):
            x = cx + g.dispersion * rng.gauss()
            y = cy + g.dispersion * rng.gauss()
            positions.append((x, y))
            sizes.append(rng.uniform(lo, hi))
            labels.append(g_idx)
    return FeatureTable(positions=positions, sizes=sizes), labels


def scalar_waveform(shape, t: int) -> float:
    """A ``datagen`` waveform's reading at step ``t``, in Python floats."""
    if isinstance(shape, Sine):
        return shape.offset + shape.amplitude * math.sin(2.0 * math.pi * (t - shape.phase) / shape.period)
    if isinstance(shape, Square):
        frac = ((t - shape.phase) % shape.period) / shape.period
        return shape.offset + (shape.amplitude if frac < shape.duty else -shape.amplitude)
    if isinstance(shape, Trend):
        return shape.intercept + shape.slope * t
    total = 0  # a Mix, added left to right: sum() compensates from Python 3.12
    for component in shape.components:
        total = total + scalar_waveform(component, t)
    return total


def scalar_generate_series(spec):
    """``datagen.generate_series`` as one scalar draw at a time."""
    rng = SplitMix64(spec.rng_seed)
    series, labels = [], []
    for c_idx, cluster in enumerate(spec.clusters):
        base = [scalar_waveform(cluster.shape, t) for t in range(cluster.length)]
        for _ in range(cluster.count):
            if cluster.noise_sigma:
                series.append([b + rng.gauss(0.0, cluster.noise_sigma) for b in base])
            else:
                series.append(list(base))
            labels.append(c_idx)
    return FeatureTable(series=series), labels


def csv_writer_to_csv(table, path):
    """``FeatureTable.to_csv`` through ``csv.writer``, one cell at a time."""
    header = []
    if table.positions is not None:
        header += ["x", "y"]
    if table.sizes is not None:
        header.append("size")
    if table.series is not None:
        header += [f"series_{i}" for i in range(len(table.series[0]) if len(table.series) else 0)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(table.n_items):
            row = []
            if table.positions is not None:
                row += [repr(float(table.positions[i][0])), repr(float(table.positions[i][1]))]
            if table.sizes is not None:
                row.append(repr(float(table.sizes[i])))
            if table.series is not None:
                row += [repr(float(v)) for v in table.series[i]]
            writer.writerow(row)
