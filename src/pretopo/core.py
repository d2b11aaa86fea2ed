"""Pretopological spaces over finite universes.

A space pairs a finite universe with a pseudoclosure operator ``a(.)``
satisfying ``a(empty) = empty`` and ``A subset-of a(A)``.  Three concrete
space kinds are provided:

* :class:`PrefilterSpace` -- each item carries a list of basis sets; an item
  joins ``a(A)`` when every one of its basis sets intersects ``A``.  The
  operator is evaluated from the members of ``A`` through transposed basis
  masks, so its cost follows ``|A|``, not the universe size.
* :class:`FilterSpace` -- same storage, but the basis sets are intersected
  first; an item joins ``a(A)`` when that single intersection meets ``A``.
* :class:`GraphSpace` -- ``a(A)`` is ``A`` plus all successors of ``A``
  along directed edges: the prefilter space with one basis set per item.

Sets of items are bitsets (:class:`ElementSet`) over dense 0-based indices,
so the hot operations are integer ANDs and ORs.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import reduce
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, UnsupportedSpaceError


@dataclass(frozen=True)
class Universe:
    """A finite, dense index space 0..size-1 with optional external labels."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"universe size must be >= 0, got {self.size}")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise ValueError("label count does not match universe size")
            if len(set(self.labels)) != self.size:
                raise ValueError("labels must be unique")

    @classmethod
    def of_size(cls, n: int) -> "Universe":
        return cls(n)

    @classmethod
    def with_labels(cls, labels: Sequence[str]) -> "Universe":
        return cls(len(labels), tuple(labels))

    def label_of(self, index: int) -> str:
        if self.labels is not None:
            return self.labels[index]
        return str(index)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def empty_set(self) -> "ElementSet":
        return ElementSet(self.size, 0)

    def subset(self, members: Iterable[int]) -> "ElementSet":
        return ElementSet.from_members(self.size, members)


def _set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _kth_set_bit(mask: int, k: int) -> int:
    """Index of set bit ``k`` of ``mask``, counting the lowest as 0; ``k``
    must be below ``mask.bit_count()``.  Bisects on the count of set bits
    below an index, so no bit is visited one at a time."""
    # the answer t is the largest index with at most k set bits below it
    lo, hi = 0, mask.bit_length()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() <= k:
            lo = mid
        else:
            hi = mid
    return lo


class ElementSet:
    """An immutable subset of a universe, stored as a bitmask.

    Equality is extensional within a universe of the same size; instances
    are hashable and ordered canonically by (cardinality, mask value).
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} out of range for universe of size {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ElementSet is immutable")

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "ElementSet":
        mask = 0
        for i in members:
            if not 0 <= i < n:
                raise ValueError(f"item index {i} out of range for universe of size {n}")
            mask |= 1 << i
        return cls(n, mask)

    def members(self) -> list[int]:
        return list(self)

    def __iter__(self) -> Iterator[int]:
        return _set_bits(self.mask)

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.mask >> i & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.n, self.mask | other.mask)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.n, self.mask & ~other.mask)

    def complement(self) -> "ElementSet":
        return ElementSet(self.n, self.mask ^ ((1 << self.n) - 1))

    def issubset(self, other: "ElementSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def sort_key(self) -> tuple[int, int]:
        """Canonical ordering: cardinality ascending, then mask value."""
        return (self.mask.bit_count(), self.mask)

    def _check(self, other: "ElementSet"):
        if self.n != other.n:
            raise ValueError("element sets belong to universes of different size")

    def __repr__(self) -> str:
        return f"ElementSet({self.n}, {{{', '.join(map(str, self))}}})"


@dataclass(frozen=True)
class NeighborhoodBasis:
    """Per-item lists of basis sets; every basis set of x must contain x."""

    sets: tuple[tuple[ElementSet, ...], ...]

    def __post_init__(self):
        for x, basis in enumerate(self.sets):
            if not basis:
                raise ValueError(f"item {x} has an empty basis list")
            for b in basis:
                if x not in b:
                    raise ValueError(f"basis set {b!r} of item {x} does not contain {x}")

    @classmethod
    def from_masks(cls, n: int, masks: Sequence[Sequence[int]]) -> "NeighborhoodBasis":
        return cls(
            tuple(tuple(ElementSet(n, m) for m in row) for row in masks)
        )

    def __len__(self) -> int:
        return len(self.sets)


class PseudoclosureSpace:
    """Base class: a universe plus a pseudoclosure operator.

    Subclasses implement :meth:`grow`, which carries what it computed for a
    set (its reach) forward to the set's supersets, so that iterating the
    operator pays only for the members each step adds.  One application of
    the operator is ``grow`` from the empty parent; everything else
    (closure iteration, interior, diagnostics) is generic.  Instances are
    immutable after construction and safe to share across threads.
    """

    def __init__(self, universe: Universe):
        self.universe = universe

    @property
    def size(self) -> int:
        return self.universe.size

    def _pseudoclosure_mask(self, mask: int) -> int:
        return self.grow(mask)[0]

    def grow(self, mask: int, parent: int = 0, parent_reach=None) -> tuple[int, object]:
        """``a(mask)`` as a bitmask, plus the reach that produced it.

        ``parent`` must be a subset of ``mask`` and ``parent_reach`` the
        reach this method returned for it; ``None`` stands for the empty
        parent.  The call costs only the members in ``mask & ~parent``.
        """
        raise NotImplementedError

    def _require(self, a: ElementSet):
        if a.n != self.size:
            raise ValueError(
                f"element set over universe of size {a.n} used with space of size {self.size}"
            )

    def pseudoclosure(self, a: ElementSet) -> ElementSet:
        """One application of the expansion operator."""
        self._require(a)
        return ElementSet(self.size, self._pseudoclosure_mask(a.mask))

    def closure(self, a: ElementSet) -> ElementSet:
        """Iterate the pseudoclosure until it reaches a fixed point.

        Each non-final step strictly grows the set, so the loop ends after
        at most ``size`` iterations.
        """
        self._require(a)
        mask, parent, reach = a.mask, 0, None
        while True:
            grown, reach = self.grow(mask, parent, reach)
            if grown == mask:
                return ElementSet(self.size, mask)
            mask, parent = grown, mask

    def interior(self, a: ElementSet) -> ElementSet:
        """Dual operator: complement of the pseudoclosure of the complement."""
        self._require(a)
        full = self.universe.full_mask
        return ElementSet(self.size, self._pseudoclosure_mask(a.mask ^ full) ^ full)

    def neighborhoods_of(self, x: int) -> list[ElementSet]:
        """A minimal generating family of neighborhoods of item ``x``."""
        raise NotImplementedError

    def neighbor_mask(self, x: int) -> int:
        """Items a random walk may step to from ``x``: a graph space's successors
        of ``x``, else the union of the basis sets of ``x`` minus ``x`` (in a filter
        space x's balls, not the one intersection :meth:`neighborhoods_of` gives)."""
        raise NotImplementedError


# Row strips are sized so that each temporary holds about this many entries.
# Square arrays sit outside them: extract_adjacency returns an m x m matrix,
# and PrefilterSpace._transposed_slots unpacks each basis slot into an n x n
# uint8 matrix, whose transpose pack_rows copies whole.
_BLOCK_ENTRIES = 1 << 18


def _row_blocks(rows: int, width: int):
    """Half-open (lo, hi) bounds splitting ``rows`` rows of ``width`` columns."""
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    for lo in range(0, rows, step):
        yield lo, min(lo + step, rows)


def unpack_masks(masks: Sequence[int], n: int) -> np.ndarray:
    """0/1 uint8 matrix with one row per mask; column i holds bit i."""
    nbytes = (n + 7) // 8
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def pack_rows(bits: np.ndarray) -> list[int]:
    """Inverse of :func:`unpack_masks`: one mask per row of a 0/1 matrix."""
    rows, n = bits.shape
    nbytes = (n + 7) // 8
    raw = np.packbits(np.ascontiguousarray(bits), axis=1, bitorder="little").tobytes()
    return [int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "little") for i in range(rows)]


class PrefilterSpace(PseudoclosureSpace):
    """Neighborhood space: x joins a(A) when every basis set of x meets A.

    Basis set j of x meets A exactly when x lies in T_j(y) = {x : y in
    basis_j(x)} for some y in A.  So a(A) is the intersection over slots j
    of short_j | (union of T_j(y) over y in A), where short_j holds the
    items with no basis set j.  One call costs |A| big-integer ORs per slot;
    :meth:`grow` keeps each slot's union, its reach, so that a superset of
    an evaluated set pays only for its new members.  Basis sets lie in the
    space's universe.
    """

    def __init__(self, universe: Universe, basis: NeighborhoodBasis):
        super().__init__(universe)
        if len(basis) != universe.size:
            raise ValueError("basis does not cover the universe")
        if {b.n for row in basis.sets for b in row} - {universe.size}:
            raise ValueError(f"basis sets lie outside the space's universe of size {universe.size}")
        self.basis = basis
        self._slots = self._transposed_slots()

    def _transposed_slots(self) -> list[tuple[list[int], int]]:
        """Per basis slot j: T_j(y) for every item y, and short_j."""
        return [
            (pack_rows(unpack_masks(rows, self.size).T), short)
            for rows, short in self._slot_rows()
        ]

    def _slot_rows(self) -> list[tuple[list[int], int]]:
        """Per basis slot j: each item's basis set j (0 if it has none), short_j."""
        slots = []
        depth = max(map(len, self.basis.sets), default=0)
        for j in range(depth):
            rows = []
            short = 0
            for x, row in enumerate(self.basis.sets):
                if j < len(row):
                    rows.append(row[j].mask)
                else:
                    rows.append(0)
                    short |= 1 << x
            slots.append((rows, short))
        return slots

    def grow(self, mask: int, parent: int = 0, parent_reach=None) -> tuple[int, tuple[int, ...]]:
        """``a(mask)`` and the reach tuple, one entry per basis slot:
        reach_j(mask) = reach_j(parent) | T_j(y) for each added member y."""
        if parent_reach is None:
            parent, parent_reach = 0, [short for _, short in self._slots]
        added = list(_set_bits(mask & ~parent))
        out = self.universe.full_mask
        reach = []
        for (transposed, _), slot_reach in zip(self._slots, parent_reach):
            for y in added:
                slot_reach |= transposed[y]
            reach.append(slot_reach)
            out &= slot_reach
        return out, tuple(reach)

    def neighborhoods_of(self, x: int) -> list[ElementSet]:
        return list(self.basis.sets[x])

    def neighbor_mask(self, x: int) -> int:
        union = 0
        for b in self.basis.sets[x]:
            union |= b.mask
        return union & ~(1 << x)


class FilterSpace(PrefilterSpace):
    """Neighborhood space whose basis sets are intersected before testing.

    x joins a(A) when the intersection of all its basis sets meets A, i.e.
    the generated family is stable under intersection and has a single-set
    basis.  That is a prefilter space with one slot: the intersections.
    """

    def __init__(self, universe: Universe, basis: NeighborhoodBasis):
        self._intersection_masks = [
            reduce(operator.and_, (b.mask for b in row)) for row in basis.sets
        ]
        super().__init__(universe, basis)

    def _slot_rows(self) -> list[tuple[list[int], int]]:
        return [(self._intersection_masks, 0)]

    def neighborhoods_of(self, x: int) -> list[ElementSet]:
        return [ElementSet(self.size, self._intersection_masks[x])]


class GraphSpace(PrefilterSpace):
    """Graph form: a(A) = A plus the out-neighbors of every item of A.

    This is the prefilter space whose one basis set of x is x plus its
    predecessors, which meets A exactly when x is in A or follows a member
    of A.  Its transposed slot T(y) is y plus y's successors, read straight
    off the edge lists, so no n x n bit matrix is transposed.
    """

    def __init__(self, universe: Universe, edges: Sequence[Sequence[int]]):
        n = universe.size
        if len(edges) != n:
            raise ValueError("adjacency list does not cover the universe")
        succ = [1 << x for x in range(n)]
        pred = list(succ)
        for x, targets in enumerate(edges):
            for y in targets:
                if not 0 <= y < n:
                    raise ValueError(f"edge {x}->{y} leaves the universe")
                succ[x] |= 1 << y
                pred[y] |= 1 << x
        self.edges = tuple(tuple(sorted(t)) for t in edges)
        self._closed_succ = succ
        super().__init__(universe, NeighborhoodBasis.from_masks(n, [[m] for m in pred]))

    def _transposed_slots(self) -> list[tuple[list[int], int]]:
        return [(self._closed_succ, 0)]

    def neighbor_mask(self, x: int) -> int:
        return self._closed_succ[x] & ~(1 << x)


class CheckResult(NamedTuple):
    ok: bool
    counterexample: tuple[ElementSet, ...] | None

    def __bool__(self) -> bool:
        return self.ok


_EXHAUSTIVE_LIMIT = 12


def _pseudoclosure_table(space: PseudoclosureSpace) -> list[int]:
    """a(S) for every subset mask. Exponential; callers cap the universe size."""
    return [space._pseudoclosure_mask(m) for m in range(1 << space.size)]


def _property_cases(space: PseudoclosureSpace, trials: int, rng_seed: int, every, sample):
    """a(.) and the cases (masks or tuples of masks) a property check tries.

    At most 12 items: a lookup into the a(.) table and ``every(n)``, every
    case in a fixed order.  Above: the operator itself and ``trials`` cases
    ``sample(draw)``, where ``draw(within)`` is a random subset of ``within``
    (default the universe) from ``random.Random(rng_seed)``.
    """
    n = space.size
    if n <= _EXHAUSTIVE_LIMIT:
        return _pseudoclosure_table(space).__getitem__, every(n)
    rng = random.Random(rng_seed)
    full = space.universe.full_mask

    def draw(within: int = full) -> int:
        return rng.getrandbits(n) & within

    return space._pseudoclosure_mask, (sample(draw) for _ in range(trials))


def _nested_pairs(n: int) -> Iterator[tuple[int, int]]:
    """(A, B) with A a subset of B: B ascending, A over B's submasks descending to 0."""
    for b_mask in range(1 << n):
        a_mask = b_mask
        while True:
            yield a_mask, b_mask
            if a_mask == 0:
                break
            a_mask = (a_mask - 1) & b_mask


def check_isotony(space: PseudoclosureSpace, trials: int = 1000, rng_seed: int = 0) -> CheckResult:
    """Test A subset-of B implies a(A) subset-of a(B).

    Exhaustive over all nested pairs when the universe has at most 12 items,
    otherwise ``trials`` sampled nested pairs.
    """
    n = space.size
    # a sampled pair draws B, then A within B
    a, cases = _property_cases(space, trials, rng_seed, _nested_pairs, lambda draw: (draw(b := draw()), b))
    for a_mask, b_mask in cases:
        if a(a_mask) & ~a(b_mask):
            return CheckResult(False, (ElementSet(n, a_mask), ElementSet(n, b_mask)))
    return CheckResult(True, None)


def check_additivity(space: PseudoclosureSpace, trials: int = 1000, rng_seed: int = 0) -> CheckResult:
    """Test a(A | B) == a(A) | a(B) over pairs of subsets.

    Exhaustive over the pairs A <= B (as masks) when the universe has at
    most 12 items, otherwise ``trials`` sampled pairs.
    """
    n = space.size
    a, cases = _property_cases(
        space, trials, rng_seed,
        lambda n: combinations_with_replacement(range(1 << n), 2),
        lambda draw: (draw(), draw()),
    )
    for a_mask, b_mask in cases:
        if a(a_mask | b_mask) != a(a_mask) | a(b_mask):
            return CheckResult(False, (ElementSet(n, a_mask), ElementSet(n, b_mask)))
    return CheckResult(True, None)


def check_singleton_union(space: PseudoclosureSpace, trials: int = 1000, rng_seed: int = 0) -> CheckResult:
    """Test a(A) == union of a({x}) over x in A (singleton decomposition).

    Exhaustive over every subset when the universe has at most 12 items,
    otherwise ``trials`` sampled subsets.
    """
    n = space.size
    a, cases = _property_cases(space, trials, rng_seed, lambda n: range(1 << n), lambda draw: draw())
    singles = [a(1 << x) for x in range(n)]
    for mask in cases:
        if a(mask) != reduce(operator.or_, (singles[x] for x in _set_bits(mask)), 0):
            return CheckResult(False, (ElementSet(n, mask),))
    return CheckResult(True, None)


def reconstruct_neighborhoods(space: PseudoclosureSpace) -> list[list[ElementSet]]:
    """Recover, per item, the minimal sets V with x in i(V).

    Exponential in the universe size; restricted to at most 12 items.
    The space must be isotone, otherwise the recovered family does not
    determine the original operator.
    """
    n = space.size
    if n > _EXHAUSTIVE_LIMIT:
        raise ConfigError(f"neighborhood reconstruction is exponential; universe of {n} items exceeds {_EXHAUSTIVE_LIMIT}")
    ok, witness = check_isotony(space)
    if not ok:
        raise UnsupportedSpaceError(f"space is not isotone (witness {witness})")
    table = _pseudoclosure_table(space)
    full = space.universe.full_mask
    out: list[list[ElementSet]] = []
    for x in range(n):
        bit = 1 << x
        # x in i(V)  <=>  x not in a(complement of V)
        accepted = [v for v in range(1 << n) if not table[v ^ full] & bit]
        accepted.sort(key=lambda v: v.bit_count())
        minimal: list[int] = []
        for v in accepted:
            if not any(m & ~v == 0 for m in minimal):
                minimal.append(v)
        out.append([ElementSet(n, m) for m in sorted(minimal)])
    return out


def pseudoclosure_from_prefilter_roundtrip(space: PseudoclosureSpace) -> bool:
    """Rebuild the operator from its recovered neighborhoods and compare.

    Returns True when the rebuilt prefilter pseudoclosure agrees with the
    original on every subset of the universe.
    """
    n = space.size
    if n == 0:
        return True
    families = reconstruct_neighborhoods(space)
    basis = NeighborhoodBasis(tuple(tuple(row) for row in families))
    rebuilt = PrefilterSpace(space.universe, basis)
    table = _pseudoclosure_table(space)
    rebuilt_table = _pseudoclosure_table(rebuilt)
    return table == rebuilt_table
