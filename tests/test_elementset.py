import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretopo import ElementSet, Universe

members_strategy = st.sets(st.integers(min_value=0, max_value=9))


def test_basic_construction():
    s = ElementSet.from_members(5, [0, 3, 3])
    assert s.members() == [0, 3]
    assert len(s) == 2
    assert 3 in s and 1 not in s


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        ElementSet.from_members(3, [3])
    with pytest.raises(ValueError):
        ElementSet(3, 1 << 5)


def test_extensional_equality_and_hash():
    a = ElementSet.from_members(4, [1, 2])
    b = ElementSet.from_members(4, [2, 1])
    assert a == b and hash(a) == hash(b)
    assert a != ElementSet.from_members(5, [1, 2])  # different universe


def test_immutable():
    s = ElementSet(4, 0b1010)
    with pytest.raises(AttributeError):
        s.mask = 0


@given(members_strategy, members_strategy)
def test_ops_match_python_sets(xs, ys):
    a = ElementSet.from_members(10, xs)
    b = ElementSet.from_members(10, ys)
    assert set((a | b).members()) == xs | ys
    assert set((a & b).members()) == xs & ys
    assert set((a - b).members()) == xs - ys
    assert a.issubset(b) == (xs <= ys)
    assert set(a.complement().members()) == set(range(10)) - xs


def test_canonical_sort_key_orders_by_size_then_mask():
    sets = [
        ElementSet.from_members(4, m)
        for m in ([0, 1, 2], [3], [0], [1, 2], [0, 3])
    ]
    ordered = sorted(sets, key=ElementSet.sort_key)
    assert [s.members() for s in ordered] == [[0], [3], [1, 2], [0, 3], [0, 1, 2]]


def test_universe_helpers():
    u = Universe.with_labels(["a", "b", "c"])
    assert u.size == 3
    assert u.label_of(1) == "b"
    assert ElementSet(u.size, u.full_mask).members() == [0, 1, 2]
    assert not u.empty_set()
    with pytest.raises(ValueError):
        Universe.with_labels(["a", "a"])
