import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretopo import ConfigError, Partition, adjusted_rand_index, confusion_matrix

TOL = 1e-12


def pair_counting_ari(labels_p, labels_q):
    """Independent oracle: classify every item pair as together/apart in each
    partition, then apply the closed form 2(ad-bc) / ((a+b)(b+d)+(a+c)(c+d))."""
    a = b = c = d = 0
    for i, j in itertools.combinations(range(len(labels_p)), 2):
        same_p = labels_p[i] == labels_p[j]
        same_q = labels_q[i] == labels_q[j]
        if same_p and same_q:
            a += 1
        elif same_p:
            b += 1
        elif same_q:
            c += 1
        else:
            d += 1
    denom = (a + b) * (b + d) + (a + c) * (c + d)
    if denom == 0:
        return 1.0
    return float(Fraction(2 * (a * d - b * c), denom))


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        p = Partition.from_labels([0, 0, 1, 1, 2])
        assert adjusted_rand_index(p, p) == 1.0

    def test_identical_up_to_relabeling(self):
        p = Partition.from_labels([0, 0, 1, 1])
        q = Partition.from_labels(["x", "x", "y", "y"])
        assert adjusted_rand_index(p, q) == 1.0

    def test_one_cluster_vs_singletons_is_zero(self):
        p = Partition.from_labels([7, 7, 7, 7])
        q = Partition.from_labels([0, 1, 2, 3])
        assert adjusted_rand_index(p, q) == pytest.approx(0.0, abs=TOL)

    def test_worked_example_four_sevenths(self):
        labels_p = [0, 0, 1, 1]
        labels_q = [0, 0, 1, 2]
        oracle = pair_counting_ari(labels_p, labels_q)
        assert oracle == pytest.approx(4.0 / 7.0, abs=TOL)
        value = adjusted_rand_index(
            Partition.from_labels(labels_p), Partition.from_labels(labels_q)
        )
        assert value == pytest.approx(oracle, abs=TOL)

    def test_oracle_cross_check_random_pairs(self):
        rng = random.Random(123)
        for _ in range(100):
            n = rng.randint(2, 12)
            labels_p = [rng.randint(0, 3) for _ in range(n)]
            labels_q = [rng.randint(0, 3) for _ in range(n)]
            ours = adjusted_rand_index(
                Partition.from_labels(labels_p), Partition.from_labels(labels_q)
            )
            assert abs(ours - pair_counting_ari(labels_p, labels_q)) < TOL

    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 10)
            p = Partition.from_labels([rng.randint(0, 2) for _ in range(n)])
            q = Partition.from_labels([rng.randint(0, 2) for _ in range(n)])
            assert adjusted_rand_index(p, q) == adjusted_rand_index(q, p)

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=10),
        st.permutations(list(range(4))),
    )
    def test_label_permutation_invariance(self, labels, perm):
        p = Partition.from_labels(labels)
        q = Partition.from_labels([labels[-1 - i] for i in range(len(labels))])
        relabeled = Partition.from_labels([perm[v] for v in labels])
        assert adjusted_rand_index(p, q) == adjusted_rand_index(relabeled, q)

    def test_outlier_label_is_its_own_cluster(self):
        p = Partition.from_labels([0, 0, -1, 1, 1])
        q = Partition.from_labels([5, 5, 9, 2, 2])
        assert adjusted_rand_index(p, q) == 1.0

    def test_mismatched_items_rejected(self):
        p = Partition(("a", "b"), (0, 1))
        q = Partition(("a", "c"), (0, 1))
        with pytest.raises(ConfigError):
            adjusted_rand_index(p, q)

    def test_too_small_rejected(self):
        p = Partition.from_labels([0])
        with pytest.raises(ConfigError):
            adjusted_rand_index(p, p)

    def test_item_order_does_not_matter(self):
        p1 = Partition(("a", "b", "c"), (0, 0, 1))
        p2 = Partition(("c", "a", "b"), (1, 0, 0))
        q = Partition(("a", "b", "c"), (0, 1, 1))
        assert adjusted_rand_index(p1, q) == adjusted_rand_index(p2, q)


class TestConfusionMatrix:
    def test_identical_partitions_diagonal(self):
        p = Partition.from_labels([0, 0, 1, 1, 2])
        matrix, rows, cols = confusion_matrix(p, p)
        assert rows == cols == [0, 1, 2]
        assert matrix == [[2, 0, 0], [0, 2, 0], [0, 0, 1]]

    def test_zero_entry_for_disjoint_labels(self):
        p = Partition.from_labels([0, 0, 1])
        q = Partition.from_labels([0, 0, 1])
        matrix, _, _ = confusion_matrix(p, q)
        assert matrix[0][1] == 0 and matrix[1][0] == 0

    def test_first_appearance_order(self):
        p = Partition.from_labels(["b", "a", "a", "c"])
        q = Partition.from_labels([1, 0, 0, 2])
        matrix, rows, cols = confusion_matrix(p, q)
        assert rows == ["b", "a", "c"]
        assert cols == [1, 0, 2]
        assert matrix == [[1, 0, 0], [0, 2, 0], [0, 0, 1]]

    def test_row_sums_match_cluster_sizes_and_total(self):
        rng = random.Random(31)
        labels_p = [rng.randint(0, 2) for _ in range(40)]
        labels_q = [rng.randint(0, 4) for _ in range(40)]
        p, q = Partition.from_labels(labels_p), Partition.from_labels(labels_q)
        matrix, rows, _ = confusion_matrix(p, q)
        for lab, row in zip(rows, matrix):
            assert sum(row) == labels_p.count(lab)
        assert sum(map(sum, matrix)) == 40


@pytest.mark.parametrize("items, labels, message", [
    ((0, 1), (0,), "one label per item required"),
    ((0, 0), (0, 1), "duplicate items in partition"),
], ids=["label-count", "duplicate-items"])
def test_invalid_partition_raises(items, labels, message):
    with pytest.raises(ConfigError) as exc_info:
        Partition(items, labels)
    assert str(exc_info.value) == message
