"""Partition agreement metrics: adjusted Rand index and confusion matrix.

Both metrics work on hard partitions. Outliers keep their reserved label
and therefore count as one cluster of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Hashable, Sequence

from .errors import ConfigError

OUTLIER_LABEL = -1


@dataclass(frozen=True)
class Partition:
    """Labels over a fixed item set; item order fixes label appearance order."""

    items: tuple[Hashable, ...]
    labels: tuple[Hashable, ...]

    def __post_init__(self):
        if len(self.items) != len(self.labels):
            raise ConfigError("one label per item required")
        if len(set(self.items)) != len(self.items):
            raise ConfigError("duplicate items in partition")

    @classmethod
    def from_labels(cls, labels: Sequence[Hashable]) -> "Partition":
        return cls(tuple(range(len(labels))), tuple(labels))

    def label_of(self) -> dict[Hashable, Hashable]:
        return dict(zip(self.items, self.labels))

    def __len__(self) -> int:
        return len(self.items)


def confusion_matrix(p: Partition, q: Partition):
    """Co-membership counts: rows follow p's labels, columns q's labels,
    both in first-appearance order. Returns (matrix, row_labels, col_labels)."""
    if set(p.items) != set(q.items):
        raise ConfigError("partitions cover different item sets")
    q_label = q.label_of()
    q_labels = [q_label[item] for item in p.items]
    row_idx = {lab: i for i, lab in enumerate(dict.fromkeys(p.labels))}
    col_idx = {lab: j for j, lab in enumerate(dict.fromkeys(q_labels))}
    matrix = [[0] * len(col_idx) for _ in row_idx]
    for p_lab, q_lab in zip(p.labels, q_labels):
        matrix[row_idx[p_lab]][col_idx[q_lab]] += 1
    return matrix, list(row_idx), list(col_idx)


def adjusted_rand_index(p: Partition, q: Partition) -> float:
    """Chance-corrected pair-counting agreement; 1.0 for identical partitions.

    Computed from the contingency table with exact integer combinatorics:
    (sum_ij C(n_ij,2) - E) / (M - E) where E is the expected index and M the
    mean of the two marginal pair counts.
    """
    n = len(p)
    if n < 2:
        raise ConfigError("adjusted rand index needs at least two items")
    matrix, _, _ = confusion_matrix(p, q)
    sum_cells = sum(comb(c, 2) for row in matrix for c in row)
    sum_rows = sum(comb(sum(row), 2) for row in matrix)
    col_totals = [sum(row[j] for row in matrix) for j in range(len(matrix[0]))]
    sum_cols = sum(comb(c, 2) for c in col_totals)
    total_pairs = comb(n, 2)
    expected = sum_rows * sum_cols / total_pairs
    maximum = (sum_rows + sum_cols) / 2
    if maximum == expected:
        # both partitions are trivial the same way (all singletons or one
        # block), which is exact agreement
        return 1.0
    return (sum_cells - expected) / (maximum - expected)
