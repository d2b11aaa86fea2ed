"""Fixed reference work, timed as a process next to each ``pretopo cluster`` one.

    python3 perfbench/reference.py

It imports numpy and runs the kinds of work the program does: a pure-Python
loop of big-integer masks and float arithmetic that stores into a numpy
array, ``csv`` parsing of timestamped rows, and a few numpy kernels.  It
reads and writes no file and never changes, so its wall time follows only
the speed the shared machine gives this process at that moment.  The
benchmark divides each ``pretopo cluster`` wall time by the mean wall time
of the two reference processes around it (``run_rel``).
"""

from __future__ import annotations

import csv
import io
from datetime import datetime, timezone

import numpy as np

MASK_BITS = 600
MASKS = 1200
CSV_ROWS = 30_000


def masks_loop() -> float:
    masks = [(1 << (i % MASK_BITS)) | (1 << ((7 * i + 3) % MASK_BITS)) | (i << 40)
             for i in range(MASKS)]
    sizes = [mask.bit_count() for mask in masks]
    adj = np.zeros((MASKS, 64))
    for i in range(0, MASKS, 2):
        mi, ni = masks[i], sizes[i]
        for j in range(i + 1, MASKS):
            inter = (mi & masks[j]).bit_count()
            if inter == 0:
                continue
            adj[i % MASKS, j % 64] = (ni / sizes[j]) * (inter / sizes[j])
    return float(adj.sum())


def csv_parse() -> float:
    text = "".join(f"site_{i % 40:03d},{1609459200 + 1800 * i},{(i * 37) % 1000 / 7:.4f}\n"
                   for i in range(CSV_ROWS))
    total = 0.0
    for site, stamp, value in csv.reader(io.StringIO(text)):
        total += float(value) + datetime.fromtimestamp(int(stamp), tz=timezone.utc).hour
    return total


def numpy_kernels() -> float:
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((400, 2000))
    corr = np.corrcoef(rows)
    ordered = np.sort(rng.standard_normal(1_000_000))
    return float(corr.sum() + np.cumsum(ordered)[-1])


if __name__ == "__main__":
    masks_loop()
    csv_parse()
    numpy_kernels()
