"""Deterministic random number generation with a pinned bit-level contract.

Generated fixtures are regenerated rather than shipped, so the exact draw
sequence is part of the data format:

* the raw stream is splitmix64, which is counter-based: its state after k
  steps is seed + k·0x9E3779B97F4A7C15 mod 2⁶⁴, so draw k (k >= 1) is the
  finalizer mix of that state.  Any block of draws is computed directly,
  without stepping through the draws before it (Steele, Lea & Flood,
  OOPSLA 2014);
* a uniform double takes the top 53 bits of one output, scaled to [0, 1);
* a normal double is Box-Muller using two consecutive outputs per draw: the
  first is mapped to (0, 1] before the log, and only the cosine branch is
  used (no spare is cached).

Blocks are numpy arrays.  The integer arithmetic wraps in uint64 with
explicit ``np.uint64`` operands, so numpy's value-based casting (1.x) and
NEP 50 (2.x) agree.  Scaling, ``sqrt``, ``*`` and ``+`` are exact or
correctly rounded in numpy; ``log`` and ``cos`` are not guaranteed to be,
so they run per element through :mod:`math`, as a scalar generator would.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))
_TWO53 = float(1 << 53)
_TWO_PI = 2.0 * math.pi


def splitmix64(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start + 1 … start + count`` of splitmix64(``seed``) as uint64.

    ``seed`` is taken modulo 2⁶⁴; ``start`` counts the outputs drawn before.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GOLDEN
    z += np.uint64(seed & _MASK64)
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def uniforms(raw: np.ndarray, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """One uniform double in [lo, hi) per raw output: ``lo + u * (hi - lo)``."""
    u = (raw >> _S11).astype(np.float64) / _TWO53
    return lo + u * (hi - lo)


def normals(raw: np.ndarray, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
    """One normal double ``mu + sigma * z`` per pair along the last axis of
    ``raw``, whose length must be 2; the result drops that axis."""
    u1 = ((raw[..., 0] >> _S11) + _ONE).astype(np.float64) / _TWO53  # in (0, 1], log-safe
    u2 = (raw[..., 1] >> _S11).astype(np.float64) / _TWO53
    z = np.sqrt(-2.0 * _per_element(math.log, u1)) * _per_element(math.cos, _TWO_PI * u2)
    return mu + sigma * z


def _per_element(func, x: np.ndarray) -> np.ndarray:
    """``func`` of each element of ``x``, computed by :mod:`math`."""
    return np.fromiter(map(func, memoryview(x.ravel())), np.float64, x.size).reshape(x.shape)
