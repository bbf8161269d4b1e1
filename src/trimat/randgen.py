"""Deterministic random instance generation.

Randomness comes from splitmix64 applied to a counter, so the bit stream
for a given seed is fixed forever and identical across platforms and
Python versions (unlike the stdlib Mersenne Twister helpers).  Edge k of a
generation schedule is present iff mix(seed, k) < density * 2^64.
"""

from __future__ import annotations

import numpy as np

from .bitmat import BitMatrix
from .graph import TripartiteGraph

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """The splitmix64 output function."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


_CHUNK = 1 << 16  # values mixed per pass, so the working set stays in cache


def _mix64_inplace(x: np.ndarray, tmp: np.ndarray) -> None:
    """mix64 on every element of x, in place; tmp is scratch of x's shape."""
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(x, np.uint64(shift), out=tmp)
        x ^= tmp
        x *= np.uint64(mult)
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp


class CounterRng:
    """Counter-based splitmix64 stream with a monotonically advancing cursor."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.cursor = 0

    def _value(self, k: int) -> int:
        return mix64(self.seed + ((k + 1) * _GOLD & _MASK))

    def next_u64(self) -> int:
        v = self._value(self.cursor)
        self.cursor += 1
        return v

    def next_below(self, n: int) -> int:
        """Uniform-ish integer in [0, n) via multiply-shift."""
        return (self.next_u64() * n) >> 64

    def next_block(self, count: int) -> np.ndarray:
        """count consecutive stream values as a uint64 array, mixed in place by chunks."""
        out = np.arange(self.cursor + 1, self.cursor + count + 1, dtype=np.uint64)
        self.cursor += count
        tmp = np.empty(min(count, _CHUNK), dtype=np.uint64)
        for lo in range(0, count, _CHUNK):
            x = out[lo : lo + _CHUNK]
            x *= np.uint64(_GOLD)
            x += np.uint64(self.seed)
            _mix64_inplace(x, tmp[: len(x)])
        return out


def _density_threshold(density: float) -> int:
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    return min(int(density * 2.0**64), 1 << 64)


def random_bitmatrix(rng: CounterRng, rows: int, cols: int, density: float) -> BitMatrix:
    """Random matrix: bit (i,j) drawn at stream position cursor + i*cols + j."""
    if rows == 0 or cols == 0:
        return BitMatrix(rows, cols)
    thr = _density_threshold(density)
    if thr == 0:
        rng.cursor += rows * cols
        return BitMatrix(rows, cols)
    bits = rng.next_block(rows * cols) < np.uint64(min(thr, _MASK))
    if thr > _MASK:
        bits[:] = True
    return BitMatrix.from_bits(bits.reshape(rows, cols))


def random_tripartite(
    rng: CounterRng,
    na: int,
    nb: int,
    nc: int,
    density: float,
) -> TripartiteGraph:
    """Random tripartite graph; pair matrices drawn in order AB, AC, BC."""
    ab = random_bitmatrix(rng, na, nb, density)
    ac = random_bitmatrix(rng, na, nc, density)
    bc = random_bitmatrix(rng, nb, nc, density)
    return TripartiteGraph(na, nb, nc, ab=ab, ac=ac, bc=bc)
