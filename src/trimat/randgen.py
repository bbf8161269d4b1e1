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
        """count consecutive stream values as a uint64 array."""
        out = np.empty(count, dtype=np.uint64)
        for lo, x in self._chunks(count):
            out[lo : lo + len(x)] = x
        return out

    def _chunks(self, count: int):
        """Advance the cursor by count and return the skipped values by chunks.

        The iterator yields (offset, values) for at most _CHUNK values at a
        time, mixed in one reused buffer: use each chunk before the next.
        """
        first, seed = self.cursor + 1, self.seed
        self.cursor += count
        buf = np.empty(min(count, _CHUNK), dtype=np.uint64)
        tmp = np.empty_like(buf)
        # value first + lo + s mixes (first + lo + s) * _GOLD + seed: s * _GOLD plus a chunk constant
        golden = np.arange(len(buf), dtype=np.uint64) * np.uint64(_GOLD)

        def chunks():
            for lo in range(0, count, _CHUNK):
                x = buf[: min(_CHUNK, count - lo)]
                np.add(golden[: len(x)], np.uint64(((first + lo) * _GOLD + seed) & _MASK), out=x)
                _mix64_inplace(x, tmp[: len(x)])
                yield lo, x

        return chunks()


def _density_threshold(density: float) -> int:
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    return min(int(density * 2.0**64), 1 << 64)


def random_bitmatrix(rng: CounterRng, rows: int, cols: int, density: float) -> BitMatrix:
    """Random matrix: bit (i,j) drawn at stream position cursor + i*cols + j."""
    if rows == 0 or cols == 0:
        return BitMatrix(rows, cols)
    thr = _density_threshold(density)
    bits = np.empty(rows * cols, dtype=bool)
    if 0 < thr <= _MASK:
        for lo, x in rng._chunks(rows * cols):
            np.less(x, np.uint64(thr), out=bits[lo : lo + len(x)])
    else:  # no value is below 0 and every value is below 2^64
        rng.cursor += rows * cols
        bits.fill(thr > 0)
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
