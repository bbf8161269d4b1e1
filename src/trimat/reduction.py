"""Boolean matrix multiplication through repeated triangle detection.

The product c = a (.) b is recovered blockwise: for every triple of blocks
(I rows, K middles, J columns) build the tripartite graph whose A-B edges
come from a[I,K], B-C edges from b[K,J], and A-C edges are the complement
of the output bits discovered so far in c[I,J].  A triangle (i, k, j) in
that graph is precisely a not-yet-recorded product bit, so record it,
delete its A-C edge, and ask again; once the block triple is triangle-free
every remaining output bit in it is 0.  Each detector call either yields a
fresh bit or finishes the triple, which bounds the number of calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bitmat import BitMatrix, first_set_bit_2d, multiply_bitpacked, pack_index_mask
from .detector import DetectorConfig, detect
from .graph import RunStats, TripartiteGraph, Verdict

DetectorHandle = Callable[[TripartiteGraph, RunStats], Verdict]


def _icbrt_ceil(n: int) -> int:
    """Exact ceil(n ** (1/3)) for non-negative integers."""
    t = max(1, round(n ** (1 / 3)))
    while t**3 < n:
        t += 1
    while t > 1 and (t - 1) ** 3 >= n:
        t -= 1
    return t


@dataclass
class BlockSpec:
    """Block decomposition of an n x n product: side length t per block."""

    n: int
    t: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("matrix dimension must be non-negative")
        if self.n > 0 and not 1 <= self.t <= self.n:
            raise ValueError(f"block side must lie in [1, {self.n}], got {self.t}")

    @property
    def blocks_per_side(self) -> int:
        return -(-self.n // self.t) if self.n else 0

    @classmethod
    def default_for(cls, n: int) -> "BlockSpec":
        return cls(n, max(1, min(n, _icbrt_ceil(n)))) if n else cls(0, 1)


def default_detector(cfg: DetectorConfig | None = None) -> DetectorHandle:
    return lambda g, stats: detect(g, cfg, stats)


def bmm_via_triangle(
    a: BitMatrix,
    b: BitMatrix,
    spec: BlockSpec | None = None,
    detector: DetectorHandle | None = None,
    stats: RunStats | None = None,
) -> BitMatrix:
    """Boolean product computed by witness deletion over block triples.

    Any correct tripartite triangle detector with witness reporting can be
    plugged in; the output is the same for all of them.
    """
    if not (a.rows == a.cols == b.rows == b.cols):
        raise ValueError(
            f"expected square matrices of equal size, got {a.rows}x{a.cols} "
            f"and {b.rows}x{b.cols}"
        )
    n = a.rows
    spec = spec or BlockSpec.default_for(n)
    if spec.n != n:
        raise ValueError(f"block spec is for n={spec.n}, matrices are {n}x{n}")
    detector = detector or default_detector()
    stats = stats if stats is not None else RunStats()

    out = BitMatrix(n, n)
    t = spec.t
    starts = list(range(0, n, t))
    for i0 in starts:
        i1 = min(i0 + t, n)
        for k0 in starts:
            k1 = min(k0 + t, n)
            ab = a.block(i0, i1, k0, k1)
            for j0 in starts:
                j1 = min(j0 + t, n)
                bc = b.block(k0, k1, j0, j1)
                ac = out.block(i0, i1, j0, j1).complement()
                g = TripartiteGraph(i1 - i0, k1 - k0, j1 - j0, ab=ab, ac=ac, bc=bc)
                while True:
                    verdict = detector(g, stats)
                    if not verdict.found:
                        break
                    i, _, j = verdict.witness
                    out.set(i0 + i, j0 + j)
                    g.ac.set(i, j, False)
    return out


def triangle_via_bmm(g: TripartiteGraph) -> Verdict:
    """Folklore converse: a triangle exists iff (ab (.) bc) meets ac."""
    paths = multiply_bitpacked(g.ab, g.bc)
    a, c = first_set_bit_2d(paths.words2d & g.ac.words2d)
    if a < 0:
        return Verdict(False)
    middles = g.ab.row_indices(a)
    k, _ = first_set_bit_2d(g.bc.words2d[middles] & pack_index_mask([c], g.nC))
    if k < 0:
        raise AssertionError("product bit with no middle vertex")
    return Verdict(True, (a, int(middles[k]), c))
