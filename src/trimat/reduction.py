"""Boolean matrix multiplication through repeated triangle detection.

The product c = a (.) b is recovered over one tripartite graph whose A-B
edges are a, B-C edges are b and A-C edges start all ones, so any shape
with a matching inner dimension works.  For every triple of blocks (I rows,
K middles, J columns) the detector searches the view I x K x J.  A triangle
(i, k, j) in it is precisely a not-yet-recorded product bit, so delete its
A-C edge and ask again; once the view is triangle-free every remaining A-C
edge in it is a 0 of c, and c is the complement of the A-C edges.  Each
detector call either yields a fresh bit or finishes the triple, which
bounds the number of calls.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .bitmat import BitMatrix, first_set_bit_2d, multiply_bitpacked, pack_index_mask
from .detector import DetectorConfig, detect
from .graph import RunStats, SubInstance, TripartiteGraph, Verdict

DetectorHandle = Callable[[TripartiteGraph, SubInstance, RunStats], Verdict]


def _icbrt_ceil(n: int) -> int:
    """Exact ceil(n ** (1/3)) for non-negative integers."""
    t = max(1, round(n ** (1 / 3)))
    while t**3 < n:
        t += 1
    while t > 1 and (t - 1) ** 3 >= n:
        t -= 1
    return t


def default_block_side(n: int) -> int:
    """ceil(n ** (1/3)) clamped to [1, n], and 1 for an empty product."""
    return max(1, min(n, _icbrt_ceil(n)))


def default_detector(cfg: DetectorConfig | None = None) -> DetectorHandle:
    return lambda g, sub, stats: detect(g, cfg, stats, sub)


def product_side(a: BitMatrix, b: BitMatrix) -> int:
    """The largest of rows(a), inner dimension and cols(b)."""
    return max(a.rows, a.cols, b.cols)


def bmm_via_triangle(
    a: BitMatrix,
    b: BitMatrix,
    t: int | None = None,
    detector: DetectorHandle | None = None,
    stats: RunStats | None = None,
) -> BitMatrix:
    """Boolean product computed by witness deletion over block triples.

    Any correct tripartite triangle detector with witness reporting can be
    plugged in; the output is the same for all of them.  a and b become
    the graph's A-B and B-C matrices as they are, and are left unchanged.
    Blocks have side t, by default default_block_side(product_side(a, b)).
    """
    n = product_side(a, b)
    if t is None or n == 0:  # an empty product has no blocks to size
        t = default_block_side(n)
    elif not 1 <= t <= n:
        raise ValueError(f"block side must lie in [1, {n}], got {t}")
    detector = detector or default_detector()
    stats = stats if stats is not None else RunStats()

    ones = BitMatrix(a.rows, b.cols).complement()
    g = TripartiteGraph(a.rows, a.cols, b.cols, ab=a, ac=ones, bc=b)
    cuts = [[np.arange(s, min(s + t, m)) for s in range(0, m, t)] for m in (g.nA, g.nB, g.nC)]
    for ia, ib, ic in itertools.product(*cuts):
        while True:
            verdict = detector(g, SubInstance(g, ia, ib, ic), stats)
            if not verdict.found:
                break
            i, _, j = verdict.witness
            g.ac.set(i, j, False)
    return g.ac.complement()


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
