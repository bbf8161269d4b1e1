"""Independent brute-force references.

These are the cross-validation baselines for everything else in the
package, so they deliberately share no code with the optimized paths:
bits are read one at a time with local word arithmetic, and no lookup
tables, masks or word-parallel tricks are used.  They ship in the library
(not the test tree) so the CLI verify command can run them.
"""

from __future__ import annotations

from .bitmat import BitMatrix
from .graph import SubInstance, TripartiteGraph, Verdict


def _bit(data, wpr: int, i: int, j: int) -> int:
    return (int(data[i * wpr + (j >> 6)]) >> (j & 63)) & 1


def brute_triangle(g: TripartiteGraph, sub: SubInstance | None = None) -> Verdict:
    """Scalar triple loop; returns the lexicographically first witness."""
    ia = sub.ia.tolist() if sub is not None else range(g.nA)
    ib = sub.ib.tolist() if sub is not None else range(g.nB)
    ic = sub.ic.tolist() if sub is not None else range(g.nC)
    ab, ac, bc = g.ab.data, g.ac.data, g.bc.data
    wab, wac, wbc = g.ab.words_per_row, g.ac.words_per_row, g.bc.words_per_row
    for a in ia:
        for b in ib:
            if not _bit(ab, wab, a, b):
                continue
            for c in ic:
                if _bit(ac, wac, a, c) and _bit(bc, wbc, b, c):
                    return Verdict(True, (a, b, c))
    return Verdict(False)


def multiply_scalar_oracle(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Textbook triple loop with single-bit reads and writes."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    out = BitMatrix(a.rows, b.cols)
    ad, bd = a.data, b.data
    wa, wb = a.words_per_row, b.words_per_row
    inner = a.cols
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(inner):
                if _bit(ad, wa, i, k) and _bit(bd, wb, k, j):
                    out.set(i, j)
                    break
    return out
