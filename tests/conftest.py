from itertools import combinations

import pytest

import trimat as tm


@pytest.fixture
def single_triangle():
    """The smallest tripartite graph containing a triangle."""
    return tm.from_edge_list(1, 1, 1, [("AB", 0, 0), ("AC", 0, 0), ("BC", 0, 0)])


def matrix_from_strings(rows):
    """Build a BitMatrix from '0101'-style row strings (col 0 is leftmost)."""
    m = tm.BitMatrix(len(rows), len(rows[0]) if rows else 0)
    for i, row in enumerate(rows):
        for j, ch in enumerate(row):
            if ch == "1":
                m.set(i, j)
    return m


def complete_tripartite(na, nb, nc):
    g = tm.TripartiteGraph(na, nb, nc)
    for i in range(na):
        for j in range(nb):
            g.ab.set(i, j)
    for i in range(na):
        for j in range(nc):
            g.ac.set(i, j)
    for i in range(nb):
        for j in range(nc):
            g.bc.set(i, j)
    return g


def scalar_triangle_exists(g):
    """Reference verdict computed with nothing but single-bit reads."""
    for a in range(g.nA):
        for b in range(g.nB):
            if not g.ab.get(a, b):
                continue
            for c in range(g.nC):
                if g.ac.get(a, c) and g.bc.get(b, c):
                    return True
    return False


def assert_witness_valid(g, verdict):
    a, b, c = verdict.witness
    assert g.ab.get(a, b) and g.ac.get(a, c) and g.bc.get(b, c)


def subsets_in_slot_order(n, delta):
    """View positions of every pair-table subset of an n-position side, by slot.

    Groups of delta**3 positions come in order; within a group the subsets
    of at most delta offsets are ordered largest offset first, which is
    lexicographic order on the offsets read from the top down.
    """
    gs = delta**3
    out = []
    for start in range(0, n, gs):
        glen = min(gs, n - start)
        subsets = [s for k in range(delta + 1) for s in combinations(range(glen), k)]
        out.extend(tuple(start + o for o in s) for s in sorted(subsets, key=lambda s: s[::-1]))
    return out
