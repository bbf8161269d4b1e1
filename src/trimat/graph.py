"""Tripartite graphs, cheap sub-instance views, and run statistics.

A TripartiteGraph holds three bit-packed adjacency matrices (A-B, A-C,
B-C), each stored once per pair.  A SubInstance is a view: three sorted
index lists into the parts, plus lazily built word masks so degree and
neighborhood queries run as masked popcounts.  The recursion in the
detectors only ever creates views; adjacency is never copied.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields

import numpy as np

from .bitmat import BitMatrix, indexable, pack_index_mask, popcount_words, unpack_word_indices
from .errors import FormatError

PAIR_AB = "AB"
PAIR_AC = "AC"
PAIR_BC = "BC"
PART_B = "B"
PART_C = "C"


@dataclass
class RunStats:
    """Work counters; all monotone during a run."""

    triples_enumerated: int = 0
    pairs_charged: int = 0
    recursion_nodes: int = 0
    table_queries: int = 0
    sparse_calls: int = 0

    def as_lines(self) -> list[str]:
        return [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a detection: found flag plus a concrete witness triangle.

    The witness, present exactly when found, is (a, b, c) in original-graph
    indices (one vertex per part).
    """

    found: bool
    witness: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.found != (self.witness is not None):
            raise ValueError("witness must be present iff a triangle was found")


class TripartiteGraph:
    """Three vertex parts A, B, C with pairwise bit-packed adjacency."""

    __slots__ = ("nA", "nB", "nC", "ab", "ac", "bc")

    def __init__(self, nA: int, nB: int, nC: int, ab=None, ac=None, bc=None):
        self.nA, self.nB, self.nC = nA, nB, nC
        self.ab = ab if ab is not None else BitMatrix(nA, nB)
        self.ac = ac if ac is not None else BitMatrix(nA, nC)
        self.bc = bc if bc is not None else BitMatrix(nB, nC)
        for m, r, c, name in (
            (self.ab, nA, nB, "ab"),
            (self.ac, nA, nC, "ac"),
            (self.bc, nB, nC, "bc"),
        ):
            if m.rows != r or m.cols != c:
                raise ValueError(f"{name} adjacency must be {r}x{c}, got {m.rows}x{m.cols}")

    def full_view(self) -> "SubInstance":
        return SubInstance(
            self,
            np.arange(self.nA, dtype=np.int64),
            np.arange(self.nB, dtype=np.int64),
            np.arange(self.nC, dtype=np.int64),
        )


def from_edge_list(nA: int, nB: int, nC: int, edges) -> TripartiteGraph:
    """Build a graph from (pair, i, j) triples; duplicates are idempotent.

    The matrices are allocated only after the last edge is read, so a
    generator that validates its input rejects it before any allocation.
    """
    coords = {pair: (array("q"), array("q")) for pair in (PAIR_AB, PAIR_AC, PAIR_BC)}
    for pair, i, j in edges:
        if pair not in coords:
            raise ValueError(f"unknown part pair {pair!r}")
        r, c = coords[pair]
        r.append(i)
        c.append(j)
    ab = BitMatrix.from_coords(nA, nB, *coords[PAIR_AB])
    ac = BitMatrix.from_coords(nA, nC, *coords[PAIR_AC])
    bc = BitMatrix.from_coords(nB, nC, *coords[PAIR_BC])
    return TripartiteGraph(nA, nB, nC, ab, ac, bc)


class SubInstance:
    """A view of a TripartiteGraph through three sorted index lists.

    Word masks for the B and C parts are built on first use and cached;
    share views across threads only after touching both masks.
    """

    __slots__ = ("g", "ia", "ib", "ic", "_mask_b", "_mask_c")

    def __init__(self, g: TripartiteGraph, ia, ib, ic):
        self.g = g
        self.ia = np.asarray(ia, dtype=np.int64)
        self.ib = np.asarray(ib, dtype=np.int64)
        self.ic = np.asarray(ic, dtype=np.int64)
        assert _strictly_increasing(self.ia), "ia must be sorted and duplicate-free"
        assert _strictly_increasing(self.ib), "ib must be sorted and duplicate-free"
        assert _strictly_increasing(self.ic), "ic must be sorted and duplicate-free"
        self._mask_b = None
        self._mask_c = None

    @property
    def na(self) -> int:
        return len(self.ia)

    @property
    def nb(self) -> int:
        return len(self.ib)

    @property
    def nc(self) -> int:
        return len(self.ic)

    @property
    def mask_b(self) -> np.ndarray:
        if self._mask_b is None:
            self._mask_b = pack_index_mask(self.ib, self.g.nB)
        return self._mask_b

    @property
    def mask_c(self) -> np.ndarray:
        if self._mask_c is None:
            self._mask_c = pack_index_mask(self.ic, self.g.nC)
        return self._mask_c

    def __repr__(self) -> str:
        return f"SubInstance({self.na}/{self.nb}/{self.nc})"


def _strictly_increasing(arr: np.ndarray) -> bool:
    return len(arr) < 2 or bool(np.all(np.diff(arr) > 0))


def _row_for(g: TripartiteGraph, sub: SubInstance, v: int, part: str):
    if part == PART_B:
        return g.ab.row_words(v), sub.mask_b
    if part == PART_C:
        return g.ac.row_words(v), sub.mask_c
    raise ValueError(f"part must be 'B' or 'C', got {part!r}")


def _require_in_view(sub: SubInstance, v: int) -> None:
    pos = np.searchsorted(sub.ia, v)
    if pos >= len(sub.ia) or sub.ia[pos] != v:
        raise ValueError(f"vertex {v} is not in the sub-instance's A list")


def degree(g: TripartiteGraph, sub: SubInstance, v: int, part: str) -> int:
    """d(v, S): neighbors of A-vertex v among the view's indices of the part."""
    _require_in_view(sub, v)
    row, mask = _row_for(g, sub, v, part)
    return popcount_words(row & mask)


def neighborhood(g: TripartiteGraph, sub: SubInstance, v: int, part: str) -> np.ndarray:
    """Sorted indices of the view's part vertices adjacent to A-vertex v."""
    _require_in_view(sub, v)
    row, mask = _row_for(g, sub, v, part)
    return unpack_word_indices(row & mask)


def degrees_all(g: TripartiteGraph, sub: SubInstance) -> tuple[np.ndarray, np.ndarray]:
    """Degrees to the view's B and C for every vertex in the view's A at once."""
    if sub.na == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    db = np.bitwise_count(g.ab.words2d[sub.ia] & sub.mask_b).sum(axis=1, dtype=np.int64)
    dc = np.bitwise_count(g.ac.words2d[sub.ia] & sub.mask_c).sum(axis=1, dtype=np.int64)
    return db, dc


def from_general_graph(n: int, edges) -> TripartiteGraph:
    """Standard 3-copy construction: triangle detection on a general graph.

    Every vertex is duplicated into A, B and C, and every original edge
    {u, v} is placed in all three pair adjacencies (both orientations for
    the A-B / A-C / B-C roles), so the tripartite graph has a triangle iff
    the original graph does.
    """
    e = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    # checked before self-loops are dropped, so a bad self-loop is still an error
    if e.size and (e.min() < 0 or e.max() >= n):
        raise IndexError(f"edge endpoint out of range for {n} vertices")
    e = e[e[:, 0] != e[:, 1]]
    ab = BitMatrix.from_coords(
        n, n, np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]])
    )
    return TripartiteGraph(n, n, n, ab, ab.copy(), ab.copy())


# -- graph text formats ---------------------------------------------------
# Tripartite: line 1 "nA nB nC"; then lines "P i j" with P in {AB, AC, BC}.
# General: line 1 "n"; then lines "i j", one per undirected edge.
# In both, blank lines are ignored and '#' starts a comment.

def _content_lines(text: str):
    """(line number, raw line, fields) for every line with content."""
    for no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield no, raw, parts


def parse_graph_text(text: str) -> TripartiteGraph:
    lines = _content_lines(text)
    first = next(lines, None)
    if first is None:
        raise FormatError(1, "empty input, expected 'nA nB nC' header")
    no, raw, parts = first
    if len(parts) != 3:
        raise FormatError(no, f"expected 'nA nB nC' header, got {raw!r}")
    try:
        na, nb, nc = (int(p) for p in parts)
    except ValueError:
        raise FormatError(no, f"non-integer part size in {raw!r}") from None
    if min(na, nb, nc) < 0:
        raise FormatError(no, "part sizes must be non-negative")
    shapes = {PAIR_AB: (na, nb), PAIR_AC: (na, nc), PAIR_BC: (nb, nc)}
    if not all(indexable(*shape) for shape in shapes.values()):
        raise FormatError(no, f"part sizes too large to index in {raw!r}")

    def edges():
        for no, raw, parts in lines:
            if len(parts) != 3 or parts[0] not in shapes:
                raise FormatError(no, f"expected 'P i j' with P in {{AB,AC,BC}}, got {raw!r}")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(no, f"non-integer endpoint in {raw!r}") from None
            rows, cols = shapes[parts[0]]
            if not (0 <= i < rows and 0 <= j < cols):
                raise FormatError(no, f"endpoint out of range in {raw!r}")
            yield parts[0], i, j

    return from_edge_list(na, nb, nc, edges())


def parse_general_graph_text(text: str) -> TripartiteGraph:
    """Parse a general graph and apply the 3-copy construction."""
    lines = _content_lines(text)
    first = next(lines, None)
    if first is None:
        raise FormatError(1, "empty input, expected vertex count")
    no, raw, parts = first
    if len(parts) != 1:
        raise FormatError(no, f"expected vertex count alone, got {raw!r}")
    try:
        n = int(parts[0])
    except ValueError:
        raise FormatError(no, f"non-integer vertex count {raw!r}") from None
    if n < 0:
        raise FormatError(no, "vertex count must be non-negative")
    if not indexable(n, n):
        raise FormatError(no, f"vertex count too large to index in {raw!r}")
    edges = []
    for no, raw, parts in lines:
        if len(parts) != 2:
            raise FormatError(no, f"expected edge 'i j', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(no, f"non-integer endpoint in {raw!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(no, f"endpoint out of range in {raw!r}")
        edges.append((u, v))
    return from_general_graph(n, edges)


def format_graph_text(g: TripartiteGraph) -> str:
    out = [f"{g.nA} {g.nB} {g.nC}\n"]
    for pair, m in ((PAIR_AB, g.ab), (PAIR_AC, g.ac), (PAIR_BC, g.bc)):
        ij = np.argwhere(m.bits()).ravel().tolist()  # i, j of every edge in row-major order
        out.append((f"{pair} %d %d\n" * (len(ij) // 2)) % tuple(ij))
    return "".join(out)
