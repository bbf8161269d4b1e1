"""Tripartite graphs, cheap sub-instance views, and run statistics.

A TripartiteGraph holds three bit-packed adjacency matrices (A-B, A-C,
B-C), each stored once per pair.  A SubInstance is a view: three sorted
index lists into the parts, plus lazily built word masks so degree and
neighborhood queries run as masked popcounts.  The recursion in the
detectors only ever creates views; adjacency is never copied.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .bitmat import BitMatrix, indexable, pack_index_mask, popcount_words, unpack_word_indices
from .errors import FormatError

PAIR_AB = "AB"
PAIR_AC = "AC"
PAIR_BC = "BC"
_PAIRS = (PAIR_AB, PAIR_AC, PAIR_BC)
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
    coords = {pair: (array("q"), array("q")) for pair in _PAIRS}
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
# format_graph_text writes the canonical form: single spaces, decimal
# digits, no comments or blank lines, and a newline after every line.

_CANONICAL_HEADER = re.compile(r"[0-9]{1,19} [0-9]{1,19} [0-9]{1,19}")
_WINDOW = 1 << 18  # characters per bulk pass, cut back to a line end
_MAX_DIGITS = 9  # longest endpoint the bulk pass decodes, so every value fits int32
_NL, _SP, _ZERO = ord("\n"), ord(" "), ord("0")
# pair id of the two bytes of a pair name read as one big-endian uint16; 3 = unknown
_PAIR_IDS = np.full(1 << 16, len(_PAIRS), dtype=np.uint8)
_PAIR_IDS[[ord(p[0]) << 8 | ord(p[1]) for p in _PAIRS]] = np.arange(len(_PAIRS))


def _content_lines(text: str):
    """(line number, raw line, fields) for every line with content."""
    for no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield no, raw, parts


def parse_graph_text(text: str) -> TripartiteGraph:
    """Parse the tripartite format.

    Canonical text is read in bulk; anything else, including every text
    with an error, is read by the line parser, which alone raises.
    """
    g = _parse_canonical(text)
    return g if g is not None else _parse_graph_lines(text)


def _parse_graph_lines(text: str) -> TripartiteGraph:
    """The line parser: any valid text, and a FormatError naming the first bad line."""
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


def _parse_canonical(text: str) -> TripartiteGraph | None:
    """The graph of a text in canonical form with every endpoint in range, else None.

    The body is read in windows of about _WINDOW characters, each cut after
    a newline, so the per-byte arrays stay small whatever the file size.
    Every line of every window is checked before any matrix is allocated.
    Nothing here raises for bad input: a comment, a blank line, any other
    whitespace, a sign, an endpoint longer than _MAX_DIGITS digits or out
    of range, or a missing final newline all give None.
    """
    end = text.find("\n")
    if end < 0 or not _CANONICAL_HEADER.fullmatch(text, 0, end):
        return None
    na, nb, nc = (int(p) for p in text[:end].split(" "))
    shapes = ((na, nb), (na, nc), (nb, nc))
    if not all(indexable(*shape) for shape in shapes):
        return None
    rows, cols = (np.array(sides, dtype=np.int64) for sides in zip(*shapes))
    windows = []
    start = end + 1
    while start < len(text):
        stop = len(text)
        if stop - start > _WINDOW:
            stop = text.rfind("\n", start, start + _WINDOW) + 1
        window = _canonical_lines(text[start:stop], rows, cols) if stop > start else None
        if window is None:
            return None
        windows.append(window)
        start = stop
    empty = np.zeros(0, dtype=np.int32)
    pair, i, j = (np.concatenate(parts) for parts in zip(*windows)) if windows else (empty,) * 3
    return TripartiteGraph(na, nb, nc, *(
        BitMatrix.from_coords(r, c, i[pair == k], j[pair == k])
        for k, (r, c) in enumerate(shapes)
    ))


def _canonical_lines(window: str, rows: np.ndarray, cols: np.ndarray):
    """(pair id, i, j) arrays for a window of whole canonical lines, else None.

    rows[k] and cols[k] are the sides of pair k's matrix.
    """
    buf = np.frombuffer(window.encode("ascii", "replace"), dtype=np.uint8)
    if buf[-1] != _NL:
        return None
    nl = np.flatnonzero(buf == _NL)
    sp = np.flatnonzero(buf == _SP)
    if len(sp) != 2 * len(nl):
        return None
    s1, s2 = sp[0::2], sp[1::2]
    # the first space at offset 2 of its line puts exactly two spaces on every line
    if s1[0] != 2 or np.any(s1[1:] != nl[:-1] + 3):
        return None
    wi, wj = s2 - s1 - 1, nl - s2 - 1
    if min(wi.min(), wj.min()) < 1 or max(wi.max(), wj.max()) > _MAX_DIGITS:
        return None
    pair = _PAIR_IDS[buf[s1 - 2].astype(np.uint16) << 8 | buf[s1 - 1]]
    # pair names, spaces and newlines are 5 non-digits a line; any more is in a field
    if np.any(pair == len(_PAIRS)) or np.count_nonzero(buf - _ZERO > 9) != 5 * len(nl):
        return None
    i, j = _decimal_fields(buf, s2, wi), _decimal_fields(buf, nl, wj)
    if np.any(i >= rows[pair]) or np.any(j >= cols[pair]):
        return None
    return pair, i, j


def _decimal_fields(buf: np.ndarray, end: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Values of the digit fields buf[end - width : end], right-aligned, as int32."""
    value = np.zeros(len(end), dtype=np.int32)
    for k in range(1, int(width.max()) + 1):
        # bytes left of a shorter field (or wrapped to the window's end) are masked out
        digit = np.where(width >= k, buf[end - k] - _ZERO, 0)
        value += digit * np.int32(10 ** (k - 1))
    return value


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
    """The canonical text of g: the header, then every edge by pair, row-major."""
    n = max(g.nA, g.nB, g.nC)
    width = len(str(max(n - 1, 0)))
    i_items, j_items = _decimal_items(n, width, _SP), _decimal_items(n, width, _NL)
    record = np.dtype([("pair", "V3"), ("i", i_items.dtype), ("j", j_items.dtype)])
    out = [f"{g.nA} {g.nB} {g.nC}\n".encode("ascii")]
    for pair, m in zip(_PAIRS, (g.ab, g.ac, g.bc)):
        i, j = np.divmod(np.flatnonzero(m.bits().view(bool)), m.cols)
        lines = np.empty(len(i), dtype=record)
        lines["pair"] = np.void(f"{pair} ".encode("ascii"))
        lines["i"] = i_items[i]
        lines["j"] = j_items[j]
        chars = lines.view(np.uint8)
        out.append(chars[chars != 0].tobytes())  # zero bytes pad the shorter numbers
    return b"".join(out).decode("ascii")


def _decimal_items(n: int, width: int, end: int) -> np.ndarray:
    """Item v: the decimal digits of v right-aligned in width bytes after zero bytes, then end."""
    v = np.arange(n)
    table = np.zeros((n, width + 1), dtype=np.uint8)
    for k in range(width):
        place = 10 ** (width - 1 - k)
        table[:, k] = np.where((v >= place) | (place == 1), v // place % 10 + _ZERO, 0)
    table[:, width] = end
    return table.view(f"V{width + 1}").ravel()
