"""Degree-bounded sparse-case triangle detection via a subset-pair table.

The B and C parts of the view are split into groups of delta**3
consecutive positions.  For every subset of at most delta positions inside
a single B-group and every such subset inside a single C-group, a table
records whether any B-C edge runs between the two subsets.  A detection
pass cuts the neighborhoods of a whole block of A-vertices into such
chunks in one numpy pass, then answers all of each vertex's chunk pairs
with one table gather, which is where the per-query log-factor savings
come from.

A subset's table slot is a pure function of the subset.  Let
S(m, c) = sum_{k<=c} C(m, k), the number of subsets of at most c out of m
offsets, and order the subsets of a group largest offset first.  The
subset of group g with offsets o_1 > o_2 > ... > o_k sits in slot

    g * S(delta**3, delta) + sum_i S(o_i, delta - (i - 1))

so the subsets of a short last group of length L are exactly its first
S(L, delta) slots, and the table has no gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .bitmat import BitMatrix, first_set_bit_2d, pack_index_mask
from .errors import InvariantError, TableBudgetError
from .graph import RunStats, SubInstance, TripartiteGraph, Verdict, degrees_all

DEFAULT_TABLE_BUDGET = 1 << 25  # table entries, one bool byte each: 32 MiB
# Bits one block of the sparse scan unpacks per side.  Cutting a whole view
# at once is exact too, but at 1024 per part its temporaries outgrow the
# pair table (75 MB against 22 MB); blocked they stay under 1 MB.
CUT_BITS = 1 << 13


def check_delta(delta: int) -> int:
    """delta as an int; a value below 1 is refused with ValueError."""
    if delta < 1:
        raise ValueError(f"delta must be at least 1, got {delta}")
    return int(delta)


def check_degree_condition(
    g: TripartiteGraph, sub: SubInstance, delta: int
) -> int | None:
    """First (lowest-index) A-vertex v with d(v,B)*d(v,C) > |B||C|/delta^2.

    Returns None when every vertex satisfies the degree bound.  The
    comparison is done as d_b*d_c*delta^2 > |B|*|C| so no division or
    floating point is involved; the first candidate is re-checked in plain
    Python integers so the verdict is exact at any size.
    """
    db, dc = degrees_all(g, sub)
    if db.size == 0:
        return None
    rhs = sub.nb * sub.nc
    viol = db * dc * (delta * delta) > rhs
    hits = np.flatnonzero(viol)
    for pos in hits:
        if int(db[pos]) * int(dc[pos]) * delta * delta > rhs:
            return int(sub.ia[pos])
    return None


def _subsets_up_to(m: int, c: int) -> int:
    """S(m, c): the number of subsets of at most c out of m offsets."""
    return sum(comb(m, k) for k in range(min(c, m) + 1))


@lru_cache(maxsize=256)
def _subset_counts(delta: int, m: int) -> np.ndarray:
    """Read-only counts[i, c] = S(i, c) for i <= m and c <= delta."""
    counts = np.array(
        [[_subsets_up_to(i, c) for c in range(delta + 1)] for i in range(m + 1)],
        dtype=np.int64,
    )
    counts.setflags(write=False)
    return counts


@lru_cache(maxsize=64)
def _slot_offsets(delta: int, glen: int) -> np.ndarray:
    """Read-only; row s lists the offsets of slot s of a group, -1 padded."""
    counts = _subset_counts(delta, glen)
    out = np.full((counts[glen, delta], delta), -1, dtype=np.int64)
    for k in range(1, min(delta, glen) + 1):
        for offs in combinations(range(glen), k):
            out[sum(counts[o, delta - j] for j, o in enumerate(reversed(offs))), :k] = offs
    out.setflags(write=False)
    return out


def _side_slots(n: int, delta: int) -> int:
    full, rem = divmod(n, delta**3)
    return full * _subsets_up_to(delta**3, delta) + (_subsets_up_to(rem, delta) if rem else 0)


def estimate_table_entries(nb: int, nc: int, delta: int) -> int:
    return _side_slots(nb, delta) * _side_slots(nc, delta)


def slot_members(n: int, delta: int) -> np.ndarray:
    """View positions of the subset in each slot of an n-position side.

    Row s lists the members of slot s.  Unused cells hold -1, so a caller
    that appends one empty row or column to its data can index with them.
    """
    gs = delta**3
    offs = _slot_offsets(delta, min(n, gs))
    base = np.arange(-(-n // gs), dtype=np.int64)[:, None, None] * gs
    members = np.where(offs < 0, -1, offs + base).reshape(-1, delta)
    return members[: _side_slots(n, delta)]


def chunk_slots(
    positions: np.ndarray, delta: int, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Cut sorted view positions into table chunks: (slots, bounds).

    Within each group the positions are cut into consecutive runs of
    exactly delta plus at most one smaller remainder, which is the minimum
    possible number of legal table subsets covering them.  Chunk k holds
    positions[bounds[k]:bounds[k + 1]] and sits in table slot slots[k].

    rows, if given, is a sorted key with one entry per position, and the
    positions need only be sorted within each row.  A run also restarts
    where the row changes, so each row is cut exactly as on its own.
    """
    n = len(positions)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    gs = delta**3
    # counts reaches row gs, and so holds the group stride S(gs, delta),
    # whenever a position lies beyond group 0
    counts = _subset_counts(delta, min(gs, int(positions.max()) + 1))
    group = positions // gs
    idx = np.arange(n)
    group_start = np.ones(n, dtype=bool)
    group_start[1:] = group[1:] != group[:-1]
    if rows is not None:
        group_start[1:] |= rows[1:] != rows[:-1]
    rank = idx - np.maximum.accumulate(np.where(group_start, idx, 0))
    starts = np.flatnonzero(rank % delta == 0)
    bounds = np.append(starts, n)
    # j = how many positions of the same chunk lie above this one
    above = np.repeat(bounds[1:], np.diff(bounds)) - 1 - idx
    terms = counts[positions - group * gs, delta - above]
    slots = np.add.reduceat(terms, starts) + group[starts] * counts[-1, delta]
    return slots, bounds


@dataclass(frozen=True, eq=False)
class PairTable:
    """Lookup table: (subset of a B-group, subset of a C-group) -> edge bit.

    entries[sb, sc] is True iff a B-C edge joins the B-subset in slot sb
    to the C-subset in slot sc; slots follow the formula in the module
    docstring.  Immutable after build; sharing across threads is safe.
    """

    entries: np.ndarray

    def __len__(self) -> int:
        return self.entries.size


def build_pair_table(g: TripartiteGraph, ib, ic, delta: int) -> PairTable:
    """Precompute edge-existence for every legal subset pair.

    ib / ic are the view's (sorted) B and C index lists.  One B-group at a
    time, the group's B-C rows are unpacked at the view's C columns, the
    rows of each B-subset are ORed, and the result is gathered at the
    members of every C-subset.  No temporary outgrows one group's rows of
    the table, so peak memory stays close to the table itself.  A table
    estimated above DEFAULT_TABLE_BUDGET entries is refused before any
    allocation.
    """
    delta = check_delta(delta)
    ib = np.asarray(ib, dtype=np.int64)
    ic = np.asarray(ic, dtype=np.int64)
    estimate = estimate_table_entries(len(ib), len(ic), delta)
    if estimate > DEFAULT_TABLE_BUDGET:
        raise TableBudgetError(estimate, DEFAULT_TABLE_BUDGET)

    gs = delta**3
    members_c = slot_members(len(ic), delta)
    table = PairTable(np.zeros((_side_slots(len(ib), delta), len(members_c)), dtype=bool))
    offsets = _slot_offsets(delta, min(len(ib), gs))
    for lo in range(0, len(table.entries), len(offsets)):
        start = lo // len(offsets) * gs
        group = ib[start : start + gs]
        # the last row and column stay zero for the -1 padding of unused cells
        bc = np.zeros((len(group) + 1, len(ic) + 1), dtype=bool)
        bc[:-1, :-1] = g.bc.bits(group)[:, ic]
        block = table.entries[lo : lo + len(offsets)]
        rows = np.logical_or.reduce(bc[offsets[: len(block)]], axis=1)
        for col in members_c.T:
            block |= np.take(rows, col, axis=1)
    return table


def _cut_block(m: BitMatrix, block: np.ndarray, cols: np.ndarray, delta: int):
    """Chunks of the block's rows of m at the view's columns cols.

    Returns (pos, slots, bounds, first): chunk k holds the view positions
    pos[bounds[k]:bounds[k + 1]] and sits in table slot slots[k], and the
    chunks of block[i] are first[i]:first[i + 1], in chunk_slots order.
    """
    rows, pos = np.nonzero(m.bits(block)[:, cols])
    slots, bounds = chunk_slots(pos, delta, rows)
    first = np.searchsorted(rows[bounds[:-1]], np.arange(len(block) + 1))
    return pos, slots, bounds, first.tolist()


def sparse_detect(
    g: TripartiteGraph,
    sub: SubInstance,
    delta: int,
    stats: RunStats,
    table: PairTable | None = None,
) -> Verdict:
    """Detect a triangle in a view whose A-degrees satisfy the Step-1 bound.

    The verdict is correct on any input; the degree bound only governs the
    running time. high_degree_finder checks the bound with
    check_degree_condition; other callers only pay for it in running time.
    The A-vertices are taken in blocks that unpack at most CUT_BITS bits
    per side; a block's neighborhoods are cut into chunks in one pass, and
    then each vertex's chunk pairs are answered by one table gather.  Each
    A-vertex's chunk pairs are queried in row-major order up to the first
    hit, and table_queries counts exactly those queries.
    """
    delta = check_delta(delta)
    if table is None:
        table = build_pair_table(g, sub.ib, sub.ic, delta)
    stats.sparse_calls += 1

    step = max(1, CUT_BITS // max(g.nB, g.nC, 1))
    for lo in range(0, sub.na, step):
        block = sub.ia[lo : lo + step]
        pos_b, slots_b, bounds_b, first_b = _cut_block(g.ab, block, sub.ib, delta)
        pos_c, slots_c, bounds_c, first_c = _cut_block(g.ac, block, sub.ic, delta)
        for i in range(len(block)):
            b0, b1, c0, c1 = first_b[i], first_b[i + 1], first_c[i], first_c[i + 1]
            if b0 == b1 or c0 == c1:
                continue
            hits = table.entries[np.ix_(slots_b[b0:b1], slots_c[c0:c1])].ravel()
            first = int(hits.argmax())
            if not hits[first]:
                stats.table_queries += hits.size
                continue
            stats.table_queries += first + 1
            # A hit names only the chunk pair; rescan its <= delta x delta
            # B-C bits to recover concrete endpoints.
            kb, kc = divmod(first, c1 - c0)
            rows = sub.ib[pos_b[bounds_b[b0 + kb] : bounds_b[b0 + kb + 1]]]
            cols = sub.ic[pos_c[bounds_c[c0 + kc] : bounds_c[c0 + kc + 1]]]
            row, c = first_set_bit_2d(g.bc.words2d[rows] & pack_index_mask(cols, g.nC))
            if row < 0:
                raise InvariantError("table hit with no edge in the chunk pair")
            return Verdict(True, (int(block[i]), int(rows[row]), c))
    return Verdict(False)
