"""Triangle detection by finding easy parts and recursing on the rest.

One explicit-stack engine, `_search`, drives both recursive detectors.
Each node of the search is a view.  A leaf rule answers small views
directly; otherwise an easy-part finder settles a block A' x B' x C' of the
view (a triangle inside it ends the search) and the node pushes three
children that partition the triples outside the block:

    (A, B, C \\ C'), (A, B \\ B', C'), (A \\ A', B', C')

or, cut along B' first, (A, B \\ B', C), (A, B', C \\ C'), (A \\ A', B', C').

`detect` is the divide-and-conquer detector built on this engine:

  Step 0  small B or C side: exhaustive word-assisted search, done.
  Step 1  every A-vertex satisfies the degree bound: sparse detection
          through a freshly built subset-pair table settles the whole view.
  Step 2  pick the lowest-index violating vertex v1.
  Step 4  scan B1 x C1, v1's neighborhoods, for a B-C edge.  Without one no
          A-vertex closes a triangle through B1 x C1, so the settled block
          is A x B1 x C1.
  Step 3  push the three children around that block; the third has an
          empty A part and ends at once.

The charging instrumentation backs the accounting argument: every (b, c)
pair is paid for by exactly one finder call or leaf call, which the
optional ledger verifies as set-disjointness at test scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import four_russians as fr
from .bitmat import first_set_bit_2d, pack_index_mask, unpack_word_indices
from .errors import InvariantError
from .graph import RunStats, SubInstance, TripartiteGraph, Verdict, neighborhood

DEFAULT_CHARGE_BUDGET = 1 << 24


@dataclass
class DetectorConfig:
    """Recursion parameters.

    delta sets the degree bound and the pair table's chunks (groups of
    delta**3 positions, subsets of at most delta).  The asymptotically
    prescribed value is below 1 at any feasible input size, so it is a
    tuning knob here, and one below 1 is refused.
    small_threshold defaults to delta**6, the cutoff below which the
    instance is solved exhaustively; it is exposed because at sensible
    delta values the default is tiny and tests need to force each path.
    debug_charge_check turns on the pair-charging ledger (quadratic
    memory, test scale only; skipped above DEFAULT_CHARGE_BUDGET pairs).
    """

    delta: int = 2
    small_threshold: int | None = None
    debug_charge_check: bool = False

    def __post_init__(self):
        self.delta = fr.check_delta(self.delta)
        if self.small_threshold is None:
            self.small_threshold = self.delta**6
        if self.small_threshold < 1:
            raise ValueError("small_threshold must be at least 1")


class ChargeLedger:
    """Tracks which (b, c) pairs have been paid for; duplicates are a bug."""

    def __init__(self, nb: int, nc: int):
        self.grid = np.zeros((nb, nc), dtype=bool)
        self.charged = 0

    def charge(self, ib: np.ndarray, ic: np.ndarray) -> None:
        if len(ib) == 0 or len(ic) == 0:
            return
        sel = np.ix_(np.asarray(ib, dtype=np.int64), np.asarray(ic, dtype=np.int64))
        region = self.grid[sel]
        if region.any():
            bi, ci = np.argwhere(region)[0]
            raise InvariantError(
                f"pair (b={int(ib[bi])}, c={int(ic[ci])}) charged twice"
            )
        self.grid[sel] = True
        self.charged += len(ib) * len(ic)


@dataclass
class FinderResult:
    """What an easy-part finder returns for one view.

    verdict is the truth about the subgraph induced by the three returned
    lists: not found certifies it triangle-free, found names a triangle.
    fraction_exempt marks outputs whose part sizes are vouched for by the
    finder itself rather than the configured fractions (the built-in
    high-degree finder settles A x B1 x C1, where only the product
    |B1||C1| is bounded below and neither side need reach a fixed fraction
    of B or C).
    """

    a_part: np.ndarray
    b_part: np.ndarray
    c_part: np.ndarray
    verdict: Verdict
    fraction_exempt: bool = False


EasyPartFinder = Callable[[TripartiteGraph, SubInstance, RunStats], FinderResult]


def detect(
    g: TripartiteGraph,
    cfg: DetectorConfig | None = None,
    stats: RunStats | None = None,
    view: SubInstance | None = None,
) -> Verdict:
    """Detect a triangle (one vertex per part) in `view`, by default the whole graph."""
    cfg = cfg or DetectorConfig()
    stats = stats if stats is not None else RunStats()
    small = cfg.small_threshold
    ledger = None
    if cfg.debug_charge_check and g.nB * g.nC <= DEFAULT_CHARGE_BUDGET:
        ledger = ChargeLedger(g.nB, g.nC)

    def leaf(sub: SubInstance) -> Verdict | None:
        if sub.na == 0 or sub.nb == 0 or sub.nc == 0:
            return Verdict(False)
        if sub.nb < small or sub.nc < small:
            if ledger is not None:
                ledger.charge(sub.ib, sub.ic)
            return exhaustive_search(g, sub, stats)
        return None

    def charge(res: FinderResult, sub: SubInstance) -> None:
        ledger.charge(res.b_part, res.c_part)

    check = charge if ledger is not None else None
    return _search(g, leaf, high_degree_finder(cfg.delta), stats, check, view)


def _search(
    g: TripartiteGraph,
    leaf: Callable[[SubInstance], Verdict | None],
    finder: EasyPartFinder,
    stats: RunStats,
    check: Callable[[FinderResult, SubInstance], None] | None = None,
    view: SubInstance | None = None,
) -> Verdict:
    """Depth-first search over views, children visited in the order pushed.

    The leaf rule runs first at every node and answers it unless it returns
    None; only then does the finder settle a block, which `check` (when
    given) may reject before the split.  The search starts at `view`, or at
    the whole graph when it is None.
    """
    stack = [view if view is not None else g.full_view()]
    while stack:
        sub = stack.pop()
        stats.recursion_nodes += 1
        verdict = leaf(sub)
        if verdict is not None:
            if verdict.found:
                return verdict
            continue
        res = finder(g, sub, stats)
        if check is not None:
            check(res, sub)
        if res.verdict.found:
            return res.verdict
        a2, b2, c2 = res.a_part, res.b_part, res.c_part
        a_rest = np.setdiff1d(sub.ia, a2, assume_unique=True)
        b_rest = np.setdiff1d(sub.ib, b2, assume_unique=True)
        c_rest = np.setdiff1d(sub.ic, c2, assume_unique=True)
        if len(b2) * sub.nc > len(c2) * sub.nb:
            views = ((sub.ia, sub.ib, c_rest), (sub.ia, b_rest, c2), (a_rest, b2, c2))
        else:
            views = ((sub.ia, b_rest, sub.ic), (sub.ia, b2, c_rest), (a_rest, b2, c2))
        volume = sub.na * sub.nb * sub.nc
        covered = sum(len(a) * len(b) * len(c) for a, b, c in views + ((a2, b2, c2),))
        if covered != volume:
            raise InvariantError(f"three-way split does not cover the view: {covered} != {volume}")
        stack.extend(SubInstance(g, a, b, c) for a, b, c in reversed(views))
    return Verdict(False)


def high_degree_finder(delta: int = 2) -> EasyPartFinder:
    """Easy-part finder wrapping the high-degree / sparse dichotomy.

    If some A-vertex v1 violates the degree bound, its neighborhoods B1, C1
    give an easy block: one scan of B1 x C1 either finds an edge, which
    closes a triangle through v1, or finds none, which rules out a triangle
    through B1 x C1 for every A-vertex, so A x B1 x C1 is settled.
    Otherwise the whole view is sparse enough for the lookup-table detector
    and is returned intact.
    """
    def finder(g: TripartiteGraph, sub: SubInstance, stats: RunStats) -> FinderResult:
        v1 = fr.check_degree_condition(g, sub, delta)
        if v1 is None:
            verdict = fr.sparse_detect(g, sub, delta, stats)
            stats.pairs_charged += sub.nb * sub.nc
            return FinderResult(sub.ia, sub.ib, sub.ic, verdict)
        b1 = neighborhood(g, sub, v1, "B")
        c1 = neighborhood(g, sub, v1, "C")
        # Step 2: re-assert the guarantee the choice of v1 rests on.
        if not len(b1) * len(c1) * delta**2 > sub.nb * sub.nc:
            raise InvariantError(
                f"selected vertex {v1} does not violate the degree condition"
            )
        scan = step4_scan(g, b1, c1, v1, stats)
        return FinderResult(sub.ia, b1, c1, scan, fraction_exempt=True)

    return finder


def step4_scan(
    g: TripartiteGraph,
    sub_b1: np.ndarray,
    sub_c1: np.ndarray,
    v1: int,
    stats: RunStats,
) -> Verdict:
    """Scan all of B1 x C1 for a B-C edge; the witness is the first in row-major order."""
    stats.pairs_charged += len(sub_b1) * len(sub_c1)
    row, c = first_set_bit_2d(g.bc.words2d[sub_b1] & pack_index_mask(sub_c1, g.nC))
    if row < 0:
        return Verdict(False)
    return Verdict(True, (int(v1), int(sub_b1[row]), c))


def exhaustive_search(g: TripartiteGraph, sub: SubInstance, stats: RunStats) -> Verdict:
    """Triple loop over the view with early exit.

    The loop itself is word-assisted: each A-vertex resolves all its
    B-neighbours with one AND of their B-C rows against its C-masked A-C
    row, and an A-vertex with no neighbour in the view on either side is
    skipped whole.  The triples_enumerated counter follows triple-loop
    semantics: the full view volume when triangle-free, the inspected
    prefix when a triangle cuts the scan short.
    """
    na, nb, nc = sub.na, sub.nb, sub.nc
    if na == 0 or nb == 0 or nc == 0:
        return Verdict(False)
    ab_w, ac_w, bc_w = g.ab.words2d, g.ac.words2d, g.bc.words2d
    mask_b, mask_c = sub.mask_b, sub.mask_c
    for apos, a in enumerate(sub.ia.tolist()):
        ac_row = ac_w[a] & mask_c
        if not np.count_nonzero(ac_row):
            continue
        nbrs = unpack_word_indices(ab_w[a] & mask_b)
        if nbrs.size == 0:
            continue
        row, c = first_set_bit_2d(bc_w[nbrs] & ac_row)
        if row >= 0:
            b = int(nbrs[row])
            bpos = int(np.searchsorted(sub.ib, b))
            stats.triples_enumerated += apos * nb * nc + (bpos + 1) * nc
            return Verdict(True, (a, b, c))
    stats.triples_enumerated += na * nb * nc
    return Verdict(False)
