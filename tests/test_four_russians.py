import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trimat as tm
from trimat.bitmat import pack_index_mask
from trimat.four_russians import (
    CUT_BITS,
    DEFAULT_TABLE_BUDGET,
    build_pair_table,
    chunk_slots,
    estimate_table_entries,
    slot_members,
)

from .conftest import assert_witness_valid, complete_tripartite, subsets_in_slot_order


def exhaustive_pair_check(g, ib, ic, table, delta):
    """Every table entry vs a scalar double loop over the two subsets."""
    subsets_b = subsets_in_slot_order(len(ib), delta)
    subsets_c = subsets_in_slot_order(len(ic), delta)
    assert table.entries.shape == (len(subsets_b), len(subsets_c))
    mismatches = 0
    for sb, ob in enumerate(subsets_b):
        for sc, oc in enumerate(subsets_c):
            expect = any(g.bc.get(int(ib[u]), int(ic[w])) for u in ob for w in oc)
            if bool(table.entries[sb, sc]) != expect:
                mismatches += 1
    return mismatches


def test_degree_condition_edgeless_and_complete():
    edgeless = tm.from_edge_list(5, 5, 5, [])
    assert tm.check_degree_condition(edgeless, edgeless.full_view(), 3) is None

    dense = complete_tripartite(8, 8, 8)
    # every vertex has 8*8 = 64 > 64/4 = 16; the lowest index wins
    assert tm.check_degree_condition(dense, dense.full_view(), 2) == 0


def test_degree_condition_matches_scalar_scan():
    rng = tm.CounterRng(73)
    g = tm.random_tripartite(rng, 100, 100, 100, 0.15)
    sub = g.full_view()
    delta = 3
    expected = None
    for v in range(100):
        db = sum(1 for b in range(100) if g.ab.get(v, b))
        dc = sum(1 for c in range(100) if g.ac.get(v, c))
        if db * dc * delta * delta > 100 * 100:
            expected = v
            break
    assert tm.check_degree_condition(g, sub, delta) == expected


def test_subset_slots_are_a_bijection():
    for delta in (1, 2, 3):
        for glen in range(1, delta**3 + 1):
            size = sum(comb(glen, k) for k in range(delta + 1))
            subsets = [s for k in range(1, delta + 1) for s in combinations(range(glen), k)]
            slots = [int(chunk_slots(np.array(s), delta)[0][0]) for s in subsets]
            # slot 0 is the empty subset, which no chunk ever is
            assert sorted(slots) == list(range(1, size)), (delta, glen)
            members = slot_members(glen, delta)
            assert len(members) == size
            assert (members[0] == -1).all()
            for s, slot in zip(subsets, slots):
                assert tuple(members[slot][members[slot] >= 0]) == s


def test_pair_table_edgeless_and_complete():
    delta = 2
    edgeless = tm.TripartiteGraph(1, 20, 20)
    t = build_pair_table(edgeless, np.arange(20), np.arange(20), delta)
    assert not t.entries.any()

    dense = tm.TripartiteGraph(1, 12, 12)
    for b in range(12):
        for c in range(12):
            dense.bc.set(b, c)
    t2 = build_pair_table(dense, np.arange(12), np.arange(12), delta)
    subsets = subsets_in_slot_order(12, delta)
    for sb, ob in enumerate(subsets):
        for sc, oc in enumerate(subsets):
            assert bool(t2.entries[sb, sc]) == (bool(ob) and bool(oc))


def test_pair_table_random_matches_exhaustive_check():
    rng = tm.CounterRng(79)
    g = tm.random_tripartite(rng, 1, 40, 40, 0.08)
    ib, ic = np.arange(40), np.arange(40)
    table = build_pair_table(g, ib, ic, 2)
    assert exhaustive_pair_check(g, ib, ic, table, 2) == 0


def test_pair_table_budget_error():
    # 60 = 27 + 27 + 6 positions per side: (2*3304 + 42)**2 > 2**25 entries at delta=3
    delta = 3
    g = tm.TripartiteGraph(1, 60, 60)
    with pytest.raises(tm.TableBudgetError) as err:
        build_pair_table(g, np.arange(60), np.arange(60), delta)
    assert err.value.estimated_entries == 44_222_500 > DEFAULT_TABLE_BUDGET
    assert err.value.budget == DEFAULT_TABLE_BUDGET
    assert estimate_table_entries(60, 60, delta) == err.value.estimated_entries


@settings(max_examples=60, deadline=None)
@given(
    positions=st.lists(st.integers(0, 80), unique=True, max_size=40),
    delta=st.integers(1, 3),
)
def test_chunk_partition_properties(positions, delta):
    positions = np.asarray(sorted(positions), dtype=np.int64)
    gs, side = delta**3, 81
    slots, bounds = chunk_slots(positions, delta)
    members = slot_members(side, delta)
    assert len(bounds) == len(slots) + 1
    assert bounds[0] == 0 and bounds[-1] == len(positions)

    rebuilt = []
    for k, slot in enumerate(slots):
        chunk = positions[bounds[k] : bounds[k + 1]]
        assert 1 <= len(chunk) <= delta
        assert len(set(chunk // gs)) == 1
        # the slot decodes to exactly the chunk's positions
        decoded = members[slot][members[slot] >= 0]
        assert list(decoded) == list(chunk)
        rebuilt.extend(int(p) for p in decoded)
    # completeness and disjointness: the chunks are exactly the neighborhood
    assert sorted(rebuilt) == list(positions)
    assert len(rebuilt) == len(set(rebuilt))

    if len(positions):
        groups_touched = len({int(p) // gs for p in positions})
        bound = groups_touched + -(-len(positions) // delta)
        assert len(slots) <= bound


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.lists(st.integers(0, 80), unique=True, max_size=12), max_size=6),
    delta=st.integers(1, 3),
)
@example(rows=[[0, 1, 2], [3, 4]], delta=2)  # row 1 starts inside row 0's last group
@example(rows=[[], [5, 9], []], delta=1)
@example(rows=[[7, 26, 27, 28, 30]], delta=3)
def test_multi_row_cut_equals_per_row_cuts(rows, delta):
    positions = [np.asarray(sorted(r), dtype=np.int64) for r in rows]
    key = np.repeat(np.arange(len(rows)), np.array([len(p) for p in positions], dtype=np.int64))
    slots, bounds = chunk_slots(np.concatenate([np.zeros(0, np.int64), *positions]), delta, key)

    expect_slots, expect_bounds, offset = [], [0], 0
    for p in positions:
        s, b = chunk_slots(p, delta)
        expect_slots += s.tolist()
        expect_bounds += (b[1:] + offset).tolist()
        offset += len(p)
    assert slots.tolist() == expect_slots
    assert bounds.tolist() == expect_bounds


def test_sparse_detect_trivial(single_triangle):
    stats = tm.RunStats()
    v = tm.sparse_detect(single_triangle, single_triangle.full_view(), 1, stats)
    assert v.found and v.witness == (0, 0, 0)
    assert stats.sparse_calls == 1
    assert stats.table_queries >= 1


def test_sparse_detect_no_bc_edges():
    g = complete_tripartite(6, 6, 6)
    g.bc = tm.BitMatrix(6, 6)
    stats = tm.RunStats()
    assert not tm.sparse_detect(g, g.full_view(), 2, stats).found


def test_sparse_detect_matches_brute_force_when_precondition_holds():
    rng = tm.CounterRng(83)
    checked = 0
    delta = 2
    while checked < 40:
        na, nb, nc = (1 + rng.next_below(60) for _ in range(3))
        g = tm.random_tripartite(rng, na, nb, nc, 0.05)
        sub = g.full_view()
        if tm.check_degree_condition(g, sub, 2) is not None:
            continue
        checked += 1
        stats = tm.RunStats()
        got = tm.sparse_detect(g, sub, delta, stats)
        expect = tm.brute_triangle(g)
        assert got.found == expect.found
        if got.found:
            assert_witness_valid(g, got)


def _sparse_witness_reference(g, sub, delta, stats=None):
    """Per A-vertex, the first chunk pair with an edge in row-major order,
    re-scanned with one BitMatrix.get per pair (the former witness recovery).
    Every chunk pair tried up to that one counts in stats.table_queries."""
    stats = tm.RunStats() if stats is None else stats
    for v in sub.ia.tolist():
        nb = tm.neighborhood(g, sub, v, "B")
        nc = tm.neighborhood(g, sub, v, "C")
        if not (len(nb) and len(nc)):
            continue
        bounds_b = chunk_slots(np.searchsorted(sub.ib, nb), delta)[1]
        bounds_c = chunk_slots(np.searchsorted(sub.ic, nc), delta)[1]
        for kb in range(len(bounds_b) - 1):
            for kc in range(len(bounds_c) - 1):
                stats.table_queries += 1
                for b in nb[bounds_b[kb] : bounds_b[kb + 1]].tolist():
                    for c in nc[bounds_c[kc] : bounds_c[kc + 1]].tolist():
                        if g.bc.get(b, c):
                            return tm.Verdict(True, (v, b, c))
    return tm.Verdict(False)


def _random_subset(rng, n, keep_one_in):
    return np.flatnonzero(rng.next_block(n) % np.uint64(keep_one_in) == 0)


@pytest.mark.parametrize("nc", [63, 64, 65, 130])
@pytest.mark.parametrize("delta", [1, 2])
def test_sparse_detect_witness_matches_chunk_rescan(nc, delta):
    rng = tm.CounterRng(nc * 10 + delta)
    na, nb = 12, 40
    cases = []
    for density in (0.01, 0.05, 0.2):
        g = tm.random_tripartite(rng, na, nb, nc, density)
        cases += [
            (g, tm.SubInstance(g, _random_subset(rng, na, k), _random_subset(rng, nb, k),
                               _random_subset(rng, nc, k)))
            for k in (1, 2, 3)
        ]
    # one B-C edge in the view, joining its last B and last C vertex: the hit is
    # the last chunk pair of the one A-vertex that sees the whole view
    g = tm.TripartiteGraph(na, nb, nc)
    sub = tm.SubInstance(g, np.arange(na), np.arange(1, nb, 2), np.arange(0, nc, 3))
    g.ab.words2d[5] = sub.mask_b
    g.ac.words2d[5] = sub.mask_c
    g.bc.set(int(sub.ib[-1]), int(sub.ic[-1]))
    cases.append((g, sub))
    for g, sub in cases:
        got = tm.sparse_detect(g, sub, delta, tm.RunStats())
        assert got == _sparse_witness_reference(g, sub, delta)
    assert got.witness == (5, sub.ib[-1], sub.ic[-1])
    assert any(not tm.sparse_detect(g, sub, delta, tm.RunStats()).found
               for g, sub in cases)


@pytest.mark.parametrize("delta", [1, 2])
def test_sparse_detect_across_cut_blocks(delta):
    # 512 per side puts CUT_BITS // 512 = 16 A-vertices in a block; 53 span four blocks
    n = 512
    step = CUT_BITS // n
    g = tm.random_tripartite(tm.CounterRng(97), 3 * step + 5, n, n, 0.02)
    g.ac.data &= ~tm.multiply_bitpacked(g.ab, g.bc).data
    free = tm.TripartiteGraph(g.nA, n, n)
    free.ab, free.ac, free.bc = g.ab.copy(), g.ac.copy(), g.bc.copy()
    # the one triangle starts the third block: no earlier vertex sees both b and c
    v, b, c = 2 * step, 100, 200
    g.ab.set(v, b)
    g.ac.set(v, c)
    g.bc.set(b, c)
    for a in range(v):
        if g.ab.get(a, b):
            g.ac.set(a, c, False)
    for graph, expect in ((free, None), (g, (v, b, c))):
        stats, ref_stats = tm.RunStats(), tm.RunStats()
        got = tm.sparse_detect(graph, graph.full_view(), delta, stats)
        assert got == _sparse_witness_reference(graph, graph.full_view(), delta, ref_stats)
        assert got.witness == expect
        assert stats.table_queries == ref_stats.table_queries > 0
        assert stats.sparse_calls == 1


def test_sparse_detect_is_deterministic():
    rng = tm.CounterRng(89)
    g = tm.random_tripartite(rng, 30, 30, 30, 0.1)
    runs = []
    for _ in range(2):
        stats = tm.RunStats()
        v = tm.sparse_detect(g, g.full_view(), 2, stats)
        runs.append((v, stats.table_queries))
    assert runs[0] == runs[1]


def test_delta_below_one_raises():
    g = tm.TripartiteGraph(2, 2, 2)
    with pytest.raises(ValueError, match="delta must be at least 1"):
        tm.DetectorConfig(delta=0)
    with pytest.raises(ValueError, match="delta must be at least 1"):
        build_pair_table(g, np.arange(2), np.arange(2), 0)
    with pytest.raises(ValueError, match="delta must be at least 1"):
        tm.sparse_detect(g, g.full_view(), 0, tm.RunStats())


def test_sparse_scan_memory_stays_far_below_the_table():
    # sparse-free style at 1024 per part: AB and BC at density 0.01, AC = not(AB.BC)
    n = 1024
    g = tm.random_tripartite(tm.CounterRng(103), n, n, n, 0.01)
    g.ac = tm.multiply_bitpacked(g.ab, g.bc).complement()
    sub = g.full_view()
    table = build_pair_table(g, sub.ib, sub.ic, 2)
    tracemalloc.start()
    try:
        verdict = tm.sparse_detect(g, sub, 2, tm.RunStats(), table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.found
    # cutting the whole view in one pass would take about 3x the table
    assert peak < table.entries.nbytes // 8


def _pinned_graph(seed, n, density, triangle_free, hub):
    g = tm.random_tripartite(tm.CounterRng(seed), n, n, n, density)
    if hub:
        # A-vertex 0 sees 3/4 of B and of C, with no B-C edge between them,
        # so it breaks the degree bound at delta >= 2 and detect splits
        lo, hi = np.arange(3 * n // 4), np.arange(n // 4, n)
        g.ab.words2d[0] = pack_index_mask(lo, n)
        g.ac.words2d[0] = pack_index_mask(hi, n)
        g.bc.words2d[lo] &= ~pack_index_mask(hi, n)
    if triangle_free:
        g.ac.data &= ~tm.multiply_bitpacked(g.ab, g.bc).data
    return g


# (seed, delta, n, density, triangle_free, hub) ->
#   sparse_detect (witness, table_queries, sparse_calls),
#   detect with small_threshold=8 (witness, table_queries, sparse_calls)
PINNED_COUNTERS = [
    ((11, 1, 40, 0.05, True, False), (None, 149, 1), (None, 149, 1)),
    ((12, 1, 50, 0.12, False, False), ((0, 13, 31), 6, 1), ((0, 13, 31), 6, 1)),
    ((13, 2, 60, 0.06, True, False), (None, 448, 1), (None, 448, 1)),
    ((14, 3, 36, 0.08, False, False), ((2, 6, 5), 9, 1), ((2, 6, 5), 9, 1)),
    ((15, 2, 64, 0.1, True, True), (None, 1800, 1), (None, 460, 2)),
    ((16, 3, 48, 0.05, True, True), (None, 234, 1), (None, 44, 2)),
    ((17, 2, 64, 0.05, False, True), ((5, 29, 12), 617, 1), ((11, 53, 43), 24, 1)),
]


@pytest.mark.parametrize("case, sparse_expect, detect_expect", PINNED_COUNTERS)
def test_counters_are_pinned(case, sparse_expect, detect_expect):
    seed, delta, n, density, triangle_free, hub = case
    g = _pinned_graph(seed, n, density, triangle_free, hub)
    assert tm.brute_triangle(g).found == (not triangle_free)

    stats = tm.RunStats()
    v = tm.sparse_detect(g, g.full_view(), delta, stats)
    assert (v.witness, stats.table_queries, stats.sparse_calls) == sparse_expect

    stats = tm.RunStats()
    v = tm.detect(g, tm.DetectorConfig(delta=delta, small_threshold=8), stats)
    assert (v.witness, stats.table_queries, stats.sparse_calls) == detect_expect


def test_large_delta_on_a_small_view():
    # one short group per side: the table only holds that group's subsets
    rng = tm.CounterRng(101)
    g = tm.random_tripartite(rng, 6, 6, 6, 0.5)
    for delta in (4, 50):
        stats = tm.RunStats()
        v = tm.sparse_detect(g, g.full_view(), delta, stats)
        assert v.found == tm.brute_triangle(g).found
        table = build_pair_table(g, np.arange(6), np.arange(6), delta)
        side = sum(comb(6, k) for k in range(min(delta, 6) + 1))
        assert table.entries.shape == (side, side)
        assert exhaustive_pair_check(g, np.arange(6), np.arange(6), table, delta) == 0
