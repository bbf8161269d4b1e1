import numpy as np
import pytest

import trimat as tm
from trimat.bitmat import pack_index_mask, unpack_word_indices
from trimat.detector import ChargeLedger

from .conftest import assert_witness_valid, complete_tripartite, first_set_bit


def test_detect_single_triangle(single_triangle):
    v = tm.detect(single_triangle)
    assert v.found and v.witness == (0, 0, 0)


def test_detect_complete_minus_bc_edges():
    g = complete_tripartite(10, 10, 10)
    g.bc = tm.BitMatrix(10, 10)
    assert not tm.detect(g).found


def test_detect_matches_brute_force_across_densities():
    rng = tm.CounterRng(97)
    for density in (0.05, 0.3, 0.9):
        for _ in range(70):
            na, nb, nc = (1 + rng.next_below(60) for _ in range(3))
            g = tm.random_tripartite(rng, na, nb, nc, density)
            got = tm.detect(g)
            assert got.found == tm.brute_triangle(g).found
            if got.found:
                assert_witness_valid(g, got)


def test_detect_adversarial_families():
    # complete graph: triangle everywhere
    assert tm.detect(complete_tripartite(9, 9, 9)).found

    # star-heavy: one A-vertex adjacent to everything, no B-C edges
    g = tm.TripartiteGraph(6, 40, 40)
    for j in range(40):
        g.ab.set(0, j)
        g.ac.set(0, j)
    assert not tm.detect(g, tm.DetectorConfig(small_threshold=4)).found

    # one planted triangle in a sea of A-B edges
    g.bc.set(17, 23)
    g.ac.set(0, 23)
    v = tm.detect(g, tm.DetectorConfig(small_threshold=4))
    assert v.found
    assert_witness_valid(g, v)


def test_detect_forced_paths_agree():
    rng = tm.CounterRng(101)
    for _ in range(40):
        na, nb, nc = (1 + rng.next_below(30) for _ in range(3))
        g = tm.random_tripartite(rng, na, nb, nc, 0.4)
        expect = tm.brute_triangle(g).found
        # tiny threshold forces the recursion/sparse machinery
        forced = tm.detect(g, tm.DetectorConfig(delta=2, small_threshold=1))
        # huge threshold forces a single exhaustive leaf
        leafed = tm.detect(g, tm.DetectorConfig(delta=2, small_threshold=10**6))
        assert forced.found == leafed.found == expect


def test_forced_exhaustive_counts_full_volume_when_triangle_free():
    g = tm.TripartiteGraph(4, 5, 6)
    stats = tm.RunStats()
    assert not tm.detect(g, tm.DetectorConfig(small_threshold=10**6), stats).found
    assert stats.triples_enumerated == 4 * 5 * 6
    assert stats.sparse_calls == 0


def test_forced_sparse_path_touches_the_table():
    rng = tm.CounterRng(103)
    g = tm.random_tripartite(rng, 20, 20, 20, 0.05)
    if tm.check_degree_condition(g, g.full_view(), 2) is not None:
        pytest.skip("instance has a high-degree vertex for this seed")
    stats = tm.RunStats()
    tm.detect(g, tm.DetectorConfig(delta=2, small_threshold=1), stats)
    assert stats.sparse_calls >= 1
    assert stats.pairs_charged >= 20 * 20


def test_exhaustive_search_trivial_and_counts(single_triangle):
    g = tm.TripartiteGraph(2, 2, 2)
    stats = tm.RunStats()
    empty = tm.SubInstance(g, [], np.arange(2), np.arange(2))
    assert not tm.exhaustive_search(g, empty, stats).found
    assert stats.triples_enumerated == 0

    stats = tm.RunStats()
    v = tm.exhaustive_search(single_triangle, single_triangle.full_view(), stats)
    assert v.found and v.witness == (0, 0, 0)
    assert stats.triples_enumerated == 1


def test_exhaustive_search_matches_scalar_oracle():
    rng = tm.CounterRng(107)
    for _ in range(30):
        g = tm.random_tripartite(rng, 20, 20, 20, 0.1)
        stats = tm.RunStats()
        got = tm.exhaustive_search(g, g.full_view(), stats)
        assert got.found == tm.brute_triangle(g).found
        if not got.found:
            assert stats.triples_enumerated == 20 * 20 * 20
        else:
            assert 0 < stats.triples_enumerated <= 20 * 20 * 20


def test_step4_scan_unit():
    g = tm.TripartiteGraph(1, 5, 7)
    g.bc.set(3, 4)
    stats = tm.RunStats()
    v = tm.step4_scan(g, np.arange(5), np.arange(7), 0, stats)
    assert v.found and v.witness == (0, 3, 4)
    assert stats.pairs_charged == 35

    stats = tm.RunStats()
    assert not tm.step4_scan(g, np.zeros(0, dtype=np.int64), np.arange(7), 0, stats).found
    assert stats.pairs_charged == 0


def test_step4_scan_matches_double_loop():
    rng = tm.CounterRng(109)
    g = tm.random_tripartite(rng, 1, 30, 30, 0.03)
    b1 = np.arange(0, 30, 2)[:17]
    c1 = np.arange(0, 30)[:23]
    expect = any(g.bc.get(int(b), int(c)) for b in b1 for c in c1)
    v = tm.step4_scan(g, b1, c1, 0, tm.RunStats())
    assert v.found == expect


def _step4_row_loop(g, b1, c1, v1):
    """The former step4_scan: one masked first_set_bit per B1 row, in order."""
    mask_c1 = pack_index_mask(c1, g.nC)
    for b in b1:
        c = first_set_bit(g.bc.words2d[int(b)] & mask_c1)
        if c >= 0:
            return tm.Verdict(True, (int(v1), int(b), c))
    return tm.Verdict(False)


def _random_subset(rng, n, keep_one_in):
    return np.flatnonzero(rng.next_block(n) % np.uint64(keep_one_in) == 0)


@pytest.mark.parametrize("nc", [63, 64, 65, 130])
def test_step4_scan_witness_matches_row_loop(nc):
    rng = tm.CounterRng(nc)
    nb = 40
    cases = []
    for density in (0.003, 0.02, 0.1):
        g = tm.random_tripartite(rng, 1, nb, nc, density)
        cases += [(g, _random_subset(rng, nb, k), _random_subset(rng, nc, k)) for k in (1, 2, 3)]
    # B1 x C1 without a B-C edge, then with one edge in the last B1 row, at the last C1 column
    g = tm.random_tripartite(rng, 1, nb, nc, 0.3)
    b1, c1 = np.arange(0, nb, 3), np.arange(1, nc, 2)
    g.bc.words2d[b1] &= ~pack_index_mask(c1, nc)
    last = tm.TripartiteGraph(1, nb, nc, g.ab, g.ac, g.bc.copy())
    last.bc.set(int(b1[-1]), int(c1[-1]))
    cases += [(g, b1, c1), (last, b1, c1)]
    for g, b1, c1 in cases:
        stats = tm.RunStats()
        got = tm.step4_scan(g, b1, c1, 0, stats)
        assert got == _step4_row_loop(g, b1, c1, 0)
        assert stats.pairs_charged == len(b1) * len(c1)
    assert not tm.step4_scan(*cases[-2], 0, tm.RunStats()).found
    assert got.witness == (0, b1[-1], c1[-1])


def _leaf_pair_loop(g, sub, stats):
    """The former exhaustive_search: one masked first_set_bit per (a, b) edge pair."""
    na, nb, nc = sub.na, sub.nb, sub.nc
    if na == 0 or nb == 0 or nc == 0:
        return tm.Verdict(False)
    for apos, a in enumerate(sub.ia.tolist()):
        ac_row = g.ac.words2d[a] & sub.mask_c
        if not np.count_nonzero(ac_row):
            continue
        for b in unpack_word_indices(g.ab.words2d[a] & sub.mask_b).tolist():
            c = first_set_bit(ac_row & g.bc.words2d[b])
            if c >= 0:
                bpos = int(np.searchsorted(sub.ib, b))
                stats.triples_enumerated += apos * nb * nc + (bpos + 1) * nc
                return tm.Verdict(True, (a, b, c))
    stats.triples_enumerated += na * nb * nc
    return tm.Verdict(False)


@pytest.mark.parametrize("nc", [63, 64, 65, 130])
def test_exhaustive_search_matches_pair_loop(nc):
    rng = tm.CounterRng(1000 + nc)
    na, nb = 30, 40
    cases = []
    for density in (0.01, 0.05, 0.2, 0.5):
        g = tm.random_tripartite(rng, na, nb, nc, density)
        for k in (1, 2, 3):
            parts = [_random_subset(rng, m, k) for m in (na, nb, nc)]
            cases.append(tm.SubInstance(g, *parts))
    # the view's only triangle: its last A-vertex, that vertex's last B-neighbour, last C
    g = tm.random_tripartite(rng, na, nb, nc, 0.3)
    ia, ib, ic = np.arange(0, na, 2), np.arange(1, nb, 3), np.arange(0, nc, 2)
    g.bc.words2d[ib] &= ~pack_index_mask(ic, nc)
    a, b, c = int(ia[-1]), int(ib[-1]), int(ic[-1])
    g.ab.set(a, b)
    g.ac.set(a, c)
    g.bc.set(b, c)
    for other in ia[:-1]:
        g.ac.set(int(other), c, False)
    last = tm.SubInstance(g, ia, ib, ic)
    cases.append(last)
    found = 0
    for sub in cases:
        got_stats, ref_stats = tm.RunStats(), tm.RunStats()
        got = tm.exhaustive_search(sub.g, sub, got_stats)
        assert got == _leaf_pair_loop(sub.g, sub, ref_stats)
        assert got.found == tm.brute_triangle(sub.g, sub).found
        assert got_stats == ref_stats
        found += got.found
    assert 0 < found < len(cases)
    assert got.witness == (a, b, c)
    assert got_stats.triples_enumerated == last.na * last.nb * last.nc


def test_charge_ledger_flags_duplicates():
    led = ChargeLedger(4, 4)
    led.charge(np.array([0, 1]), np.array([2, 3]))
    led.charge(np.array([2]), np.array([2]))
    with pytest.raises(tm.InvariantError):
        led.charge(np.array([1]), np.array([3]))


def test_charging_is_unique_across_random_runs():
    rng = tm.CounterRng(113)
    cfg = tm.DetectorConfig(delta=2, small_threshold=2, debug_charge_check=True)
    for _ in range(60):
        na, nb, nc = (1 + rng.next_below(40) for _ in range(3))
        g = tm.random_tripartite(rng, na, nb, nc, 0.5)
        tm.detect(g, cfg, tm.RunStats())  # raises InvariantError on violation


def test_triples_enumerated_never_exceeds_root_volume():
    rng = tm.CounterRng(127)
    for _ in range(60):
        na, nb, nc = (1 + rng.next_below(40) for _ in range(3))
        g = tm.random_tripartite(rng, na, nb, nc, 0.3)
        stats = tm.RunStats()
        tm.detect(g, tm.DetectorConfig(delta=2, small_threshold=2), stats)
        assert stats.triples_enumerated <= na * nb * nc


def test_detect_is_deterministic():
    rng = tm.CounterRng(131)
    g = tm.random_tripartite(rng, 35, 35, 35, 0.4)
    cfg = tm.DetectorConfig(delta=2, small_threshold=3)
    runs = []
    for _ in range(2):
        stats = tm.RunStats()
        v = tm.detect(g, cfg, stats)
        runs.append((v, stats))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_verdict_witness_consistency():
    with pytest.raises(ValueError):
        tm.Verdict(True, None)
    with pytest.raises(ValueError):
        tm.Verdict(False, (0, 0, 0))


def test_recursion_nodes_counted():
    g = complete_tripartite(20, 20, 20)
    stats = tm.RunStats()
    tm.detect(g, tm.DetectorConfig(delta=2, small_threshold=2), stats)
    assert stats.recursion_nodes >= 1


def test_empty_parts_short_circuit():
    for dims in ((0, 5, 5), (5, 0, 5), (5, 5, 0), (0, 0, 0)):
        g = tm.TripartiteGraph(*dims)
        assert not tm.detect(g).found
        assert not tm.sparse_detect(g, g.full_view(), tm.SparseParams(2), tm.RunStats()).found
        assert not tm.detect_with_finder(g, tm.high_degree_finder(2)).found
        assert not tm.triangle_via_bmm(g).found
        assert not tm.brute_triangle(g).found
