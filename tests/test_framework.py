import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trimat as tm
from trimat.framework import FinderResult
from trimat.graph import Verdict

from .conftest import assert_witness_valid, complete_tripartite


def whole_view_brute_finder(g, sub, stats):
    """Finder that answers the full view with brute force (alpha=beta=gamma=1)."""
    v = tm.brute_triangle(g, sub)
    return FinderResult(sub.ia, sub.ib, sub.ic, v)


def fraction_finder(alpha, beta, gamma):
    """Finder returning the first ceil(frac*size) indices, verdict by brute force."""
    import math

    def finder(g, sub, stats):
        a = sub.ia[: max(1, math.ceil(alpha * sub.na - 1e-9))]
        b = sub.ib[: max(1, math.ceil(beta * sub.nb - 1e-9))]
        c = sub.ic[: max(1, math.ceil(gamma * sub.nc - 1e-9))]
        v = tm.brute_triangle(g, tm.SubInstance(g, a, b, c))
        return FinderResult(a, b, c, v)

    return finder


def test_whole_graph_finder_is_a_one_shot():
    rng = tm.CounterRng(137)
    calls = []

    def counting(g, sub, stats):
        calls.append(sub.na * sub.nb * sub.nc)
        return whole_view_brute_finder(g, sub, stats)

    for _ in range(20):
        g = tm.random_tripartite(rng, 8, 8, 8, 0.3)
        stats = tm.RunStats()
        cfg = tm.FrameworkConfig(small_volume_threshold=1)
        got = tm.detect_with_finder(g, counting, cfg, stats)
        assert got.found == tm.brute_triangle(g).found
    # every nonempty view is answered by the finder directly; the three
    # recursive views each lose a whole part, so at most one call per graph
    assert all(v > 0 for v in calls)
    assert len(calls) == 20


def test_single_triangle_with_truthful_finder(single_triangle):
    got = tm.detect_with_finder(
        single_triangle, whole_view_brute_finder, tm.FrameworkConfig(small_volume_threshold=1)
    )
    assert got.found and got.witness == (0, 0, 0)


def test_default_threshold_short_circuits_small_instances():
    rng = tm.CounterRng(139)
    g = tm.random_tripartite(rng, 20, 20, 20, 0.3)
    calls = []

    def counting(gg, sub, stats):
        calls.append(1)
        return whole_view_brute_finder(gg, sub, stats)

    stats = tm.RunStats()
    got = tm.detect_with_finder(g, counting, None, stats)
    # 20^3 < (60)^2.5, so the default cutoff sends the root straight to
    # exhaustive search and the finder is never consulted
    assert calls == []
    assert stats.recursion_nodes == 1
    assert got.found == tm.brute_triangle(g).found


def test_high_degree_finder_matches_brute_force():
    rng = tm.CounterRng(149)
    finder = tm.high_degree_finder(2)
    for density in (0.05, 0.3, 0.9):
        for _ in range(70):
            na, nb, nc = (1 + rng.next_below(50) for _ in range(3))
            g = tm.random_tripartite(rng, na, nb, nc, density)
            cfg = tm.FrameworkConfig(small_volume_threshold=1, debug_verify_finder=True)
            got = tm.detect_with_finder(g, finder, cfg)
            assert got.found == tm.brute_triangle(g).found
            if got.found:
                assert_witness_valid(g, got)


def test_high_degree_finder_branches():
    finder = tm.high_degree_finder(2)
    dense = complete_tripartite(8, 8, 8)
    view = dense.full_view()
    res = finder(dense, view, tm.RunStats())
    assert res.fraction_exempt
    assert res.verdict.found
    # the violating vertex sees everything, so its block spans B and C whole
    assert np.array_equal(res.a_part, view.ia)
    assert len(res.b_part) == 8 and len(res.c_part) == 8

    edgeless = tm.TripartiteGraph(4, 4, 4)
    res2 = finder(edgeless, edgeless.full_view(), tm.RunStats())
    assert not res2.verdict.found and not res2.fraction_exempt
    assert len(res2.b_part) == 4

    rng = tm.CounterRng(151)
    sparse = tm.random_tripartite(rng, 40, 40, 40, 0.02)
    if tm.check_degree_condition(sparse, sparse.full_view(), 2) is None:
        res3 = finder(sparse, sparse.full_view(), tm.RunStats())
        assert res3.verdict.found == tm.brute_triangle(sparse).found


def test_random_legal_fraction_finders_stay_correct():
    rng = tm.CounterRng(157)
    fractions = [(1.0, 1.0, 1.0), (0.5, 0.5, 0.5), (1.0, 0.5, 0.25), (0.34, 0.9, 0.51)]
    for alpha, beta, gamma in fractions:
        finder = fraction_finder(alpha, beta, gamma)
        cfg = tm.FrameworkConfig(
            alpha=alpha, beta=beta, gamma=gamma, small_volume_threshold=1
        )
        for _ in range(25):
            na, nb, nc = (1 + rng.next_below(18) for _ in range(3))
            g = tm.random_tripartite(rng, na, nb, nc, 0.25)
            got = tm.detect_with_finder(g, finder, cfg)
            assert got.found == tm.brute_triangle(g).found


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(0.05, 1.0),
    beta=st.floats(0.05, 1.0),
    gamma=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32),
)
def test_any_legal_fraction_finder_matches_oracle(alpha, beta, gamma, seed):
    rng = tm.CounterRng(seed)
    na, nb, nc = (1 + rng.next_below(14) for _ in range(3))
    g = tm.random_tripartite(rng, na, nb, nc, 0.2)
    finder = fraction_finder(alpha, beta, gamma)
    cfg = tm.FrameworkConfig(
        alpha=alpha, beta=beta, gamma=gamma, small_volume_threshold=1
    )
    got = tm.detect_with_finder(g, finder, cfg)
    assert got.found == tm.brute_triangle(g).found


def test_recursion_limit_is_left_alone():
    rng = tm.CounterRng(167)
    limit = sys.getrecursionlimit()
    g = tm.random_tripartite(rng, 40, 40, 40, 0.1)
    tm.detect(g, tm.DetectorConfig(small_threshold=2))
    assert sys.getrecursionlimit() == limit
    forced = tm.FrameworkConfig(small_volume_threshold=1)
    tm.detect_with_finder(g, tm.high_degree_finder(2), forced)
    assert sys.getrecursionlimit() == limit

    # A thin slice of A per node makes the search about 170 views deep, far
    # deeper than the lowered limit leaves room for.
    deep = tm.TripartiteGraph(250, 4, 4)
    for a in range(250):
        for j in range(4):
            deep.ab.set(a, j)
            deep.ac.set(a, j)
    cfg = tm.FrameworkConfig(alpha=0.01, small_volume_threshold=1)
    stats = tm.RunStats()
    low = len(inspect.stack(0)) + 60
    sys.setrecursionlimit(low)
    try:
        got = tm.detect_with_finder(deep, fraction_finder(0.01, 1.0, 1.0), cfg, stats)
        assert not tm.detect(deep, tm.DetectorConfig(small_threshold=2)).found
        lowered = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(limit)
    assert lowered == low
    assert not got.found
    assert stats.recursion_nodes > 3 * 150


def test_driver_rejects_undersized_parts():
    def stingy(g, sub, stats):
        return FinderResult(sub.ia[:1], sub.ib[:1], sub.ic[:1], Verdict(False))

    g = complete_tripartite(6, 6, 6)
    g.bc = tm.BitMatrix(6, 6)
    cfg = tm.FrameworkConfig(alpha=1.0, beta=1.0, gamma=1.0, small_volume_threshold=1)
    with pytest.raises(tm.FinderContractError) as err:
        tm.detect_with_finder(g, stingy, cfg)
    assert "|A'|" in str(err.value)


def test_driver_rejects_non_subset_output():
    def leaky(g, sub, stats):
        return FinderResult(np.arange(g.nA + 5), sub.ib, sub.ic, Verdict(False))

    g = tm.TripartiteGraph(3, 3, 3)
    with pytest.raises(tm.FinderContractError):
        tm.detect_with_finder(g, leaky, tm.FrameworkConfig(small_volume_threshold=1))


def test_debug_mode_catches_lying_finder(single_triangle):
    def liar(g, sub, stats):
        return FinderResult(sub.ia, sub.ib, sub.ic, Verdict(False))

    cfg = tm.FrameworkConfig(small_volume_threshold=1, debug_verify_finder=True)
    with pytest.raises(tm.FinderContractError):
        tm.detect_with_finder(single_triangle, liar, cfg)


def test_debug_mode_checks_witness_edges():
    def fabricator(g, sub, stats):
        return FinderResult(sub.ia, sub.ib, sub.ic, Verdict(True, (0, 0, 0)))

    g = tm.TripartiteGraph(2, 2, 2)  # edgeless; (0,0,0) is no triangle
    cfg = tm.FrameworkConfig(small_volume_threshold=1, debug_verify_finder=True)
    with pytest.raises(tm.FinderContractError):
        tm.detect_with_finder(g, fabricator, cfg)


def test_exhaustive_leaf_volume_stays_below_root():
    rng = tm.CounterRng(163)
    finder = tm.high_degree_finder(2)
    for _ in range(30):
        na, nb, nc = (1 + rng.next_below(30) for _ in range(3))
        g = tm.random_tripartite(rng, na, nb, nc, 0.4)
        stats = tm.RunStats()
        cfg = tm.FrameworkConfig(small_volume_threshold=8)
        tm.detect_with_finder(g, finder, cfg, stats)
        assert stats.triples_enumerated <= na * nb * nc


def test_config_validation():
    with pytest.raises(ValueError):
        tm.FrameworkConfig(alpha=0.0)
    with pytest.raises(ValueError):
        tm.FrameworkConfig(gamma=1.5)
    with pytest.raises(ValueError):
        tm.FrameworkConfig(small_volume_threshold=0)
