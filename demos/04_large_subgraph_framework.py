#!/usr/bin/env python3
# The generic driver: plug in any "easy-part finder" that can certify a
# constant fraction of the instance, and the three-way recursion does the
# rest. Correctness never depends on which finder you hand it.

import trimat as tm
from trimat.framework import FinderResult

rng = tm.CounterRng(4)


# A finder must return subsets A', B', C' of the view covering its configured
# fractions, plus a truthful Verdict for the induced block.
def lazy_half_finder(g, sub, stats):
    a = sub.ia[: max(1, (sub.na + 1) // 2)]
    b = sub.ib[: max(1, (sub.nb + 1) // 2)]
    c = sub.ic[: max(1, (sub.nc + 1) // 2)]
    v = tm.brute_triangle(g, tm.SubInstance(g, a, b, c))
    return FinderResult(a, b, c, v)


cfg = tm.FrameworkConfig(alpha=0.5, beta=0.5, gamma=0.5, small_volume_threshold=1)
print("half-view brute-force finder vs oracle on random instances:")
for _ in range(5):
    g = tm.random_tripartite(rng, 18, 18, 18, 0.08)
    stats = tm.RunStats()
    got = tm.detect_with_finder(g, lazy_half_finder, cfg, stats)
    expect = tm.brute_triangle(g)
    print(f"  found={got.found!s:5} oracle={expect.found!s:5} "
          f"recursion_nodes={stats.recursion_nodes}")
    assert got.found == expect.found

# The built-in finder wraps the high-degree/sparse dichotomy: a violating
# vertex's neighborhoods B1, C1 give the block A x B1 x C1 (settled by one
# scan of B1 x C1), otherwise the whole view is certified by the lookup-table
# detector.
finder = tm.high_degree_finder(delta=2)
print("\nbuilt-in high-degree finder:")
for density in (0.03, 0.5):
    g = tm.random_tripartite(rng, 30, 30, 30, density)
    stats = tm.RunStats()
    got = tm.detect_with_finder(g, finder, tm.FrameworkConfig(small_volume_threshold=1), stats)
    print(f"  density {density}: {got} nodes={stats.recursion_nodes} "
          f"sparse_calls={stats.sparse_calls}")
    assert got.found == tm.brute_triangle(g).found

# The driver polices the contract: undersized or non-subset outputs are
# rejected before any recursion can go wrong.
def stingy(g, sub, stats):
    return FinderResult(sub.ia[:1], sub.ib[:1], sub.ic[:1], tm.Verdict(False))

try:
    tm.detect_with_finder(
        tm.TripartiteGraph(8, 8, 8), stingy, tm.FrameworkConfig(small_volume_threshold=1)
    )
except tm.FinderContractError as exc:
    print("\ncontract enforcement:", exc)
