#!/usr/bin/env python3
# The recursive triangle detector: a high-degree vertex's neighborhood block
# is settled by one scan and the rest splits three ways, low-degree instances
# go to the lookup-table path, tiny sides are searched exhaustively. The
# RunStats counters show which paths fired.

import trimat as tm

# A planted instance: one A-vertex sees everything, and a single B-C edge
# hides among 40x40 candidates.
g = tm.TripartiteGraph(6, 40, 40)
for j in range(40):
    g.ab.set(0, j)
    g.ac.set(0, j)
g.bc.set(17, 23)

cfg = tm.DetectorConfig(delta=2, small_threshold=4)
stats = tm.RunStats()
verdict = tm.detect(g, cfg, stats)
print("planted instance:", verdict)
for line in stats.as_lines():
    print(" ", line)

# Random sweep: the verdict always matches brute force, whatever the density.
rng = tm.CounterRng(2)
print("\ndensity sweep on 40/40/40 instances (detector vs brute force):")
for density in (0.02, 0.1, 0.3, 0.7):
    g = tm.random_tripartite(rng, 40, 40, 40, density)
    stats = tm.RunStats()
    got = tm.detect(g, tm.DetectorConfig(delta=2, small_threshold=2), stats)
    expect = tm.brute_triangle(g)
    print(f"  density {density:4}: found={got.found!s:5} oracle={expect.found!s:5} "
          f"nodes={stats.recursion_nodes:3} sparse_calls={stats.sparse_calls} "
          f"pairs_charged={stats.pairs_charged}")
    assert got.found == expect.found

# With the charging ledger on, the detector additionally asserts that no
# (b, c) pair is ever paid for twice across the whole recursion.
g = tm.random_tripartite(rng, 30, 30, 30, 0.5)
cfg = tm.DetectorConfig(delta=2, small_threshold=2, debug_charge_check=True)
tm.detect(g, cfg, tm.RunStats())
print("\ncharging ledger: no pair charged twice (no exception raised)")
