#!/usr/bin/env python3
# The degree-bounded sparse case: group the B and C parts, precompute
# edge-existence for every small subset pair into a table, then cut the
# neighborhoods of a block of A-vertices into chunks in one pass and answer
# each vertex's chunk pairs with a single gather from it.

import numpy as np

import trimat as tm
from trimat.four_russians import build_pair_table, chunk_slots, estimate_table_entries, slot_members

rng = tm.CounterRng(3)
g = tm.random_tripartite(rng, 50, 48, 48, 0.04)
sub = g.full_view()

delta = 2
print("delta =", delta, "-> group size", delta**3, "and subsets of size <=", delta)
print("estimated table entries:", estimate_table_entries(48, 48, delta))

# The detector only uses the table when no A-vertex has a big degree product.
violator = tm.check_degree_condition(g, sub, delta)
print("degree condition violator:", violator)

table = build_pair_table(g, sub.ib, sub.ic, delta)
rows, cols = table.entries.shape
print("table built:", rows, "B-slots x", cols, "C-slots,",
      int(table.entries.sum()), "positive entries")

# A subset's slot is arithmetic: group * S(group size, delta) plus one
# subset-count term per member, largest offset first.
members = slot_members(48, delta)
for slot in (0, 1, 8, 9, 36, 37, 38):
    print(f"  slot {slot:2d} holds positions {[int(p) for p in members[slot] if p >= 0]}")

# How a neighborhood turns into table queries: per group, runs of exactly
# delta plus at most one remainder, each named by its slot.
v = max(range(g.nA), key=lambda a: tm.degree(g, sub, a, "B"))
nbh = tm.neighborhood(g, sub, v, "B")
positions = np.searchsorted(sub.ib, nbh)
slots, bounds = chunk_slots(positions, delta)
print(f"\nvertex {v}: B-neighborhood {list(map(int, nbh))}")
for k, slot in enumerate(slots):
    print(f"  chunk {list(map(int, positions[bounds[k]:bounds[k + 1]]))} -> slot {int(slot)}")

stats = tm.RunStats()
verdict = tm.sparse_detect(g, sub, delta, stats, table=table)
print("\nsparse detection:", verdict)
print("table queries used:", stats.table_queries)
assert verdict.found == tm.brute_triangle(g).found

# Bigger deltas explode the preprocessing cost; the budget guard refuses a
# table over DEFAULT_TABLE_BUDGET entries on its estimate, before allocating.
wide = tm.TripartiteGraph(1, 60, 60)
try:
    build_pair_table(wide, np.arange(60), np.arange(60), 3)
except tm.TableBudgetError as exc:
    print("\nbudget guard at delta=3, 60 per part:", exc)
else:
    raise AssertionError("the budget guard did not fire")
