#!/usr/bin/env python3
# Boolean matrix multiplication from a triangle detector, and the trivial
# converse. One tripartite graph holds a as its A-B edges, b as its B-C edges
# and all-ones A-C edges. The detector searches the view of each block triple;
# every witness is a new product bit, whose A-C edge is then deleted (witness
# deletion). The product is the complement of the A-C edges left.

import trimat as tm
from trimat.reduction import default_detector

rng = tm.CounterRng(5)
n = 32
a = tm.random_bitmatrix(rng, n, n, 0.15)
b = tm.random_bitmatrix(rng, n, n, 0.15)

spec = tm.BlockSpec.default_for(n)
print(f"n = {n}: default block side t = {spec.t} "
      f"({spec.blocks_per_side} blocks per side)")

calls = {"n": 0}
def counting(g, sub, stats):
    calls["n"] += 1
    return default_detector()(g, sub, stats)

out = tm.bmm_via_triangle(a, b, spec, counting)
expect = tm.multiply_scalar_oracle(a, b)
print("product matches scalar oracle:", out == expect)
print(f"detector calls: {calls['n']} = {spec.blocks_per_side}^3 block triples "
      f"+ {out.count()} discovered bits")
assert calls["n"] == spec.blocks_per_side**3 + out.count()

# Any correct detector gives the identical product; only the call pattern
# inside each block changes.
brute = tm.bmm_via_triangle(a, b, spec, lambda g, sub, s: tm.brute_triangle(g, sub))
print("detector-agnostic:", brute == out)

# The converse direction: one Boolean product answers triangle detection.
g = tm.random_tripartite(rng, 24, 24, 24, 0.1)
print("\ntriangle via product:", tm.triangle_via_bmm(g))
print("recursive detector  :", tm.detect(g))
print("brute force         :", tm.brute_triangle(g))
