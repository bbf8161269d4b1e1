import numpy as np

import trimat as tm

from .conftest import complete_tripartite, matrix_from_strings


def test_brute_triangle_trivial(single_triangle):
    assert tm.brute_triangle(single_triangle).witness == (0, 0, 0)
    assert not tm.brute_triangle(tm.TripartiteGraph(3, 3, 3)).found


def test_brute_triangle_returns_lexicographic_first_witness():
    g = complete_tripartite(5, 5, 5)
    assert tm.brute_triangle(g).witness == (0, 0, 0)


def test_brute_triangle_respects_views(single_triangle):
    g = complete_tripartite(4, 4, 4)
    sub = tm.SubInstance(g, [2, 3], [1, 3], [3])
    assert tm.brute_triangle(g, sub).witness == (2, 1, 3)

    g = single_triangle
    assert tm.brute_triangle(g, tm.SubInstance(g, [0], [0], [0])).witness == (0, 0, 0)
    assert not tm.brute_triangle(g, tm.SubInstance(g, [], [0], [0])).found
    c_rest = np.setdiff1d([0], tm.neighborhood(g, g.full_view(), 0, "C"))
    assert not tm.brute_triangle(g, tm.SubInstance(g, [0], [0], c_rest)).found

    # a triangle inside a view is a triangle of the whole graph
    g = tm.random_tripartite(tm.CounterRng(67), 12, 12, 12, 0.5)
    small = tm.SubInstance(g, np.arange(6), np.arange(6), np.arange(6))
    if tm.brute_triangle(g, small).found:
        assert tm.brute_triangle(g).found


def test_multiply_scalar_identity_and_zeros():
    rng = tm.CounterRng(223)
    m = tm.random_bitmatrix(rng, 7, 7, 0.5)
    assert tm.multiply_scalar_oracle(tm.identity(7), m) == m

    zeros = tm.BitMatrix(7, 7)
    assert tm.multiply_scalar_oracle(zeros, m) == zeros


def test_multiply_scalar_one_by_one():
    one = matrix_from_strings(["1"])
    zero = matrix_from_strings(["0"])
    assert tm.multiply_scalar_oracle(one, one) == one
    assert tm.multiply_scalar_oracle(one, zero) == zero
    assert tm.multiply_scalar_oracle(zero, one) == zero
