import numpy as np
import pytest

import trimat as tm
from trimat.reduction import _icbrt_ceil, default_detector

from .conftest import assert_witness_valid, first_set_bit


def counting_detector(inner):
    calls = {"n": 0}

    def handle(g, sub, stats):
        calls["n"] += 1
        return inner(g, sub, stats)

    return handle, calls


def test_default_block_side():
    assert tm.default_block_side(64) == 4
    assert tm.default_block_side(27) == 3
    assert tm.default_block_side(28) == 4
    assert tm.default_block_side(1) == 1
    for n in range(1, 300):
        t = _icbrt_ceil(n)
        assert (t - 1) ** 3 < n <= t**3


def test_block_side_validation():
    with pytest.raises(ValueError):
        tm.bmm_via_triangle(tm.BitMatrix(4, 4), tm.BitMatrix(4, 4), 0)
    with pytest.raises(ValueError):
        tm.bmm_via_triangle(tm.BitMatrix(4, 4), tm.BitMatrix(4, 4), 5)
    # an empty product has no blocks, so no block side is out of range
    assert tm.bmm_via_triangle(tm.BitMatrix(0, 0), tm.BitMatrix(0, 0), 0) == tm.BitMatrix(0, 0)


def test_identity_times_matrix():
    rng = tm.CounterRng(167)
    b = tm.random_bitmatrix(rng, 16, 16, 0.3)
    got = tm.bmm_via_triangle(tm.identity(16), b, 3)
    assert got == b


def test_zero_inputs_cost_one_call_per_block_triple():
    n, t = 12, 3
    a = tm.BitMatrix(n, n)
    b = tm.BitMatrix(n, n)
    handle, calls = counting_detector(default_detector())
    out = tm.bmm_via_triangle(a, b, t, handle)
    assert out.count() == 0
    assert calls["n"] == (n // t) ** 3


def test_call_count_is_blocks_plus_discovered_bits():
    rng = tm.CounterRng(173)
    n, t = 24, 4
    a = tm.random_bitmatrix(rng, n, n, 0.15)
    b = tm.random_bitmatrix(rng, n, n, 0.15)
    handle, calls = counting_detector(default_detector())
    out = tm.bmm_via_triangle(a, b, t, handle)
    blocks = -(-n // t)
    assert calls["n"] == blocks**3 + out.count()
    # rectangular: one block count per part
    rows, inner, cols = 13, 5, 30
    a = tm.random_bitmatrix(rng, rows, inner, 0.3)
    b = tm.random_bitmatrix(rng, inner, cols, 0.3)
    handle, calls = counting_detector(default_detector())
    out = tm.bmm_via_triangle(a, b, t, handle)
    assert out.count() > 0
    assert calls["n"] == -(-rows // t) * -(-inner // t) * -(-cols // t) + out.count()


def test_matches_scalar_oracle_across_block_sizes():
    rng = tm.CounterRng(179)
    for _ in range(12):
        n = 1 + rng.next_below(48)
        a = tm.random_bitmatrix(rng, n, n, 0.25)
        b = tm.random_bitmatrix(rng, n, n, 0.25)
        expect = tm.multiply_scalar_oracle(a, b)
        for t in sorted({1, min(2, n), min(4, n), min(8, n), _icbrt_ceil(n)}):
            assert tm.bmm_via_triangle(a, b, t) == expect


def test_output_is_detector_agnostic():
    rng = tm.CounterRng(181)
    n = 20
    a = tm.random_bitmatrix(rng, n, n, 0.3)
    b = tm.random_bitmatrix(rng, n, n, 0.3)
    t = 4

    def brute_adapter(g, sub, stats):
        return tm.brute_triangle(g, sub)

    def sparse_adapter(g, sub, stats):
        return tm.sparse_detect(g, sub, 1, stats)

    outs = [
        tm.bmm_via_triangle(a, b, t, det)
        for det in (None, brute_adapter, sparse_adapter)
    ]
    assert outs[0] == outs[1] == outs[2]
    assert outs[0] == tm.multiply_scalar_oracle(a, b)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        tm.bmm_via_triangle(tm.BitMatrix(3, 4), tm.BitMatrix(3, 4))


RECTANGULAR_SHAPES = [
    (0, 3, 2), (3, 0, 2), (1, 1, 5), (2, 3, 2), (5, 1, 7), (7, 9, 3), (13, 5, 30), (40, 17, 6),
]


@pytest.mark.parametrize("rows, inner, cols", RECTANGULAR_SHAPES)
def test_rectangular_products_match_scalar_oracle(rows, inner, cols):
    rng = tm.CounterRng(rows * 10_000 + inner * 100 + cols)
    n = max(rows, inner, cols)
    for density in (0.2, 0.6):
        a = tm.random_bitmatrix(rng, rows, inner, density)
        b = tm.random_bitmatrix(rng, inner, cols, density)
        expect = tm.multiply_scalar_oracle(a, b)
        assert tm.bmm_via_triangle(a, b) == expect
        for t in sorted({1, min(2, n), min(3, n), min(7, n), n}):
            got = tm.bmm_via_triangle(a, b, t)
            assert (got.rows, got.cols) == (rows, cols)
            assert got == expect


def test_inputs_are_left_unchanged():
    rng = tm.CounterRng(229)
    a = tm.random_bitmatrix(rng, 17, 23, 0.3)
    b = tm.random_bitmatrix(rng, 23, 11, 0.3)
    a_before, b_before = a.copy(), b.copy()
    out = tm.bmm_via_triangle(a, b, 4)
    assert out.count() > 0
    assert np.array_equal(a.data, a_before.data) and np.array_equal(b.data, b_before.data)


def test_triangle_via_bmm_trivial(single_triangle):
    v = tm.triangle_via_bmm(single_triangle)
    assert v.found and v.witness == (0, 0, 0)
    assert not tm.triangle_via_bmm(tm.TripartiteGraph(3, 3, 3)).found


def _triangle_via_bmm_row_loop(g):
    """The row-by-row scan triangle_via_bmm used to run over the product."""
    paths = tm.multiply_bitpacked(g.ab, g.bc)
    for a in range(g.nA):
        if not tm.rows_intersect(paths, a, g.ac, a):
            continue
        c = first_set_bit(paths.row_words(a) & g.ac.row_words(a))
        for b in g.ab.row_indices(a):
            if g.bc.get(int(b), c):
                return tm.Verdict(True, (a, int(b), c))
    return tm.Verdict(False)


def test_triangle_via_bmm_witness_matches_row_loop():
    rng = tm.CounterRng(199)
    found = 0
    for _ in range(60):
        na, nb, nc = (1 + rng.next_below(90) for _ in range(3))
        g = tm.random_tripartite(rng, na, nb, nc, (0.02, 0.1, 0.3)[rng.next_below(3)])
        got = tm.triangle_via_bmm(g)
        assert got == _triangle_via_bmm_row_loop(g)
        found += got.found
        # triangle-free: AC is the complement of the A-C paths through B
        paths = tm.multiply_bitpacked(g.ab, g.bc)
        g.ac = paths.complement()
        assert tm.triangle_via_bmm(g) == _triangle_via_bmm_row_loop(g) == tm.Verdict(False)
        # then one path closed again, usually at a late A-vertex
        rows, cols = np.nonzero(paths.bits())
        if rows.size:
            k = rows.size - 1 - rng.next_below(min(rows.size, 5))
            g.ac.set(int(rows[k]), int(cols[k]))
            got = tm.triangle_via_bmm(g)
            assert got.found and got == _triangle_via_bmm_row_loop(g)
            assert got.witness[0] == rows[k]
    assert found > 10


def test_triangle_via_bmm_three_way_cross_check():
    rng = tm.CounterRng(191)
    for _ in range(40):
        na, nb, nc = (1 + rng.next_below(40) for _ in range(3))
        g = tm.random_tripartite(rng, na, nb, nc, 0.15)
        expect = tm.brute_triangle(g).found
        assert tm.triangle_via_bmm(g).found == expect
        assert tm.detect(g).found == expect
        got = tm.triangle_via_bmm(g)
        if got.found:
            assert_witness_valid(g, got)
