import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trimat as tm
from trimat.bitmat import (
    first_set_bit_2d,
    indexable,
    pack_index_mask,
    unpack_word_indices,
)

from .conftest import matrix_from_strings


def test_new_degenerate_and_sizing():
    empty = tm.BitMatrix(0, 0)
    assert empty.data.size == 0

    one = tm.BitMatrix(1, 1)
    assert one.get(0, 0) is False

    wide = tm.BitMatrix(3, 130)
    assert wide.words_per_row == 3
    assert wide.data.size == 9


def test_get_set_roundtrip():
    m = tm.BitMatrix(4, 10)
    m.set(2, 5)
    assert m.get(2, 5) is True
    m.set(2, 5, False)
    assert m.get(2, 5) is False
    assert m.get(0, 0) is False


def test_out_of_range_access_rejected():
    m = tm.BitMatrix(2, 2)
    with pytest.raises(IndexError):
        m.get(2, 0)
    with pytest.raises(IndexError):
        m.set(0, 2, True)


def test_rows_intersect_trivial():
    a = matrix_from_strings(["0101"])
    b = matrix_from_strings(["1010"])
    assert tm.rows_intersect(a, 0, b, 0) is False

    c = matrix_from_strings(["0100"])
    d = matrix_from_strings(["0110"])
    assert tm.rows_intersect(c, 0, d, 0) is True


def test_rows_intersect_column_mismatch():
    with pytest.raises(ValueError):
        tm.rows_intersect(tm.BitMatrix(1, 3), 0, tm.BitMatrix(1, 4), 0)


def test_rows_intersect_matches_scalar_on_random_rows():
    rng = tm.CounterRng(11)
    for _ in range(50):
        a = tm.random_bitmatrix(rng, 1, 200, 0.05)
        b = tm.random_bitmatrix(rng, 1, 200, 0.05)
        scalar = any(a.get(0, j) and b.get(0, j) for j in range(200))
        assert tm.rows_intersect(a, 0, b, 0) == scalar


def test_multiply_identity_and_ones():
    rng = tm.CounterRng(3)
    b = tm.random_bitmatrix(rng, 8, 8, 0.4)
    assert tm.multiply_bitpacked(tm.identity(8), b) == b

    ones = matrix_from_strings(["1111"] * 4)
    assert tm.multiply_bitpacked(ones, ones) == ones


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        tm.multiply_bitpacked(tm.BitMatrix(2, 3), tm.BitMatrix(4, 2))


def test_multiply_matches_scalar_oracle_random():
    rng = tm.CounterRng(17)
    for density in (0.05, 0.3, 0.8):
        a = tm.random_bitmatrix(rng, 64, 64, density)
        b = tm.random_bitmatrix(rng, 64, 64, density)
        assert tm.multiply_bitpacked(a, b) == tm.multiply_scalar_oracle(a, b)
    # and once at the 128x128 ceiling, checking pads along the way
    a = tm.random_bitmatrix(rng, 128, 128, 0.2)
    b = tm.random_bitmatrix(rng, 128, 128, 0.2)
    out = tm.multiply_bitpacked(a, b)
    assert out.pad_bits_zero()
    assert out == tm.multiply_scalar_oracle(a, b)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 12),
    inner=st.integers(1, 90),
    cols=st.integers(1, 12),
    seed=st.integers(0, 2**32),
)
def test_multiply_matches_scalar_oracle_property(rows, inner, cols, seed):
    rng = tm.CounterRng(seed)
    a = tm.random_bitmatrix(rng, rows, inner, 0.25)
    b = tm.random_bitmatrix(rng, inner, cols, 0.25)
    assert tm.multiply_bitpacked(a, b) == tm.multiply_scalar_oracle(a, b)


def test_multiply_is_monotone_under_bit_flips():
    rng = tm.CounterRng(23)
    a = tm.random_bitmatrix(rng, 20, 20, 0.2)
    b = tm.random_bitmatrix(rng, 20, 20, 0.2)
    before = tm.multiply_bitpacked(a, b)
    for _ in range(25):
        i, j = rng.next_below(20), rng.next_below(20)
        (a if rng.next_below(2) else b).set(i, j)
    after = tm.multiply_bitpacked(a, b)
    assert not np.any(before.words2d & ~after.words2d)


@settings(max_examples=40, deadline=None)
@given(
    cols=st.integers(1, 200),
    ops=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 10**6), st.booleans()), max_size=40),
)
def test_pad_bits_stay_zero(cols, ops):
    m = tm.BitMatrix(5, cols)
    for i, j, v in ops:
        m.set(i, j % cols, v)
    assert m.pad_bits_zero()


def test_indexable_bounds_sides_and_word_buffer():
    top = np.iinfo(np.intp).max
    assert indexable(top, 0) and indexable(0, top)
    assert not indexable(top + 1, 0) and not indexable(0, top + 1)
    # 8 bytes per 64-column word
    assert indexable(2**60 - 1, 64) and not indexable(2**60, 64)
    assert indexable(2**57, 7 * 64) and not indexable(2**57, 7 * 64 + 1)


def test_pack_unpack_helpers():
    mask = pack_index_mask([0, 63, 64, 129], 130)
    assert list(unpack_word_indices(mask)) == [0, 63, 64, 129]


def _first_set_bit_2d_reference(words2d):
    """Row-major scan with one shift per bit."""
    for r in range(words2d.shape[0]):
        for k in range(words2d.shape[1] * 64):
            if (int(words2d[r, k // 64]) >> (k % 64)) & 1:
                return r, k
    return -1, -1


@pytest.mark.parametrize("rows", [0, 1, 5])
@pytest.mark.parametrize("words", [1, 2, 3])
def test_first_set_bit_2d_matches_scalar_reference(rows, words):
    zero = np.zeros((rows, words), dtype=np.uint64)
    assert first_set_bit_2d(zero) == _first_set_bit_2d_reference(zero) == (-1, -1)
    bits = [k for k in (0, 63, 64, 127) if k < words * 64]
    for r in range(rows):
        for k in bits:
            # the first bit at (r, k), with later bits in row r and in every later row
            bitmap = np.zeros((rows, words * 64), dtype=np.uint8)
            bitmap[r, [j for j in bits if j >= k]] = 1
            bitmap[r + 1 :, bits] = 1
            words2d = np.packbits(bitmap, axis=1, bitorder="little").view(np.uint64)
            assert first_set_bit_2d(words2d) == _first_set_bit_2d_reference(words2d) == (r, k)


def test_block_and_complement():
    rng = tm.CounterRng(31)
    m = tm.random_bitmatrix(rng, 9, 140, 0.3)
    blk = m.block(2, 7, 60, 135)
    for i in range(5):
        for j in range(75):
            assert blk.get(i, j) == m.get(2 + i, 60 + j)
    comp = blk.complement()
    assert comp.pad_bits_zero()
    for i in range(5):
        for j in range(75):
            assert comp.get(i, j) != blk.get(i, j)


def test_matrix_text_roundtrip():
    rng = tm.CounterRng(41)
    m = tm.random_bitmatrix(rng, 6, 70, 0.4)
    assert tm.parse_matrix_text(tm.format_matrix_text(m)) == m


def test_matrix_text_rejects_ragged_and_junk():
    with pytest.raises(tm.FormatError) as err:
        tm.parse_matrix_text("2 3\n010\n01\n")
    assert err.value.line_no == 3

    with pytest.raises(tm.FormatError):
        tm.parse_matrix_text("2 3\n010\n0x0\n")
    with pytest.raises(tm.FormatError):
        tm.parse_matrix_text("")
    with pytest.raises(tm.FormatError):
        tm.parse_matrix_text("2\n00\n00\n")


# -- the codec against the per-bit, per-row and big-int code it replaced ----


def _format_reference(m):
    out = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        out.append("".join("1" if m.get(i, j) else "0" for j in range(m.cols)))
    return "\n".join(out) + "\n"


def _parse_reference(text):
    """Row-by-row parser: header checks elided, rows checked in file order."""
    lines = text.splitlines()
    rows, cols = (int(x) for x in lines[0].split())
    m = tm.BitMatrix(rows, cols)
    for i in range(rows):
        line = lines[i + 1]
        if len(line) != cols:
            raise tm.FormatError(i + 2, f"expected {cols} characters, got {len(line)}")
        if set(line) - {"0", "1"}:
            raise tm.FormatError(i + 2, "row contains characters other than 0/1")
        for j, ch in enumerate(line):
            if ch == "1":
                m.set(i, j)
    return m


def _block_reference(m, r0, r1, c0, c1):
    """Row-at-a-time block extraction through Python big integers."""
    out = tm.BitMatrix(r1 - r0, c1 - c0)
    keep = (1 << (c1 - c0)) - 1
    for oi, i in enumerate(range(r0, r1)):
        row = int.from_bytes(m.row_words(i).tobytes(), "little")
        piece = (row >> c0) & keep
        out.words2d[oi] = np.frombuffer(
            piece.to_bytes(out.words_per_row * 8, "little"), dtype=np.uint64
        )
    return out


def _random_bits(seed, rows, cols):
    vals = tm.CounterRng(seed).next_block(rows * cols)
    return (vals % np.uint64(3) == 0).astype(np.uint8).reshape(rows, cols)


@pytest.mark.parametrize("rows", [0, 1, 7])
@pytest.mark.parametrize("cols", [0, 1, 63, 64, 65, 130])
def test_codec_matches_per_bit_references(rows, cols):
    arr = _random_bits(rows * 1000 + cols, rows, cols)
    expect = tm.BitMatrix(rows, cols)
    for i, j in zip(*np.nonzero(arr)):
        expect.set(int(i), int(j))

    m = tm.BitMatrix.from_bits(arr)
    assert m == expect and m.pad_bits_zero()
    assert tm.BitMatrix.from_bits(arr.astype(bool)) == expect
    assert tm.BitMatrix.from_coords(rows, cols, *np.nonzero(arr)) == expect
    assert m.bits().dtype == np.uint8
    assert np.array_equal(m.bits(), arr)
    picks = np.array([rows - 1, 0, rows - 1], dtype=np.int64) if rows else np.zeros(0, np.int64)
    assert np.array_equal(m.bits(picks), arr[picks])
    assert np.array_equal(m.bits(slice(1, rows)), arr[1:])

    text = tm.format_matrix_text(m)
    assert text == _format_reference(expect)
    assert tm.parse_matrix_text(text) == _parse_reference(text) == expect


def test_block_matches_big_int_reference_across_word_boundaries():
    m = tm.BitMatrix.from_bits(_random_bits(5, 7, 200))
    for r0, r1, c0, c1 in [
        (0, 7, 0, 200), (0, 7, 1, 200), (1, 6, 63, 65), (2, 5, 60, 130),
        (0, 7, 64, 128), (3, 4, 127, 193), (0, 7, 5, 5), (4, 4, 0, 200),
        (0, 1, 199, 200), (6, 7, 0, 1), (0, 7, 1, 66),
    ]:
        blk = m.block(r0, r1, c0, c1)
        assert blk == _block_reference(m, r0, r1, c0, c1)
        assert blk.pad_bits_zero()
    with pytest.raises(IndexError):
        m.block(0, 8, 0, 1)
    with pytest.raises(IndexError):
        m.block(0, 1, 5, 4)


def test_from_coords_with_duplicates_and_bad_coordinates():
    r = [0, 2, 2, 0, 1, 2, 2]
    c = [64, 5, 5, 64, 129, 0, 5]
    expect = tm.BitMatrix(3, 130)
    for i, j in zip(r, c):
        expect.set(i, j)
    got = tm.BitMatrix.from_coords(3, 130, r, c)
    assert got == expect and got.count() == 4
    assert tm.BitMatrix.from_coords(3, 130, [], []) == tm.BitMatrix(3, 130)
    for bad_r, bad_c in (([3], [0]), ([0], [130]), ([-1], [0]), ([0], [-1])):
        with pytest.raises(IndexError):
            tm.BitMatrix.from_coords(3, 130, bad_r, bad_c)


@pytest.mark.parametrize(
    "text, line",
    [
        # a bad character on line 3 comes before a short row on line 5
        ("4 3\n010\n0x1\n111\n01\n", 3),
        ("4 3\n010\n01\n1x1\n011\n", 3),
        ("3 2\n01\n10\n1\n", 4),
        ("2 2\n01\n2\n", 3),
    ],
)
def test_matrix_text_names_first_offending_line(text, line):
    for parse in (tm.parse_matrix_text, _parse_reference):
        with pytest.raises(tm.FormatError) as err:
            parse(text)
        assert err.value.line_no == line


# -- the M4RM kernel against the per-row gather-OR kernel it replaced ------


def _multiply_gather_reference(a, b):
    """Each output row is the OR of the rows of b picked by the bits of a's row."""
    out = tm.BitMatrix(a.rows, b.cols)
    bw, ow = b.words2d, out.words2d
    for i in range(a.rows):
        idx = a.row_indices(i)
        if idx.size:
            ow[i] = np.bitwise_or.reduce(bw[idx], axis=0)
    return out


KERNEL_SIZES = [0, 1, 7, 8, 9, 63, 64, 65, 130]
# every size as rows and as cols: skewed pairs, then square ones
KERNEL_SHAPES = list(zip(KERNEL_SIZES, reversed(KERNEL_SIZES))) + [(s, s) for s in KERNEL_SIZES]


@pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("inner", KERNEL_SIZES)
def test_m4rm_matches_gather_reference_and_scalar_oracle(inner, density):
    rng = tm.CounterRng(inner * 10 + int(density * 2))
    for rows, cols in KERNEL_SHAPES:
        a = tm.random_bitmatrix(rng, rows, inner, density)
        b = tm.random_bitmatrix(rng, inner, cols, density)
        out = tm.multiply_bitpacked(a, b)
        assert out.pad_bits_zero()
        assert (out.rows, out.cols) == (rows, cols)
        assert out == _multiply_gather_reference(a, b)
        # the scalar oracle's full triple loop is only affordable on the small ones
        if rows * cols * inner <= 1 << 16:
            assert out == tm.multiply_scalar_oracle(a, b)


def test_m4rm_extra_memory_stays_bounded():
    rng = tm.CounterRng(5)
    a = tm.random_bitmatrix(rng, 2048, 2048, 0.5)
    b = tm.random_bitmatrix(rng, 2048, 2048, 0.5)
    tracemalloc.start()
    try:
        tm.multiply_bitpacked(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output, one gathered temporary and a batch of 8 tables take 0.5 MiB
    # each; the tables of all 256 slabs at once would take 16 MiB
    assert peak < 4 << 20
