"""Bit-packed Boolean matrices with word-parallel row operations.

Rows are packed little-endian into 64-bit words: bit j of row i lives in
word i*words_per_row + j//64 at position j%64.  Trailing pad bits in the
last word of every row are kept zero as a hard invariant, so word-level
AND / OR / popcount never need masking at the use site.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import FormatError

WORD_BITS = 64

if sys.byteorder != "little":
    raise ImportError("trimat packs bits assuming a little-endian platform")


def words_for(nbits: int) -> int:
    """Number of 64-bit words needed to hold nbits bits."""
    return (nbits + WORD_BITS - 1) // WORD_BITS


def indexable(rows: int, cols: int) -> bool:
    """True iff numpy can index a rows x cols matrix: sides and word buffer fit np.intp."""
    return max(rows, cols, rows * words_for(cols) * WORD_BITS // 8) <= np.iinfo(np.intp).max


def pack_index_mask(indices, nbits: int) -> np.ndarray:
    """Pack a list of bit positions < nbits into a uint64 word array."""
    nwords = words_for(nbits)
    bits = np.zeros(nwords * WORD_BITS, dtype=np.uint8)
    if len(indices):
        bits[np.asarray(indices, dtype=np.int64)] = 1
    return np.packbits(bits, bitorder="little").view(np.uint64)


def unpack_word_indices(words: np.ndarray) -> np.ndarray:
    """Positions of set bits in a little-endian uint64 word array."""
    return np.flatnonzero(np.unpackbits(words.view(np.uint8), bitorder="little"))


def first_set_bit_2d(words2d: np.ndarray) -> tuple[int, int]:
    """First set bit of a 2-D word array in row-major order: (row, bit); (-1, -1) if none."""
    nz = np.flatnonzero(words2d)
    if nz.size == 0:
        return -1, -1
    row, w = divmod(int(nz[0]), words2d.shape[1])
    x = int(words2d[row, w])
    return row, w * WORD_BITS + (x & -x).bit_length() - 1


def popcount_words(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum(dtype=np.int64))


class BitMatrix:
    """Row-major bit-packed Boolean matrix."""

    __slots__ = ("rows", "cols", "words_per_row", "data")

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        self.words_per_row = words_for(cols)
        self.data = np.zeros(rows * self.words_per_row, dtype=np.uint64)

    # -- the codec: every packing and unpacking of whole rows goes here -------

    @classmethod
    def from_bits(cls, arr) -> "BitMatrix":
        """Pack a 2-D array of 0/1 values (any nonzero value counts as 1)."""
        rows, cols = np.shape(arr)
        m = cls(rows, cols)
        m.words2d.view(np.uint8)[:, : (cols + 7) // 8] = np.packbits(
            arr, axis=1, bitorder="little"
        )
        return m

    @classmethod
    def from_coords(cls, rows: int, cols: int, r, c) -> "BitMatrix":
        """Matrix with exactly the bits (r[k], c[k]) set; duplicates are idempotent."""
        r = np.asarray(r, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        if r.size and (min(r.min(), c.min()) < 0 or r.max() >= rows or c.max() >= cols):
            raise IndexError(f"bit coordinate out of range for {rows}x{cols}")
        m = cls(rows, cols)
        bits = np.left_shift(np.uint64(1), (c & 63).astype(np.uint64))
        np.bitwise_or.at(m.data, r * m.words_per_row + (c >> 6), bits)
        return m

    def bits(self, rows=slice(None)) -> np.ndarray:
        """The given rows (a slice or an index array) unpacked to 0/1 uint8."""
        words = self.words2d[rows].view(np.uint8)
        return np.unpackbits(words, axis=1, count=self.cols, bitorder="little")

    # -- single-bit access ------------------------------------------------

    def _check(self, i: int, j: int) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"bit ({i},{j}) out of range for {self.rows}x{self.cols}")

    def get(self, i: int, j: int) -> bool:
        self._check(i, j)
        w = i * self.words_per_row + (j >> 6)
        return bool((int(self.data[w]) >> (j & 63)) & 1)

    def set(self, i: int, j: int, v: bool = True) -> None:
        self._check(i, j)
        w = i * self.words_per_row + (j >> 6)
        if v:
            self.data[w] = np.uint64(int(self.data[w]) | (1 << (j & 63)))
        else:
            self.data[w] = np.uint64(int(self.data[w]) & ~(1 << (j & 63)))

    # -- row views ---------------------------------------------------------

    def row_words(self, i: int) -> np.ndarray:
        wpr = self.words_per_row
        return self.data[i * wpr : (i + 1) * wpr]

    @property
    def words2d(self) -> np.ndarray:
        return self.data.reshape(self.rows, self.words_per_row)

    def row_indices(self, i: int) -> np.ndarray:
        """Sorted column indices of set bits in row i."""
        return unpack_word_indices(self.row_words(i))

    # -- whole-matrix helpers ----------------------------------------------

    def copy(self) -> "BitMatrix":
        out = BitMatrix(self.rows, self.cols)
        out.data[:] = self.data
        return out

    def count(self) -> int:
        return popcount_words(self.data)

    def complement(self) -> "BitMatrix":
        """New matrix with every in-range bit flipped; pad bits stay zero."""
        out = BitMatrix(self.rows, self.cols)
        out.words2d[:] = ~self.words2d & _row_mask(self.cols)
        return out

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "BitMatrix":
        """Copy of the sub-matrix rows [r0,r1) x cols [c0,c1)."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise IndexError("block out of range")
        return BitMatrix.from_bits(self.bits(slice(r0, r1))[:, c0:c1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols}, {self.count()} set)"

    def pad_bits_zero(self) -> bool:
        """Check the pad-zero invariant (used by tests and debug asserts)."""
        if self.rows == 0 or self.cols % WORD_BITS == 0:
            return True
        tail = self.words2d[:, -1]
        spill = np.uint64(((1 << WORD_BITS) - 1) ^ ((1 << (self.cols % WORD_BITS)) - 1))
        return not bool(np.any(tail & spill))


def _row_mask(cols: int) -> np.ndarray:
    """Word mask with the first `cols` bits set."""
    return pack_index_mask(np.arange(cols, dtype=np.int64), cols)


def identity(n: int) -> BitMatrix:
    return BitMatrix.from_coords(n, n, np.arange(n), np.arange(n))


def rows_intersect(m: BitMatrix, i: int, m2: BitMatrix, k: int) -> bool:
    """True iff rows m[i] and m2[k] share a set column."""
    if m.cols != m2.cols:
        raise ValueError(f"column mismatch: {m.cols} vs {m2.cols}")
    return bool(np.any(m.row_words(i) & m2.row_words(k)))


_SLAB = 8  # rows of b per table; fixed, because one byte of a's packed row indexes it
_SLABS_PER_BATCH = 8  # tables built together: 256 * 8 table rows of b's width at a time


def multiply_bitpacked(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Boolean product out[i][j] = OR_k a[i][k] & b[k][j] by the Method of Four Russians.

    This is M4RM, the byte-table method of Arlazarov, Dinic, Kronrod and
    Faradzev (1970) as used in M4RI (Albrecht, Bard and Hart, "Algorithm
    898: Efficient multiplication of dense matrices over GF(2)", ACM TOMS
    2010), run over the OR semiring.  b is cut into slabs of 8 rows, the last
    one padded with zero rows.  Each slab gets a table of all 256 ORs of its
    rows, built by doubling, so entry x is the OR of the rows named by the
    bits of x.  Byte s of a packed row of a is then exactly the index into
    slab s's table, and one gather per slab ORs the right table row into
    every output row at once.  Tables are built a batch of slabs at a time.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    out = BitMatrix(a.rows, b.cols)
    wpr = b.words_per_row
    bw = b.words2d
    if b.rows % _SLAB:
        bw = np.concatenate([bw, np.zeros((-b.rows % _SLAB, wpr), dtype=np.uint64)])
    nslabs = len(bw) // _SLAB
    slabs = bw.reshape(nslabs, _SLAB, wpr)
    a_bytes = a.words2d.view(np.uint8)
    ow = out.words2d
    tables = np.empty((_SLABS_PER_BATCH, 1 << _SLAB, wpr), dtype=np.uint64)
    tables[:, 0] = 0
    for s0 in range(0, nslabs, _SLABS_PER_BATCH):
        batch = tables[: min(_SLABS_PER_BATCH, nslabs - s0)]
        for k in range(_SLAB):
            np.bitwise_or(
                batch[:, : 1 << k], slabs[s0 : s0 + len(batch), k, None],
                out=batch[:, 1 << k : 2 << k],
            )
        for s, table in enumerate(batch, start=s0):
            ow |= table[a_bytes[:, s]]
    return out


# -- shared text format ---------------------------------------------------
# First line "R C"; then R lines of exactly C characters from {0,1}.

def parse_matrix_text(text: str) -> BitMatrix:
    lines = text.splitlines()
    if not lines:
        raise FormatError(1, "empty input, expected 'R C' header")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(1, f"expected 'R C' header, got {lines[0]!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(1, f"non-integer dimensions in header {lines[0]!r}") from None
    if rows < 0 or cols < 0:
        raise FormatError(1, "dimensions must be non-negative")
    if not indexable(rows, cols):
        raise FormatError(1, f"dimensions too large to index in header {lines[0]!r}")
    if len(lines) < rows + 1:
        raise FormatError(len(lines) + 1, f"expected {rows} data rows, found {len(lines) - 1}")
    body = lines[1 : rows + 1]
    # the rows before the first ragged one are checked for characters first,
    # so the error names the first offending line of either kind
    ragged = next((i for i, line in enumerate(body) if len(line) != cols), rows)
    chars = "".join(body[:ragged]).encode("ascii", "replace")
    vals = np.frombuffer(chars, dtype=np.uint8) - ord("0")
    bad = np.flatnonzero(vals > 1)
    if bad.size:
        raise FormatError(int(bad[0]) // cols + 2, "row contains characters other than 0/1")
    if ragged < rows:
        raise FormatError(ragged + 2, f"expected {cols} characters, got {len(body[ragged])}")
    return BitMatrix.from_bits(vals.reshape(rows, cols))


def format_matrix_text(m: BitMatrix) -> str:
    body = np.full((m.rows, m.cols + 1), ord("\n"), dtype=np.uint8)
    body[:, :-1] = m.bits() + ord("0")
    return f"{m.rows} {m.cols}\n" + body.tobytes().decode("ascii")
