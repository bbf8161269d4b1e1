import hashlib

import numpy as np
import pytest

import trimat as tm
from trimat import randgen


@pytest.mark.parametrize("cursor", [0, 7, 2**40])
@pytest.mark.parametrize("count", [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
def test_next_block_matches_scalar_stream(cursor, count):
    rng = tm.CounterRng(2**64 - 3)  # seed + counter * golden ratio wraps at once
    rng.cursor = cursor
    block = rng.next_block(count)
    assert block.dtype == np.uint64
    assert rng.cursor == cursor + count
    assert block.tolist() == [rng._value(cursor + k) for k in range(count)]


def test_random_bitmatrix_is_pinned():
    m = tm.random_bitmatrix(tm.CounterRng(1), 2048, 2048, 0.5)
    digest = hashlib.sha256(m.data.tobytes()).hexdigest()
    assert digest == "5e3bf7582ae1574a8003650af675b60cf041216afe76ac3dfe68e62021154a7b"


@pytest.mark.parametrize("cursor", [0, 12345, 2**40])
@pytest.mark.parametrize("rows, cols", [(300, 77), (1, 2**16 + 1)])
def test_random_bitmatrix_matches_thresholded_scalar_stream(cursor, rows, cols):
    rng = tm.CounterRng(2**64 - 3)
    values = [rng._value(cursor + k) for k in range(rows * cols)]
    for density in (0, 0.0007, 0.5, 1):
        rng.cursor = cursor
        m = tm.random_bitmatrix(rng, rows, cols, density)
        assert rng.cursor == cursor + rows * cols
        threshold = randgen._density_threshold(density)
        expect = np.array([v < threshold for v in values], dtype=np.uint8).reshape(rows, cols)
        assert np.array_equal(m.bits(), expect), density
