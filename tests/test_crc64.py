"""The lane-parallel CRC-64 against the byte loop it replaced.

`reference_crc64` is `util.crc64` as it was written before the numpy lane
kernel: one table lookup per byte. Every index file ever written carries
this checksum, so the kernel must return the same value for every size,
every starting CRC and every buffer type, including sizes on either side
of the lane, minimum-lane-count and slab boundaries.
"""

import numpy as np
import pytest

from lplsh.util import _LANE_BYTES, _MIN_LANES, _SLAB_LANES, _TABLE, crc64, derive_rng

SLAB = _SLAB_LANES * _LANE_BYTES
MIN_LANED = _MIN_LANES * _LANE_BYTES


def reference_crc64(data, crc=0):
    crc ^= 0xFFFFFFFFFFFFFFFF
    table = _TABLE
    for b in bytes(data):
        crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFFFFFFFFFF


def random_bytes(size: int, tag: int) -> bytes:
    return derive_rng(0, 9900, tag).integers(0, 256, size, dtype=np.uint8).tobytes()


SIZES = sorted({
    0, 1, 2, 7,
    _LANE_BYTES - 1, _LANE_BYTES, _LANE_BYTES + 1,
    MIN_LANED - 1, MIN_LANED, MIN_LANED + 1,
    MIN_LANED + _LANE_BYTES - 1, 3 * MIN_LANED + 17,
    SLAB - 1, SLAB, SLAB + 1,
    SLAB + MIN_LANED - 1, SLAB + MIN_LANED,
    3 * SLAB + 12345,
})


def test_check_value():
    assert crc64(b"123456789") == 0x995DC9BBDF1939FA
    assert reference_crc64(b"123456789") == 0x995DC9BBDF1939FA


@pytest.mark.parametrize("size", SIZES)
def test_matches_byte_loop(size):
    data = random_bytes(size, size)
    assert crc64(data) == reference_crc64(data)
    assert crc64(data, 0x0123456789ABCDEF) == reference_crc64(data, 0x0123456789ABCDEF)


def test_index_sized_buffer():
    data = random_bytes(5_462_818, 1)
    assert crc64(data) == reference_crc64(data)


@pytest.mark.parametrize("cuts", [(0,), (1,), (MIN_LANED - 1, SLAB + 5), (SLAB,), (300, 301, 9000, SLAB + 1)])
def test_chained_calls_equal_one_call(cuts):
    data = random_bytes(2 * SLAB + 4321, 2)
    crc = want = 0
    bounds = [0, *cuts, len(data)]
    for lo, hi in zip(bounds, bounds[1:]):
        crc = crc64(data[lo:hi], crc)
        want = reference_crc64(data[lo:hi], want)
        assert crc == want
    assert crc == crc64(data)


def test_buffer_types():
    data = random_bytes(SLAB + 777, 3)
    want = reference_crc64(data[5:-9])
    assert crc64(data[5:-9]) == want
    assert crc64(bytearray(data)[5:-9]) == want
    assert crc64(memoryview(data)[5:-9]) == want
    assert crc64(memoryview(bytearray(data))[5:-9]) == want
    strided = memoryview(data)[::3]
    assert crc64(strided) == reference_crc64(strided)
