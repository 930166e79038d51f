"""util.crc64 (liblzma's lzma_crc64) against a byte loop.

`reference_crc64` is the textbook reflected CRC-64/XZ: one table lookup per
byte. Every index file ever written carries this checksum, so crc64 must
return the same value for every size, every starting CRC and every buffer
type.
"""

import numpy as np
import pytest

from lplsh import util
from lplsh.util import crc64, derive_rng


def _table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xC96C5795D7870F42 if crc & 1 else crc >> 1
        table.append(crc)
    return table


TABLE = _table()
MIB = 1 << 20


def reference_crc64(data, crc=0):
    crc ^= 0xFFFFFFFFFFFFFFFF
    for b in bytes(data):
        crc = TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFFFFFFFFFF


def random_bytes(size: int, tag: int) -> bytes:
    return derive_rng(0, 9900, tag).integers(0, 256, size, dtype=np.uint8).tobytes()


# a spread from 0 to 3 MiB, on either side of several powers of two
SIZES = [0, 1, 2, 7, 255, 256, 257, 8191, 8192, 8193, 8447, 24593, MIB - 1, MIB, MIB + 1, MIB + 8191, MIB + 8192,
         3 * MIB + 12345]


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


@pytest.mark.parametrize("cuts", [(0,), (1,), (8191, MIB + 5), (MIB,), (300, 301, 9000, MIB + 1)])
def test_chained_calls_equal_one_call(cuts):
    data = random_bytes(2 * MIB + 4321, 2)
    crc = want = 0
    bounds = [0, *cuts, len(data)]
    for lo, hi in zip(bounds, bounds[1:]):
        crc = crc64(data[lo:hi], crc)
        want = reference_crc64(data[lo:hi], want)
        assert crc == want
    assert crc == crc64(data)


def test_buffer_types():
    data = random_bytes(MIB + 777, 3)
    want = reference_crc64(data[5:-9])
    assert crc64(data[5:-9]) == want
    assert crc64(bytearray(data)[5:-9]) == want
    assert crc64(memoryview(data)[5:-9]) == want
    assert crc64(memoryview(bytearray(data))[5:-9]) == want
    strided = memoryview(data)[::3]
    assert crc64(strided) == reference_crc64(strided)


def test_read_only_slice_checksummed_in_place(monkeypatch):
    # load_index checksums memoryview(raw)[:end] of the bytes it read
    data = random_bytes(70_001, 4)
    seen = []
    kernel = util._lzma_crc64

    def recording(address, size, crc):
        seen.append((address, size))
        return kernel(address, size, crc)

    monkeypatch.setattr(util, "_lzma_crc64", recording)
    for lo, hi in [(0, len(data) - 8), (13, len(data) - 8)]:
        view = memoryview(data)[lo:hi]
        assert view.readonly
        assert crc64(view) == reference_crc64(data[lo:hi])
        # the kernel read the caller's own memory, not a copy
        assert seen[-1] == (np.frombuffer(data, dtype=np.uint8).ctypes.data + lo, hi - lo)
