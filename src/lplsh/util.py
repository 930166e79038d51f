"""Shared plumbing: seed derivation, binomial intervals, checksums."""

from __future__ import annotations

import functools

import numpy as np


class FormatError(Exception):
    """A serialized artifact (index file, vector file, CSV) failed validation."""


def seed_sequence(root_seed: int, *tags: int) -> np.random.SeedSequence:
    """Counter-style sub-seed derivation from a root seed.

    Components that need independent streams (projection matrix, lattice
    shifts, threshold sampling, per-table hash functions) each get a distinct
    tag path, so any piece can be regenerated without replaying the others.
    """
    return np.random.SeedSequence(entropy=int(root_seed), spawn_key=tuple(int(t) for t in tags))


def derive_rng(root_seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(seed_sequence(root_seed, *tags))


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials <= 0:
        raise ValueError("wilson_interval needs trials >= 1")
    n = float(trials)
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = z * np.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def binomial_se(successes: int, trials: int) -> float:
    phat = successes / trials
    return float(np.sqrt(max(phat * (1.0 - phat), 1.0 / trials) / trials))


# CRC-64/XZ (reflected poly 0xC96C5795D7870F42, init and xorout all-ones).
_CRC64_POLY = 0xC96C5795D7870F42
_CRC64_MASK = 0xFFFFFFFFFFFFFFFF
_LANE_BYTES = 256  # bytes per lane; the lane kernel takes one numpy step per byte
_SLAB_LANES = 4096  # lanes per slab, so a slab is 1 MiB
_MIN_LANES = 32  # below 32 lanes (8 KiB) the scalar loop is faster


def _crc64_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _CRC64_POLY
            else:
                crc >>= 1
        table.append(crc)
    return table


_TABLE = _crc64_table()
_TABLE_ARRAY = np.array(_TABLE, dtype=np.uint64)
_BASIS = np.uint64(1) << np.arange(64, dtype=np.uint64)  # the 64 unit registers


def _apply_tables(tables: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """A GF(2)-linear map on registers, given as 8 byte-sliced 256-entry tables."""
    out = tables[0][regs & np.uint64(0xFF)]
    for k in range(1, 8):
        out ^= tables[k][(regs >> np.uint64(8 * k)) & np.uint64(0xFF)]
    return out


@functools.cache
def _zero_tables(log2_len: int) -> np.ndarray:
    """Z_L for L = 2**log2_len: the register advanced by L zero bytes, as (8, 256) byte-sliced tables.

    Row k, entry b holds Z_L(b << 8k); the 64x64 matrix of Z_L is the
    table entries at the 64 unit registers. Z_1 is the byte table with a zero
    input byte; Z_2L is Z_L applied twice.
    """
    if log2_len == 0:
        columns = _TABLE_ARRAY[_BASIS & np.uint64(0xFF)] ^ (_BASIS >> np.uint64(8))
    else:
        half = _zero_tables(log2_len - 1)
        columns = _apply_tables(half, _apply_tables(half, _BASIS))
    tables = np.zeros((8, 256), dtype=np.uint64)
    for k in range(8):
        for bit in range(8):
            tables[k, 1 << bit : 2 << bit] = tables[k, : 1 << bit] ^ columns[8 * k + bit]
    tables.flags.writeable = False
    return tables


def _crc64_bytes(reg: int, data: bytes) -> int:
    """The raw register after `data`, one byte at a time (no init or xorout)."""
    table = _TABLE
    for b in data:
        reg = table[(reg ^ b) & 0xFF] ^ (reg >> 8)
    return reg


def _crc64_lanes(reg: int, slab: np.ndarray) -> int:
    """The raw register after `slab`, a whole number of lanes, all lanes advanced at once."""
    lanes = slab.size // _LANE_BYTES
    steps = np.ascontiguousarray(slab.reshape(lanes, _LANE_BYTES).T)  # row i: byte i of every lane
    regs = np.zeros(lanes, dtype="<u8")
    regs[0] = reg
    low = regs.view(np.uint8)[::8]  # each register's low byte, as the dtype is little-endian
    for row in steps:
        index = low ^ row
        regs >>= np.uint64(8)
        regs ^= _TABLE_ARRAY[index]
    # Leading all-zero lanes pad the count to a power of two: their registers
    # stay 0, and Z_L(0) = 0, so they add nothing to the fold.
    width = 1 << (lanes - 1).bit_length()
    regs = np.concatenate([np.zeros(width - lanes, dtype=np.uint64), regs])
    log2_len = _LANE_BYTES.bit_length() - 1
    while regs.size > 1:
        regs = _apply_tables(_zero_tables(log2_len), regs[0::2]) ^ regs[1::2]
        log2_len += 1
    return int(regs[0])


def crc64(data: bytes | bytearray | memoryview, crc: int = 0) -> int:
    """CRC-64/XZ of `data`, continuing from the CRC `crc` of the bytes before it.

    The algorithm is the reflected CRC with polynomial 0xC96C5795D7870F42,
    initial register and final xor all ones: crc64(b"123456789") is
    0x995DC9BBDF1939FA, and crc64(b, crc64(a)) == crc64(a + b).

    Large inputs are cut into slabs of up to 4096 lanes of 256 bytes (1 MiB),
    and every lane of a slab is advanced through the byte table in the same
    numpy step: lane 0 starts from the running register, the others from 0.
    The lane registers are then folded pairwise, using the linearity of the
    raw (no init, no xorout) register function over GF(2):

        raw(c, A + B) = Z_|B|(raw(c, A)) ^ raw(0, B)

    where Z_L advances a register by L zero bytes. Scratch memory is bounded by
    the slab (a 1 MiB transposed copy plus 32 KiB of registers), whatever the
    input size. Inputs and remainders shorter than 32 lanes take the byte loop.
    """
    try:
        buf = np.frombuffer(data, dtype=np.uint8)
    except BufferError:  # a strided memoryview: copy it out
        buf = np.frombuffer(bytes(data), dtype=np.uint8)
    reg = crc ^ _CRC64_MASK
    at = 0
    while buf.size - at >= _MIN_LANES * _LANE_BYTES:
        end = at + min(_SLAB_LANES, (buf.size - at) // _LANE_BYTES) * _LANE_BYTES
        reg = _crc64_lanes(reg, buf[at:end])
        at = end
    return _crc64_bytes(reg, buf[at:].tobytes()) ^ _CRC64_MASK
