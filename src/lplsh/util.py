"""Shared plumbing: seed derivation, binomial intervals, checksums, the worker policy."""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

# workers of a split call at most, the count measured (on a 2-CPU host):
# more workers mean smaller shares and more interpreter work per share, and
# the affinity mask does not see a container's CPU quota
_MAX_WORKERS = 2


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


# numpy's SeedSequence hash constants (a pool of four uint32 words) and the
# PCG64 LCG multiplier.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _unsigned(values, bits: int, what: str) -> np.ndarray:
    """values as a uint64 array, refusing anything outside [0, 2**bits) or not integral."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" or (arr.size and (int(arr.min()) < 0 or int(arr.max()) >= 1 << bits)):
        raise ValueError(f"{what}s must be integers in [0, 2**{bits})")
    return arr.astype(np.uint64)


def _mul128(hi: np.ndarray, lo: np.ndarray, c_hi: int, c_lo: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * (c_hi, c_lo) mod 2**128, on uint64 halves; lo * c_lo's high half from 32-bit limbs."""
    lo0, lo1 = lo & np.uint64(_M32), lo >> np.uint64(32)
    c0, c1 = np.uint64(c_lo & _M32), np.uint64(c_lo >> 32)
    p00, p01, p10 = lo0 * c0, lo0 * c1, lo1 * c0
    mid = (p00 >> np.uint64(32)) + (p01 & np.uint64(_M32)) + (p10 & np.uint64(_M32))
    carry = lo1 * c1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
    return carry + lo * np.uint64(c_hi) + hi * np.uint64(c_lo), lo * np.uint64(c_lo)


def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray) -> tuple[np.ndarray, ...]:
    """The PCG64 LCG's next state, (state * mult + inc) mod 2**128, as uint64 halves."""
    hi, lo = _mul128(hi, lo, _PCG_MULT_HI, _PCG_MULT_LO)
    lo = lo + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def _hasher(const: int, mult: int):
    """numpy's SeedSequence hashmix on uint32 arrays: each call steps the hash constant by mult."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _M32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _pcg64_words(roots, *tags) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """pcg64_states(roots, *tags) as uint64 arrays of their halves: (state_hi, state_lo, inc_hi, inc_lo)."""
    root = _unsigned(roots, 64, "root")
    words = [root & np.uint64(_M32), root >> np.uint64(32), np.uint64(0), np.uint64(0)]
    words += [_unsigned(tag, 32, "tag") for tag in tags]
    words = [w.astype(np.uint32).reshape(-1) for w in np.broadcast_arrays(*words)]

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> np.uint32(16))

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight words cycling over the pool, paired little-endian
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (out[i] | (out[i + 1] << np.uint64(32)) for i in range(0, 8, 2))
    # pcg64_set_seed: inc = 2 * seq + 1; state = ((inc + seed) * mult + inc) mod 2**128
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    return (*_pcg64_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def pcg64_states(roots, *tags) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that derive_rng(root, *tags) starts from, for every root at once.

    roots (< 2**64) and each tag (< 2**32) are integers or integer arrays,
    broadcast together. numpy's SeedSequence pool mixing and generate_state,
    and PCG64's seeding, are replayed as uint32 and uint64 array arithmetic:
    the entropy words are the root's two 32-bit halves, two zero words (the
    pad numpy adds before a spawn key) and one word per tag.
    """
    states = zip(*(w.tolist() for w in _pcg64_words(roots, *tags)))
    return [(s_hi << 64 | s_lo, i_hi << 64 | i_lo) for s_hi, s_lo, i_hi, i_lo in states]


def _generators(states):
    """One Generator re-set to each PCG64 (state, inc) in turn: draw from it before the next step."""
    gen = np.random.Generator(np.random.PCG64(0))
    bit_generator = gen.bit_generator
    for state, inc in states:
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen


def derived_generators(roots, *tags):
    """For each of pcg64_states(roots, *tags), one Generator in that state, as derive_rng would give it.

    It is one Generator re-set at every step, so draw from it before the
    next step. Streams that need a single seed draw take derived_seeds,
    which draws it as array arithmetic.
    """
    return _generators(pcg64_states(roots, *tags))


def derived_seeds(roots, *tags) -> np.ndarray:
    """derive_rng(root, *tags).integers(0, 2**63 - 1) for every root at once, as an int64 array."""
    return _seed_draws(*_pcg64_words(roots, *tags))


def _seed_draws(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray) -> np.ndarray:
    """Generator.integers(0, 2**63 - 1) from each PCG64 state (uint64 halves), replayed as array arithmetic.

    One PCG64 step, its XSL-RR output (hi ^ lo rotated right by hi's top
    six bits), then numpy's Lemire bound: the high word of raw * (2**63 - 1).
    numpy draws again while the low word is below 2**64 mod (2**63 - 1) = 2,
    which happens for raw 0 and 2**63 - 1 alone; those states take the
    Generator itself.
    """
    s_hi, s_lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
    x, rot = s_hi ^ s_lo, s_hi >> np.uint64(58)
    raw = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    m_hi, m_lo = _mul128(np.zeros_like(raw), raw, 0, 2**63 - 1)
    draws = m_hi.astype(np.int64)
    redraw = np.flatnonzero(m_lo < np.uint64(2))
    states = [(int(hi[i]) << 64 | int(lo[i]), int(inc_hi[i]) << 64 | int(inc_lo[i])) for i in redraw]
    for i, gen in zip(redraw, _generators(states)):
        draws[i] = gen.integers(0, 2**63 - 1)
    return draws


def _cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _split(units: int, most: int, run: Callable[[int, int, int], object]) -> list:
    """run(lo, hi, workers) over contiguous runs [lo, hi) that cover range(units), one per worker, in order.

    The one worker policy: the CPUs this process may run on, at most
    _MAX_WORKERS, at most `most` (the workers the caller's work pays for)
    and at most `units`, one at least. The calling thread takes the first
    run and a pool that lives only for the call takes the others, so no
    pool outlives a fork and a single worker starts no thread. A run
    should call only private code: the workers share the process.
    """
    workers = max(1, min(_cpus(), _MAX_WORKERS, most, units))
    if workers == 1:
        return [run(0, units, 1)]
    cuts = [units * i // workers for i in range(workers + 1)]
    with ThreadPoolExecutor(workers - 1) as pool:
        others = pool.map(run, cuts[1:-1], cuts[2:], [workers] * (workers - 1))
        return [run(cuts[0], cuts[1], workers), *others]


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


# liblzma's CRC-64/XZ, bound through the interpreter's own _lzma extension:
# dlsym searches that extension's dependencies, so this finds its liblzma.
try:
    import _lzma

    _lzma_crc64 = ctypes.CDLL(_lzma.__file__).lzma_crc64
except (ImportError, OSError, AttributeError) as exc:
    raise ImportError(f"lplsh needs liblzma's lzma_crc64, through Python's lzma module: {exc}") from exc
_lzma_crc64.restype = ctypes.c_uint64
_lzma_crc64.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_uint64)


def crc64(data: bytes | bytearray | memoryview, crc: int = 0) -> int:
    """CRC-64/XZ of `data`, continuing from the CRC `crc` of the bytes before it.

    The algorithm is the reflected CRC with polynomial 0xC96C5795D7870F42,
    initial register and final xor all ones: crc64(b"123456789") is
    0x995DC9BBDF1939FA, and crc64(b, crc64(a)) == crc64(a + b). liblzma's
    lzma_crc64 computes it in place on the buffer's memory.
    """
    try:
        buf = np.frombuffer(data, dtype=np.uint8)
    except BufferError:  # a strided memoryview: copy it out
        buf = np.frombuffer(bytes(data), dtype=np.uint8)
    return _lzma_crc64(buf.ctypes.data, buf.size, crc)
