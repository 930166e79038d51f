"""Shifted lattices of l_p balls: the space partition behind the hash.

A single lattice is {sum_i Delta * a_i * w * e_i : a in Z^t} with spacing
Delta * w > 2w, so balls of radius w centered on one lattice are pairwise
disjoint and the nearest lattice point is the only candidate that can cover
a given x. U independent uniform shifts in [0, Delta*w]^t are laid down in
order; a point hashes to (u, a) for the smallest u whose shifted lattice
covers it, or to the reserved fallback (0, 0) when no lattice does.

Shifts are derived from the seed in fixed-size chunks, so any prefix of the
shift sequence is stable under growing U and nothing needs to be stored
beyond (params, seed).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .geometry import ContractViolation, LpSpace
from .util import derive_rng, derived_generators

DEFAULT_U_MAX = 10**6
SHIFT_CHUNK = 1024
# first_cover's row slices hold about this many (shift, row) pairs at most
_SCAN_ELEMS = 1 << 16
# rows each worker of a threaded hash_batch call takes at least: smaller
# shares (a query group holds at most about 16k rows) lose more to the
# workers' shared interpreter lock than they gain
_WORKER_ROWS = 1 << 14
# workers of a threaded hash_batch call at most, the count measured (on a
# 2-CPU host): each worker's slice budget is _SCAN_ELEMS // workers, so more
# workers mean smaller slices and more interpreter work per shift, and the
# affinity mask does not see a container's CPU quota
_MAX_WORKERS = 2
# the index callers' block schedule: 8 shifts first, then x1.5 up to SHIFT_CHUNK
INDEX_BLOCKS = (8, 1.5)
# stack_prefix's length: the first six blocks of that schedule, 8 + 12 + 18 + 27 + 41 + 62
STACK_PREFIX = 168


@dataclass(frozen=True)
class LatticeParams:
    """Geometry of the shifted-lattice family.

    delta >= 3 keeps the in-lattice balls strictly separated (any spacing
    strictly above 2 works; 4 is the default). delta_fail is the covering
    failure budget the shift count was sized for; num_shifts is the realized
    U, with saturated set when the sizing formula exceeded the cap.
    """

    w: float
    t: int
    num_shifts: int
    delta: float = 4.0
    delta_fail: float = 0.05
    saturated: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.w < math.inf):
            raise ContractViolation(f"w must be > 0 and finite, got {self.w}")
        if self.t < 1:
            raise ContractViolation(f"t must be >= 1, got {self.t}")
        if not (3.0 <= self.delta < math.inf):
            raise ContractViolation(f"delta must be >= 3 and finite, got {self.delta}")
        if not (0.0 < self.delta_fail < 1.0):
            raise ContractViolation(f"delta_fail must lie in (0, 1), got {self.delta_fail}")
        if self.num_shifts < 0:
            raise ContractViolation(f"num_shifts must be >= 0, got {self.num_shifts}")

    @property
    def spacing(self) -> float:
        return self.delta * self.w


class ShiftCount(NamedTuple):
    u: int
    saturated: bool


def compute_num_shifts(
    t: int,
    p: float,
    delta: float,
    delta_fail: float,
    u_max: int = DEFAULT_U_MAX,
) -> ShiftCount:
    """U = ceil(Delta^t * t^(t/p + 1) * ln(Delta * t / delta_fail)), capped at u_max.

    Enough independent shifts to cover all of R^t with probability at least
    1 - delta_fail (testing the fundamental cube [0, Delta*w]^t suffices by
    periodicity). Evaluated in log space; anything beyond u_max saturates
    and is flagged, weakening the covering guarantee.
    """
    if t < 1:
        raise ContractViolation(f"t must be >= 1, got {t}")
    if not (1.0 < p <= 2.0):
        raise ContractViolation(f"p must lie in (1, 2], got {p}")
    if not (delta >= 3.0):
        raise ContractViolation(f"delta must be >= 3, got {delta}")
    if not (0.0 < delta_fail < 1.0):
        raise ContractViolation(f"delta_fail must lie in (0, 1), got {delta_fail}")
    if u_max < 1:
        raise ContractViolation(f"u_max must be >= 1, got {u_max}")
    log_u = t * math.log(delta) + (t / p + 1.0) * math.log(t) + math.log(math.log(delta * t / delta_fail))
    if log_u > math.log(u_max) + 1e-12:
        return ShiftCount(int(u_max), True)
    u = int(math.ceil(math.exp(log_u) - 1e-9))
    if u > u_max:
        return ShiftCount(int(u_max), True)
    return ShiftCount(max(u, 1), False)


class ShiftedLatticeSet:
    """U shifted lattices, shifts uniform in [0, Delta*w]^t, derived from a seed.

    Shift rows are materialized lazily in chunks of SHIFT_CHUNK; chunk j
    depends only on (seed, j), so prefixes are stable and serialization
    stores nothing but (params, seed).
    """

    def __init__(self, params: LatticeParams, seed: int):
        self.params = params
        self.seed = int(seed)
        self._chunks: dict[int, np.ndarray] = {}

    def _draw(self, j: int, rows: int) -> np.ndarray:
        """The first `rows` shift rows of chunk j, from the chunk's own stream."""
        return _shift_rows(derive_rng(self.seed, j), self.params, rows)

    def _chunk(self, j: int) -> np.ndarray:
        block = self._chunks.get(j)
        if block is None:
            block = self._draw(j, min(SHIFT_CHUNK, self.params.num_shifts - j * SHIFT_CHUNK))
            self._chunks[j] = block
        return block

    def shift_block(self, lo: int, hi: int) -> np.ndarray:
        """Shift rows for lattice indices [lo, hi) (0-based)."""
        hi = min(hi, self.params.num_shifts)
        if lo >= hi:
            return np.empty((0, self.params.t))
        first, last = lo // SHIFT_CHUNK, (hi - 1) // SHIFT_CHUNK
        parts = [self._chunk(j) for j in range(first, last + 1)]
        block = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
        start = lo - first * SHIFT_CHUNK
        return block[start : start + (hi - lo)]

    @property
    def shifts(self) -> np.ndarray:
        return self.shift_block(0, self.params.num_shifts)


def _shift_rows(rng: np.random.Generator, params: LatticeParams, rows: int) -> np.ndarray:
    """The next `rows` shift rows of a chunk's stream, uniform in [0, Delta*w)^t."""
    return rng.uniform(0.0, params.spacing, size=(rows, params.t))


def _abs_pow(v: np.ndarray, p: float, scratch: np.ndarray | None = None) -> np.ndarray:
    """v**p elementwise for v >= 0, written over v; sqrt chains for the common quarter-power p.

    A given scratch array of v's shape takes the chains' square roots.
    """
    if p == 2.0:
        return np.multiply(v, v, out=v)
    if p == 1.5:
        return np.multiply(v, np.sqrt(v, out=scratch), out=v)
    if p == 1.25:
        s = np.sqrt(v, out=scratch)
        return np.multiply(v, np.sqrt(s, out=s), out=v)
    if p == 1.75:
        s = np.sqrt(v, out=scratch)
        np.multiply(v, s, out=v)
        return np.multiply(v, np.sqrt(s, out=s), out=v)
    return np.power(v, p, out=v)


def _column_sum(cols: list[np.ndarray]) -> np.ndarray:
    """Sum of equal-shape arrays, bit-identical to np.stack(cols, -1).sum(axis=-1).

    numpy adds a contiguous last axis left to right only up to 7 terms;
    from 8 on it sums pairwise, so longer lists are stacked and left to
    numpy. The first array is overwritten.
    """
    if len(cols) >= 8:
        return np.stack(cols, axis=-1).sum(axis=-1)
    total = cols[0]
    for col in cols[1:]:
        total += col
    return total


def locate(x: np.ndarray, u: int, lattices: ShiftedLatticeSet, space: LpSpace) -> np.ndarray | None:
    """Cell coordinates of x in lattice u (1-based), or None if its ball misses x.

    The nearest lattice point is found by rounding (half-to-even); disjoint
    in-lattice balls mean no other lattice point can contain x. It stays
    beside hash_batch as the one-lattice oracle of the verify suites and tests.
    """
    params = lattices.params
    if not (1 <= u <= params.num_shifts):
        raise ContractViolation(f"lattice index must lie in [1, {params.num_shifts}], got {u}")
    if space.dim != params.t:
        raise ContractViolation(f"space dimension {space.dim} does not match lattice t={params.t}")
    xa = np.asarray(x, dtype=np.float64)
    if xa.shape != (params.t,):
        raise ContractViolation(f"x must have shape ({params.t},), got {xa.shape}")
    shift = lattices.shift_block(u - 1, u)
    # the scan's own test and cell arithmetic, on one row and one shift
    if not _covered(xa[:, None], shift.T[:, :, None], params, space.p)[0, 0]:
        return None
    return np.rint((xa - shift[0]) / params.spacing).astype(np.int64)


def _covered(cols: np.ndarray, shifts: np.ndarray, params: LatticeParams, p: float) -> np.ndarray:
    """(b, rows) test ||x - shift - spacing * cell||_p <= w of each row x of cols (t, rows) against its b shifts.

    shifts is (t, b, c): laid out as a (rows / c, c) grid, row r sees
    shifts[:, :, r % c]. rel, cell and the power terms are (t, b, rows)
    arrays computed in place in two buffers, in the memory order of the
    operands: the rows are contiguous for shared, grid and gathered
    blocks, while a transposed view (the lab's trial-major draws) keeps
    its shifts contiguous, so it is never copied. Coordinates here are
    bounded by the lattice spacing, so the powers stay well conditioned
    without rescaling.
    """
    t, b, c = shifts.shape
    rel = np.subtract(cols.reshape(t, 1, -1, c), shifts[:, :, None, :])
    cell = np.divide(rel, params.spacing)
    np.rint(cell, out=cell)
    # rel becomes |rel - spacing * cell|, then its p-th power
    np.subtract(rel, np.multiply(cell, params.spacing, out=cell), out=rel)
    _abs_pow(np.abs(rel, out=rel), p, cell)
    return _column_sum(list(rel.reshape(t, b, -1))) <= params.w**p


def _first_hit(hit: np.ndarray) -> np.ndarray:
    """Row of the first True in each column of the (b, rows) hit, or b where there is none."""
    if hit.shape[0] * 200 > hit.shape[1]:
        return np.where(hit.any(axis=0), hit.argmax(axis=0), hit.shape[0])
    # argmax down many short columns is slow, so count each column's leading misses
    alive = ~hit[0]
    first = alive.astype(np.intp)
    for row in hit[1:]:
        alive &= ~row
        first += alive
    return first


def first_cover(
    point_sets: tuple[np.ndarray, ...],
    draw: Callable[[int, int, np.ndarray], np.ndarray],
    params: LatticeParams,
    p: float,
    block: int,
    growth: float,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Smallest covering lattice for every row of every (n, t) point set.

    Row i of every set sees the same shifts, which draw(lo, b, rows) gives
    for lattices lo, lo+1, ... (at most b) and the rows some set still
    needs, as a (t, b', c) array: laid out as a (len(rows) / c, c) grid,
    row r takes column r % c. So c = 1 shares one block, c = len(rows)
    gives every row its own, and for a single point set any other divisor
    of len(rows) shares a block down each column of the grid.
    Blocks start at `block` shifts and grow by `growth` (rounded up) to
    SHIFT_CHUNK. Returns (u, coords) per set; u = 0 and zero coords mean
    fallback.

    The work arrays are (shifts, rows); the ball test sums the t
    per-coordinate terms in numpy's own order, and a row's hit is its
    first True along the shift axis.
    """
    n, t = point_sets[0].shape
    out = [(np.zeros(n, dtype=np.int64), np.zeros((n, t), dtype=np.int64)) for _ in point_sets]
    _scan(point_sets, out, draw, params, p, range(params.num_shifts), block, growth, _SCAN_ELEMS)
    return out


def _scan(
    point_sets: tuple[np.ndarray, ...],
    out: list[tuple[np.ndarray, np.ndarray]],
    draw: Callable[[int, int, np.ndarray], np.ndarray],
    params: LatticeParams,
    p: float,
    span: range,
    block: int,
    growth: float,
    elems: int,
) -> int:
    """first_cover's scan over the lattices in span, for the rows still at u = 0 in out, written in place.

    Row slices hold about elems (shift, row) pairs at most. Returns the
    block size the schedule reached.
    """
    n = point_sets[0].shape[0]
    # coordinate-major copies, so each block gathers its rows from contiguous memory
    point_cols = [np.ascontiguousarray(pts.T) for pts in point_sets]
    lo = span.start
    while lo < span.stop:
        pending = out[0][0] == 0
        for u, _ in out[1:]:
            pending |= u == 0
        active = pending.nonzero()[0]
        if not active.size:
            break
        shifts = draw(lo, min(block, span.stop - lo), active)
        b, c = shifts.shape[1:]
        # row slices bound the (t, b, rows) temporaries: a run of a per-row
        # block's columns, or whole rows of a grid
        per_row = c == active.size
        step = max(1, elems // b) if per_row else c * max(1, elems // (b * c))
        for base in range(0, active.size, step):
            part = active[base : base + step]
            block_shifts = shifts[:, :, base : base + step] if per_row else shifts
            for pts_cols, (u, coords) in zip(point_cols, out):
                rows, part_shifts = part, block_shifts
                if len(out) > 1:  # another set may have resolved some of these rows
                    todo = u[part] == 0
                    rows = part[todo]
                    if not rows.size:
                        continue
                    if per_row and rows.size < part.size:
                        part_shifts = block_shifts[:, :, todo]
                cols = pts_cols if rows.size == n else np.take(pts_cols, rows, axis=1)
                first = _first_hit(_covered(cols, part_shifts, params, p))
                found = (first < b).nonzero()[0]
                if found.size:
                    first, hit_rows = first[found], rows[found]
                    u[hit_rows] = lo + first + 1
                    # the hit's cell, recomputed with the scan's arithmetic
                    hit_shifts = part_shifts[:, first, found % part_shifts.shape[2]]
                    coords[hit_rows] = np.rint((np.take(cols, found, axis=1) - hit_shifts) / params.spacing).T
        lo += b
        block = min(math.ceil(block * growth), SHIFT_CHUNK)
    return block


def _cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def stack_prefix(sets: list[ShiftedLatticeSet]) -> np.ndarray:
    """The first min(STACK_PREFIX, U) shifts of every set, coordinate-major: (t, P, len(sets)).

    Column i equals the first P rows of sets[i]'s shift chunk 0, drawn
    from the same stream without materialising the chunk; one pass over
    the sets re-sets one generator to each chunk-0 stream.
    """
    params = sets[0].params
    size = min(STACK_PREFIX, params.num_shifts)
    prefix = np.empty((params.t, size, len(sets)))
    for i, rng in enumerate(derived_generators([lattices.seed for lattices in sets], 0)):
        prefix[:, :, i] = _shift_rows(rng, params, size).T
    return prefix


def _grid_block(
    sets: list[ShiftedLatticeSet],
    prefix: np.ndarray | None,
    m: int,
    elems: int,
    lo: int,
    b: int,
    rows: np.ndarray,
) -> np.ndarray:
    """hash_batch's draw for a run of m rows that starts a grid row; rows are local to the run.

    One set shares every block. Several sets share each prefix block
    down the grid's columns while all m rows still scan; later, each
    pending row gathers its own set's prefix column, and past the prefix
    its own set's shift_block, in blocks of about elems (shift, row)
    pairs at most.
    """
    count = len(sets)
    size = 0 if prefix is None else prefix.shape[1]
    if lo < size and (count == 1 or (rows.size == m and m % count == 0)):
        return prefix[:, lo : lo + b]
    if count == 1:
        return sets[0].shift_block(lo, lo + b).T[:, :, None]
    # bound the per-row block
    b = max(1, min(b, elems // rows.size))
    owner = rows % count
    if lo < size:
        # a flat index into the contiguous prefix, so np.take copies no (t, b, len(sets)) slice of it
        b = min(b, size - lo)
        at = np.arange(lo * count, (lo + b) * count, count)[:, None] + owner
        return np.take(prefix.reshape(prefix.shape[0], -1), at, axis=1)
    used, inverse = np.unique(owner, return_inverse=True)
    blocks = np.stack([sets[i].shift_block(lo, lo + b).T for i in used], axis=-1)
    return np.take(blocks, inverse, axis=2)


def hash_batch(
    points: np.ndarray,
    sets: list[ShiftedLatticeSet],
    space: LpSpace,
    prefix: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smallest covering lattice of row i of (n, t) points under sets[i % len(sets)], in one scan.

    Returns (u, coords, probes): u is 0 for fallback rows, coords are the
    cell coordinates (zeros for fallback), probes counts lattices examined
    per point, which is u on a hit and U on a fallback. All sets share
    one LatticeParams. This is the one public way to hash: one point is
    a one-row call. probes stays in the result because the benchmark's
    tracer counts it from there.

    prefix, when given, is stack_prefix(sets); it is read in place of the
    head of every set's first shift chunk. One set shares every block
    across all rows. Several sets form an (n / len(sets), len(sets)) grid,
    and each prefix block is shared down its columns with no gather while
    every row still scans; later, unresolved rows gather their set's
    prefix column, and rows past the prefix draw from their own set's
    shift_block.

    A call with a prefix and whole grid rows scans the prefix on the CPUs
    the process may run on, at most _MAX_WORKERS of them, with at least
    _WORKER_ROWS rows per worker: the calling thread and a pool that
    lives for the call. Each worker
    takes a contiguous run of grid rows and a share of the slice budget,
    reads only the prefix, runs only private code and writes its rows of
    u and coords in place. Rows still pending at the prefix end resume
    on the calling thread.
    """
    params = sets[0].params
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != params.t:
        raise ContractViolation(f"points must have shape (n, {params.t}), got {pts.shape}")
    n, count = pts.shape[0], len(sets)
    size = 0 if prefix is None else prefix.shape[1]
    u = np.zeros(n, dtype=np.int64)
    coords = np.zeros((n, params.t), dtype=np.int64)
    block, growth = INDEX_BLOCKS
    lo = 0
    workers = min(_cpus(), _MAX_WORKERS, n // count, n // _WORKER_ROWS) if size and n % count == 0 else 1
    if workers > 1:
        elems = _SCAN_ELEMS // workers
        cuts = [n // count * i // workers * count for i in range(workers + 1)]

        def scan_prefix(start: int, stop: int) -> int:
            draw = partial(_grid_block, sets, prefix, stop - start, elems)
            run = [(u[start:stop], coords[start:stop])]
            return _scan((pts[start:stop],), run, draw, params, space.p, range(size), *INDEX_BLOCKS, elems)

        # the calling thread scans the first run while the pool scans the others
        with ThreadPoolExecutor(workers - 1) as pool:
            others = pool.map(scan_prefix, cuts[1:-1], cuts[2:])
            block = max(scan_prefix(cuts[0], cuts[1]), *others)
        lo = size
    if not u.all():
        draw = partial(_grid_block, sets, prefix, n, _SCAN_ELEMS)
        _scan((pts,), [(u, coords)], draw, params, space.p, range(lo, params.num_shifts), block, growth, _SCAN_ELEMS)
    return u, coords, np.where(u > 0, u, params.num_shifts)


def covering_fraction(
    lattices: ShiftedLatticeSet,
    space: LpSpace,
    trials: int,
    rng: np.random.Generator,
    points: np.ndarray | None = None,
) -> float:
    """Fraction of uniform points in the fundamental cube covered by some lattice.

    By periodicity the cube [0, Delta*w]^t is representative of all of R^t.
    An explicit point set may be passed to make prefix-monotonicity checks
    exact. The covering verify suites and tests measure the family with it.
    """
    params = lattices.params
    if points is None:
        if trials < 1:
            raise ContractViolation(f"trials must be >= 1, got {trials}")
        points = rng.uniform(0.0, params.spacing, size=(trials, params.t))
    elif len(points) == 0:
        raise ContractViolation("covering_fraction needs at least one point")
    if params.num_shifts == 0:
        return 0.0
    u, _, _ = hash_batch(points, [lattices], space)
    return float((u > 0).mean())
