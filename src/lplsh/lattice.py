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
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .geometry import ContractViolation, LpSpace, lp_norm
from .util import derive_rng

DEFAULT_U_MAX = 10**6
SHIFT_CHUNK = 1024
_ROW_BLOCK = 4096


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
        if self.w <= 0:
            raise ContractViolation(f"w must be > 0, got {self.w}")
        if self.t < 1:
            raise ContractViolation(f"t must be >= 1, got {self.t}")
        if self.delta < 3.0:
            raise ContractViolation(f"delta must be >= 3, got {self.delta}")
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
    if delta < 3.0:
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

    def _chunk(self, j: int) -> np.ndarray:
        block = self._chunks.get(j)
        if block is None:
            rng = derive_rng(self.seed, j)
            lo = j * SHIFT_CHUNK
            n = min(SHIFT_CHUNK, self.params.num_shifts - lo)
            block = rng.uniform(0.0, self.params.spacing, size=(n, self.params.t))
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


def make_lattices(params: LatticeParams, seed: int) -> ShiftedLatticeSet:
    return ShiftedLatticeSet(params, seed)


@dataclass(frozen=True)
class HashValue:
    """Hash output (u, a): 1-based lattice index and cell coordinates.

    u = 0 is the reserved fallback for points no lattice covers; its
    coordinates are all zero.
    """

    u: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.u < 0:
            raise ContractViolation(f"u must be >= 0, got {self.u}")
        if self.u == 0 and any(c != 0 for c in self.coords):
            raise ContractViolation("fallback hash must have all-zero coordinates")

    @staticmethod
    def fallback(t: int) -> "HashValue":
        return HashValue(0, (0,) * t)


def _abs_pow(v: np.ndarray, p: float) -> np.ndarray:
    """v**p elementwise for v >= 0, written over v; sqrt chains for the common quarter-power p."""
    if p == 2.0:
        return np.multiply(v, v, out=v)
    if p == 1.5:
        return np.multiply(v, np.sqrt(v), out=v)
    if p == 1.25:
        s = np.sqrt(v)
        return np.multiply(v, np.sqrt(s, out=s), out=v)
    if p == 1.75:
        s = np.sqrt(v)
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


def _inside(dist: list[np.ndarray], p: float, w: float) -> np.ndarray:
    """Membership test ||diff||_p <= w via sum_j |diff_j|^p <= w^p, given dist[j] = |diff_j|.

    The arrays in dist are overwritten. Coordinates here are bounded by the
    lattice spacing, so the powers stay well conditioned without rescaling.
    """
    return _column_sum([_abs_pow(v, p) for v in dist]) <= w**p


def locate(x: np.ndarray, u: int, lattices: ShiftedLatticeSet, space: LpSpace) -> np.ndarray | None:
    """Cell coordinates of x in lattice u (1-based), or None if its ball misses x.

    The nearest lattice point is found by rounding (half-to-even); disjoint
    in-lattice balls mean no other lattice point can contain x.
    """
    params = lattices.params
    if not (1 <= u <= params.num_shifts):
        raise ContractViolation(f"lattice index must lie in [1, {params.num_shifts}], got {u}")
    if space.dim != params.t:
        raise ContractViolation(f"space dimension {space.dim} does not match lattice t={params.t}")
    xa = np.asarray(x, dtype=np.float64)
    if xa.shape != (params.t,):
        raise ContractViolation(f"x must have shape ({params.t},), got {xa.shape}")
    shift = lattices.shift_block(u - 1, u)[0]
    rel = xa - shift
    a = np.rint(rel / params.spacing)
    diff = rel - params.spacing * a
    # one length-1 array per coordinate: the scan's column arithmetic
    if _inside(list(np.abs(diff)[:, None]), space.p, params.w)[0]:
        return a.astype(np.int64)
    return None


def hash_point(
    x: np.ndarray,
    lattices: ShiftedLatticeSet,
    space: LpSpace,
    return_probes: bool = False,
):
    """Hash x to (u, a) for the smallest covering lattice, else the fallback."""
    u_arr, coords, probes = hash_batch(np.asarray(x, dtype=np.float64)[None, :], lattices, space)
    value = HashValue(int(u_arr[0]), tuple(int(c) for c in coords[0]))
    if return_probes:
        return value, int(probes[0])
    return value


def first_cover(
    point_sets: tuple[np.ndarray, ...],
    draw: Callable[[int, int, np.ndarray], np.ndarray],
    params: LatticeParams,
    p: float,
    block: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Smallest covering lattice for every row of every (n, t) point set.

    Row i of every set sees the same shifts, which draw(lo, b, rows) gives
    for lattices lo, lo+1, ... (at most b) and the rows some set still
    needs: one (b', t) block for all rows or one (len(rows), b', t) block.
    Blocks start at `block` shifts and grow x4 up to SHIFT_CHUNK.
    Returns (u, coords) per set; u = 0 and zero coords mean fallback.

    Each coordinate is handled as its own contiguous (rows, b) array, and
    the ball test sums the t per-coordinate terms in numpy's own order.
    """
    n, t = point_sets[0].shape
    spacing, total = params.spacing, params.num_shifts
    out = [(np.zeros(n, dtype=np.int64), np.zeros((n, t), dtype=np.int64)) for _ in point_sets]
    lo = 0
    while lo < total:
        pending = out[0][0] == 0
        for u, _ in out[1:]:
            pending |= u == 0
        active = pending.nonzero()[0]
        if not active.size:
            break
        shifts = draw(lo, min(block, total - lo), active)
        # row blocks bound the (rows, b, t) temporaries for large n
        for base in range(0, active.size, _ROW_BLOCK):
            part = active[base : base + _ROW_BLOCK]
            for pts, (u, coords) in zip(point_sets, out):
                todo = u[part] == 0
                rows = part[todo]
                if not rows.size:
                    continue
                part_shifts = shifts if shifts.ndim == 2 else shifts[base : base + _ROW_BLOCK]
                if part_shifts.ndim == 3 and rows.size < part.size:  # another set resolved some rows
                    part_shifts = part_shifts[todo]
                sub = pts[rows]
                cells, dist = [], []
                for j in range(t):
                    rel = sub[:, j, None] - part_shifts[..., j]
                    a = rel / spacing
                    np.rint(a, out=a)
                    # rel becomes |rel - spacing * a|
                    np.subtract(rel, spacing * a, out=rel)
                    cells.append(a)
                    dist.append(np.abs(rel, out=rel))
                hit = _inside(dist, p, params.w)
                found = hit.any(axis=1)
                hit_rows = rows[found]
                if hit_rows.size:
                    first = hit.argmax(axis=1)[found]
                    u[hit_rows] = lo + first + 1
                    for j, a in enumerate(cells):
                        coords[hit_rows, j] = a[found, first]
        lo += shifts.shape[-2]
        block = min(block * 4, SHIFT_CHUNK)
    return out


def hash_batch(
    points: np.ndarray,
    lattices: ShiftedLatticeSet,
    space: LpSpace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized smallest-covering-lattice search over the seeded shifts.

    Returns (u, coords, probes): u is 0 for fallback rows, coords are the
    cell coordinates (zeros for fallback), probes counts lattices examined
    per point, which is u on a hit and U on a fallback.
    """
    params = lattices.params
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != params.t:
        raise ContractViolation(f"points must have shape (n, {params.t}), got {pts.shape}")
    # blocks start small so the common early hits stay cheap
    [(u, coords)] = first_cover((pts,), lambda lo, b, rows: lattices.shift_block(lo, lo + b), params, space.p, 4)
    return u, coords, np.where(u > 0, u, params.num_shifts)


def stack_first_chunks(sets: list[ShiftedLatticeSet]) -> np.ndarray:
    """Shift chunk 0 of every set as one (len(sets), b, t) array, b = min(SHIFT_CHUNK, U).

    Each set's cached chunk 0 becomes a view of its row. The sets share
    params; they are filled one at a time, so no chunk is held twice.
    """
    params = sets[0].params
    stack = np.empty((len(sets), min(SHIFT_CHUNK, params.num_shifts), params.t))
    for row, lattices in zip(stack, sets):
        row[...] = lattices._chunk(0)
        lattices._chunks[0] = row
    return stack


def hash_stacked(
    points: np.ndarray,
    sets: list[ShiftedLatticeSet],
    first_chunks: np.ndarray,
    space: LpSpace,
) -> tuple[np.ndarray, np.ndarray]:
    """hash_batch's (u, coords) for row i of (n, t) points under sets[i % len(sets)], in one scan.

    first_chunks is stack_first_chunks(sets); rows that scan past it
    draw from their own set's shift_block.
    """
    count, chunk = len(sets), first_chunks.shape[1]

    def draw(lo: int, b: int, rows: np.ndarray) -> np.ndarray:
        owner = rows % count
        if lo < chunk:
            return first_chunks[owner, lo : lo + b]
        used, inverse = np.unique(owner, return_inverse=True)
        return np.stack([sets[i].shift_block(lo, lo + b) for i in used])[inverse]

    [(u, coords)] = first_cover((points,), draw, sets[0].params, space.p, 8)
    return u, coords


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
    exact.
    """
    params = lattices.params
    if points is None:
        if trials < 1:
            raise ContractViolation(f"trials must be >= 1, got {trials}")
        points = rng.uniform(0.0, params.spacing, size=(trials, params.t))
    if params.num_shifts == 0:
        return 0.0
    u, _, _ = hash_batch(points, lattices, space)
    return float((u > 0).mean())
