"""Multi-table nearest-neighbor index over the lattice hash.

Standard amplification: k hash values concatenated per table (AND), L
independent tables (OR). k is sized so a far point survives a table with
probability about 1/n, L so a near point is found with constant probability
per unit of safety factor.

Bucket keys are the k-tuples of hash values, folded to a 64-bit fingerprint;
builds compare the full keys inside every bucket and report fingerprint
collisions rather than leaving them silent. Queries compute exact distances
on the stored points, so a returned answer's distance is always real; the
approximation contract only governs which candidates are met.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .geometry import ContractViolation, LpSpace, lp_norm
from .lattice import LatticeParams, ShiftedLatticeSet, hash_batch, stack_prefix
from .scheme import (
    _OVERRIDE_FIELDS,
    PROFILE_MAIN,
    PROFILE_REMARK,
    Knobs,
    SchemeParams,
    derive_params,
    sample_stack,
    scale_to_unit,
)
from .stable import Threshold
from .util import FormatError, crc64, derive_rng, derived_generators

MAGIC = b"LPLSH"
FORMAT_VERSION = 2

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# (query, function) rows hashed in one scan
_QUERY_ROWS = 16384
# (point, function) rows build hashes in one scan: a run of whole tables
_BUILD_ROWS = 1 << 16
# (query, table) pairs looked up at once
_ROW_BLOCK = 4096
# Projected unit-frame coordinates are hashed up to 2**32 * w in magnitude:
# there the ulp of a coordinate is at most 2**-52 * 2**32 * w = 2**-20 * w, a
# millionth of the ball radius, and the cell index fits int64 many times over.
# Near 2**52 * w rounding alone decides the ball test; past 2**63 cells the cast saturates.
_HASH_RANGE = 2.0**32


def fingerprint_rows(key_mat: np.ndarray) -> np.ndarray:
    """Fold int64 key rows to 64-bit fingerprints (FNV fold + avalanche)."""
    mat = np.ascontiguousarray(key_mat, dtype=np.int64).view(np.uint64)
    if mat.ndim != 2:
        raise ContractViolation("key matrix must be 2-d")
    h = np.full(mat.shape[0], _FNV_OFFSET, dtype=np.uint64)
    for col in range(mat.shape[1]):
        h = (h ^ mat[:, col]) * _FNV_PRIME
    h ^= h >> np.uint64(30)
    h = h * _MIX1
    h ^= h >> np.uint64(27)
    h = h * _MIX2
    h ^= h >> np.uint64(31)
    return h


class Buckets(NamedTuple):
    """One table's buckets in sorted-fingerprint CSR layout."""

    fps: np.ndarray  # unique fingerprints, ascending, uint64
    offsets: np.ndarray  # int64, len(fps) + 1; bucket i is positions[offsets[i]:offsets[i+1]]
    positions: np.ndarray  # uint32 rows into points, ascending within each bucket

    def get(self, fp: int) -> np.ndarray | None:
        i = int(np.searchsorted(self.fps, np.uint64(fp)))
        if i == self.fps.size or int(self.fps[i]) != fp:
            return None
        return self.positions[self.offsets[i] : self.offsets[i + 1]]


class FlatTables(NamedTuple):
    """All l tables in one CSR; every table holds each of the n points exactly once.

    Table ell owns buckets bounds[ell]:bounds[ell + 1] of fps, its local
    offsets are offsets[bounds[ell] + ell : bounds[ell + 1] + ell + 1],
    and its positions are row ell of positions. A loaded index's fps and
    positions are read-only views of the file's bytes.
    """

    fps: np.ndarray  # uint64, each table's ascending fingerprints, table after table
    bounds: np.ndarray  # int64, l + 1
    offsets: np.ndarray  # int64, len(fps) + l; each table's run starts at 0 and ends at n
    positions: np.ndarray  # uint32, C-contiguous (l, n)

    def table(self, ell: int) -> Buckets:
        """Table ell as views of the flat arrays."""
        lo, hi = int(self.bounds[ell]), int(self.bounds[ell + 1])
        return Buckets(self.fps[lo:hi], self.offsets[lo + ell : hi + ell + 1], self.positions[ell])


class TableShape(NamedTuple):
    k: int
    l: int
    rho_hat: float
    degraded: bool  # p1 so small (1/p1 > sqrt(n)) that the framework's sizing is dubious


def choose_k_l(n: int, p1_hat: float, p2_hat: float, safety: float = 1.0) -> TableShape:
    """k = ceil(ln n / ln(1/p2)), L = ceil(safety * n^rho), rho = ln(1/p1)/ln(1/p2)."""
    if n < 1:
        raise ContractViolation(f"n must be >= 1, got {n}")
    if not (0.0 < p2_hat < p1_hat < 1.0):
        raise ContractViolation(
            f"need 0 < p2_hat < p1_hat < 1, got p1_hat={p1_hat}, p2_hat={p2_hat}"
        )
    if not (0.0 < safety < math.inf):
        raise ContractViolation(f"safety must be > 0 and finite, got {safety}")
    log_n = math.log(n)
    k = max(1, math.ceil(log_n / math.log(1.0 / p2_hat)))
    rho = math.log(1.0 / p1_hat) / math.log(1.0 / p2_hat)
    l = max(1, math.ceil(safety * n**rho))
    return TableShape(k=k, l=l, rho_hat=rho, degraded=1.0 / p1_hat > math.sqrt(n))


def _is_int(value) -> bool:
    """A Python or numpy integer; bool is not one here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_max_candidates(value: int | None) -> None:
    if value is not None and not (_is_int(value) and 1 <= value < 2**32):
        raise ContractViolation(f"max_candidates must be an integer in [1, 2**32) when set, got {value!r}")


@dataclass(frozen=True)
class IndexParams:
    """Table shape and the root seed all hash functions derive from."""

    k: int
    l: int
    seed: int
    max_candidates: int | None = None  # None: 3 * l

    def __post_init__(self) -> None:
        for name in ("k", "l", "seed"):
            if not _is_int(getattr(self, name)):
                raise ContractViolation(f"{name} must be an integer, got {getattr(self, name)!r}")
            # a numpy integer would carry its width into k * l and the budget
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.k < 1:
            raise ContractViolation(f"k must be >= 1, got {self.k}")
        if self.l < 1:
            raise ContractViolation(f"l must be >= 1, got {self.l}")
        if not (0 <= self.seed < 2**64):
            raise ContractViolation(f"seed must lie in [0, 2**64), got {self.seed}")
        _check_max_candidates(self.max_candidates)
        if self.max_candidates is not None:
            object.__setattr__(self, "max_candidates", int(self.max_candidates))

    @property
    def candidate_budget(self) -> int:
        return self.max_candidates if self.max_candidates is not None else 3 * self.l


@dataclass(frozen=True)
class QueryResult:
    answer: tuple[int, float] | None  # (id, exact distance)
    candidates_examined: int
    tables_probed: int
    in_contract: bool | None  # None when there is no answer


class IndexFunctions(NamedTuple):
    """An index's k * l hash functions in table-major order: function ell * k + j is slot j of table ell."""

    projection: np.ndarray  # (k * l * t, d); function i owns rows [i * t, (i + 1) * t)
    sets: list[ShiftedLatticeSet]
    prefix: np.ndarray  # stack_prefix(sets)


def _sample_functions(scheme: SchemeParams, d: int, params: IndexParams) -> IndexFunctions:
    """Every hash function of an index, regenerated from its root seed in four array passes.

    Slot j of table ell takes its seed from the stream (root, 11, ell, j);
    sample_stack then draws every function's projection and lattice seed,
    and stack_prefix their shift prefixes.
    """
    table, slot = np.divmod(np.arange(params.k * params.l), params.k)
    seeds = [rng.integers(0, 2**63 - 1) for rng in derived_generators(params.seed, 11, table, slot)]
    projection, sets = sample_stack(scheme, d, seeds)
    return IndexFunctions(projection, sets, stack_prefix(sets))


def _key_rows(funcs: IndexFunctions, unit: np.ndarray, tables: range, k: int, space_t: LpSpace) -> np.ndarray:
    """Bucket keys of unit-frame rows in a run of tables: row (point, table), tables innermost.

    A row lists, for each of its table's k functions, the lattice index u
    then the t cell coordinates. One matmul projects the rows under every
    function of the run and one lattice scan hashes them. A projected
    coordinate beyond _HASH_RANGE * w is a ContractViolation.
    """
    t = space_t.dim
    lo, hi = tables.start * k, tables.stop * k
    # inputs near 1e308 overflow here; the bound below refuses them without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        projected = unit @ funcs.projection[lo * t : hi * t].T
    bound = _HASH_RANGE * funcs.sets[0].params.w
    peak = float(np.abs(projected).max(initial=0.0))
    if not peak <= bound:
        raise ContractViolation(
            f"a projected coordinate reaches {peak:.3g} (in units of r), beyond the bound 2**32 * w = {bound:.3g}"
        )
    # a run's prefix columns, contiguous: a copy for a build group, the array itself for all tables
    prefix = np.ascontiguousarray(funcs.prefix[:, :, lo:hi])
    u, coords, _ = hash_batch(projected.reshape(-1, t), funcs.sets[lo:hi], space_t, prefix)
    return np.concatenate((u[:, None], coords), axis=1).reshape(-1, k * (1 + t))


class LshIndex:
    """Built index: points, the tables' flat CSR, and regenerable hash functions."""

    def __init__(
        self,
        scheme: SchemeParams,
        params: IndexParams,
        points: np.ndarray,
        ids: np.ndarray,
        flat: FlatTables,
        avg_probes: float | None = None,
        fingerprint_collisions: int = 0,
        fallback_rate: float | None = None,
        functions: IndexFunctions | None = None,
    ):
        self.scheme = scheme
        self.params = params
        self.points = points
        self.ids = ids
        self.flat = flat
        self.avg_probes = avg_probes
        self.fingerprint_collisions = fingerprint_collisions
        self.fallback_rate = fallback_rate
        self._functions = functions

    @property
    def tables(self) -> list[Buckets]:
        """Every table as Buckets views of flat, made on each access; build, load and queries read flat itself."""
        return [self.flat.table(ell) for ell in range(self.params.l)]

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def space(self) -> LpSpace:
        return LpSpace(self.scheme.p, self.d)

    def functions(self) -> IndexFunctions:
        """The hash functions build sampled, or for a loaded index, sampled from the seed on first use."""
        if self._functions is None:
            self._functions = _sample_functions(self.scheme, self.d, self.params)
        return self._functions

    def _query_keys(self, queries: np.ndarray) -> np.ndarray:
        """Fingerprints of a batch of queries, (m, l): column ell holds table ell's.

        Each group of queries is hashed under all k * l functions at once:
        one projection, one lattice scan and one fingerprint fold. Groups
        of about _QUERY_ROWS // (k * l) queries bound the scan's arrays.
        """
        funcs = self.functions()
        k, l = self.params.k, self.params.l
        space_t = self.scheme.space()
        unit = scale_to_unit(queries, self.scheme.r)
        fps = np.empty((unit.shape[0], l), dtype=np.uint64)
        group = max(1, _QUERY_ROWS // (k * l))
        for lo in range(0, unit.shape[0], group):
            keys = _key_rows(funcs, unit[lo : lo + group], range(l), k, space_t)
            fps[lo : lo + group] = fingerprint_rows(keys).reshape(-1, l)
        return fps

    def query(self, q: np.ndarray, max_candidates: int | None = None) -> QueryResult:
        return self.query_batch(np.asarray(q, dtype=np.float64)[None, :], max_candidates)[0]

    def query_batch(self, queries: np.ndarray, max_candidates: int | None = None) -> list[QueryResult]:
        """Probe one bucket per table per query, in table order, under a candidate budget.

        A query's candidates are its buckets' points in (table, position)
        order, each counted at its first occurrence, cut at the budget; a
        table is probed while fewer than budget candidates precede it.
        The answer is the closest candidate examined (ties to the smaller
        id); it is in contract when its exact distance is at most c * r.
        Queries are looked up in groups of about _ROW_BLOCK // l, so the
        lookup's temporaries do not grow with the batch.
        """
        qs = np.asarray(queries, dtype=np.float64)
        if qs.ndim != 2 or qs.shape[1] != self.d:
            raise ContractViolation(f"queries must have shape (m, {self.d})")
        if not np.isfinite(qs).all():
            raise ContractViolation("queries must be finite (no NaN or infinity)")
        _check_max_candidates(max_candidates)
        budget = max_candidates if max_candidates is not None else self.params.candidate_budget
        query_fps = self._query_keys(qs)
        group = max(1, _ROW_BLOCK // self.params.l)
        results: list[QueryResult] = []
        for lo in range(0, qs.shape[0], group):
            results += self._lookup(qs[lo : lo + group], query_fps[lo : lo + group], budget)
        return results

    def _lookup(self, qs: np.ndarray, query_fps: np.ndarray, budget: int) -> list[QueryResult]:
        """Results of a group of queries from their (m, l) fingerprints, all tables at once."""
        flat, l, n = self.flat, self.params.l, self.n
        m = qs.shape[0]
        # pair (query, table) is query * l + table; find the first bucket whose
        # fingerprint is >= the key inside each pair's table segment
        keys = query_fps.ravel()
        lo = np.tile(flat.bounds[:-1], m)
        hi = end = np.tile(flat.bounds[1:], m)
        for _ in range(int(np.diff(flat.bounds).max()).bit_length()):
            mid = (lo + hi) >> 1
            right = (lo < hi) & (flat.fps.take(mid, mode="clip") < keys)
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        pair = np.flatnonzero(lo < end)
        pair = pair[flat.fps[lo[pair]] == keys[pair]]
        table = pair % l
        local = lo[pair] + table
        start = flat.offsets[local]
        # Before any probed table a query holds fewer than budget candidates,
        # so a bucket's first budget members always complete the budget.
        counts = np.minimum(flat.offsets[local + 1] - start, budget)
        # every hit bucket's members, in (query, table, within-bucket) order
        member_pair = np.repeat(pair, counts)
        slots = np.repeat(table * n + start - (np.cumsum(counts) - counts), counts) + np.arange(member_pair.size)
        member_pos = flat.positions.ravel()[slots]
        member_query = member_pair // l
        # a candidate is a (query, point) at its first occurrence
        _, first = np.unique(member_query * n + member_pos, return_index=True)
        is_new = np.zeros(member_pair.size, dtype=bool)
        is_new[first] = True
        new_pair, new_query, new_pos = member_pair[is_new], member_query[is_new], member_pos[is_new]
        per_query = np.bincount(new_query, minlength=m)
        rank = np.arange(new_query.size) - np.repeat(np.cumsum(per_query) - per_query, per_query)
        per_pair = np.bincount(new_pair, minlength=m * l).reshape(m, l)
        tables_probed = ((np.cumsum(per_pair, axis=1) - per_pair) < budget).sum(axis=1)
        examined = np.minimum(per_query, budget)

        kept = rank < budget
        cand_query, cand_pos = new_query[kept], new_pos[kept]
        dists = np.asarray(lp_norm(self.points[cand_pos] - qs[cand_query], self.space()))
        cand_ids = self.ids[cand_pos]
        order = np.lexsort((cand_ids, dists, cand_query))
        best = order[np.flatnonzero(np.diff(cand_query[order], prepend=-1))]
        answers: list[tuple[int, float] | None] = [None] * m
        for qi, cand_id, dist in zip(cand_query[best].tolist(), cand_ids[best].tolist(), dists[best].tolist()):
            answers[qi] = (cand_id, dist)
        limit = self.scheme.c * self.scheme.r
        return [
            QueryResult(answer, count, probed, None if answer is None else answer[1] <= limit)
            for answer, count, probed in zip(answers, examined.tolist(), tables_probed.tolist())
        ]


def build(
    points: np.ndarray,
    scheme: SchemeParams,
    params: IndexParams,
    ids: np.ndarray | None = None,
) -> LshIndex:
    """Hash every point into one bucket per table; deterministic in (data, seeds)."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ContractViolation("points must have shape (n, d)")
    n, d = pts.shape
    if d < 1:
        raise ContractViolation("points must have at least one column")
    if n >= 2**32:
        raise ContractViolation("at most 2**32 - 1 points fit the tables' u4 positions")
    if not np.isfinite(pts).all():
        raise ContractViolation("points must be finite (no NaN or infinity)")
    if ids is None:
        ids_arr = np.arange(n, dtype=np.int64)
    else:
        ids_arr = np.asarray(ids)
        if ids_arr.size and (
            ids_arr.dtype.kind not in "iu" or int(ids_arr.min()) < -(2**63) or int(ids_arr.max()) >= 2**63
        ):
            raise ContractViolation("ids must be integers that fit int64")
        ids_arr = ids_arr.astype(np.int64)
        if ids_arr.shape != (n,):
            raise ContractViolation("ids must have shape (n,)")
        if np.unique(ids_arr).size != n:
            raise ContractViolation("ids must be unique")
    unit = scale_to_unit(pts, scheme.r)
    space_t = scheme.space()
    funcs = _sample_functions(scheme, d, params)
    table_fps, table_offsets = [], []
    positions = np.empty((params.l, n), dtype=np.uint32)
    probe_total = fallback_total = collisions = 0
    width = params.k * (1 + space_t.dim)
    group = max(1, _BUILD_ROWS // max(1, n * params.k))
    for lo in range(0, params.l, group):
        tables = range(lo, min(lo + group, params.l))
        keys = _key_rows(funcs, unit, tables, params.k, space_t).reshape(n, len(tables), width)
        for ell in tables:
            # a copy, so no table's rows keep the group's keys alive into the next group's scan
            key_mat = np.ascontiguousarray(keys[:, ell - lo])
            # a hit at lattice u took u probes; a fallback (u = 0) took all U
            u = key_mat[:, :: 1 + space_t.dim]
            probe_total += int(np.where(u > 0, u, scheme.lattice.num_shifts).sum())
            fallback_total += int((u == 0).sum())
            fps = fingerprint_rows(key_mat)
            # stable sort keeps equal-fingerprint rows in original order, so
            # positions come out ascending within each bucket
            order = np.argsort(fps, kind="stable")
            sorted_fps = fps[order]
            new = np.ones(n, dtype=bool)  # sorted row i starts a bucket
            new[1:] = sorted_fps[1:] != sorted_fps[:-1]
            starts = np.flatnonzero(new)
            # a fingerprint collision is a bucket whose full keys are not all equal
            sorted_rows = key_mat[order]
            bad = ~new[1:] & (sorted_rows[1:] != sorted_rows[:-1]).any(axis=1)
            if bad.any():
                owner = np.searchsorted(starts, np.flatnonzero(bad), side="right") - 1
                collisions += int(np.unique(owner).size)
            table_fps.append(sorted_fps[starts])
            table_offsets.append(np.concatenate((starts, [n])))
            positions[ell] = order
        del keys
    hash_evals = n * params.l * params.k
    bounds = np.cumsum([0] + [t.size for t in table_fps], dtype=np.int64)
    flat = FlatTables(np.concatenate(table_fps), bounds, np.concatenate(table_offsets), positions)
    return LshIndex(
        scheme=scheme,
        params=params,
        points=pts,
        ids=ids_arr,
        flat=flat,
        avg_probes=probe_total / hash_evals if hash_evals else 0.0,
        fingerprint_collisions=collisions,
        fallback_rate=fallback_total / hash_evals if hash_evals else 0.0,
        functions=funcs,
    )


def linear_scan_nn(
    points: np.ndarray, q: np.ndarray, space: LpSpace, ids: np.ndarray | None = None
) -> tuple[int, float]:
    """Exact nearest neighbor; ties go to the smaller id."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] == 0:
        raise ContractViolation("linear scan needs a nonempty dataset")
    ids_arr = np.arange(pts.shape[0], dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
    dists = np.asarray(lp_norm(pts - np.asarray(q, dtype=np.float64)[None, :], space))
    best = np.lexsort((ids_arr, dists))[0]
    return int(ids_arr[best]), float(dists[best])


# -- persistence ---------------------------------------------------------

_PROFILE_CODE = {PROFILE_MAIN: 0, PROFILE_REMARK: 1}
_PROFILE_NAME = {v: k for k, v in _PROFILE_CODE.items()}


# The fixed header after the magic, in order: format version; p, c, r; d, n,
# k, l; root seed; max_candidates (0 for None); w, t, eps, delta,
# delta_fail, U, saturated flag, profile code; kappa_w, kappa_t, kappa_eps;
# threshold value, sample count and seed; the number of override records
# that follow it (each a u1 name length, the ASCII name and an f8 value).
_HEADER = struct.Struct("<H3dIQIIQIdIdddQBB3ddQQH")
_TRAILER = struct.Struct("<Q")  # CRC-64 of every byte before it


def save_index(index: LshIndex, path: str) -> None:
    """Serialize to the LPLSH container (little-endian, CRC-64 trailer).

    The header and overrides, zero padding to an 8-byte offset, then one
    section per array: ids <i8[n], points <f8[n*d], bucket counts <u8[l],
    fingerprints <u8[sum of counts], positions <u4[l*n], and a boundary
    bitmap row of ceil(n/8) bytes per table, whose bit i (little bit order)
    is set where a bucket starts. Hash functions are regenerated from seeds.
    """
    scheme, params = index.scheme, index.params
    lattice, knobs, threshold = scheme.lattice, scheme.knobs, scheme.threshold
    try:
        parts = [
            MAGIC,
            _HEADER.pack(
                FORMAT_VERSION, scheme.p, scheme.c, scheme.r, index.d, index.n, params.k, params.l, params.seed,
                params.max_candidates or 0, lattice.w, lattice.t, threshold.epsilon, lattice.delta, lattice.delta_fail,
                lattice.num_shifts, int(lattice.saturated), _PROFILE_CODE[scheme.profile],
                knobs.kappa_w, knobs.kappa_t, knobs.kappa_eps, threshold.value, threshold.sample_count, threshold.seed,
                len(scheme.overrides),
            ),
        ]
        for name, value in scheme.overrides:
            raw = name.encode("ascii")
            parts.append(struct.pack("<B", len(raw)) + raw + struct.pack("<d", value))
    except struct.error as exc:
        raise ContractViolation(f"index header does not fit the file format: {exc}") from None
    parts.append(bytes(-sum(map(len, parts)) % 8))
    flat, l, n = index.flat, params.l, index.n
    if flat.positions.size and (int(flat.positions.min()) < 0 or int(flat.positions.max()) >= 2**32):
        raise ContractViolation("bucket positions do not fit the index file's u4 field")
    counts = np.diff(flat.bounds)
    # every offset but each table's closing n starts a bucket; n lands in a spare column
    bits = np.zeros((l, 8 * -(-n // 8) + 1), dtype=bool)
    bits.ravel()[flat.offsets + np.repeat(np.arange(l) * bits.shape[1], counts + 1)] = True
    bits[:, n] = False
    parts += [
        np.ascontiguousarray(index.ids, dtype="<i8"),
        np.ascontiguousarray(index.points, dtype="<f8"),
        counts.astype("<u8"),
        np.ascontiguousarray(flat.fps, dtype="<u8"),
        np.ascontiguousarray(flat.positions, dtype="<u4"),
        np.packbits(bits[:, :-1], axis=1, bitorder="little"),
    ]
    # one join and one write: faster than chaining the CRC over the parts and writing each
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(_TRAILER.pack(crc64(body)))


def load_index(path: str) -> LshIndex:
    """Parse and verify an LPLSH container; any corruption is a FormatError.

    The file is read into one 8-byte-aligned buffer, and the ids, points,
    fingerprints and positions are read-only views of it.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        block = np.empty(size + 8, dtype=np.uint8)
        raw = block[-block.ctypes.data % 8 :][:size]
        raw = raw[: fh.readinto(raw)]
    raw.flags.writeable = False
    if raw.size < len(MAGIC) + 2 + _TRAILER.size:
        raise FormatError("file too short to be an index")
    if raw[: len(MAGIC)].tobytes() != MAGIC:
        raise FormatError("bad magic; not an index file")
    end = raw.size - _TRAILER.size
    if crc64(raw[:end]) != _TRAILER.unpack_from(raw, end)[0]:
        raise FormatError("checksum mismatch; refusing to load")
    off = len(MAGIC)

    def claim(size: int, what: str) -> int:
        """Offset of the next size bytes; running into the trailer is a truncated `what`."""
        nonlocal off
        if off + size > end:
            raise FormatError(f"truncated {what}")
        off += size
        return off - size

    def take_array(dtype: str, count: int) -> np.ndarray:
        offset = claim(np.dtype(dtype).itemsize * count, "payload")
        return np.frombuffer(raw, dtype=dtype, count=count, offset=offset)

    header = _HEADER.unpack_from(raw, claim(_HEADER.size, "header"))
    (version, p, c, r, d, n, k, l, root_seed, max_candidates, w, t, eps, delta, delta_fail, num_shifts,
     saturated, profile_code, kappa_w, kappa_t, kappa_eps, t_value, t_samples, t_seed, n_overrides) = header
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if d < 1:
        raise FormatError(f"invalid header value: d must be >= 1, got {d}")
    overrides = []
    for _ in range(n_overrides):
        name_len = int(raw[claim(1, "header")])
        at = claim(name_len, "override record")
        # a non-ASCII byte decodes to U+FFFD, which is no override name
        name = raw[at : at + name_len].tobytes().decode("ascii", errors="replace")
        if name not in _OVERRIDE_FIELDS:
            raise FormatError(f"unknown override name {name!r}")
        (value,) = struct.unpack_from("<d", raw, claim(8, "header"))
        overrides.append((name, value))
    if raw[claim(-off % 8, "header") : off].any():
        raise FormatError("nonzero padding after the header")

    ids = take_array("<i8", n)
    if np.unique(ids).size != n:
        raise FormatError("duplicate ids")
    points = take_array("<f8", n * d).reshape(n, d)
    counts = take_array("<u8", l)
    fps = take_array("<u8", sum(counts.tolist()))
    counts = counts.astype(np.int64)  # each fits: their sum fit in the file
    positions = take_array("<u4", l * n).reshape(l, n)
    row = -(-n // 8)
    bitmap = take_array("u1", l * row).reshape(l, row)
    if off != end:
        raise FormatError("trailing bytes after payload")
    # one spare column past the padding; bits from column n on must be clear
    bits = np.zeros((l, 8 * row + 1), dtype=bool)
    bits[:, :-1] = np.unpackbits(bitmap, axis=1, bitorder="little")
    if bits[:, n:].any():
        raise FormatError("empty bucket: a boundary bit at or past the point count is set")
    # column n closes every table, so a table's first set bit is where its buckets' entries begin
    bits[:, n] = True
    first = bits.argmax(axis=1)
    if first.any():
        raise FormatError(f"table entry total {n - int(first.max())} differs from the point count {n}")
    if (np.count_nonzero(bits, axis=1) - 1 != counts).any():
        raise FormatError("bucket counts disagree with entry total")
    bounds = np.concatenate(([0], np.cumsum(counts)))
    offsets = np.flatnonzero(bits) - np.repeat(np.arange(l) * bits.shape[1], counts + 1)
    ordered = fps[1:] > fps[:-1]
    ordered[bounds[1:-1][bounds[1:-1] > 0] - 1] = True  # a table's first bucket follows another table's last
    if not ordered.all():
        raise FormatError("bucket fingerprints not strictly increasing")
    if n and int(positions.max()) >= n:
        raise FormatError("bucket position beyond the stored points")
    flat = FlatTables(fps, bounds, offsets, positions)

    if profile_code not in _PROFILE_NAME:
        raise FormatError(f"unknown profile code {profile_code}")
    # checksum-valid bytes must still pass the checks derived parameters pass
    try:
        scheme = SchemeParams(
            c=c, p=p, r=r,
            threshold=Threshold(value=t_value, t=t, epsilon=eps, p=p, sample_count=t_samples, seed=t_seed),
            lattice=LatticeParams(
                w=w, t=t, num_shifts=num_shifts, delta=delta, delta_fail=delta_fail, saturated=bool(saturated)
            ),
            profile=_PROFILE_NAME[profile_code],
            knobs=Knobs(kappa_w=kappa_w, kappa_t=kappa_t, kappa_eps=kappa_eps),
            overrides=tuple(overrides),
        )
        params = IndexParams(k=k, l=l, seed=root_seed, max_candidates=max_candidates or None)
    except ContractViolation as exc:
        raise FormatError(f"invalid header value: {exc}") from None
    return LshIndex(scheme=scheme, params=params, points=points, ids=ids, flat=flat)


# -- radius ladder -------------------------------------------------------


@dataclass(frozen=True)
class LadderResult:
    rung: int
    rung_radius: float
    effective_c: float  # the ladder's approximation guarantee, c^2
    result: QueryResult


class RadiusLadder:
    """Indices at radii r_min * c^i, queried bottom-up.

    For a query whose true nearest distance lies in [r_min, r_max], the
    first rung that succeeds returns a point within c * (c * opt), so the
    overall approximation factor is at most c^2. Distances below r_min
    carry no multiplicative guarantee beyond c * r_min.
    """

    def __init__(self, indices: list[LshIndex], radii: list[float], c: float):
        self.indices = indices
        self.radii = radii
        self.c = c

    @classmethod
    def build(
        cls,
        points: np.ndarray,
        c: float,
        p: float,
        r_min: float,
        r_max: float,
        index_params: IndexParams,
        profile: str = PROFILE_MAIN,
        knobs: Knobs = Knobs(),
        overrides: dict[str, float] | None = None,
        derive_kwargs: dict | None = None,
    ) -> "RadiusLadder":
        if not (0 < r_min <= r_max):
            raise ContractViolation(f"need 0 < r_min <= r_max, got {r_min}, {r_max}")
        rungs = max(0, math.ceil(math.log(r_max / r_min) / math.log(c)))
        radii = [r_min * c**i for i in range(rungs + 1)]
        indices = []
        for i, radius in enumerate(radii):
            scheme = derive_params(
                c, p, profile=profile, knobs=knobs, overrides=overrides, r=radius, **(derive_kwargs or {})
            )
            seed = int(derive_rng(index_params.seed, 23, i).integers(0, 2**63 - 1))
            indices.append(build(points, scheme, replace(index_params, seed=seed)))
        return cls(indices, radii, c)

    def query(self, q: np.ndarray) -> LadderResult | None:
        for i, idx in enumerate(self.indices):
            res = idx.query(q)
            if res.answer is not None and res.in_contract:
                return LadderResult(rung=i, rung_radius=self.radii[i], effective_c=self.c**2, result=res)
        return None


def radius_ladder_query(
    points: np.ndarray,
    q: np.ndarray,
    c: float,
    p: float,
    r_min: float,
    r_max: float,
    index_params: IndexParams,
    **build_kwargs,
) -> LadderResult | None:
    """One-shot convenience: build the ladder, run one query."""
    ladder = RadiusLadder.build(points, c, p, r_min, r_max, index_params, **build_kwargs)
    return ladder.query(q)
