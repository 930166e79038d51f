"""Differential tests: the shared lattice-scan kernel against the loops it replaced.

The reference functions below are the scans `lattice.hash_batch` (seeded
shifts, one point set) and `collisions._lattice_stage` (fresh shifts per
trial, x and y sharing them) as they were written before both became
callers of `lattice.first_cover`, with the ball test they used then
(`reference_inside`: the (rows, b, t) array of |diff|^p summed over its
last axis). The kernel, which works on (shifts, rows) arrays one
coordinate at a time, must return the same arrays and, for the lab, draw
the same random numbers in the same order; a golden digest of the lab's
output pins its draw sizes as well. With several lattice sets, `hash_batch`
must hash each row as the reference hashes it under its own set alone, and
its shift prefix must be the head of every set's first shift chunk, bit for
bit, and a scan split over threads must hash as the unsplit one.
"""

import hashlib
import math
import threading

import numpy as np
import pytest

import lplsh.lattice
from lplsh import LatticeParams, LpSpace, ShiftedLatticeSet
from lplsh.collisions import _ELEM_BUDGET, _lattice_stage
from lplsh.lattice import SHIFT_CHUNK, STACK_PREFIX, _column_sum, hash_batch, locate, stack_prefix
from lplsh.util import derive_rng

# rows per slice of the reference loops, which predate the kernel's element budget
ROW_BLOCK = 4096


def reference_abs_pow(v, p):
    if p == 2.0:
        return v * v
    if p == 1.5:
        return v * np.sqrt(v)
    if p == 1.25:
        return v * np.sqrt(np.sqrt(v))
    if p == 1.75:
        s = np.sqrt(v)
        return v * s * np.sqrt(s)
    return np.power(v, p)


def reference_inside(diff, p, w):
    return reference_abs_pow(np.abs(diff), p).sum(axis=-1) <= w**p


def reference_hash_batch(points, lattices, space, chunk=SHIFT_CHUNK):
    params = lattices.params
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    u_out = np.zeros(n, dtype=np.int64)
    coords_out = np.zeros((n, params.t), dtype=np.int64)
    probes = np.zeros(n, dtype=np.int64)
    unresolved = np.arange(n)
    spacing = params.spacing
    lo = 0
    cb = min(16, chunk)
    while lo < params.num_shifts and unresolved.size:
        shifts = lattices.shift_block(lo, lo + cb)
        b = shifts.shape[0]
        for base in range(0, unresolved.size, ROW_BLOCK):
            rows = unresolved[base : base + ROW_BLOCK]
            rel = pts[rows, None, :] - shifts[None, :, :]
            a = np.rint(rel / spacing)
            hit = reference_inside(rel - spacing * a, space.p, params.w)
            found = hit.any(axis=1)
            first = hit.argmax(axis=1)
            probes[rows] += np.where(found, first + 1, b)
            if found.any():
                hit_rows = rows[found]
                u_out[hit_rows] = lo + first[found] + 1
                coords_out[hit_rows] = a[found, first[found]].astype(np.int64)
        unresolved = unresolved[u_out[unresolved] == 0]
        lo += b
        cb = min(cb * 4, chunk)
    return u_out, coords_out, probes


def reference_lattice_stage(xp, yp, params, p, rng):
    b, t = xp.shape
    w, spacing, total = params.w, params.spacing, params.num_shifts
    ux = np.zeros(b, dtype=np.int64)
    uy = np.zeros(b, dtype=np.int64)
    ax = np.zeros((b, t), dtype=np.int64)
    ay = np.zeros((b, t), dtype=np.int64)
    lo = 0
    chunk = 128
    while lo < total:
        active = np.flatnonzero((ux == 0) | (uy == 0))
        if active.size == 0:
            break
        cb = min(chunk, total - lo, max(16, _ELEM_BUDGET // max(active.size * t, 1)))
        shifts = rng.uniform(0.0, spacing, size=(active.size, cb, t))
        for u_arr, a_arr, pts in ((ux, ax, xp), (uy, ay, yp)):
            todo = u_arr[active] == 0
            if not todo.any():
                continue
            rows = active[todo]
            rel = pts[rows, None, :] - shifts[todo]
            aa = np.rint(rel / spacing)
            hit = reference_inside(rel - spacing * aa, p, w)
            found = hit.any(axis=1)
            if found.any():
                first = hit.argmax(axis=1)
                hit_rows = rows[found]
                u_arr[hit_rows] = lo + first[found] + 1
                a_arr[hit_rows] = aa[found, first[found]].astype(np.int64)
        lo += cb
        chunk = min(chunk * 4, SHIFT_CHUNK)
    return ux, ax, uy, ay


# (case, lattice params, rows): tiny U leaves fallback rows; delta=8 puts
# the mean first hit past the first block; the last case has more rows
# than one of the reference's row blocks.
INDEX_CASES = [
    ("fallback", LatticeParams(w=1.0, t=3, num_shifts=3, delta=4.0), 800),
    ("past-first-block", LatticeParams(w=1.0, t=3, num_shifts=2000, delta=8.0), 600),
    ("many-rows", LatticeParams(w=1.0, t=2, num_shifts=400, delta=6.0), ROW_BLOCK + 904),
]


@pytest.mark.parametrize("case,params,n", INDEX_CASES, ids=[c[0] for c in INDEX_CASES])
def test_hash_batch_matches_reference(case, params, n):
    lattices = ShiftedLatticeSet(params, 17)
    space = LpSpace(1.5, params.t)
    rng = derive_rng(0, 9301)
    pts = rng.uniform(-3.0 * params.spacing, 3.0 * params.spacing, size=(n, params.t))
    want = reference_hash_batch(pts, lattices, space)
    got = hash_batch(pts, [lattices], space)
    for w_arr, g_arr in zip(want, got):
        assert w_arr.dtype == g_arr.dtype and w_arr.shape == g_arr.shape
        assert np.array_equal(w_arr, g_arr)
    if case == "fallback":
        assert (got[0] == 0).any() and (got[0] > 0).any()
    if case == "past-first-block":
        assert (got[0] > 16 + 64).any()


LAB_CASES = [
    ("fallback", LatticeParams(w=1.0, t=3, num_shifts=3, delta=4.0), 700),
    ("past-first-block", LatticeParams(w=1.0, t=3, num_shifts=3000, delta=8.0), 900),
    ("many-rows", LatticeParams(w=1.0, t=3, num_shifts=3000, delta=8.0), ROW_BLOCK + 404),
]


@pytest.mark.parametrize("case,params,n", LAB_CASES, ids=[c[0] for c in LAB_CASES])
def test_lattice_stage_matches_reference(case, params, n):
    data = derive_rng(0, 9302)
    xp = data.normal(size=(n, params.t))
    yp = xp + data.normal(scale=0.5, size=(n, params.t))
    rng_want = derive_rng(5, 9303)
    rng_got = derive_rng(5, 9303)
    want = reference_lattice_stage(xp, yp, params, 1.5, rng_want)
    got = _lattice_stage(xp, yp, params, 1.5, rng_got)
    for w_arr, g_arr in zip(want, got):
        assert w_arr.dtype == g_arr.dtype and w_arr.shape == g_arr.shape
        assert np.array_equal(w_arr, g_arr)
    # the same random numbers were drawn, in the same block sizes
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    ux, _, uy, _ = got
    if case == "fallback":
        assert ((ux == 0) | (uy == 0)).any() and ((ux > 0) & (uy > 0)).any()
    else:
        # some trial's x resolves in the first block while its y scans on
        assert ((ux > 0) & (ux <= 128) & ((uy > 128) | (uy == 0))).any()


def test_lattice_stage_broadcast_pair_matches_reference():
    # the projected-pair estimator passes one fixed pair broadcast to all trials
    params = LatticeParams(w=1.0, t=3, num_shifts=500, delta=6.0)
    xp = np.broadcast_to(np.array([0.3, -0.2, 0.1]), (300, 3))
    yp = np.broadcast_to(np.array([0.9, 0.4, -0.5]), (300, 3))
    rng_want = derive_rng(1, 9304)
    rng_got = derive_rng(1, 9304)
    want = reference_lattice_stage(xp, yp, params, 1.5, rng_want)
    got = _lattice_stage(xp, yp, params, 1.5, rng_got)
    assert all(np.array_equal(a, b) for a, b in zip(want, got))
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


def reference_hash_stacked(points, sets, space):
    """Row i hashed alone under sets[i % len(sets)]."""
    n, t = points.shape
    u = np.zeros(n, dtype=np.int64)
    coords = np.zeros((n, t), dtype=np.int64)
    for owner, lattices in enumerate(sets):
        rows = np.arange(owner, n, len(sets))
        u[rows], coords[rows], _ = reference_hash_batch(points[rows], lattices, space)
    return u, coords


def planted_points(sets, n, p, rng):
    """(n, t) rows for sets[i % len(sets)] and a 1-based target lattice per row.

    A third of the rows sit on the boundary of their target's ball, where
    the summation order decides membership; a third lie well inside it;
    the rest are uniform. Targets run over all U, so scans pass the first
    chunk.
    """
    params = sets[0].params
    t, w, spacing = params.t, params.w, params.spacing
    owner = np.arange(n) % len(sets)
    target = rng.integers(0, params.num_shifts, size=n)
    centres = np.stack([sets[o].shift_block(u, u + 1)[0] for o, u in zip(owner, target)])
    centres += spacing * rng.integers(-3, 4, size=(n, t))
    direction = rng.uniform(-1.0, 1.0, size=(n, t))
    direction /= (np.abs(direction) ** p).sum(axis=1, keepdims=True) ** (1.0 / p)
    third = n // 3
    points = rng.uniform(-3.0 * spacing, 3.0 * spacing, size=(n, t))
    points[:third] = centres[:third] + w * direction[:third]
    points[third : 2 * third] = centres[third : 2 * third] + 0.5 * w * direction[third : 2 * third]
    return points, target + 1


# t below, at and above numpy's 8-term switch to pairwise summation; p with
# each sqrt chain of _abs_pow, and 1.3 for its generic np.power branch
GRID_T = [1, 3, 7, 8, 9, 16]
GRID_P = [1.25, 1.3, 1.5, 2.0]


def grid_params(t, p):
    """U past one shift chunk, and a spacing at which one lattice covers
    at most about 1/500 of space, so first hits spread over all of U."""
    ball = (2.0 * math.gamma(1.0 + 1.0 / p)) ** t / math.gamma(1.0 + t / p)
    delta = max(3.0, (500.0 * ball) ** (1.0 / t))
    return LatticeParams(w=1.0, t=t, num_shifts=SHIFT_CHUNK + 476, delta=delta)


@pytest.mark.parametrize("p", GRID_P)
@pytest.mark.parametrize("t", GRID_T)
def test_shared_block_scan_matches_reference(t, p):
    lattices = ShiftedLatticeSet(grid_params(t, p), 31 + t)
    space = LpSpace(p, t)
    pts, targets = planted_points([lattices], 240, p, derive_rng(1, 9305, t))
    want = reference_hash_batch(pts, lattices, space)
    got = hash_batch(pts, [lattices], space)
    for w_arr, g_arr in zip(want, got):
        assert w_arr.dtype == g_arr.dtype and w_arr.shape == g_arr.shape
        assert np.array_equal(w_arr, g_arr)
    # locate decides membership with the scan's arithmetic
    for x, target, u, coords in zip(pts, targets, got[0], got[1]):
        cell = locate(x, int(target), lattices, space)
        if u == target:
            assert np.array_equal(cell, coords)
        elif u == 0 or u > target:
            assert cell is None
    assert (got[0] > SHIFT_CHUNK).any()
    if t >= 7:
        assert (got[0] == 0).any()


@pytest.mark.parametrize("p", GRID_P)
@pytest.mark.parametrize("t", GRID_T)
def test_per_row_block_scan_matches_reference(t, p):
    # hash_batch shares its first block down the grid's columns, then hands the kernel one block per row
    sets = [ShiftedLatticeSet(grid_params(t, p), 41 + 3 * t + i) for i in range(3)]
    space = LpSpace(p, t)
    pts, _ = planted_points(sets, 240, p, derive_rng(1, 9306, t))
    want = reference_hash_stacked(pts, sets, space)
    got = hash_batch(pts, sets, space, stack_prefix(sets))
    for w_arr, g_arr in zip(want, got):
        assert w_arr.dtype == g_arr.dtype and w_arr.shape == g_arr.shape
        assert np.array_equal(w_arr, g_arr)
    assert (got[0] > SHIFT_CHUNK).any()
    if t >= 7:
        assert (got[0] == 0).any()


@pytest.mark.parametrize("p", GRID_P)
@pytest.mark.parametrize("t", GRID_T)
def test_lab_scan_matches_reference(t, p):
    params = LatticeParams(w=1.0, t=t, num_shifts=300, delta=3.0)
    data = derive_rng(0, 9307, t)
    xp = data.normal(size=(150, t))
    yp = xp + data.normal(scale=0.5, size=(150, t))
    rng_want = derive_rng(6, 9308)
    rng_got = derive_rng(6, 9308)
    want = reference_lattice_stage(xp, yp, params, p, rng_want)
    got = _lattice_stage(xp, yp, params, p, rng_got)
    for w_arr, g_arr in zip(want, got):
        assert w_arr.dtype == g_arr.dtype and w_arr.shape == g_arr.shape
        assert np.array_equal(w_arr, g_arr)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


@pytest.mark.parametrize("t", [1, 2, 3, 7, 8, 9, 16, 17, 129])
def test_column_sum_matches_last_axis_sum(t):
    rng = derive_rng(0, 9309, t)
    # magnitudes over 8 decades, so the order of the additions shows in the last bits
    cols = [rng.uniform(0.0, 1.0, size=(64, 50)) * 10.0 ** rng.integers(-4, 4, size=(64, 50)) for _ in range(t)]
    want = np.stack(cols, axis=-1).sum(axis=-1)
    left_to_right = cols[0].copy()
    for col in cols[1:]:
        left_to_right = left_to_right + col
    got = _column_sum([col.copy() for col in cols])
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # from 8 terms on numpy's order is not left to right
    assert np.array_equal(left_to_right, want) == (t < 8)


@pytest.mark.parametrize("queries", [1, 7], ids=["one-query", "many-queries"])
def test_stacked_rows_past_the_prefix_match_reference(queries):
    # one "query" is one grid row of len(sets) rows; delta=8 at t=3 puts the
    # mean first hit near 220 shifts, past the 168-shift prefix
    params = LatticeParams(w=1.0, t=3, num_shifts=SHIFT_CHUNK + 300, delta=8.0)
    sets = [ShiftedLatticeSet(params, 61 + i) for i in range(40)]
    space = LpSpace(1.5, 3)
    pts, _ = planted_points(sets, 40 * queries, 1.5, derive_rng(1, 9312, queries))
    want = reference_hash_stacked(pts, sets, space)
    got = hash_batch(pts, sets, space, stack_prefix(sets))
    for w_arr, g_arr in zip(want, got):
        assert w_arr.dtype == g_arr.dtype and w_arr.shape == g_arr.shape
        assert np.array_equal(w_arr, g_arr)
    assert (got[0] > STACK_PREFIX).any() and ((got[0] > 0) & (got[0] <= 8)).any()


@pytest.mark.parametrize("u", [SHIFT_CHUNK + 300, 100], ids=["long", "u-below-prefix"])
def test_prefix_is_the_head_of_chunk_zero(u):
    params = LatticeParams(w=1.0, t=4, num_shifts=u, delta=5.0)
    sets = [ShiftedLatticeSet(params, 71 + i) for i in range(6)]
    prefix = stack_prefix(sets)
    size = min(STACK_PREFIX, u)
    assert prefix.shape == (4, size, 6)
    # the prefix did not materialise any chunk
    assert all(not lattices._chunks for lattices in sets)
    for i, lattices in enumerate(sets):
        head = np.ascontiguousarray(prefix[:, :, i].T)
        assert np.array_equal(head.view(np.uint64), lattices._chunk(0)[:size].view(np.uint64))


def test_small_row_slices_match_reference(monkeypatch):
    # a tiny element budget cuts the shared block's rows, the grid's rows and
    # the per-row blocks into many slices; one set with a prefix shares its blocks too
    monkeypatch.setattr(lplsh.lattice, "_SCAN_ELEMS", 50)
    params = LatticeParams(w=1.0, t=3, num_shifts=600, delta=6.0)
    sets = [ShiftedLatticeSet(params, 81 + i) for i in range(7)]
    space = LpSpace(1.5, 3)
    pts, _ = planted_points(sets, 7 * 30, 1.5, derive_rng(1, 9313))
    for want, got in [
        (reference_hash_batch(pts, sets[0], space), hash_batch(pts, [sets[0]], space)),
        (reference_hash_batch(pts, sets[0], space), hash_batch(pts, [sets[0]], space, stack_prefix([sets[0]]))),
        (reference_hash_stacked(pts, sets, space), hash_batch(pts, sets, space, stack_prefix(sets))),
        # rows that do not fill the last grid row
        (reference_hash_stacked(pts[:-3], sets, space), hash_batch(pts[:-3], sets, space, stack_prefix(sets))),
    ]:
        assert all(np.array_equal(w_arr, g_arr) for w_arr, g_arr in zip(want, got))


# sha256 of _lattice_stage's (u_x, a_x, u_y, a_y) bytes and the generator's
# state after it, recorded before the kernel moved to (shifts, rows) arrays.
# The lab's draw sizes set its random stream, so any drift in them moves
# the digest. Cases: capped per-trial blocks (4500 trials), fallbacks, t=8.
LAB_GOLDEN = [
    (
        "capped",
        LatticeParams(w=1.0, t=3, num_shifts=3000, delta=8.0),
        4500,
        "af3b5e45dee8b5b19ccef6360549a5f08b8aac55ac8a121480b68b6622fd8721",
    ),
    (
        "fallback",
        LatticeParams(w=1.0, t=3, num_shifts=3, delta=4.0),
        700,
        "d3299e939b8a198146afafe784b652a1276a1646194eea9b2de57c904a74f83d",
    ),
    (
        "t8",
        LatticeParams(w=1.0, t=8, num_shifts=2000, delta=3.0),
        300,
        "e960791f9c72bc426b4689791b44dbb7ab28830137dd45dcabae6caf84cb94df",
    ),
]


@pytest.mark.parametrize("case,params,n,digest", LAB_GOLDEN, ids=[c[0] for c in LAB_GOLDEN])
def test_lattice_stage_golden_digest(case, params, n, digest):
    data = derive_rng(1, 9310)
    xp = data.normal(size=(n, params.t))
    yp = xp + data.normal(scale=0.5, size=(n, params.t))
    rng = derive_rng(1, 9311)
    h = hashlib.sha256()
    for arr in _lattice_stage(xp, yp, params, 1.5, rng):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(str(rng.bit_generator.state["state"]).encode())
    assert h.hexdigest() == digest


def reference_covered(cols, shifts, params, p):
    """The frozen ball test on rows x of cols (t, rows), each against its own (b, t) shifts: (b, rows)."""
    t, b, c = shifts.shape
    shift = np.transpose(shifts, (2, 1, 0))[np.arange(cols.shape[1]) % c]
    rel = cols.T[:, None, :] - shift
    a = np.rint(rel / params.spacing)
    # a C-order (rows, b, t) difference, so the sum runs along a contiguous last axis as in the reference scan
    return reference_inside(np.ascontiguousarray(rel - params.spacing * a), p, params.w).T


@pytest.mark.parametrize("p", GRID_P)
@pytest.mark.parametrize("t", [3, 8])
@pytest.mark.parametrize(
    "per_set,sets", [(40, 6), (6, 40), (7, 7), (300, 1)], ids=["more-points-than-sets", "more-sets-than-points", "square", "one-set"]
)
def test_covered_matches_reference_ball_test(t, p, per_set, sets):
    # a grid block of several sets' shifts, each shared down its set's column
    # of points, against a gather of every row's own shifts
    params = grid_params(t, p)
    shifts = stack_prefix([ShiftedLatticeSet(params, 91 + i) for i in range(sets)])[:, 8:20]
    # each row inside, on or outside the boundary of a ball of one of its set's 12 shifts
    rng = derive_rng(1, 9314, t, sets)
    rows = per_set * sets
    centres = shifts[:, rng.integers(0, 12, size=rows), np.arange(rows) % sets].T
    centres += params.spacing * rng.integers(-3, 4, size=(rows, t))
    direction = rng.uniform(-1.0, 1.0, size=(rows, t))
    direction /= (np.abs(direction) ** p).sum(axis=1, keepdims=True) ** (1.0 / p)
    radius = params.w * rng.choice([0.5, 1.0, 1.5], size=(rows, 1))
    cols = np.ascontiguousarray((centres + radius * direction).T)
    got = lplsh.lattice._covered(cols, shifts, params, p)
    want = reference_covered(cols, shifts, params, p)
    assert got.shape == want.shape == (12, per_set * sets)
    assert np.array_equal(got, want)
    assert got.any() and not got.all()


def test_threaded_scan_matches_reference(monkeypatch):
    # a call of three workers' minimum rows with a prefix splits its grid rows
    # over three workers, and rows past the prefix resume on the calling thread
    scans = []
    scan = lplsh.lattice._scan

    def recording(point_sets, out, draw, params, p, span, *rest):
        scans.append((threading.get_ident(), point_sets[0].shape[0], span))
        return scan(point_sets, out, draw, params, p, span, *rest)

    monkeypatch.setattr(lplsh.lattice, "_scan", recording)
    monkeypatch.setattr(lplsh.lattice, "_cpus", lambda: 3)
    monkeypatch.setattr(lplsh.lattice, "_MAX_WORKERS", 3)
    params = LatticeParams(w=1.0, t=3, num_shifts=SHIFT_CHUNK + 300, delta=8.0)
    sets = [ShiftedLatticeSet(params, 101 + i) for i in range(8)]
    space = LpSpace(1.5, 3)
    n = 3 * lplsh.lattice._WORKER_ROWS
    pts, _ = planted_points(sets, n, 1.5, derive_rng(1, 9315))
    want = reference_hash_stacked(pts, sets, space)
    got = hash_batch(pts, sets, space, stack_prefix(sets))
    assert all(np.array_equal(w_arr, g_arr) for w_arr, g_arr in zip(want, got))
    assert (got[0] > STACK_PREFIX).any()
    # three workers (the calling thread one of them) over contiguous runs of
    # whole grid rows, then the tail on the calling thread
    *workers, tail = scans
    sizes = sorted(rows for _, rows, _ in workers)
    assert len(sizes) == 3 and sum(sizes) == n and sizes[-1] - sizes[0] <= 8 and all(s % 8 == 0 for s in sizes)
    assert all(span == range(STACK_PREFIX) for _, _, span in workers)
    assert sum(ident != threading.get_ident() for ident, _, _ in workers) == 2
    assert tail == (threading.get_ident(), n, range(STACK_PREFIX, params.num_shifts))


def test_workers_capped(monkeypatch):
    # more CPUs in the affinity mask than _MAX_WORKERS still split a call
    # into _MAX_WORKERS runs
    workers = []
    scan = lplsh.lattice._scan

    def recording(point_sets, out, draw, params, p, span, *rest):
        if span.start == 0:
            workers.append(point_sets[0].shape[0])
        return scan(point_sets, out, draw, params, p, span, *rest)

    monkeypatch.setattr(lplsh.lattice, "_scan", recording)
    monkeypatch.setattr(lplsh.lattice, "_cpus", lambda: 64)
    monkeypatch.setattr(lplsh.lattice, "_WORKER_ROWS", 1)
    params = LatticeParams(w=1.0, t=3, num_shifts=SHIFT_CHUNK, delta=8.0)
    sets = [ShiftedLatticeSet(params, 121 + i) for i in range(4)]
    pts, _ = planted_points(sets, 400, 1.5, derive_rng(1, 9316))
    got = hash_batch(pts, sets, LpSpace(1.5, 3), stack_prefix(sets))
    assert all(np.array_equal(w_arr, g_arr) for w_arr, g_arr in zip(reference_hash_stacked(pts, sets, LpSpace(1.5, 3)), got))
    assert sorted(workers) == [200, 200] == [400 // lplsh.lattice._MAX_WORKERS] * 2
