"""Stacked query hashing and grouped lookup against the per-table loops they replaced.

`LshIndex._query_keys` hashes a group of queries under all k*l functions
with one projection, one lattice scan and one fingerprint fold;
`LshIndex.query_batch` then looks a group of queries up in all l tables at
once. The reference below is the earlier path: per table, `key_matrix`
over freshly regenerated functions and one fingerprint fold, then one
`Buckets.get` per (query, table). Fingerprints and every `QueryResult`
field must be equal. `build` hashes each table's points with the same
stacked scan, so its tables must equal the ones the reference keys sort
into; it hashes runs of tables per scan and splits large scans over
threads, so grouped and threaded builds are checked the same way.
"""

import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

import lplsh.index
import lplsh.lattice
import lplsh.util
from lplsh import IndexParams, QueryResult, build, load_index, save_index
from lplsh.geometry import lp_norm
from lplsh.index import _KEY_ROWS, _ROW_BLOCK, fingerprint_rows
from lplsh.lattice import SHIFT_CHUNK, STACK_PREFIX, hash_batch
from lplsh.scheme import sample_hash, scale_to_unit
from lplsh.util import derive_rng

from conftest import cheap_scheme


def function_seed(root_seed, table, slot):
    """The seed of slot `slot` of table `table`: the index's derivation, frozen here."""
    return int(derive_rng(root_seed, 11, table, slot).integers(0, 2**63 - 1))


def table_functions(scheme, d, params, ell):
    """The k hash functions of table ell, regenerated from the root seed."""
    return [sample_hash(scheme, d, function_seed(params.seed, ell, j)) for j in range(params.k)]


def key_matrix(funcs, unit, space_t):
    """Bucket keys of unit-frame rows: per function, the lattice index u then the t cell coordinates.

    One matmul projects the rows under every function; function i owns
    columns [i * t, (i + 1) * t), hashed alone under its own lattice set.
    """
    t = space_t.dim
    projected = unit @ np.vstack([h.projection for h in funcs]).T
    parts = []
    for i, h in enumerate(funcs):
        u, coords, _ = hash_batch(projected[:, i * t : (i + 1) * t], [h.lattices], space_t)
        parts += [u[:, None], coords]
    return np.hstack(parts)


def reference_query_keys(index, queries):
    """Per-table fingerprints, one (m,) array per table, from the per-table key matrices."""
    unit = scale_to_unit(queries, index.scheme.r)
    space_t = index.scheme.space()
    return [
        fingerprint_rows(key_matrix(table_functions(index.scheme, index.d, index.params, ell), unit, space_t))
        for ell in range(index.params.l)
    ]


def reference_query_batch(index, queries, budget):
    """The query loop over reference fingerprints: table order, first-seen dedupe, budget cut."""
    table_fps = reference_query_keys(index, queries)
    tables = index.tables  # the property makes every table's views on each access
    space = index.space()
    limit = index.scheme.c * index.scheme.r
    results = []
    for qi in range(queries.shape[0]):
        seen: list[int] = []
        tables_probed = 0
        for ell in range(index.params.l):
            if len(seen) >= budget:
                break
            tables_probed += 1
            bucket = tables[ell].get(int(table_fps[ell][qi]))
            for pos in [] if bucket is None else bucket:
                if int(pos) not in seen:
                    seen.append(int(pos))
                    if len(seen) >= budget:
                        break
        if not seen:
            results.append(QueryResult(None, 0, tables_probed, None))
            continue
        sel = np.array(seen, dtype=np.int64)
        dists = np.asarray(lp_norm(index.points[sel] - queries[qi][None, :], space))
        cand_ids = index.ids[sel]
        best = np.lexsort((cand_ids, dists))[0]
        dist = float(dists[best])
        results.append(QueryResult((int(cand_ids[best]), dist), len(seen), tables_probed, bool(dist <= limit)))
    return results


def instance(seed, n=120, d=8, m=12):
    """Clustered points (so buckets share members across tables), near queries and far misses."""
    rng = derive_rng(0, 9900, seed)
    centers = rng.normal(scale=4.0, size=(6, d))
    pts = centers[rng.integers(0, 6, size=n)] + 0.3 * rng.normal(size=(n, d))
    near = pts[rng.integers(0, n, size=m)] + 0.05 * rng.normal(size=(m, d))
    far = np.full((2, d), 1e4) * np.array([[1.0], [-1.0]])
    return pts, np.vstack([near, far])


def assert_matches_reference(index, queries, max_candidates=None):
    fps = index._query_keys(queries)
    ref = reference_query_keys(index, queries)
    assert fps.shape == (queries.shape[0], index.params.l)
    for ell in range(index.params.l):
        assert np.array_equal(fps[:, ell], ref[ell]), f"table {ell}"
    budget = max_candidates if max_candidates is not None else index.params.candidate_budget
    got = index.query_batch(queries, max_candidates)
    assert got == reference_query_batch(index, queries, budget)
    return got


@pytest.mark.parametrize(
    "k,l,scheme_kwargs",
    [(1, 12, {}), (3, 5, {}), (2, 40, {"delta": 12.0, "u": 3000})],
    ids=["one-function", "three-functions", "past-first-chunk"],
)
def test_build_tables_match_reference_keys(k, l, scheme_kwargs):
    # build sorts every table's points by fingerprint, stably
    pts, _ = instance(11)
    index = build(pts, cheap_scheme(**scheme_kwargs), IndexParams(k=k, l=l, seed=21))
    for ell, fps in enumerate(reference_query_keys(index, pts)):
        table = index.flat.table(ell)
        assert np.array_equal(table.fps, np.unique(fps)), f"table {ell}"
        assert np.array_equal(table.positions, np.argsort(fps, kind="stable")), f"table {ell}"


@pytest.mark.parametrize("m", [0, 1, 3])
def test_few_queries(m):
    pts, queries = instance(1)
    index = build(pts, cheap_scheme(), IndexParams(k=2, l=5, seed=11))
    assert_matches_reference(index, queries[:m])


def test_queries_spanning_several_groups():
    # k*l = 1024 functions: groups of 64 queries, so 152 queries make 3 groups, the last one short
    pts, queries = instance(2, m=150)
    index = build(pts, cheap_scheme(), IndexParams(k=8, l=128, seed=12))
    assert _KEY_ROWS // (8 * 128) == 64
    got = assert_matches_reference(index, queries)
    assert len(got) == 152


@pytest.mark.parametrize("u", [3000, 40], ids=["past-first-chunk", "few-shifts"])
def test_low_coverage_scan(u):
    # delta=12 leaves about 0.2% of the torus to each shift: many rows scan
    # beyond the first chunk (u=3000) or run out of shifts and fall back (u=40)
    pts, queries = instance(3)
    scheme = cheap_scheme(delta=12.0, u=u)
    index = build(pts, scheme, IndexParams(k=2, l=40, seed=13))
    assert_matches_reference(index, queries)
    unit = scale_to_unit(queries, scheme.r)
    funcs = [h for ell in range(40) for h in table_functions(scheme, index.d, index.params, ell)]
    keys = key_matrix(funcs, unit, scheme.space())
    u_cols = keys[:, :: 1 + scheme.t]
    assert (u_cols == 0).any()
    if u > SHIFT_CHUNK:
        assert (u_cols > SHIFT_CHUNK).any()


def test_budget_misses_and_duplicates():
    pts, queries = instance(4)
    index = build(pts, cheap_scheme(), IndexParams(k=1, l=12, seed=14))
    got = assert_matches_reference(index, queries, max_candidates=5)
    assert any(r.answer is None and r.tables_probed == 12 for r in got)  # the far misses
    assert any(r.candidates_examined == 5 and r.tables_probed < 12 for r in got)  # cut by the budget
    # some query meets one point in two tables, so dedupe matters
    fps = index._query_keys(queries)

    def members(qi):
        buckets = [index.tables[ell].get(int(fps[qi, ell])) for ell in range(12)]
        return [int(pos) for bucket in buckets if bucket is not None for pos in bucket]

    assert any(len(members(qi)) > len(set(members(qi))) for qi in range(len(queries)))
    assert_matches_reference(index, queries)


def test_ties_go_to_the_smaller_permuted_id():
    # every point twice: the copies share every bucket and every distance
    pts, queries = instance(5, n=60)
    ids = derive_rng(0, 9901).permutation(1000)[:120]
    index = build(np.vstack([pts, pts]), cheap_scheme(), IndexParams(k=2, l=6, seed=15), ids=ids)
    got = assert_matches_reference(index, queries)
    answered = [r.answer[0] for r in got if r.answer is not None]
    assert answered
    pos = {int(i): p for p, i in enumerate(ids)}
    for answer_id in answered:
        p = pos[answer_id]
        assert answer_id == min(ids[p % 60], ids[p % 60 + 60])
    # the smaller id sits on the second copy for some answers, so it is not positional
    assert any(pos[answer_id] >= 60 for answer_id in answered)


def test_budget_of_one_cuts_a_multi_member_bucket():
    pts, queries = instance(6)
    index = build(pts, cheap_scheme(), IndexParams(k=1, l=4, seed=16))
    got = assert_matches_reference(index, queries, max_candidates=1)
    fps = index._query_keys(queries)
    first_hits = [index.tables[0].get(int(fps[qi, 0])) for qi in range(len(queries))]
    cut = [qi for qi, bucket in enumerate(first_hits) if bucket is not None and bucket.size > 1]
    assert cut
    for qi in cut:
        assert (got[qi].candidates_examined, got[qi].tables_probed) == (1, 1)


@pytest.mark.parametrize("max_candidates", [None, 3])
def test_bucket_of_points_already_seen(max_candidates):
    # three copies of one point, far from the rest, fill the query's bucket in every table
    pts, queries = instance(7)
    far = np.full((3, pts.shape[1]), 50.0)
    index = build(np.vstack([pts, far]), cheap_scheme(), IndexParams(k=2, l=5, seed=17))
    copies = [pts.shape[0], pts.shape[0] + 1, pts.shape[0] + 2]
    fps = index._query_keys(far[:1])
    assert all(index.tables[ell].get(int(fps[0, ell])).tolist() == copies for ell in range(5))
    (got,) = assert_matches_reference(index, far[:1], max_candidates)
    # every later table adds nothing; it counts as probed until the budget is met
    assert got.candidates_examined == 3
    assert got.tables_probed == (5 if max_candidates is None else 1)


def test_empty_index():
    _, queries = instance(8)
    index = build(np.empty((0, queries.shape[1])), cheap_scheme(), IndexParams(k=2, l=4, seed=18))
    got = assert_matches_reference(index, queries)
    assert all(r == QueryResult(None, 0, 4, None) for r in got)


def test_loaded_index_answers_as_the_saved_one(tmp_path):
    pts, queries = instance(9)
    index = build(pts, cheap_scheme(), IndexParams(k=1, l=8, seed=19))
    path = str(tmp_path / "idx.lplsh")
    save_index(index, path)
    loaded = load_index(path)
    for budget in (None, 4):
        assert assert_matches_reference(loaded, queries, budget) == index.query_batch(queries, budget)


def test_batch_spanning_several_lookup_groups():
    # l = 600 tables: lookup groups of 6 queries, so 14 queries make 3 groups, the last one short
    pts, queries = instance(10)
    index = build(pts, cheap_scheme(), IndexParams(k=1, l=600, seed=20))
    assert _ROW_BLOCK // 600 == 6
    got = assert_matches_reference(index, queries, max_candidates=7)
    assert len(got) == 14


@pytest.fixture
def scans(monkeypatch):
    """The (thread, rows, span) of every lattice scan: the workers' runs, the calling thread's among them, and its tail.

    A short switch interval interleaves the workers.
    """
    scans = []
    scan = lplsh.lattice._scan

    def recording(point_sets, out, draw, params, p, span, *rest):
        scans.append((threading.get_ident(), point_sets[0].shape[0], span))
        return scan(point_sets, out, draw, params, p, span, *rest)

    monkeypatch.setattr(lplsh.lattice, "_scan", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield scans
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def threaded(scans, monkeypatch):
    """Every hash_batch call with a prefix and whole grid rows takes the threaded path, with up to three workers."""
    monkeypatch.setattr(lplsh.lattice, "_WORKER_ROWS", 1)
    monkeypatch.setattr(lplsh.util, "_cpus", lambda: 3)
    monkeypatch.setattr(lplsh.util, "_MAX_WORKERS", 3)
    return scans


def worker_scans(scans):
    """The scans that ran off the calling thread."""
    return [scan for scan in scans if scan[0] != threading.get_ident()]


@pytest.mark.parametrize(
    "n,k,l,group,scheme_kwargs",
    [
        (120, 2, 7, 3, {}),
        (120, 3, 5, 5, {"delta": 12.0, "u": 3000}),
        (2, 2, 9, 4, {}),
        (1, 2, 6, 6, {}),
    ],
    ids=["l-not-a-multiple-of-the-group", "past-the-prefix", "two-grid-rows", "fewer-grid-rows-than-workers"],
)
def test_grouped_threaded_build_matches_reference_keys(threaded, monkeypatch, n, k, l, group, scheme_kwargs):
    monkeypatch.setattr(lplsh.index, "_KEY_ROWS", n * k * group)
    pts, _ = instance(12, n=n)
    scheme = cheap_scheme(**scheme_kwargs)
    index = build(pts, scheme, IndexParams(k=k, l=l, seed=22))
    ref = reference_query_keys(index, pts)
    for ell, fps in enumerate(ref):
        table = index.flat.table(ell)
        assert np.array_equal(table.fps, np.unique(fps)), f"table {ell}"
        assert np.array_equal(table.positions, np.argsort(fps, kind="stable")), f"table {ell}"
    # each group's call splits its n grid rows over min(3, n) workers, the
    # calling thread one of them; one grid row is not split
    groups, split = -(-l // group), min(3, n)
    workers = worker_scans(threaded)
    assert len(workers) == (groups * (split - 1) if split > 1 else 0)
    assert all(span == range(min(STACK_PREFIX, scheme.lattice.num_shifts)) for _, _, span in workers)
    if scheme_kwargs:
        # rows still pending at the prefix end resume on the calling thread
        unit = scale_to_unit(pts, scheme.r)
        funcs = [h for ell in range(l) for h in table_functions(scheme, index.d, index.params, ell)]
        u_cols = key_matrix(funcs, unit, scheme.space())[:, :: 1 + scheme.t]
        assert (u_cols > STACK_PREFIX).any()
        assert any(span.start == STACK_PREFIX for ident, _, span in threaded if ident == threading.get_ident())


def test_threaded_build_of_no_points(threaded):
    _, queries = instance(8)
    index = build(np.empty((0, queries.shape[1])), cheap_scheme(), IndexParams(k=2, l=4, seed=18))
    got = assert_matches_reference(index, queries)
    assert all(r == QueryResult(None, 0, 4, None) for r in got)


def test_threaded_query_batch_matches_reference(threaded):
    pts, queries = instance(13)
    index = build(pts, cheap_scheme(), IndexParams(k=2, l=6, seed=23))
    assert_matches_reference(index, queries)
    assert worker_scans(threaded)


def test_query_groups_split_at_the_real_row_bounds(scans, monkeypatch):
    # _WORKER_ROWS and _KEY_ROWS as shipped, two CPUs: k*l = 512 functions
    # make groups of 128 queries, 65536 rows, which split into two shares of
    # 2**15 rows; a single query and a batch under 2**15 rows stay on the
    # calling thread
    monkeypatch.setattr(lplsh.util, "_cpus", lambda: 2)
    pts, queries = instance(15, m=128)
    index = build(pts, cheap_scheme(), IndexParams(k=4, l=128, seed=25))
    assert _KEY_ROWS // (4 * 128) == 128 and len(queries) == 130
    assert 2 * lplsh.lattice._WORKER_ROWS == 2**15
    scans.clear()
    before = threading.active_count()
    assert_matches_reference(index, queries)
    assert threading.active_count() == before
    # _query_keys and query_batch each split the first group's prefix once
    workers = worker_scans(scans)
    assert [scan[1:] for scan in workers] == [(2**15, range(STACK_PREFIX))] * 2

    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    single = index.query(queries[0])
    small = index.query_batch(queries[:60])
    assert 60 * 4 * 128 < 2**15
    assert started == []
    assert single == index.query_batch(queries[:1])[0]
    assert small == reference_query_batch(index, queries[:60], index.params.candidate_budget)


def _build_and_exit(pts, scheme, params, want):
    """Exit 0 when a build in this (forked) process saves the expected fingerprints."""
    index = build(pts, scheme, params)
    os._exit(0 if np.array_equal(index.flat.fps, want) else 3)


def test_build_in_a_forked_child_finishes(threaded):
    # the parent's threaded builds leave no executor behind for a fork to inherit
    pts, _ = instance(14)
    scheme, params = cheap_scheme(), IndexParams(k=2, l=6, seed=24)
    want = build(pts, scheme, params).flat.fps
    assert worker_scans(threaded)
    child = multiprocessing.get_context("fork").Process(target=_build_and_exit, args=(pts, scheme, params, want))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("a build in a forked child did not finish within 60 s")
    assert child.exitcode == 0


def test_scans_read_a_contiguous_prefix(monkeypatch):
    """A build group's prefix columns are copied out once per call; a query reads the index's own prefix."""
    seen = []
    grid_block = lplsh.lattice._grid_block

    def recording(sets, prefix, *rest):
        seen.append(prefix)
        return grid_block(sets, prefix, *rest)

    monkeypatch.setattr(lplsh.lattice, "_grid_block", recording)
    monkeypatch.setattr(lplsh.index, "_KEY_ROWS", 120 * 2 * 3)
    pts, queries = instance(14, n=120)
    index = build(pts, cheap_scheme(), IndexParams(k=2, l=7, seed=23))
    whole = index.functions().prefix
    assert seen and all(prefix.flags.c_contiguous for prefix in seen)
    assert not any(np.shares_memory(prefix, whole) for prefix in seen)
    seen.clear()
    index.query_batch(queries)
    assert seen and all(prefix.flags.c_contiguous and np.shares_memory(prefix, whole) for prefix in seen)
