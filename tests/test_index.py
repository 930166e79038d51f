"""Multi-table index: sizing, build, query, persistence."""

import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest

import lplsh.index
from lplsh import (
    ContractViolation,
    FormatError,
    IndexParams,
    LpSpace,
    build,
    choose_k_l,
    linear_scan_nn,
    load_index,
    save_index,
    tuned_scheme,
)
from lplsh.index import Buckets, FlatTables, fingerprint_rows
from lplsh.util import crc64, derive_rng

from conftest import cheap_scheme


@pytest.fixture(scope="module")
def scheme():
    return cheap_scheme(c=2.0, p=1.5)


def small_index(scheme, n=80, d=6, seed=7, k=2, l=3, max_candidates=None, ids=None):
    rng = derive_rng(0, 9500, seed)
    pts = rng.normal(size=(n, d))
    params = IndexParams(k=k, l=l, seed=seed, max_candidates=max_candidates)
    return pts, build(pts, scheme, params, ids=ids)


class TestChooseKL:
    def test_k_pin(self):
        got = choose_k_l(10_000, 0.9, 0.5)
        assert got.k == 14

    def test_l_pin(self):
        got = choose_k_l(10_000, 0.9, 0.5, safety=1.0)
        assert got.l == 5
        assert got.rho_hat == pytest.approx(math.log(1 / 0.9) / math.log(2.0))

    def test_near_certain_collision_limit(self):
        got = choose_k_l(10_000, 1.0 - 1e-12, 0.5)
        assert got.rho_hat < 1e-9
        assert got.k == 14
        assert got.l <= 2

    def test_single_point(self):
        got = choose_k_l(1, 0.9, 0.5)
        assert got.k == 1
        assert got.l == 1

    def test_safety_scales_tables(self):
        base = choose_k_l(10_000, 0.9, 0.5)
        bigger = choose_k_l(10_000, 0.9, 0.5, safety=2.0)
        assert bigger.l == math.ceil(2.0 * 10_000**base.rho_hat)
        assert bigger.k == base.k

    def test_wider_gap_needs_fewer_concatenations(self):
        assert choose_k_l(10_000, 0.9, 0.25).k < choose_k_l(10_000, 0.9, 0.5).k

    def test_degraded_flag(self):
        assert choose_k_l(100, 0.05, 0.01).degraded
        assert not choose_k_l(100, 0.2, 0.1).degraded

    def test_validation(self):
        with pytest.raises(ContractViolation):
            choose_k_l(0, 0.9, 0.5)
        with pytest.raises(ContractViolation):
            choose_k_l(10, 0.5, 0.9)
        with pytest.raises(ContractViolation):
            choose_k_l(10, 0.5, 0.5)
        with pytest.raises(ContractViolation):
            choose_k_l(10, 1.0, 0.5)
        for safety in (0.0, math.nan, math.inf):
            with pytest.raises(ContractViolation, match="safety must be > 0 and finite"):
                choose_k_l(10, 0.9, 0.5, safety=safety)


class TestFingerprints:
    def test_deterministic_and_row_sensitive(self, rng):
        mat = rng.integers(-5, 5, size=(1_000, 8)).astype(np.int64)
        a = fingerprint_rows(mat)
        b = fingerprint_rows(mat.copy())
        assert np.array_equal(a, b)
        assert a.dtype == np.uint32
        mat2 = mat.copy()
        mat2[17, 3] += 1
        c = fingerprint_rows(mat2)
        assert c[17] != a[17]
        assert np.array_equal(np.delete(c, 17), np.delete(a, 17))

    def test_distinct_rows_distinct_fps(self, rng):
        mat = rng.integers(0, 2**40, size=(2_000, 4)).astype(np.int64)
        fps = fingerprint_rows(mat)
        assert np.unique(fps).size == 2_000

    def test_matches_python_integer_fold(self, rng):
        # the fold in Python integers mod 2**64, on widths below and above the 256 precomputed multipliers
        mask = 2**64 - 1

        def mix(z):
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
            return z ^ (z >> 31)

        for width in (1, 24, 300):
            mat = rng.integers(-(2**62), 2**62, size=(6, width))
            coefs = [mix((j + 1) * 0x9E3779B97F4A7C15 & mask) | 1 for j in range(width)]
            want = [mix(sum(c * (v & mask) for c, v in zip(coefs, row)) & mask) >> 32 for row in mat.tolist()]
            assert fingerprint_rows(mat).tolist() == want

    def test_rejects_non_matrix(self):
        with pytest.raises(ContractViolation):
            fingerprint_rows(np.arange(5, dtype=np.int64))


class TestBuckets:
    def test_get(self):
        buckets = Buckets(
            fps=np.array([2, 5, 9], dtype=np.uint64),
            offsets=np.array([0, 2, 3, 6], dtype=np.int64),
            positions=np.array([0, 4, 1, 2, 3, 5], dtype=np.int64),
        )
        assert np.array_equal(buckets.get(2), [0, 4])
        assert np.array_equal(buckets.get(5), [1])
        assert np.array_equal(buckets.get(9), [2, 3, 5])
        assert buckets.get(3) is None
        assert buckets.get(10) is None


class TestBuild:
    def test_table_sizes(self, scheme):
        _, index = small_index(scheme, n=80, l=3)
        assert len(index.tables) == 3
        for table in index.tables:
            assert table.positions.size == 80
            assert table.offsets[-1] == 80
            assert int(np.diff(table.offsets).sum()) == 80
            # positions ascend within each bucket
            for i in range(table.fps.size):
                seg = table.positions[table.offsets[i] : table.offsets[i + 1]]
                assert (np.diff(seg) > 0).all()
        assert index.fingerprint_collisions == 0
        assert index.fallback_rate is not None and 0.0 <= index.fallback_rate <= 0.05
        assert index.avg_probes is not None and 1.0 <= index.avg_probes <= scheme.num_shifts

    def test_fingerprint_collisions_counted_at_forced_ties(self, scheme, monkeypatch):
        # a fold keeping 2 bits of the real fingerprint puts distinct keys in
        # one bucket; the count is the buckets, over all tables, that hold at
        # least two distinct full keys
        real = lplsh.index.fingerprint_rows
        monkeypatch.setattr(lplsh.index, "fingerprint_rows", lambda keys: real(keys) & np.uint64(3))
        rng = derive_rng(0, 9501)
        pts = np.repeat(rng.normal(size=(8, 5)), 6, axis=0) + 0.05 * rng.normal(size=(48, 5))
        params = IndexParams(k=2, l=6, seed=12)
        index = build(pts, scheme, params)
        unit = lplsh.scheme.scale_to_unit(pts, scheme.r)
        keys = lplsh.index._key_rows(index.functions(), unit, range(params.l), params.k, scheme.space())
        keys = keys.reshape(pts.shape[0], params.l, -1)
        want = buckets = 0
        for ell in range(params.l):
            folded = (real(keys[:, ell]) & np.uint64(3)).tolist()
            for fp in set(folded):
                members = {tuple(row) for row, f in zip(keys[:, ell].tolist(), folded) if f == fp}
                want += len(members) >= 2
                buckets += 1
        assert 0 < want < buckets
        assert index.fingerprint_collisions == want

    def test_empty_dataset(self, scheme):
        pts = np.empty((0, 4))
        index = build(pts, scheme, IndexParams(k=1, l=2, seed=0))
        assert index.n == 0
        got = index.query(np.zeros(4))
        assert got.answer is None
        assert got.candidates_examined == 0

    def test_input_validation(self, scheme):
        with pytest.raises(ContractViolation):
            build(np.zeros(5), scheme, IndexParams(k=1, l=1, seed=0))
        with pytest.raises(ContractViolation):
            build(np.empty((5, 0)), scheme, IndexParams(k=1, l=1, seed=0))
        with pytest.raises(ContractViolation):
            build(np.zeros((3, 2)), scheme, IndexParams(k=1, l=1, seed=0), ids=np.array([1, 1, 2]))
        with pytest.raises(ContractViolation):
            build(np.zeros((3, 2)), scheme, IndexParams(k=1, l=1, seed=0), ids=np.array([1, 2]))
        with pytest.raises(ContractViolation):
            IndexParams(k=0, l=1, seed=0)
        with pytest.raises(ContractViolation):
            IndexParams(k=1, l=0, seed=0)
        with pytest.raises(ContractViolation):
            IndexParams(k=1, l=1, seed=0, max_candidates=0)
        # the candidate budget is stored in a u4 field
        with pytest.raises(ContractViolation):
            IndexParams(k=1, l=1, seed=0, max_candidates=2**32)
        assert IndexParams(k=1, l=1, seed=0, max_candidates=2**32 - 1).candidate_budget == 2**32 - 1
        # the root seed is stored in a u8 field
        for seed in (-1, 2**64):
            with pytest.raises(ContractViolation, match="seed"):
                IndexParams(k=1, l=1, seed=seed)

    @pytest.mark.parametrize("field", ["k", "l", "seed", "max_candidates"])
    @pytest.mark.parametrize("bad", [1.5, 2.0, True, np.bool_(True), "3", np.float64(4.0)])
    def test_index_params_take_integers_only(self, field, bad):
        fields = {"k": 1, "l": 1, "seed": 0, "max_candidates": None, field: bad}
        with pytest.raises(ContractViolation, match=field):
            IndexParams(**fields)

    def test_index_params_store_numpy_integers_as_ints(self):
        params = IndexParams(k=np.uint8(200), l=np.int64(3), seed=np.uint64(2**64 - 1), max_candidates=np.int32(9))
        assert params == IndexParams(k=200, l=3, seed=2**64 - 1, max_candidates=9)
        assert all(type(v) is int for v in (params.k, params.l, params.seed, params.max_candidates))
        # a uint8 k would wrap k * l
        assert params.k * params.l == 600

    @pytest.mark.parametrize(
        "ids",
        [
            [1.9, 3.2, 4.0],
            np.array([1.0, 2.0, 3.0]),
            [1, 2, 2**70],
            [1, 2, -(2**63) - 1],
            np.array([1, 2, 2**63], dtype=np.uint64),
            [True, False, True],
            ["1", "2", "3"],
        ],
    )
    def test_ids_must_be_int64_integers(self, scheme, ids):
        with pytest.raises(ContractViolation, match="ids"):
            build(np.zeros((3, 2)), scheme, IndexParams(k=1, l=1, seed=0), ids=ids)

    def test_ids_span_int64(self, scheme):
        ids = [2**63 - 1, -(2**63), 0]
        for given in (ids, np.array(ids, dtype=np.int64), np.array([2**63 - 1, 5, 0], dtype=np.uint64)):
            index = build(np.zeros((3, 2)), scheme, IndexParams(k=1, l=1, seed=0), ids=given)
            assert index.ids.dtype == np.int64 and index.ids.tolist() == [int(v) for v in given]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, scheme, bad):
        pts = np.zeros((4, 2))
        pts[3, 1] = bad
        with pytest.raises(ContractViolation, match="finite"):
            build(pts, scheme, IndexParams(k=1, l=1, seed=0))

    def test_complex_points_rejected(self, scheme):
        # the float64 cast would keep only the real parts, with no more than a ComplexWarning
        pts = derive_rng(0, 9501).normal(size=(10, 2))
        for bad in (pts + 1j, pts.astype(np.complex64)):
            with pytest.raises(ContractViolation, match="points must be real"):
                build(bad, scheme, IndexParams(k=1, l=1, seed=0))

    def test_deterministic(self, scheme):
        _, a = small_index(scheme, seed=3)
        _, b = small_index(scheme, seed=3)
        for ta, tb in zip(a.tables, b.tables):
            assert np.array_equal(ta.fps, tb.fps)
            assert np.array_equal(ta.offsets, tb.offsets)
            assert np.array_equal(ta.positions, tb.positions)

    def test_tables_are_views_made_on_access(self, scheme, tmp_path, monkeypatch):
        table = FlatTables.table
        calls = []
        monkeypatch.setattr(FlatTables, "table", lambda flat, ell: calls.append(ell) or table(flat, ell))
        _, index = small_index(scheme, l=4)
        path = str(tmp_path / "idx.lplsh")
        save_index(index, path)
        loaded = load_index(path)
        assert calls == []
        for idx in (index, loaded):
            assert len(idx.tables) == 4
            for ell in range(4):
                got, want = idx.tables[ell], table(idx.flat, ell)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestQuery:
    def test_self_retrieval(self, scheme):
        pts, index = small_index(scheme, n=60, max_candidates=60)
        for i in range(0, 60, 7):
            got = index.query(pts[i])
            assert got.answer is not None
            assert got.answer[0] == i
            assert got.answer[1] == 0.0
            assert got.in_contract

    def test_miss_returns_none(self, scheme):
        _, index = small_index(scheme, n=40, d=6)
        got = index.query(np.full(6, 1e6))
        assert got.answer is None
        assert got.candidates_examined == 0
        assert got.in_contract is None
        assert got.tables_probed == index.params.l

    def test_budget_respected(self, scheme):
        pts, index = small_index(scheme, n=60)
        got = index.query(pts[0], max_candidates=3)
        assert got.candidates_examined <= 3

    def test_batch_matches_single(self, scheme):
        pts, index = small_index(scheme, n=50)
        qs = pts[:8] + 0.05
        batch = index.query_batch(qs)
        singles = [index.query(q) for q in qs]
        assert batch == singles

    def test_tie_breaks_to_smaller_id(self, scheme):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [30.0, 30.0]])
        index = build(pts, scheme, IndexParams(k=1, l=2, seed=1, max_candidates=10),
                      ids=np.array([7, 3, 1]))
        got = index.query(np.array([0.5, 0.5]))
        assert got.answer is not None
        assert got.answer[0] == 3
        assert got.answer[1] == 0.0

    @pytest.mark.parametrize("bad", [0, -3, 2**32, 2.5, 3.0, True])
    def test_bad_max_candidates_rejected(self, scheme, bad):
        pts, index = small_index(scheme, d=6)
        with pytest.raises(ContractViolation, match="max_candidates"):
            index.query_batch(pts[:2], max_candidates=bad)

    def test_dimension_mismatch(self, scheme):
        _, index = small_index(scheme, d=6)
        with pytest.raises(ContractViolation):
            index.query(np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_query_rejected(self, scheme, bad):
        pts, index = small_index(scheme, d=6)
        qs = pts[:2].copy()
        qs[1, 3] = bad
        with pytest.raises(ContractViolation, match="finite"):
            index.query_batch(qs)


    def test_complex_queries_rejected(self, scheme):
        pts, index = small_index(scheme, d=6)
        with pytest.raises(ContractViolation, match="queries must be real"):
            index.query_batch(pts[:2] + 1j)
        with pytest.raises(ContractViolation, match="queries must be real"):
            index.query(pts[0] + 0j)


class TestLinearScan:
    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            linear_scan_nn(np.empty((0, 3)), np.zeros(3), LpSpace(1.5, 3))

    @pytest.mark.parametrize(
        "ids,message",
        [
            (np.arange(50) * 1.5, "integers"),
            (np.arange(50)[:, None], "shape"),
            (np.arange(49), "shape"),
            (np.arange(50) // 2, "unique"),
        ],
        ids=["float", "column", "short", "repeated"],
    )
    def test_bad_ids_rejected(self, rng, ids, message):
        # build's rule: float ids were truncated (a query at point 3 got id 4, not 4.5)
        pts = rng.normal(size=(50, 3))
        with pytest.raises(ContractViolation, match=f"ids must .*{message}"):
            linear_scan_nn(pts, pts[3], LpSpace(1.5, 3), ids=ids)

    @pytest.mark.parametrize(
        "query,message",
        [
            (lambda pts: pts[:2], "shape"),
            (lambda pts: pts[0, :2], "shape"),
            (lambda pts: np.where(np.arange(3) == 1, np.nan, pts[0]), "finite"),
            (lambda pts: np.full(3, -np.inf), "finite"),
            (lambda pts: pts[0] + 1j, "real"),
        ],
        ids=["two-d", "short", "nan", "infinite", "complex"],
    )
    def test_bad_query_rejected(self, rng, query, message):
        # a NaN query returned (ids[0], nan); a 2-d one raised numpy's broadcasting error
        pts = rng.normal(size=(50, 3))
        with pytest.raises(ContractViolation, match=f"q must .*{message}"):
            linear_scan_nn(pts, query(pts), LpSpace(1.5, 3))

    def test_tie_to_smaller_id(self):
        pts = np.array([[1.0, 0.0], [1.0, 0.0]])
        got = linear_scan_nn(pts, np.array([1.0, 0.0]), LpSpace(1.5, 2), ids=np.array([5, 2]))
        assert got == (2, 0.0)

    def test_matches_double_loop(self, rng):
        space = LpSpace(1.5, 5)
        pts = rng.normal(size=(100, 5))
        for q in rng.normal(size=(5, 5)):
            best_id, best_dist = None, np.inf
            for i in range(100):
                dist = float(np.abs(pts[i] - q).__pow__(1.5).sum() ** (1 / 1.5))
                if dist < best_dist:
                    best_id, best_dist = i, dist
            got = linear_scan_nn(pts, q, space)
            assert got[0] == best_id
            assert got[1] == pytest.approx(best_dist, rel=1e-9)


class TestHashFunctions:
    def test_build_and_queries_sample_each_function_once(self, scheme, monkeypatch, tmp_path):
        # every function is drawn by one sample_stack call; record the seeds of each call
        calls = []
        sample_stack = lplsh.index.sample_stack

        def recorded(scheme, d, seeds):
            calls.append(list(seeds))
            return sample_stack(scheme, d, seeds)

        monkeypatch.setattr(lplsh.index, "sample_stack", recorded)
        pts, index = small_index(scheme, k=2, l=5)
        assert len(calls) == 1 and len(set(calls[0])) == 2 * 5
        index.query_batch(pts[:7])
        index.query(pts[0])
        assert len(calls) == 1
        path = tmp_path / "idx.lplsh"
        save_index(index, str(path))
        loaded = load_index(str(path))
        assert len(calls) == 1
        loaded.query_batch(pts[:7])
        loaded.query(pts[0])
        assert calls == [calls[0], calls[0]]

    def test_loaded_index_samples_the_built_functions(self, scheme, tmp_path):
        _, index = small_index(scheme, k=2, l=5)
        path = tmp_path / "idx.lplsh"
        save_index(index, str(path))
        loaded = load_index(str(path))
        built, sampled = index.functions(), loaded.functions()
        assert loaded.functions() is sampled
        assert built.projection.shape == (2 * 5 * scheme.t, 6)
        for want, got in ((built.projection, sampled.projection), (built.prefix, sampled.prefix)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert [(s.params, s.seed) for s in sampled.sets] == [(s.params, s.seed) for s in built.sets]

    def test_tuned_build_materialises_no_shift_chunk(self):
        points = derive_rng(0, 9502).normal(scale=2.0, size=(300, 16))
        index = build(points, tuned_scheme(2.0, 1.5, threshold_samples=10_000), IndexParams(k=3, l=5, seed=77))
        sets = index.functions().sets
        assert len(sets) == 15
        assert all(not lattices._chunks for lattices in sets)


class TestExtremeMagnitudes:
    """Projected unit-frame coordinates beyond 2**32 * w are refused, not hashed."""

    BOUND = r"beyond the bound 2\*\*32 \* w"

    def test_build_rejects_an_extreme_point(self, scheme):
        pts = derive_rng(0, 9503).normal(size=(20, 6))
        pts[7, 2] = 1e20
        with pytest.raises(ContractViolation, match=self.BOUND):
            build(pts, scheme, IndexParams(k=2, l=3, seed=7))

    def test_query_batch_rejects_an_extreme_query(self, scheme):
        _, index = small_index(scheme)
        queries = np.zeros((3, 6))
        queries[1, 0] = -1e25
        with pytest.raises(ContractViolation, match=self.BOUND):
            index.query_batch(queries)

    def test_projection_overflowing_to_nan_rejected(self, scheme):
        # finite coordinates whose projection terms overflow to +inf and -inf, which sum to NaN
        _, index = small_index(scheme)
        projection = index.functions().projection
        row = projection[np.argmax(np.minimum(projection.max(axis=1), -projection.min(axis=1)))]
        assert row.max() > 1.01 and row.min() < -1.01
        query = np.zeros(6)
        query[[row.argmax(), row.argmin()]] = 1.79e308 * scheme.r
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ContractViolation, match="reaches nan"):
                index.query(query)

    def test_bound_sits_at_two_to_the_32_w(self, scheme):
        _, index = small_index(scheme)
        direction = derive_rng(0, 9504).normal(size=6)
        peak = np.abs((direction / scheme.r) @ index.functions().projection.T).max()
        scale = 2.0**32 * scheme.w / peak
        assert index.query((1 - 1e-9) * scale * direction).candidates_examined >= 0
        with pytest.raises(ContractViolation, match=self.BOUND):
            index.query((1 + 1e-6) * scale * direction)

    def test_seeded_data_is_far_inside_the_bound(self, scheme):
        pts, index = small_index(scheme)
        peak = np.abs((pts / scheme.r) @ index.functions().projection.T).max()
        assert peak < 1e-6 * 2.0**32 * scheme.w


class TestPersistence:
    def test_roundtrip_preserves_queries(self, scheme, tmp_path):
        pts, index = small_index(scheme, n=80, d=6, seed=5)
        path = tmp_path / "idx.lplsh"
        save_index(index, str(path))
        loaded = load_index(str(path))
        assert loaded.scheme == index.scheme
        assert loaded.params == index.params
        assert np.array_equal(loaded.points, index.points)
        assert np.array_equal(loaded.ids, index.ids)
        rng = derive_rng(0, 9501)
        qs = rng.normal(size=(100, 6))
        assert loaded.query_batch(qs) == index.query_batch(qs)

    def test_replaced_scheme_roundtrips(self, scheme, tmp_path):
        # the file stores the values the index hashed with, so a loaded index answers alike
        moved = dataclasses.replace(scheme, r=2.5)
        pts, index = small_index(moved, n=80, d=6, seed=5)
        path = tmp_path / "idx.lplsh"
        save_index(index, str(path))
        loaded = load_index(str(path))
        assert loaded.scheme == moved
        qs = np.concatenate([pts[:20] + 0.1, derive_rng(0, 9502).normal(size=(20, 6)) * 3.0])
        assert np.array_equal(loaded._query_keys(qs), index._query_keys(qs))
        assert loaded.query_batch(qs) == index.query_batch(qs)

    def test_tables_are_views_of_the_flat_storage(self, scheme, tmp_path):
        _, index = small_index(scheme, n=80, l=3)
        path = tmp_path / "idx.lplsh"
        save_index(index, str(path))
        for idx in (index, load_index(str(path))):
            wholes = (idx.flat.fps, idx.flat.offsets, idx.flat.positions)
            for table in idx.tables:
                for got, whole, dtype in zip(table, wholes, (np.uint32, np.int64, np.uint16)):
                    assert got.dtype == dtype
                    assert np.shares_memory(got, whole)

    def test_rebuild_and_save_byte_identical(self, scheme, tmp_path):
        a_path, b_path = tmp_path / "a.lplsh", tmp_path / "b.lplsh"
        _, a = small_index(scheme, seed=11)
        _, b = small_index(scheme, seed=11)
        save_index(a, str(a_path))
        save_index(b, str(b_path))
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_corrupted_byte_rejected(self, scheme, tmp_path):
        _, index = small_index(scheme, n=20)
        path = tmp_path / "idx.lplsh"
        save_index(index, str(path))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="checksum"):
            load_index(str(path))

    def test_bad_magic_rejected(self, scheme, tmp_path):
        _, index = small_index(scheme, n=5)
        path = tmp_path / "idx.lplsh"
        save_index(index, str(path))
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_index(str(path))

    def test_truncation_rejected(self, scheme, tmp_path):
        path = tmp_path / "idx.lplsh"
        path.write_bytes(b"LPLSH\x01")
        with pytest.raises(FormatError):
            load_index(str(path))

    def test_trailing_bytes_rejected(self, scheme, tmp_path):
        _, index = small_index(scheme, n=5)
        path = tmp_path / "idx.lplsh"
        save_index(index, str(path))
        raw = path.read_bytes()
        body = raw[:-8] + b"\x00"
        path.write_bytes(body + struct.pack("<Q", crc64(body)))
        with pytest.raises(FormatError, match="trailing"):
            load_index(str(path))

    def test_empty_index_roundtrip(self, scheme, tmp_path):
        index = build(np.empty((0, 3)), scheme, IndexParams(k=1, l=1, seed=0))
        path = tmp_path / "empty.lplsh"
        save_index(index, str(path))
        loaded = load_index(str(path))
        assert loaded.n == 0
        assert loaded.query(np.zeros(3)).answer is None

    def test_unfit_u4_count_refused(self, scheme, tmp_path):
        # below 2**16 points the file's positions are u2, so a position past u4 is past u2 too
        _, index = small_index(scheme, n=10)
        index.flat = index.flat._replace(positions=index.flat.positions.astype(np.int64) + 2**32)
        with pytest.raises(ContractViolation, match="do not fit the index file's u2 field"):
            save_index(index, str(tmp_path / "idx.lplsh"))

    def test_loaded_arrays_are_aligned_read_only_views(self, scheme, tmp_path):
        pts, index = small_index(scheme, n=37, d=5, l=3)
        path = tmp_path / "idx.lplsh"
        save_index(index, str(path))
        loaded = load_index(str(path))
        arrays = (loaded.ids, loaded.points, loaded.flat.fps, loaded.flat.positions)
        for arr in arrays:
            assert arr.ctypes.data % 8 == 0 and arr.flags.aligned
            assert not arr.flags.writeable
        # every array is a view of the one buffer the file was read into
        base = loaded.ids.base
        assert all(np.shares_memory(arr, base) for arr in arrays)
        # no index path writes to the views: a write would raise on read-only memory
        qs = np.concatenate([pts[:10], derive_rng(0, 9505).normal(size=(10, 5))])
        assert loaded.query(qs[0]) == index.query(qs[0])
        assert loaded.query_batch(qs) == index.query_batch(qs)
        resaved = tmp_path / "again.lplsh"
        save_index(loaded, str(resaved))
        assert resaved.read_bytes() == path.read_bytes()

    # Header byte offsets: the magic, then every fixed field before the
    # profile code (after the saturated flag), before w and before d.
    PROFILE_AT = len(b"LPLSH") + struct.calcsize("<H3dIQIIQIdIdddQB")
    W_AT = len(b"LPLSH") + struct.calcsize("<H3dIQIIQI")
    D_AT = len(b"LPLSH") + struct.calcsize("<H3d")
    # and before r and before the threshold value; then where the fixed header ends, after the two widths
    R_AT = len(b"LPLSH") + struct.calcsize("<H2d")
    T_AT = len(b"LPLSH") + struct.calcsize("<H3dIQIIQIdIdddQBB3d")
    HEADER_END = len(b"LPLSH") + struct.calcsize("<H3dIQIIQIdIdddQBB3ddQQBBH")

    def _forge(self, scheme, tmp_path, patch):
        """Save a small index, patch its bytes, re-seal the checksum."""
        _, index = small_index(scheme, n=5)
        path = tmp_path / "idx.lplsh"
        save_index(index, str(path))
        body = bytearray(path.read_bytes()[:-8])
        patch(body)
        path.write_bytes(bytes(body) + struct.pack("<Q", crc64(bytes(body))))
        return str(path)

    def test_unknown_profile_code_rejected(self, scheme, tmp_path):
        def patch(body):
            body[self.PROFILE_AT] = 7

        with pytest.raises(FormatError, match="profile code 7"):
            load_index(self._forge(scheme, tmp_path, patch))

    @pytest.mark.parametrize("name", [b"dolta", b"d\xe9lta"])
    def test_bad_override_name_rejected(self, scheme, tmp_path, name):
        def patch(body):
            at = body.index(b"\x05delta")
            body[at + 1 : at + 6] = name

        with pytest.raises(FormatError, match="override name"):
            load_index(self._forge(scheme, tmp_path, patch))

    def test_bucket_position_beyond_points_rejected(self, scheme, tmp_path):
        _, index = small_index(scheme, n=5)

        def edit(ell, count, fps, bits, positions):
            if ell == index.params.l - 1:
                positions[-1] = 999
            return count, fps, bits, positions

        with pytest.raises(FormatError, match="position"):
            load_index(self._forge_tables(index, tmp_path, edit))

    def test_empty_bucket_rejected(self, scheme, tmp_path):
        _, index = small_index(scheme, n=5)

        def edit(ell, count, fps, bits, positions):
            if ell == index.params.l - 1:
                # a zero-size last bucket, with the largest fingerprint, starts at n: the first padding bit
                fps = np.append(fps, np.uint32(2**32 - 1))
                count += 1
                bits[5] = 1
            return count, fps, bits, positions

        with pytest.raises(FormatError, match="empty bucket"):
            load_index(self._forge_tables(index, tmp_path, edit))

    def test_set_padding_bit_rejected(self, scheme, tmp_path):
        _, index = small_index(scheme, n=5)

        def edit(ell, count, fps, bits, positions):
            if ell == 1:
                bits[7] = 1  # the row's last padding bit
            return count, fps, bits, positions

        with pytest.raises(FormatError, match="empty bucket"):
            load_index(self._forge_tables(index, tmp_path, edit))

    def test_set_header_padding_rejected(self, scheme, tmp_path):
        _, index = small_index(scheme, n=5)
        head = self.HEADER_END + sum(9 + len(name) for name, _ in index.scheme.overrides)
        assert head % 8  # the header needs padding to reach an 8-byte offset

        def patch(body):
            body[head + (-head % 8) - 1] = 0x80

        with pytest.raises(FormatError, match="nonzero padding after the header"):
            load_index(self._forge(scheme, tmp_path, patch))

    @pytest.mark.parametrize("change", ["cleared", "drop"])
    def test_entry_total_other_than_n_rejected(self, scheme, tmp_path, change):
        _, index = small_index(scheme, n=5)
        # no bucket starts at 0, so the table's buckets hold fewer than n entries
        lost = int(index.tables[-1].offsets[1])

        def edit(ell, count, fps, bits, positions):
            if ell == index.params.l - 1:
                bits[0] = 0
                if change == "drop":
                    # the first bucket's fingerprint is gone with its boundary, so the count still agrees
                    fps, count = fps[1:], count - 1
            return count, fps, bits, positions

        with pytest.raises(FormatError, match=f"entry total {5 - lost} differs from the point count 5"):
            load_index(self._forge_tables(index, tmp_path, edit))

    def _forge_tables(self, index, tmp_path, edit):
        """Save index, rewrite each table's (count, fps, bits, positions) with edit(ell, ...), re-seal the checksum.

        bits is the table's boundary bitmap row unpacked to one 0/1 byte per bit, padding included.
        The sections after the points are written anew, each behind zero padding to an 8-byte offset.
        """
        path = tmp_path / "idx.lplsh"
        save_index(index, str(path))
        body = path.read_bytes()[:-8]
        row = -(-index.n // 8)
        stored = np.ascontiguousarray(index.points, dtype="<f8").tobytes()
        body = bytearray(body[: body.index(stored) + len(stored)])
        tables = []
        for ell, table in enumerate(index.tables):
            bits = np.zeros(8 * row, dtype=np.uint8)
            bits[table.offsets[:-1]] = 1
            tables.append(edit(ell, table.fps.size, table.fps.copy(), bits, table.positions.copy()))
        counts, fps, bits, positions = zip(*tables)
        for section in (
            np.array(counts, dtype="<u8").tobytes(),
            b"".join(f.astype("<u4").tobytes() for f in fps),
            b"".join(pos.astype(f"<u{index.flat.positions.itemsize}").tobytes() for pos in positions),
            b"".join(np.packbits(b, bitorder="little").tobytes() for b in bits),
        ):
            body += bytes(-len(body) % 8) + section
        path.write_bytes(bytes(body) + struct.pack("<Q", crc64(bytes(body))))
        return str(path)

    def test_loaded_flat_tables_equal_built(self, scheme, tmp_path):
        _, index = small_index(scheme, n=80, l=4)
        flat = index.flat
        # fingerprints fall across some table boundary, which is no fault
        assert (flat.fps[flat.bounds[1:-1]] < flat.fps[flat.bounds[1:-1] - 1]).any()
        loaded = load_index(self._forge_tables(index, tmp_path, lambda ell, *arrays: arrays))
        for got, want in zip(loaded.flat, flat):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("moved", [False, True])
    def test_bucket_counts_disagree_rejected(self, scheme, tmp_path, moved):
        _, index = small_index(scheme, n=80, l=4)

        def edit(ell, count, fps, bits, positions):
            if ell == 1:
                count += 1
                if not moved:
                    # the extra count has a fingerprint, so the sections keep their sizes
                    fps = np.append(fps, np.uint32(2**32 - 1))
            if moved and ell == 2:
                # the count table 1 gained comes out of table 2, so only per-table counts differ from the bitmap
                count -= 1
            return count, fps, bits, positions

        with pytest.raises(FormatError, match="bucket counts disagree with entry total"):
            load_index(self._forge_tables(index, tmp_path, edit))

    @pytest.mark.parametrize("fault", ["swap", "repeat"])
    def test_fingerprints_out_of_order_rejected(self, scheme, tmp_path, fault):
        _, index = small_index(scheme, n=80, l=4)

        def edit(ell, count, fps, bits, positions):
            if ell == 2:
                fps[[3, 4]] = fps[[4, 3]] if fault == "swap" else fps[3]
            return count, fps, bits, positions

        with pytest.raises(FormatError, match="bucket fingerprints not strictly increasing"):
            load_index(self._forge_tables(index, tmp_path, edit))

    def test_duplicate_ids_rejected(self, scheme, tmp_path):
        def patch(body):
            # the ids 0..4 are stored as consecutive i8; give point 1 the id 0
            at = body.index(struct.pack("<5q", 0, 1, 2, 3, 4))
            body[at + 8 : at + 16] = struct.pack("<q", 0)

        with pytest.raises(FormatError, match="duplicate ids"):
            load_index(self._forge(scheme, tmp_path, patch))

    def test_invalid_header_value_is_format_error(self, scheme, tmp_path):
        def patch(body):
            body[self.W_AT : self.W_AT + 8] = struct.pack("<d", -1.0)

        with pytest.raises(FormatError, match="w must be > 0"):
            load_index(self._forge(scheme, tmp_path, patch))

    @pytest.mark.parametrize(("at", "message"), [("R_AT", "r must be > 0"), ("T_AT", "threshold must be > 0")])
    def test_non_finite_header_value_is_format_error(self, scheme, tmp_path, at, message):
        def patch(body):
            offset = getattr(self, at)
            body[offset : offset + 8] = struct.pack("<d", math.nan)

        with pytest.raises(FormatError, match=f"invalid header value: {message}"):
            load_index(self._forge(scheme, tmp_path, patch))

    def test_zero_dimension_is_format_error(self, scheme, tmp_path):
        pts, _ = small_index(scheme, n=5)
        stored = pts.astype("<f8").tobytes()

        def patch(body):
            # d = 0, and the points it no longer accounts for are cut out
            body[self.D_AT : self.D_AT + 4] = struct.pack("<I", 0)
            at = body.index(stored)
            del body[at : at + len(stored)]

        with pytest.raises(FormatError, match="invalid header value: d must be >= 1"):
            load_index(self._forge(scheme, tmp_path, patch))

    def test_file_size_accounting(self, scheme, tmp_path):
        _, index = small_index(scheme, n=37, d=4, l=3)
        path = tmp_path / "idx.lplsh"
        save_index(index, str(path))
        fixed = 5 + 2 + 24 + 20 + 8 + 4 + 46 + 24 + 24 + 2 + 2
        overrides = sum(9 + len(name) for name, _ in index.scheme.overrides)
        head = fixed + overrides + -(fixed + overrides) % 8
        payload = 8 * index.n + 8 * index.n * index.d
        # per table: a u8 bucket count, u4 fingerprints, u2 positions and a ceil(37/8) = 5 byte bitmap row;
        # the fingerprints and the positions are each followed by zero padding to an 8-byte offset
        fps = sum(4 * t.fps.size for t in index.tables)
        positions = sum(2 * t.positions.size for t in index.tables)
        tables = 8 * 3 + fps + -fps % 8 + positions + -positions % 8 + 5 * 3
        assert path.stat().st_size == head + payload + tables + 8

