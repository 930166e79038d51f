"""Golden digests: the exact keys, tables and file bytes of a seeded build, and its answers against format v2's.

Each case builds a small index from fixed data and seeds. The key digest
is the sha256 of the (u, coords) key rows `_key_rows` hashes the points
to, recorded under format v2 (commit f7b823a) and unchanged since: format
v3 changed only how keys are folded and stored, not a single hash value.
The table digest is the sha256 of the in-memory tables (fingerprints,
offsets, and positions as int64); it holds for the built index and for the
index loaded back from its file. The file digest is the sha256 of the
saved v3 file. Any change to projection, scan, key or bucket arithmetic
that moves a single hash value moves all three.

`v2_answers.json` holds, per case, the answer (id, distance) or null that
format v2's index gave each of 80 seeded queries. A v3 answer must be the
same, or a strictly closer real point: a 32-bit fingerprint tie merges two
buckets, which adds candidates. (Under a binding candidate budget an added
candidate could also push out a nearer one; these builds of 300 points
meet no 32-bit tie.)

The digests were recorded with numpy 2.4 (OpenBLAS) on x86-64; another BLAS
may round the projection matmul differently.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from lplsh import IndexParams, build, derive_params, load_index, lp_norm, save_index, tuned_scheme
from lplsh.index import _key_rows
from lplsh.scheme import scale_to_unit
from lplsh.util import derive_rng

from conftest import cheap_scheme

# (case, scheme factory, k, l, sha256 of the key rows, of the in-memory tables, of the saved index)
CASES = [
    # C10's scheme: t=3, first hits near 9 shifts
    (
        "tuned",
        lambda: tuned_scheme(2.0, 1.5, threshold_samples=10_000),
        3,
        5,
        "645310d9837b40dbefcea22a864321b656cb524897368a616de9b8e207f0fd1c",
        "d0efdfb21ac4266811f82f4a8f2201187311f11552b184598d018d11646425ce",
        "bae6ecdb77997c93e770baad658a64e6b7e2d67c5461d8a12ff08ae3bef3b2fd",
    ),
    # main profile: t=6, saturated U, first hits near 2900 shifts
    (
        "main-c3",
        lambda: derive_params(3.0, 1.5, threshold_samples=10_000),
        2,
        3,
        "077da9502b1ba83fef2a0d72ad14ab0f8f7b774124ca18a600179c3a0685bcc3",
        "088351a0a39874e685d5e06821c17070d4a9bcab11a965b3abc24426aa03f039",
        "f11dbc34d6a7ebc1ab5f78f887e6a0f3964f557b888e5d8a7da3e7e5ee3726e5",
    ),
    # t=8, where the ball test's sum switches to numpy's pairwise order; 85% of rows fall back
    (
        "override-t8",
        lambda: derive_params(3.0, 1.5, overrides={"t": 8.0, "delta": 3.0, "u": 2000.0}, threshold_samples=10_000),
        2,
        3,
        "df0f9148e1e78a06f082fdb1d67d2518c0adb5b2344c665c65dc059f139734cc",
        "a96442fe9f16d67e0ea2ebc87043777795185c625219bb4d1d7ae13aefe1b205",
        "e1a789260e60bc4632a4a4f8b6a99e03fdb9dc6a76ea9179e4fbd0cb66f7778a",
    ),
    # U=40 at delta=12: most rows fall back
    (
        "cheap-u40",
        lambda: cheap_scheme(delta=12, u=40),
        3,
        5,
        "cd81438afbd22c43c1d0318248df0752edd66f915b8e5aee5f595358211bce3c",
        "3d668e2569073bf033faa93ea2b69081a0bd01f6ccdd9075fb8082bab4babe8e",
        "de48cc0999de62bc128845124e4182ab0284abda44e47330fa249fa8859f329f",
    ),
]
IDS = [c[0] for c in CASES]


def golden_points() -> np.ndarray:
    return derive_rng(0, 9401).normal(scale=2.0, size=(300, 16))


def golden_queries(points: np.ndarray) -> np.ndarray:
    """40 queries close to a point, 20 farther off, 20 anywhere."""
    rng = derive_rng(0, 9402)
    near = points[rng.integers(0, 300, size=40)] + rng.normal(scale=0.05, size=(40, 16))
    mid = points[rng.integers(0, 300, size=20)] + rng.normal(scale=0.5, size=(20, 16))
    far = rng.normal(scale=2.0, size=(20, 16))
    return np.vstack([near, mid, far])


def digest(*arrays: np.ndarray) -> str:
    """sha256 of the arrays, each as little-endian int64."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


def table_digest(index) -> str:
    """sha256 of an index's tables: fingerprints, offsets, then positions."""
    return digest(index.flat.fps, index.flat.offsets, index.flat.positions)


@pytest.mark.parametrize("case,make_scheme,k,l,keys,tables,file_digest", CASES, ids=IDS)
def test_saved_build_matches_golden_digest(case, make_scheme, k, l, keys, tables, file_digest, tmp_path):
    points = golden_points()
    scheme = make_scheme()
    index = build(points, scheme, IndexParams(k=k, l=l, seed=77))
    path = tmp_path / "index.lplsh"
    save_index(index, str(path))
    rows = _key_rows(index.functions(), scale_to_unit(points, scheme.r), range(l), k, scheme.space())
    assert digest(rows) == keys
    assert table_digest(index) == tables
    assert table_digest(load_index(str(path))) == tables
    assert hashlib.sha256(path.read_bytes()).hexdigest() == file_digest


@pytest.mark.parametrize("case,make_scheme,k,l", [c[:4] for c in CASES], ids=IDS)
def test_answers_match_format_v2_or_are_closer(case, make_scheme, k, l):
    points = golden_points()
    queries = golden_queries(points)
    index = build(points, make_scheme(), IndexParams(k=k, l=l, seed=77))
    recorded = json.loads((Path(__file__).parent / "v2_answers.json").read_text())[case]
    assert len(recorded) == queries.shape[0]
    for q, got, was in zip(queries, index.query_batch(queries), recorded):
        if got.answer == (None if was is None else tuple(was)):
            continue
        assert got.answer is not None
        answer_id, dist = got.answer
        assert was is None or dist < was[1]
        assert dist == float(lp_norm(points[answer_id] - q, index.space()))
