"""Golden digests: the exact tables a seeded build holds and the exact bytes it saves.

Each case builds a small index from fixed data and seeds. The table digest
is the sha256 of its in-memory tables (fingerprints, offsets, and positions
as int64), recorded under format v1, before the index file changed to v2;
it holds for the built index and for the index loaded back from its file,
so it pins the hash values and bucket layout across format versions. The
file digest is the sha256 of the saved v2 file. Any change to projection,
scan, key or bucket arithmetic that moves a single hash value moves both.
The digests were recorded with numpy 2.4 (OpenBLAS) on x86-64; another BLAS
may round the projection matmul differently.
"""

import hashlib

import numpy as np
import pytest

from lplsh import IndexParams, build, derive_params, load_index, save_index, tuned_scheme
from lplsh.util import derive_rng

from conftest import cheap_scheme

# (case, scheme factory, k, l, sha256 of the in-memory tables, sha256 of the saved index)
CASES = [
    # C10's scheme: t=3, first hits near 9 shifts
    (
        "tuned",
        lambda: tuned_scheme(2.0, 1.5, threshold_samples=10_000),
        3,
        5,
        "4dbe7183813ac15970ce62e71bded18250645821a2273e5a8c29bd2d98d7b6e9",
        "dcb2dfdacb905a68dc09e456e2f96b1bd30ead4106bc04a79f92595429f75aa5",
    ),
    # main profile: t=6, saturated U, first hits near 2900 shifts
    (
        "main-c3",
        lambda: derive_params(3.0, 1.5, threshold_samples=10_000),
        2,
        3,
        "522aefc4f2a376a088d00e7cd2b51ab0cc7576a4db32898e002f71ee7750ddba",
        "3189d316ba4daaa87b1cc5cc1437062ba04c1902bf0c7c4394fb637b0b3927dd",
    ),
    # t=8, where the ball test's sum switches to numpy's pairwise order; 85% of rows fall back
    (
        "override-t8",
        lambda: derive_params(3.0, 1.5, overrides={"t": 8.0, "delta": 3.0, "u": 2000.0}, threshold_samples=10_000),
        2,
        3,
        "b682e0117207c3f085e46442259576901807aca100c030164d0f32764b2f33a6",
        "5c53686c7ac03808a2f2df7906a67e7818e6ba395c632f682f24767e83310e95",
    ),
    # U=40 at delta=12: most rows fall back
    (
        "cheap-u40",
        lambda: cheap_scheme(delta=12, u=40),
        3,
        5,
        "7ace3d96d290beede2d8ae95c2b3197f563c24ff231fcbeda82611444cf26b65",
        "340cddd906375584b6988688b7a16488526d7685aa7006fdc5a835fb2184d0de",
    ),
]


def table_digest(index) -> str:
    """sha256 of an index's tables: fingerprints, offsets, then positions, each as little-endian int64."""
    h = hashlib.sha256()
    for arr in (index.flat.fps, index.flat.offsets, index.flat.positions):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case,make_scheme,k,l,tables,digest", CASES, ids=[c[0] for c in CASES])
def test_saved_build_matches_golden_digest(case, make_scheme, k, l, tables, digest, tmp_path):
    points = derive_rng(0, 9401).normal(scale=2.0, size=(300, 16))
    index = build(points, make_scheme(), IndexParams(k=k, l=l, seed=77))
    path = tmp_path / "index.lplsh"
    save_index(index, str(path))
    assert table_digest(index) == tables
    assert table_digest(load_index(str(path))) == tables
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
