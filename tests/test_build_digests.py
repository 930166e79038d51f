"""Golden digests: the exact bytes a seeded build saves.

Each case builds a small index from fixed data and seeds and compares the
sha256 of its saved file with a digest recorded before the lattice scan
worked one coordinate at a time. Any change to projection, scan, key or
bucket arithmetic that moves a single hash value moves the digest. The
digests were recorded with numpy 2.4 (OpenBLAS) on x86-64; another BLAS
may round the projection matmul differently.
"""

import hashlib

import pytest

from lplsh import IndexParams, build, derive_params, save_index, tuned_scheme
from lplsh.util import derive_rng

from conftest import cheap_scheme

# (case, scheme factory, k, l, sha256 of the saved index)
CASES = [
    # C10's scheme: t=3, first hits near 9 shifts
    (
        "tuned",
        lambda: tuned_scheme(2.0, 1.5, threshold_samples=10_000),
        3,
        5,
        "0b10facdbf4e4f1418fd6ebbdce2bc4dce22cf7ebb5a17e49db5cdf1c1c6dcf3",
    ),
    # main profile: t=6, saturated U, first hits near 2900 shifts
    (
        "main-c3",
        lambda: derive_params(3.0, 1.5, threshold_samples=10_000),
        2,
        3,
        "d6be8aa07f0f582ea1a0b6c209997534b7b134370e1a6d69f63bb8c667159703",
    ),
    # t=8, where the ball test's sum switches to numpy's pairwise order; 85% of rows fall back
    (
        "override-t8",
        lambda: derive_params(3.0, 1.5, overrides={"t": 8.0, "delta": 3.0, "u": 2000.0}, threshold_samples=10_000),
        2,
        3,
        "2cd878d8b8eb05cc396d18758658ab8cfabeaa898ab6c68a8b9cd2e8c6f7c9e8",
    ),
    # U=40 at delta=12: most rows fall back
    ("cheap-u40", lambda: cheap_scheme(delta=12, u=40), 3, 5, "d0b2d780ae3745691458acdcb9edc0aa7b93c539aef099e849a26c651600e979"),
]


@pytest.mark.parametrize("case,make_scheme,k,l,digest", CASES, ids=[c[0] for c in CASES])
def test_saved_build_matches_golden_digest(case, make_scheme, k, l, digest, tmp_path):
    points = derive_rng(0, 9401).normal(scale=2.0, size=(300, 16))
    index = build(points, make_scheme(), IndexParams(k=k, l=l, seed=77))
    path = tmp_path / "index.lplsh"
    save_index(index, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
