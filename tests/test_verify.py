"""The `lplsh verify` suites: their names in order, and the full level of
the eight that no acceptance criterion runs (tests/test_acceptance.py runs
the other nine at full)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lplsh.verify import SUITES

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_leaves_scipy_unloaded():
    # only the stable-law suite needs scipy, and it imports it itself
    code = "import sys, lplsh; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_suite_names_and_order():
    assert list(SUITES) == [
        "geometry_residuals",
        "norm_properties",
        "stable_law",
        "sampler_determinism",
        "truncated_moment_monotone",
        "tail_bounds",
        "threshold",
        "covering",
        "covering_monotone",
        "disjointness",
        "locate_bruteforce",
        "translation_equivariance",
        "concentration",
        "collision_identities",
        "scheme_determinism",
        "sensitivity",
        "index_roundtrip",
    ]


@pytest.mark.parametrize(
    "name",
    [
        "norm_properties",
        "sampler_determinism",
        "truncated_moment_monotone",
        "threshold",
        "covering_monotone",
        "locate_bruteforce",
        "translation_equivariance",
        "scheme_determinism",
    ],
)
def test_full_level_passes(name):
    passed, detail = SUITES[name]("full", 0)
    assert passed, detail
