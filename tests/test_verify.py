"""The `lplsh verify` suites: their names in order, and the full level of
the eight that no acceptance criterion runs (tests/test_acceptance.py runs
the other nine at full)."""

import pytest

from lplsh.verify import SUITES


def test_suite_names_and_order():
    assert list(SUITES) == [
        "geometry_residuals",
        "norm_properties",
        "stable_law",
        "sampler_determinism",
        "truncated_moment_monotone",
        "tail_bounds",
        "threshold_cache",
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
        "threshold_cache",
        "covering_monotone",
        "locate_bruteforce",
        "translation_equivariance",
        "scheme_determinism",
    ],
)
def test_full_level_passes(name):
    passed, detail = SUITES[name]("full", 0)
    assert passed, detail
