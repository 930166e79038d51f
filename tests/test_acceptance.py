"""Acceptance criteria, one test per criterion, at the stated budgets.

C01-C08 and C11 are `lplsh verify` suites: each test runs its suite at
level full, seed 0 (lplsh.verify holds the criterion's code, bounds and
trial counts). Each test appends a PASS/FAIL line to the summary section
that conftest prints at the end of the run. Statistical gates use 3-sigma
slack (or the stated confidence level) at the stated sample sizes; all
randomness is seeded, so the suite is deterministic.
"""

import math
import time

import numpy as np

from lplsh import (
    IndexParams,
    Knobs,
    LpSpace,
    build,
    choose_k_l,
    compare_estimators,
    estimate_collision,
    generate_planted,
    linear_scan_nn,
    lp_norm,
    tuned_scheme,
)
from lplsh.scheme import derive_params
from lplsh.util import derive_rng
from lplsh.verify import SUITES

from conftest import ACCEPTANCE_LINES


def report(num: int, ok: bool, budget: float, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"C{num:02d} {status} {detail} [{elapsed:.1f}s/{budget:.0f}s]")


def check_suite(num: int, suite: str, budget: float) -> None:
    """Criterion `num` is verify's `suite` at full, seed 0, within `budget` seconds."""
    start = time.monotonic()
    passed, detail = SUITES[suite]("full", 0)
    elapsed = time.monotonic() - start
    report(num, passed and elapsed < budget, budget, elapsed, detail)
    assert passed, detail
    assert elapsed < budget


def test_c01_geometry_residuals():
    check_suite(1, "geometry_residuals", 30.0)


def test_c02_stability_law():
    check_suite(2, "stable_law", 60.0)


def test_c03_tail_shape():
    check_suite(3, "tail_bounds", 120.0)


def test_c04_covering():
    check_suite(4, "covering", 30.0)


def test_c05_disjointness():
    check_suite(5, "disjointness", 10.0)


def test_c06_concentration():
    check_suite(6, "concentration", 120.0)


def test_c07_collision_identities():
    check_suite(7, "collision_identities", 120.0)


def test_c08_sensitivity_and_rho_ordering():
    check_suite(8, "sensitivity", 600.0)


def test_c09_cross_estimator_agreement():
    budget = 300.0
    start = time.monotonic()
    rng = derive_rng(0, 9609)
    max_z = 0.0
    for _ in range(10):
        p = float(rng.choice([1.25, 1.5, 1.75, 2.0]))
        c = float(rng.uniform(1.5, 4.0))
        d = int(rng.choice([8, 16, 32]))
        dist = float(rng.uniform(0.5, 1.5))
        scheme = derive_params(
            c, p, profile="remark", knobs=Knobs(kappa_w=1.8),
            overrides={"t": 3.0, "delta": 3.0, "delta_fail": 1e-2},
            threshold_samples=100_000,
        )
        got = compare_estimators(
            scheme, d=d, distance=dist, trials_lattice=4_000, trials_geom=40_000, rng=rng
        )
        max_z = max(max_z, got.z_score)
    elapsed = time.monotonic() - start
    ok = max_z <= 3.0 and elapsed < budget
    report(9, ok, budget, elapsed,
           f"lattice vs ball-overlap max z {max_z:.2f} over 10 random configurations")
    assert max_z <= 3.0
    assert elapsed < budget


def test_c10_end_to_end_recall():
    build_budget, query_budget = 300.0, 60.0
    inst = generate_planted(n=10_000, d=128, planted_count=100, p=1.5, r=1.0, c=2.0, seed=10)
    scheme = tuned_scheme(2.0, 1.5)

    pilot_rng = derive_rng(10, 41)
    near = estimate_collision(scheme, 128, scheme.r, 4_000, pilot_rng)
    far = estimate_collision(scheme, 128, scheme.c * scheme.r, 4_000, pilot_rng)
    shape = choose_k_l(10_000, near.p_hat, far.p_hat, safety=3.0)

    start = time.monotonic()
    index = build(inst.points, scheme, IndexParams(k=shape.k, l=shape.l, seed=10))
    build_s = time.monotonic() - start

    start = time.monotonic()
    results = index.query_batch(inst.queries)
    query_s = time.monotonic() - start

    success = sum(1 for r in results if r.answer is not None and r.in_contract) / len(results)
    bound = 1.0 - (1.0 - near.p_hat**shape.k) ** shape.l
    slack = 3.0 * math.sqrt(bound * (1.0 - bound) / len(results))

    space = LpSpace(1.5, 128)
    exact = True
    for qi, res in enumerate(results):
        if res.answer is None:
            continue
        aid, dist = res.answer
        true_dist = float(np.asarray(lp_norm(inst.points[aid] - inst.queries[qi], space)))
        nn_id, nn_dist = linear_scan_nn(inst.points, inst.queries[qi], space)
        if abs(dist - true_dist) > 1e-12 * max(1.0, true_dist) or dist < nn_dist - 1e-12:
            exact = False
            break

    ok = (success >= 0.9 and success >= bound - slack and exact
          and build_s < build_budget and query_s < query_budget)
    report(10, ok, build_budget + query_budget, build_s + query_s,
           f"recall {success:.2f} >= 0.9 and >= {bound - slack:.3f} "
           f"(k={shape.k}, L={shape.l}, p1_hat={near.p_hat:.3f}); distances exact; "
           f"build {build_s:.0f}s/{build_budget:.0f}s, query {query_s:.1f}s/{query_budget:.0f}s")
    assert success >= 0.9
    assert success >= bound - slack
    assert exact
    assert build_s < build_budget
    assert query_s < query_budget


def test_c11_determinism_and_persistence():
    check_suite(11, "index_roundtrip", 120.0)
