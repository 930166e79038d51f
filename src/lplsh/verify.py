"""Runnable property suites: every module invariant as a pass/fail check.

quick: trimmed trial counts, target well under a minute.
full: acceptance scale. Nine suites are the only definition of acceptance
criteria C01-C08 and C11 (tests/test_acceptance.py runs them at full, seed
0); suites that cost under a second at full run the same counts at quick.

Each suite returns (passed, detail) where detail is a flat key=value string,
so the CLI output is grep-able.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import collisions as clab
from .geometry import (
    LpSpace,
    ball_volume_ratio,
    convexity_residual,
    lp_norm,
    smoothness_residual,
)
from .index import IndexParams, build, load_index, save_index
from .lattice import (
    LatticeParams,
    ShiftedLatticeSet,
    compute_num_shifts,
    covering_fraction,
    hash_batch,
    locate,
)
from .scheme import PROFILE_MAIN, Knobs, derive_params, sample_hash
from .stable import (
    StableParams,
    compute_threshold,
    fit_tail_constant,
    sample_stable,
    tail_probability_bounds,
    truncated_moment,
    validate_concentration,
)
from .util import derive_rng


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _residual_suite(level: str, seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed, 9601)
    n = 100_000 if level == "full" else 10_000
    worst = math.inf
    for p, d in itertools.product((1.25, 1.5, 1.75, 2.0), (2, 10, 100)):
        space = LpSpace(p, d)
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(n, d))
        worst = min(
            worst,
            float(np.min(smoothness_residual(x, y, space))),
            float(np.min(convexity_residual(x, y, space))),
        )
    return worst >= -1e-9, f"residual_floor={worst:.3e} grids=12 pairs={n}"


def _norm_suite(level: str, seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed, 102)
    n = 20_000 if level == "full" else 5_000
    worst_tri = -np.inf
    worst_hom = 0.0
    for p in (1.25, 1.5, 2.0):
        space = LpSpace(p, 8)
        x = rng.normal(size=(n, 8))
        y = rng.normal(size=(n, 8))
        tri = lp_norm(x + y, space) - lp_norm(x, space) - lp_norm(y, space)
        worst_tri = max(worst_tri, float(np.max(tri)))
        alpha = rng.uniform(-3, 3, size=n)
        hom = np.abs(lp_norm(alpha[:, None] * x, space) - np.abs(alpha) * lp_norm(x, space))
        worst_hom = max(worst_hom, float(np.max(hom / np.maximum(lp_norm(x, space), 1e-300))))
    vol_ok = all(
        abs(ball_volume_ratio(a, t) * ball_volume_ratio(1.0 / a, t) - 1.0) < 1e-12
        for a in (0.5, 1.0, 2.0, 3.7)
        for t in (1, 3, 7)
    )
    ok = worst_tri <= 1e-12 and worst_hom <= 1e-12 and vol_ok
    return ok, f"max_triangle_violation={worst_tri:.3e} max_homogeneity_err={worst_hom:.3e} volume_identity={int(vol_ok)}"


def _stable_law_suite(level: str, seed: int) -> tuple[bool, str]:
    # the suite is scipy's only user; importing it here keeps `import lplsh` light
    from scipy import stats

    rng = derive_rng(seed, 9602)
    n = 100_000 if level == "full" else 20_000
    d = 32
    min_pvalue = 1.0
    for p in (1.2, 1.5, 1.8):
        x = rng.normal(size=d)
        norm = float(np.power(np.abs(x), p).sum() ** (1.0 / p))
        a = sample_stable(StableParams(p), rng, size=(n, d))
        proj = a @ x
        ref = norm * sample_stable(StableParams(p), rng, size=n)
        min_pvalue = min(min_pvalue, float(stats.ks_2samp(proj, ref).pvalue))
    # the variance check keeps its 10^6 draws at both levels: its 0.02
    # tolerance is 7 standard errors there
    var = float(np.var(sample_stable(StableParams(2.0), rng, size=1_000_000)))
    ok = min_pvalue >= 0.01 and abs(var - 2.0) <= 0.02
    return ok, f"min_ks_pvalue={min_pvalue:.4f} gauss_variance={var:.4f} draws={n}"


def _sampler_determinism_suite(level: str, seed: int) -> tuple[bool, str]:
    params = StableParams(1.5)
    a = sample_stable(params, derive_rng(seed, 104), size=1000)
    b = sample_stable(params, derive_rng(seed, 104), size=1000)
    ok = bool(np.array_equal(a, b))
    return ok, f"identical_streams={int(ok)}"


def _moment_monotone_suite(level: str, seed: int) -> tuple[bool, str]:
    params = StableParams(1.5)
    n = 200_000 if level == "quick" else 1_000_000
    values = []
    for m in (1.0, 2.0, 4.0, 8.0, 16.0):
        est = truncated_moment(params, m, order=1, n_samples=n, rng=derive_rng(seed, 105))
        values.append(est.value)
    diffs = np.diff(values)
    ok = bool((diffs >= 0).all())
    return ok, "moments=" + ",".join(f"{v:.4f}" for v in values)


def _tail_suite(level: str, seed: int) -> tuple[bool, str]:
    # 10^7 samples at both levels: at the fit's 10^6 minimum, three standard
    # errors of the count at M = 100 exceed the 15% flatness gate
    fit = fit_tail_constant(StableParams(1.5), 10_000_000, derive_rng(seed, 9603))
    lower, upper = tail_probability_bounds(fit.grid_m, StableParams(1.5), fit.constants)
    sandwich = bool(np.all(lower <= fit.tail_prob) and np.all(fit.tail_prob <= upper))
    ok = (not fit.constants.degenerate) and fit.flatness <= 0.15 and sandwich
    return ok, (
        f"flatness={fit.flatness:.4f} a_hat={fit.constants.a_hat:.4f} b_hat={fit.constants.b_hat:.4f} "
        f"sandwich_ok={int(sandwich)} grid_points={fit.grid_m.size}"
    )


def _threshold_cache_suite(level: str, seed: int) -> tuple[bool, str]:
    params = StableParams(1.5)
    n = 200_000
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "thresholds.jsonl")
        from .stable import ThresholdCache

        cache = ThresholdCache(path)
        t1 = compute_threshold(8, 0.3, params, n_samples=n, seed=seed, cache=cache)
        cache2 = ThresholdCache(path)
        t2 = compute_threshold(8, 0.3, params, n_samples=n, seed=seed, cache=cache2)
        ok = t1.value == t2.value and t1.value > 0
    detail = f"T={t1.value:.6f} cache_replay={int(ok)}"
    if level == "full":
        # quadrature value for T(t=64, eps=0.25) from scripts/pin_oracles.py;
        # 0.1 is ~6 sigma at 10^7 samples
        t_pin = compute_threshold(64, 0.25, params, n_samples=10_000_000, seed=0)
        ok = ok and abs(t_pin.value - 49.983866) <= 0.1
        detail += f" T64_oracle_delta={t_pin.value - 49.983866:+.4f}"
    return ok, detail


def _covering_suite(level: str, seed: int) -> tuple[bool, str]:
    n = 10_000
    count = compute_num_shifts(2, 1.5, 4.0, 0.05)
    params = LatticeParams(w=1.0, t=2, num_shifts=count.u, delta_fail=0.05, saturated=count.saturated)
    covered = covering_fraction(ShiftedLatticeSet(params, seed + 1), LpSpace(1.5, 2), n, derive_rng(seed, 9604))
    uncovered = 1.0 - covered
    bound = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / n)
    single = LatticeParams(w=1.0, t=1, num_shifts=1)
    frac1 = covering_fraction(ShiftedLatticeSet(single, seed + 2), LpSpace(1.5, 1), n, derive_rng(seed, 9614))
    ok = uncovered <= bound and abs(frac1 - 0.5) <= 3.0 * math.sqrt(0.25 / n)
    return ok, f"U={count.u} uncovered={uncovered:.5f} bound={bound:.5f} single_shift={frac1:.4f}"


def _covering_monotone_suite(level: str, seed: int) -> tuple[bool, str]:
    p = 1.5
    trials = 4_000 if level == "full" else 1_500
    space = LpSpace(p, 2)
    rng = derive_rng(seed, 109)
    pts = rng.uniform(0.0, 4.0, size=(trials, 2))
    fracs = []
    for u in (1, 4, 16, 64):
        params = LatticeParams(w=1.0, t=2, num_shifts=u)
        lattices = ShiftedLatticeSet(params, seed)
        fracs.append(covering_fraction(lattices, space, trials, rng, points=pts))
    diffs = np.diff(fracs)
    ok = bool((diffs >= 0).all())
    return ok, "fractions=" + ",".join(f"{f:.4f}" for f in fracs)


def _disjointness_suite(level: str, seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed, 9605)
    n = 10_000 if level == "full" else 2_000
    violations = 0
    for t in (1, 2, 3, 4):
        params = LatticeParams(w=1.0, t=t, num_shifts=5)
        lattices = ShiftedLatticeSet(params, seed + t)
        spacing = params.spacing
        pts = rng.uniform(-2.0 * spacing, 2.0 * spacing, size=(n, t))
        offsets = np.array(list(itertools.product((-1, 0, 1), repeat=t)), dtype=np.float64)
        for u in range(1, 6):
            rel = pts - lattices.shifts[u - 1][None, :]
            base = np.rint(rel / spacing)
            centers = (base[:, None, :] + offsets[None, :, :]) * spacing
            inside = (np.abs(rel[:, None, :] - centers) ** 1.5).sum(axis=2) <= 1.0
            violations += int((inside.sum(axis=1) > 1).sum())
    return violations == 0, f"violations={violations} points={n} ts=1,2,3,4 shifts=5"


def _locate_suite(level: str, seed: int) -> tuple[bool, str]:
    p = 1.5
    n = 10_000 if level == "full" else 2_000
    t = 3
    params = LatticeParams(w=1.3, t=t, num_shifts=5)
    lattices = ShiftedLatticeSet(params, seed)
    space = LpSpace(p, t)
    rng = derive_rng(seed, 111)
    pts = rng.uniform(-10.0, 10.0, size=(n, t))
    shifts = lattices.shifts
    spacing = params.spacing
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=t)), dtype=np.float64)
    mismatches = 0
    for u in range(1, params.num_shifts + 1):
        s = shifts[u - 1]
        for i in range(n):
            got = locate(pts[i], u, lattices, space)
            cand = np.rint((pts[i] - s) / spacing) + offsets
            centers = cand * spacing + s
            inside = (np.abs(pts[i][None, :] - centers) ** p).sum(axis=1) <= params.w**p
            hits = cand[inside]
            want = None if hits.shape[0] == 0 else hits[0].astype(np.int64)
            if (got is None) != (want is None):
                mismatches += 1
            elif got is not None and not np.array_equal(got, np.asarray(want)):
                mismatches += 1
    ok = mismatches == 0
    return ok, f"mismatches={mismatches} checked={n * params.num_shifts}"


def _equivariance_suite(level: str, seed: int) -> tuple[bool, str]:
    p = 1.5
    t = 3
    n = 5_000 if level == "full" else 1_500
    params = LatticeParams(w=1.0, t=t, num_shifts=40)
    lattices = ShiftedLatticeSet(params, seed)
    space = LpSpace(p, t)
    rng = derive_rng(seed, 112)
    pts = rng.uniform(-8.0, 8.0, size=(n, t))
    k = rng.integers(-3, 4, size=(n, t)).astype(np.float64)
    u0, a0, _ = hash_batch(pts, [lattices], space)
    u1, a1, _ = hash_batch(pts + params.spacing * k, [lattices], space)
    same_u = u0 == u1
    hashed = u0 > 0
    coords_ok = (a1[hashed] == a0[hashed] + k[hashed].astype(np.int64)).all()
    ok = bool(same_u.all() and coords_ok)
    return ok, f"u_equal={int(same_u.all())} coords_shifted={int(bool(coords_ok))} n={n}"


def _concentration_suite(level: str, seed: int) -> tuple[bool, str]:
    params = StableParams(1.5)
    trials = 1_000
    n_thresh = 2_000_000

    def eps_for(t: int) -> float:
        return math.log(math.log(t)) / math.log(t)

    eps0 = eps_for(64)
    thr0 = compute_threshold(64, eps0, params, n_samples=n_thresh, seed=seed)
    high = validate_concentration(64, eps0, params, thr0, trials, derive_rng(seed, 9606))
    bound = 0.5 + 3.0 * math.sqrt(0.25 / trials)
    lows = []
    for t in (16, 64, 256):
        eps = eps_for(t)
        thr = compute_threshold(t, eps, params, n_samples=n_thresh, seed=seed)
        lows.append(validate_concentration(t, eps, params, thr, trials, derive_rng(seed, 9616, t)).rate_low)
    mono = lows[0] >= lows[1] >= lows[2]
    ok = high.rate_high <= bound and mono
    return ok, (
        f"rate_high={high.rate_high:.4f} bound={bound:.4f} "
        f"low_rates={','.join(f'{v:.4f}' for v in lows)} monotone={int(mono)}"
    )


def _collision_identity_suite(level: str, seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed, 9607)
    scheme = clab.tuned_scheme(2.0, 1.5, threshold_samples=10_000)
    sure = clab.estimate_collision(scheme, d=16, distance=0.0, trials=2_000, rng=rng)
    # 1-d overlap: two radius-w intervals at distance s intersect in 2w - s
    # and cover 2w + s, so the volume ratio is (2w - s)/(2w + s)
    space1 = LpSpace(1.5, 1)
    max_z_closed = 0.0
    w = 1.0
    for dist in (0.25, 0.5, 1.0, 1.5, 1.9):
        got = clab.geometric_collision(np.zeros(1), np.array([dist]), w, space1, 40_000, rng)
        expected = (2.0 * w - dist) / (2.0 * w + dist)
        max_z_closed = max(max_z_closed, abs(got.value - expected) / got.std_error)
    max_z_methods = 0.0
    for t in (1, 2, 3):
        space = LpSpace(1.5, t)
        y = np.zeros(t)
        y[0] = 1.0
        a = clab.geometric_collision(np.zeros(t), y, 1.2, space, 40_000, rng, method="q_form")
        b = clab.geometric_collision(np.zeros(t), y, 1.2, space, 40_000, rng, method="union")
        max_z_methods = max(max_z_methods, abs(a.value - b.value) / math.hypot(a.std_error, b.std_error))
    ok = sure.p_hat == 1.0 and max_z_closed <= 3.0 and max_z_methods <= 3.0
    return ok, f"p_at_zero={sure.p_hat:.1f} closed_form_maxz={max_z_closed:.2f} estimator_maxz={max_z_methods:.2f}"


def _scheme_determinism_suite(level: str, seed: int) -> tuple[bool, str]:
    scheme = derive_params(3.0, 1.5, profile=PROFILE_MAIN, knobs=Knobs(), threshold_samples=200_000, threshold_seed=seed)
    pinned = (
        abs(scheme.w - 3.0 * np.log(3.0)) < 1e-12
        and scheme.t == 6
        and abs(scheme.epsilon - np.log(np.log(6.0)) / np.log(6.0)) < 1e-12
    )
    h1 = sample_hash(scheme, 24, seed=seed)
    h2 = sample_hash(scheme, 24, seed=seed)
    x = derive_rng(seed, 120).normal(size=24)
    u1, a1, _ = hash_batch(h1.project(x)[None], [h1.lattices], scheme.space())
    u2, a2, _ = hash_batch(h2.project(x)[None], [h2.lattices], scheme.space())
    same = np.array_equal(h1.projection, h2.projection) and np.array_equal(u1, u2) and np.array_equal(a1, a2)
    ok = pinned and bool(same)
    return ok, f"pinned_params={int(pinned)} resample_identical={int(bool(same))} t={scheme.t} U={scheme.num_shifts}"


def _sensitivity_suite(level: str, seed: int) -> tuple[bool, str]:
    reports = clab.rho_sweep(
        1.5,
        [2.0, 5.0],
        d=32,
        trials=4_000,
        rng=derive_rng(seed, 9608),
        profile="remark",
        knobs=Knobs(kappa_w=1.8),
        overrides={"t": 3.0, "delta": 3.0, "delta_fail": 1e-3},
        derive_kwargs={"threshold_samples": 1_000_000},
    )
    r2, r5 = reports
    shapes_ok = all(rep.t <= 32 and rep.num_shifts <= 100_000 for rep in reports)

    def gap_z(rep):
        return (rep.p1.p_hat - rep.p2.p_hat) / math.hypot(rep.p1.std_error, rep.p2.std_error)

    z2, z5 = gap_z(r2), gap_z(r5)
    sens_ok = min(z2, z5) > 2.326  # one-sided 99%
    rho_lt_one = all(rep.rho_hat + 1.645 * rep.rho_se < 1.0 for rep in reports)
    ordering = r5.rho_hat < r2.rho_hat + 1.645 * (r2.rho_se + r5.rho_se)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rho.csv"
        clab.write_rho_csv(reports, str(path))
        header = path.read_text().splitlines()[0].split(",")
    columns_ok = header == list(clab.RHO_CSV_COLUMNS) and {"inv_c", "inv_cp", "lncsq_over_cp"} <= set(header)
    ok = shapes_ok and sens_ok and rho_lt_one and ordering and columns_ok
    return ok, (
        f"z_c2={z2:.2f} z_c5={z5:.2f} rho_c2={r2.rho_hat:.4f} rho_c5={r5.rho_hat:.4f} "
        f"rho_below_one={int(rho_lt_one)} ordered={int(ordering)} columns={int(columns_ok)}"
    )


def _index_roundtrip_suite(level: str, seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed, 9611)
    pts = rng.normal(size=(500, 16))
    scheme = clab.tuned_scheme(2.0, 1.5, threshold_samples=10_000)
    params = IndexParams(k=2, l=4, seed=seed + 21)

    def sweep():
        return clab.rho_sweep(
            1.5, [2.0], d=8, trials=400, rng=derive_rng(seed, 9621),
            profile="remark", knobs=Knobs(kappa_w=1.8),
            overrides={"t": 3.0, "delta": 3.0, "delta_fail": 1e-2},
            derive_kwargs={"threshold_samples": 10_000},
        )

    with tempfile.TemporaryDirectory() as tmp:
        a_path, b_path, c_path = (Path(tmp) / name for name in ("a.lplsh", "b.lplsh", "rho.csv"))
        save_index(build(pts, scheme, params), str(a_path))
        save_index(build(pts, scheme, params), str(b_path))
        rebuild_identical = a_path.read_bytes() == b_path.read_bytes()

        index = build(pts, scheme, params)
        loaded = load_index(str(a_path))
        queries = rng.normal(size=(100, 16))
        roundtrip_identical = loaded.query_batch(queries) == index.query_batch(queries)

        clab.write_rho_csv(sweep(), str(c_path))
        first = c_path.read_bytes()
        clab.write_rho_csv(sweep(), str(c_path))
        csv_identical = c_path.read_bytes() == first
        size = a_path.stat().st_size
    ok = rebuild_identical and roundtrip_identical and csv_identical
    return ok, (
        f"rebuild_identical={int(rebuild_identical)} roundtrip_identical={int(roundtrip_identical)} "
        f"rho_rerun_identical={int(csv_identical)} bytes={size}"
    )


SUITES = {
    "geometry_residuals": _residual_suite,
    "norm_properties": _norm_suite,
    "stable_law": _stable_law_suite,
    "sampler_determinism": _sampler_determinism_suite,
    "truncated_moment_monotone": _moment_monotone_suite,
    "tail_bounds": _tail_suite,
    "threshold_cache": _threshold_cache_suite,
    "covering": _covering_suite,
    "covering_monotone": _covering_monotone_suite,
    "disjointness": _disjointness_suite,
    "locate_bruteforce": _locate_suite,
    "translation_equivariance": _equivariance_suite,
    "concentration": _concentration_suite,
    "collision_identities": _collision_identity_suite,
    "scheme_determinism": _scheme_determinism_suite,
    "sensitivity": _sensitivity_suite,
    "index_roundtrip": _index_roundtrip_suite,
}


def run_checks(level: str = "quick", seed: int = 0) -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be quick or full, got {level!r}")
    results = []
    for name, fn in SUITES.items():
        start = time.perf_counter()
        try:
            passed, detail = fn(level, seed)
        except Exception as exc:  # a crashing suite is a failing suite
            passed, detail = False, f"exception={type(exc).__name__}:{exc}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name} [{r.seconds:.1f}s] {r.detail}" for r in results
    ]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{'ok' if n_pass == len(results) else 'FAILED'} {n_pass}/{len(results)} suites")
    return "\n".join(lines)
