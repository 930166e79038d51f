"""Collision estimators, the geometric cross-check, and the rho sweep."""

import math

import numpy as np
import pytest

import lplsh.collisions
from lplsh import (
    ContractViolation,
    Knobs,
    LatticeParams,
    LpSpace,
    choose_k_l,
    compare_estimators,
    estimate_collision,
    estimate_rho,
    geometric_collision,
    lp_distance,
    rho_sweep,
    tuned_scheme,
    write_rho_csv,
)
from lplsh.collisions import (
    RHO_CSV_COLUMNS,
    _PILOT_CHUNK,
    CollisionEstimate,
    _estimate,
    _estimate_in_projection,
    _pair_block,
    estimate_collision_projected,
    rho_point_estimate,
    rho_rows,
    rho_std,
)
from lplsh.util import derive_rng

from conftest import cheap_scheme


class TestMakePair:
    """The pair generator, and compare_estimators' check of the distance it passes on."""

    def test_exact_distance(self):
        rng = derive_rng(0, 9400)
        for p, dim, dist in [(1.5, 4, 1.0), (1.25, 16, 3.7), (2.0, 2, 0.01)]:
            space = LpSpace(p, dim)
            (x,), (y,) = _pair_block(space, dist, rng, 1)
            assert lp_distance(x, y, space) == pytest.approx(dist, rel=1e-12)

    def test_zero_distance_is_identity(self):
        rng = derive_rng(0, 9401)
        x, y = _pair_block(LpSpace(1.5, 8), 0.0, rng, 1)
        assert np.array_equal(x, y)

    def test_negative_distance_rejected(self):
        with pytest.raises(ContractViolation):
            compare_estimators(cheap_scheme(), 4, -1.0, 10, 10, derive_rng(0, 9402))

    @pytest.mark.parametrize("distance", [math.nan, math.inf])
    def test_non_finite_distance_rejected(self, distance):
        with pytest.raises(ContractViolation, match="distance must be >= 0 and finite"):
            compare_estimators(cheap_scheme(), 4, distance, 10, 10, derive_rng(0, 9402))


class TestEstimateCollision:
    def test_zero_distance_collides_surely(self):
        scheme = cheap_scheme()
        got = estimate_collision(scheme, d=8, distance=0.0, trials=300, rng=derive_rng(0, 9403))
        assert got.p_hat == 1.0
        assert got.collisions == 300

    def test_monotone_in_distance(self):
        scheme = cheap_scheme()
        rng = derive_rng(0, 9404)
        trials = 3_000
        ests = [
            estimate_collision(scheme, d=8, distance=f * scheme.r, trials=trials, rng=rng)
            for f in (0.5, 1.0, 2.0, 4.0)
        ]
        for near, far in zip(ests, ests[1:]):
            assert far.p_hat <= near.p_hat + 3.0 * (near.std_error + far.std_error)
        # the endpoints must be separated outright
        assert ests[-1].ci95[1] < ests[0].ci95[0]

    def test_ci_brackets_point_estimate(self):
        scheme = cheap_scheme()
        got = estimate_collision(scheme, d=8, distance=1.0, trials=500, rng=derive_rng(0, 9407))
        lo, hi = got.ci95
        assert lo <= got.p_hat <= hi
        assert 0.0 <= lo and hi <= 1.0

    def test_validation(self):
        scheme = cheap_scheme()
        rng = derive_rng(0, 9408)
        with pytest.raises(ContractViolation):
            estimate_collision(scheme, d=8, distance=1.0, trials=0, rng=rng)
        with pytest.raises(ContractViolation):
            estimate_collision(scheme, d=0, distance=1.0, trials=10, rng=rng)

    @pytest.mark.parametrize("distance", [-1.0, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_distance_rejected(self, distance):
        with pytest.raises(ContractViolation, match="distance must be >= 0 and finite"):
            estimate_collision(cheap_scheme(), d=8, distance=distance, trials=10, rng=derive_rng(0, 9409))

    def test_pilot_stream_golden(self):
        # the benchmark's pilot (perfbench/workloads.py's setup): its counts
        # size the indexes, so a change to this stream re-sizes every build
        scheme = tuned_scheme(2.0, 1.5)
        rng = derive_rng(0, 41)
        near = estimate_collision(scheme, 128, scheme.r, 4000, rng)
        far = estimate_collision(scheme, 128, scheme.c * scheme.r, 4000, rng)
        assert (near.collisions, near.fallback_rate) == (1938, 0.0)
        assert (far.collisions, far.fallback_rate) == (1060, 0.0)
        shapes = [choose_k_l(n, near.p_hat, far.p_hat, safety=3.0) for n in (1000, 1500)]
        assert [(s.k, s.l) for s in shapes] == [(6, 131), (6, 163)]


def two_sample_z(rate_a, rate_b, trials_a, trials_b):
    """Pooled two-proportion z; 0 when both rates are 0 or both 1."""
    pooled = (rate_a * trials_a + rate_b * trials_b) / (trials_a + trials_b)
    spread = math.sqrt(pooled * (1.0 - pooled) * (1.0 / trials_a + 1.0 / trials_b))
    return 0.0 if spread == 0.0 else abs(rate_a - rate_b) / spread


class TestEstimateInProjection:
    """The R^t draw of estimate_rho against the R^d pipeline it replaces in the lab."""

    TRIALS = 4_000

    def assert_rates_agree(self, scheme, d_list, distances, tag):
        for j, s in enumerate(distances):
            fast = _estimate_in_projection(scheme, s, self.TRIALS, derive_rng(tag, j))
            for i, d in enumerate(d_list):
                ref = estimate_collision(scheme, d, s, self.TRIALS, derive_rng(tag, j, i + 1))
                for name in ("p_hat", "fallback_rate"):
                    z = two_sample_z(getattr(fast, name), getattr(ref, name), self.TRIALS, self.TRIALS)
                    assert z <= 3.0, (scheme.p, d, s, name, getattr(fast, name), getattr(ref, name))
            if s == 0.0:
                assert fast.p_hat == 1.0

    @pytest.mark.parametrize("p", [1.25, 1.5, 2.0])
    def test_rates_match_the_pipeline(self, p):
        self.assert_rates_agree(cheap_scheme(p=p), [8, 32, 128], [0.0, 0.5, 1.0, 2.0], 9440)

    def test_fallback_heavy_rates_match_the_pipeline(self):
        # 40 lattices spaced 12 radii apart cover a point only now and then
        scheme = cheap_scheme(delta=12.0, u=40)
        self.assert_rates_agree(scheme, [8, 32], [0.5, 1.0, 2.0], 9441)
        got = _estimate_in_projection(scheme, 1.0, self.TRIALS, derive_rng(0, 9442))
        assert got.fallback_rate > 0.5


class TestProjectedCollision:
    def test_separated_pair_collides_only_by_fallback(self):
        scheme = cheap_scheme()
        t = scheme.t
        x = np.zeros(t)
        y = np.zeros(t)
        y[0] = 2.0 * scheme.w + 1.0
        raw = estimate_collision_projected(
            x, y, scheme.lattice, scheme.space(), 2_000, derive_rng(0, 9409)
        )
        assert raw.p_hat <= raw.fallback_rate
        cond = estimate_collision_projected(
            x, y, scheme.lattice, scheme.space(), 2_000, derive_rng(0, 9410)
        )
        assert cond.collisions == 0
        assert cond.p_hat == 0.0

    def test_translation_invariant_in_distribution(self):
        scheme = cheap_scheme()
        t = scheme.t
        x = np.zeros(t)
        y = np.full(t, 0.9)
        v = np.full(t, 17.3)
        trials = 4_000
        a = estimate_collision_projected(
            x, y, scheme.lattice, scheme.space(), trials, derive_rng(0, 9411)
        )
        b = estimate_collision_projected(
            x + v, y + v, scheme.lattice, scheme.space(), trials, derive_rng(0, 9412)
        )
        assert abs(a.p_hat - b.p_hat) <= 3.0 * (a.std_error + b.std_error)

    def test_conditioned_estimate_with_no_covered_trial_rejected(self):
        # one lattice of tiny balls on a wide spacing covers almost nothing:
        # every trial falls back, and dividing by max(covered, 1) reported
        # trials=1, p_hat=0.0 as if it were an estimate
        params = LatticeParams(w=1.0, t=3, num_shifts=1, delta=30.0)
        space = LpSpace(1.5, 3)
        x, y = np.zeros(3), np.array([10.4, 0.0, 0.0])
        with pytest.raises(ContractViolation, match="no trial covered both points"):
            estimate_collision_projected(x, y, params, space, 50, derive_rng(0, 9415))

    def test_record_holds_the_covered_trials(self):
        # 40 lattices spaced 12 radii apart: most trials fall back, and the
        # conditioned record counts only the others
        scheme = cheap_scheme(delta=12.0, u=40)
        x, y = np.zeros(scheme.t), np.full(scheme.t, 0.3)
        got = estimate_collision_projected(x, y, scheme.lattice, scheme.space(), 2_000, derive_rng(0, 9447))

        def pairs(b):
            return np.broadcast_to(x, (b, scheme.t)), np.broadcast_to(y, (b, scheme.t))

        _, fallbacks, covered = _estimate(scheme.lattice, scheme.p, 2_000, derive_rng(0, 9447), pairs, _PILOT_CHUNK)
        assert fallbacks > 1_000
        assert (got.trials, got.collisions, got.fallbacks) == (2_000 - fallbacks, covered, 0)
        assert got.fallback_rate == 0.0

    def test_shape_validation(self):
        scheme = cheap_scheme()
        with pytest.raises(ContractViolation):
            estimate_collision_projected(
                np.zeros(scheme.t + 1), np.zeros(scheme.t), scheme.lattice, scheme.space(),
                10, derive_rng(0, 9413),
            )

    @pytest.mark.parametrize("trials", [0, -3], ids=["trials-zero", "trials-negative"])
    def test_loop_bounds_rejected(self, trials):
        # trials=0 raised Python's own error, and trials=-3 returned a made-up estimate
        scheme = cheap_scheme()
        t = scheme.t
        with pytest.raises(ContractViolation, match="trials must be >= 1"):
            estimate_collision_projected(
                np.zeros(t), np.ones(t), scheme.lattice, scheme.space(), trials, derive_rng(0, 9413)
            )


class TestGeometricCollision:
    def test_coincident_balls(self):
        space = LpSpace(1.5, 2)
        x = np.zeros(2)
        got = geometric_collision(x, x, 1.0, space, 1_000, derive_rng(0, 9414))
        assert got.value == 1.0

    def test_disjoint_balls(self):
        space = LpSpace(1.5, 2)
        x = np.zeros(2)
        y = np.array([2.5, 0.0])
        got = geometric_collision(x, y, 1.0, space, 1_000, derive_rng(0, 9415))
        assert got.value == 0.0

    def test_interval_overlap_one_dim(self):
        # unit balls at distance 1 on the line: overlap/union = 1/3
        space = LpSpace(1.5, 1)
        x = np.array([0.0])
        y = np.array([1.0])
        got = geometric_collision(x, y, 1.0, space, 20_000, derive_rng(0, 9416))
        assert abs(got.value - 1.0 / 3.0) <= 3.0 * got.std_error

    def test_methods_agree(self):
        space = LpSpace(1.5, 3)
        rng = derive_rng(0, 9417)
        x = np.zeros(3)
        y = np.array([1.1, -0.4, 0.3])
        a = geometric_collision(x, y, 1.3, space, 40_000, rng, method="q_form")
        b = geometric_collision(x, y, 1.3, space, 40_000, rng, method="union")
        assert abs(a.value - b.value) <= 3.0 * math.sqrt(a.std_error**2 + b.std_error**2)

    def test_validation(self):
        space = LpSpace(1.5, 2)
        rng = derive_rng(0, 9418)
        with pytest.raises(ContractViolation):
            geometric_collision(np.zeros(2), np.ones(2), 0.0, space, 10, rng)
        with pytest.raises(ContractViolation):
            geometric_collision(np.zeros(2), np.ones(2), 1.0, space, 0, rng)
        with pytest.raises(ContractViolation):
            geometric_collision(np.zeros(2), np.ones(2), 1.0, space, 10, rng, method="exact")

    @pytest.mark.parametrize("method", ["q_form", "union"])
    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_non_finite_w_rejected(self, w, method):
        # these used to return value=0.0
        with pytest.raises(ContractViolation, match="w must be > 0 and finite"):
            geometric_collision(np.zeros(2), np.ones(2), w, LpSpace(1.5, 2), 10, derive_rng(0, 9418), method=method)


class TestCollisionEstimate:
    def test_rates_come_from_the_counts(self):
        got = CollisionEstimate(distance=1.0, trials=40, collisions=10, fallbacks=4)
        assert (got.p_hat, got.fallback_rate) == (0.25, 0.1)
        lo, hi = got.ci95
        assert lo < 0.25 < hi
        assert got.std_error == pytest.approx(math.sqrt(0.25 * 0.75 / 40))


class TestRhoPointEstimate:
    def test_known_values(self):
        assert rho_point_estimate(0.5, 0.5) == 1.0
        assert rho_point_estimate(0.25, 0.5) == pytest.approx(2.0)
        assert rho_point_estimate(0.5, 0.25) == pytest.approx(0.5)

    def test_degenerate_inputs(self):
        assert math.isnan(rho_point_estimate(0.0, 0.5))
        assert math.isnan(rho_point_estimate(0.5, 0.0))
        assert math.isnan(rho_point_estimate(0.5, 1.0))
        assert math.isnan(rho_point_estimate(1.0, 0.5))


class TestEstimateRho:
    def test_desk_scale_report(self):
        scheme = cheap_scheme(c=2.0, p=1.5)
        rng = derive_rng(0, 9419)
        rep = estimate_rho(scheme, d=16, trials=800, rng=rng)
        assert rep.p1.distance == pytest.approx(scheme.r)
        assert rep.p2.distance == pytest.approx(scheme.c * scheme.r)
        assert rep.p1.p_hat > rep.p2.p_hat
        assert 0.0 < rep.rho_hat < 1.0
        assert math.isfinite(rep.rho_se)
        assert not rep.rho_is_upper_bound
        assert rep.p2.collisions >= 20

    def test_no_far_collision_reports_upper_bound(self):
        # far pairs far beyond the lattice scale: only fallback pairs collide
        scheme = cheap_scheme(c=40.0, p=1.5, w=3.6, t=3)
        rep = estimate_rho(
            scheme, d=16, trials=300, rng=derive_rng(0, 9420), budget=300
        )
        assert rep.p2.collisions == 0
        assert rep.rho_is_upper_bound
        assert math.isnan(rep.rho_se)
        assert 0.0 < rep.rho_hat < 1.0
        # the bound uses the Wilson upper limit of the far estimate
        assert rep.rho_hat == pytest.approx(
            rho_point_estimate(rep.p1.p_hat, rep.p2.ci95[1])
        )

    @pytest.mark.parametrize("budget", [999, 0, -5])
    def test_budget_below_trials_rejected(self, budget):
        # a budget below trials used to run `trials` far trials all the same
        with pytest.raises(ContractViolation, match="budget must be >= trials"):
            estimate_rho(cheap_scheme(), d=8, trials=1_000, rng=derive_rng(0, 9445), budget=budget)

    @pytest.mark.parametrize(
        "d, trials, message", [(0, 100, "d must be >= 1"), (8, 0, "trials must be >= 1")]
    )
    def test_bad_dimension_or_trials_rejected(self, d, trials, message):
        # the rates do not depend on d, but d < 1 names no space
        with pytest.raises(ContractViolation, match=message):
            estimate_rho(cheap_scheme(), d=d, trials=trials, rng=derive_rng(0, 9443))

    def test_rho_std_finite_inside_unit_square(self):
        scheme = cheap_scheme()
        rep = estimate_rho(scheme, d=8, trials=400, rng=derive_rng(0, 9421))
        assert rho_std(rep.p1, rep.p2) > 0.0


class TestRhoSweep:
    def test_sweep_rows_and_orderings(self):
        rng = derive_rng(0, 9422)
        reports = rho_sweep(
            1.5,
            [2.0, 5.0],
            d=32,
            trials=1_500,
            rng=rng,
            profile="remark",
            knobs=Knobs(kappa_w=1.8),
            overrides={"t": 3.0, "delta": 3.0, "delta_fail": 1e-3},
            derive_kwargs={"threshold_samples": 10_000},
        )
        assert len(reports) == 2
        r2, r5 = reports
        for rep, row in zip(reports, rho_rows(reports)):
            c, p = rep.scheme.c, rep.scheme.p
            assert rep.p1.p_hat > rep.p2.p_hat
            assert row["inv_c"] == pytest.approx(1.0 / c)
            assert row["inv_cp"] == pytest.approx(1.0 / c**p)
            assert row["lncsq_over_cp"] == pytest.approx(math.log(c) ** 2 / c**p)
            assert row["inv_cp"] < row["inv_c"]
            assert rep.fallback_rate <= 0.01
        assert r5.rho_hat < r2.rho_hat + 3.0 * (r2.rho_se + r5.rho_se)

    @pytest.mark.parametrize("d", [0, -2])
    def test_dimension_below_one_rejected(self, d):
        with pytest.raises(ContractViolation, match="d must be >= 1"):
            rho_sweep(1.5, [2.0], d=d, trials=10, rng=derive_rng(0, 9444))

    def test_budget_below_trials_rejected_before_any_scheme(self, monkeypatch):
        def derive(*args, **kwargs):
            raise AssertionError("a scheme was derived")

        monkeypatch.setattr(lplsh.collisions, "derive_params", derive)
        with pytest.raises(ContractViolation, match="budget must be >= trials"):
            rho_sweep(1.5, [2.0], d=8, trials=10, rng=derive_rng(0, 9446), budget=-5)

    def test_empty_c_list_rejected(self):
        with pytest.raises(ContractViolation):
            rho_sweep(1.5, [], d=8, trials=10, rng=derive_rng(0, 9423))


class TestRhoCsv:
    def _reports(self, seed):
        return rho_sweep(
            1.5,
            [2.0],
            d=8,
            trials=300,
            rng=derive_rng(0, seed),
            profile="remark",
            overrides={"t": 3.0, "delta": 3.0, "delta_fail": 1e-2},
            derive_kwargs={"threshold_samples": 10_000},
        )

    def test_schema_is_exact(self, tmp_path):
        reports = self._reports(9424)
        path = tmp_path / "rho.csv"
        write_rho_csv(reports, str(path), header_comments=["tool=x"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# tool=x"
        assert lines[1] == ",".join(RHO_CSV_COLUMNS)
        assert len(RHO_CSV_COLUMNS) == 19
        assert len(lines) == 2 + len(reports)
        assert len(lines[2].split(",")) == 19

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_rho_csv(self._reports(9425), str(a))
        write_rho_csv(self._reports(9425), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_rows_cover_schema(self):
        rows = rho_rows(self._reports(9426))
        assert set(rows[0]) == set(RHO_CSV_COLUMNS)


class TestTunedScheme:
    def test_pinned_shape(self):
        scheme = tuned_scheme(2.0, 1.5, threshold_samples=10_000)
        assert scheme.profile == "remark"
        assert scheme.w == pytest.approx(3.6)
        assert scheme.t == 3
        assert scheme.lattice.delta == 3.0
        assert scheme.num_shifts == 6638
        assert not scheme.lattice.saturated

    def test_shift_count_independent_of_c(self):
        a = tuned_scheme(2.0, 1.5, threshold_samples=10_000)
        b = tuned_scheme(5.0, 1.5, threshold_samples=10_000)
        assert a.num_shifts == b.num_shifts
        assert b.w == pytest.approx(9.0)


class TestCompareEstimators:
    def test_routes_agree_at_matched_pair(self):
        scheme = cheap_scheme()
        got = compare_estimators(
            scheme, d=16, distance=1.0, trials_lattice=3_000, trials_geom=30_000,
            rng=derive_rng(0, 9427),
        )
        assert got.projected_distance > 0.0
        assert 0.0 <= got.lattice.p_hat <= 1.0
        assert 0.0 <= got.geometric.value <= 1.0
        assert math.isfinite(got.z_score)
        assert got.z_score <= 6.0
