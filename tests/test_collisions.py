"""Collision estimators, the geometric cross-check, and the rho sweep."""

import math

import numpy as np
import pytest

from lplsh import (
    ContractViolation,
    Knobs,
    LatticeParams,
    LpSpace,
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
    estimate_collision_projected,
    make_pair_at_distance,
    rho_point_estimate,
    rho_rows,
    rho_std,
)
from lplsh.util import derive_rng

from conftest import cheap_scheme


class TestMakePair:
    def test_exact_distance(self):
        rng = derive_rng(0, 9400)
        for p, dim, dist in [(1.5, 4, 1.0), (1.25, 16, 3.7), (2.0, 2, 0.01)]:
            space = LpSpace(p, dim)
            x, y = make_pair_at_distance(space, dist, rng)
            assert lp_distance(x, y, space) == pytest.approx(dist, rel=1e-12)

    def test_zero_distance_is_identity(self):
        rng = derive_rng(0, 9401)
        x, y = make_pair_at_distance(LpSpace(1.5, 8), 0.0, rng)
        assert np.array_equal(x, y)

    def test_negative_distance_rejected(self):
        with pytest.raises(ContractViolation):
            make_pair_at_distance(LpSpace(1.5, 4), -1.0, derive_rng(0, 9402))

    @pytest.mark.parametrize("distance", [math.nan, math.inf])
    def test_non_finite_distance_rejected(self, distance):
        with pytest.raises(ContractViolation, match="distance must be >= 0 and finite"):
            make_pair_at_distance(LpSpace(1.5, 4), distance, derive_rng(0, 9402))


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

    def test_translation_invariant(self):
        scheme = cheap_scheme()
        trials = 3_000
        a = estimate_collision(scheme, d=6, distance=1.0, trials=trials, rng=derive_rng(0, 9405))
        b = estimate_collision(
            scheme, d=6, distance=1.0, trials=trials, rng=derive_rng(0, 9406),
            offset=np.full(6, 100.0),
        )
        assert abs(a.p_hat - b.p_hat) <= 3.0 * (a.std_error + b.std_error)

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


class TestProjectedCollision:
    def test_separated_pair_collides_only_by_fallback(self):
        scheme = cheap_scheme()
        t = scheme.t
        x = np.zeros(t)
        y = np.zeros(t)
        y[0] = 2.0 * scheme.w + 1.0
        raw = estimate_collision_projected(
            x, y, scheme.lattice, scheme.space(), 2_000, derive_rng(0, 9409), conditioned=False
        )
        assert raw.p_hat <= raw.fallback_rate
        cond = estimate_collision_projected(
            x, y, scheme.lattice, scheme.space(), 2_000, derive_rng(0, 9410), conditioned=True
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
        raw = estimate_collision_projected(x, y, params, space, 50, derive_rng(0, 9415), conditioned=False)
        assert raw.fallback_rate == 1.0
        with pytest.raises(ContractViolation, match="no trial covered both points"):
            estimate_collision_projected(x, y, params, space, 50, derive_rng(0, 9415))

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
