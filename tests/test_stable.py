"""Stable sampler, truncated moments, threshold, tail fit, concentration.

Regression constants below were produced by scripts/pin_oracles.py, which
evaluates the same quantities by adaptive quadrature on the exact stable
density (scipy.stats.levy_stable with beta = 0 shares this package's
exp(-|xi|^p) convention). Monte Carlo estimates here are compared against
those values at ~5 standard errors.
"""

import math

import numpy as np
import pytest
from scipy import stats

from lplsh import (
    ContractViolation,
    LpSpace,
    StableParams,
    compute_threshold,
    fit_tail_constant,
    lp_norm,
    sample_stable,
    tail_probability_bounds,
    truncated_moment,
    validate_concentration,
)
from lplsh.stable import TailConstants
from lplsh.util import derive_rng

# exact values from scripts/pin_oracles.py (quadrature, error < 1e-7)
MOMENT_ORACLE = 1.561996  # E[min(|X|, 64^0.25)^1.5] at p = 1.5
THRESHOLD_ORACLE = 49.983866  # T(t=64, eps=0.25) at p = 1.5
TAIL_A_ORACLE = 0.303849  # flat fit of p M^p Pr[X > M] on the exact tail, M in [10, 100]
TAIL_FLATNESS_ORACLE = 0.0510  # exact-tail flatness over the same grid


class TestSampler:
    def test_exponent_validation(self):
        for p in (1.0, 0.9, 2.1):
            with pytest.raises(ContractViolation):
                StableParams(p)

    def test_determinism(self):
        params = StableParams(1.5)
        a = sample_stable(params, derive_rng(3, 1), size=1000)
        b = sample_stable(params, derive_rng(3, 1), size=1000)
        assert np.array_equal(a, b)

    def test_scalar_draw(self, rng):
        x = sample_stable(StableParams(1.5), rng)
        assert isinstance(x, float)

    def test_sign_symmetry(self):
        n = 1_000_000
        x = sample_stable(StableParams(1.5), derive_rng(0, 9100), size=n)
        m = float(np.sign(x).mean())
        assert abs(m) <= 3.0 / np.sqrt(n)

    def test_gaussian_variance(self):
        n = 1_000_000
        x = sample_stable(StableParams(2.0), derive_rng(0, 9101), size=n)
        assert float(np.var(x)) == pytest.approx(2.0, rel=0.01)

    def test_projection_matches_scaled_law(self):
        # <a, x> with iid stable a should be ||x||_p times a fresh draw
        p = 1.5
        n = 100_000
        x = np.array([1.0, 1.0, 1.0])
        scale = float(lp_norm(x, LpSpace(p, 3)))
        assert scale == pytest.approx(3.0 ** (2.0 / 3.0), abs=1e-12)
        rng = derive_rng(0, 9102)
        a = sample_stable(StableParams(p), rng, size=(n, 3))
        proj = a @ x
        ref = scale * sample_stable(StableParams(p), rng, size=n)
        assert stats.ks_2samp(proj, ref).pvalue >= 0.01


class TestTruncatedMoment:
    def test_m_below_one_rejected(self, rng):
        # nan passed a check of M < 1 and returned a nan estimate; inf
        # returned a finite estimate of a moment that diverges
        for m in (0.5, math.nan, math.inf):
            with pytest.raises(ContractViolation, match="truncation level must be >= 1 and finite"):
                truncated_moment(StableParams(1.5), m, 1, 10_000, rng)

    def test_order_validation(self, rng):
        with pytest.raises(ContractViolation):
            truncated_moment(StableParams(1.5), 2.0, 3, 10_000, rng)

    def test_sample_floor(self, rng):
        with pytest.raises(ContractViolation):
            truncated_moment(StableParams(1.5), 2.0, 1, 5_000, rng)

    def test_capped_at_one_for_unit_m(self, rng):
        est = truncated_moment(StableParams(1.5), 1.0, 1, 50_000, rng)
        assert est.value <= 1.0

    def test_pinned_oracle(self):
        m = 64.0**0.25
        est = truncated_moment(StableParams(1.5), m, 1, 1_000_000, derive_rng(0, 201))
        assert abs(est.value - MOMENT_ORACLE) <= 5.0 * est.std_error

    def test_monotone_in_m(self):
        values = [
            truncated_moment(StableParams(1.5), m, 1, 200_000, derive_rng(0, 9103)).value
            for m in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_logarithmic_growth(self):
        # E[min(|X|, M)^p] grows like ln M, so equal log-steps give
        # comparable increments
        n = 400_000
        est = {
            m: truncated_moment(StableParams(1.5), m, 1, n, derive_rng(0, 9104, int(m))).value
            for m in (1.0, 10.0, 100.0)
        }
        ratio = (est[100.0] - est[10.0]) / (est[10.0] - est[1.0])
        assert 0.5 <= ratio <= 2.0


class TestThreshold:
    def test_positive(self):
        t = compute_threshold(4, 0.3, StableParams(1.5), n_samples=20_000, seed=0)
        assert t.value > 0

    def test_monotone_in_t(self):
        t64 = compute_threshold(64, 0.25, StableParams(1.5), n_samples=100_000, seed=1)
        t128 = compute_threshold(128, 0.25, StableParams(1.5), n_samples=100_000, seed=1)
        assert t128.value > t64.value

    def test_pinned_oracle(self):
        n = 1_000_000
        t = compute_threshold(64, 0.25, StableParams(1.5), n_samples=n, seed=0)
        # se(T) = 32 * se(moment) ~ 0.05 at this sample count
        assert abs(t.value - THRESHOLD_ORACLE) <= 0.25

    def test_t_validation(self):
        with pytest.raises(ContractViolation):
            compute_threshold(1, 0.3, StableParams(1.5), n_samples=20_000)

    def test_epsilon_validation(self):
        with pytest.raises(ContractViolation):
            compute_threshold(8, 1.2, StableParams(1.5), n_samples=20_000)


class TestTailBounds:
    def test_vanishes_at_infinity(self):
        consts = TailConstants(a_hat=1.0, b_hat=1.0, fit_range=(10.0, 100.0), degenerate=False, n_tail=1000)
        lo, hi = tail_probability_bounds(1e12, StableParams(1.5), consts)
        assert hi < 1e-9
        assert lo <= hi

    def test_worked_example(self):
        consts = TailConstants(a_hat=1.0, b_hat=1.0, fit_range=(10.0, 100.0), degenerate=False, n_tail=1000)
        lo, hi = tail_probability_bounds(10.0, StableParams(1.5), consts)
        assert lo == pytest.approx(0.01608, abs=5e-5)
        assert hi == pytest.approx(0.05514, abs=5e-5)

    def test_lower_clamped_at_zero(self):
        consts = TailConstants(a_hat=0.1, b_hat=100.0, fit_range=(10.0, 100.0), degenerate=False, n_tail=1000)
        lo, _ = tail_probability_bounds(10.0, StableParams(1.5), consts)
        assert lo == 0.0

    def test_ordering_and_range(self):
        consts = TailConstants(a_hat=2.0, b_hat=0.5, fit_range=(10.0, 100.0), degenerate=False, n_tail=1000)
        m = np.geomspace(1.0, 1e6, 20)
        lo, hi = tail_probability_bounds(m, StableParams(1.25), consts)
        assert (lo <= hi).all()
        assert (lo >= 0.0).all() and (hi <= 1.0).all()

    def test_m_below_one_rejected(self):
        consts = TailConstants(a_hat=1.0, b_hat=0.0, fit_range=(10.0, 100.0), degenerate=False, n_tail=1000)
        # nan passed a check of M < 1 and returned (nan, nan)
        for m in (0.5, math.nan, np.array([2.0, math.nan])):
            with pytest.raises(ContractViolation):
                tail_probability_bounds(m, StableParams(1.5), consts)


class TestTailFit:
    def test_sample_floor(self, rng):
        with pytest.raises(ContractViolation):
            fit_tail_constant(StableParams(1.5), 100_000, rng)

    def test_matches_exact_tail_constants(self):
        fit = fit_tail_constant(StableParams(1.5), 4_000_000, derive_rng(0, 9105))
        assert not fit.constants.degenerate
        assert fit.constants.a_hat == pytest.approx(TAIL_A_ORACLE, rel=0.04)
        # exact flatness is 5.1%; MC noise at this budget stays well below 2x
        assert fit.flatness <= 2.5 * TAIL_FLATNESS_ORACLE + 0.05

    def test_sandwich_holds_on_grid(self):
        params = StableParams(1.5)
        fit = fit_tail_constant(params, 2_000_000, derive_rng(0, 9106))
        lo, hi = tail_probability_bounds(fit.grid_m, params, fit.constants)
        assert (lo <= fit.tail_prob).all()
        assert (fit.tail_prob <= hi).all()

    def test_gaussian_degenerate(self):
        fit = fit_tail_constant(StableParams(2.0), 1_000_000, derive_rng(0, 9107))
        assert fit.constants.degenerate


class TestConcentration:
    def test_trial_floor(self, rng):
        params = StableParams(1.5)
        thr = compute_threshold(8, 0.3, params, n_samples=20_000, seed=0)
        with pytest.raises(ContractViolation):
            validate_concentration(8, 0.3, params, thr, trials=100, rng=rng)

    def test_high_event_rare(self):
        params = StableParams(1.5)
        thr = compute_threshold(16, 0.3, params, n_samples=200_000, seed=0)
        rep = validate_concentration(16, 0.3, params, thr, trials=2_000, rng=derive_rng(0, 9108))
        assert rep.rate_high <= 0.5 + 3.0 * np.sqrt(0.25 / 2_000)

    def test_basis_vs_random_vector_indistinguishable(self):
        # the law of ||Ax||_p^p depends on x only through its norm
        p = 1.5
        d = 12
        t = 16
        params = StableParams(p)
        thr = compute_threshold(t, 0.3, params, n_samples=200_000, seed=0)
        basis = np.zeros(d)
        basis[0] = 1.0
        rng = derive_rng(0, 9109)
        v = rng.normal(size=d)
        v /= float(lp_norm(v, LpSpace(p, d)))
        trials = 4_000
        a = validate_concentration(t, 0.3, params, thr, trials, derive_rng(0, 9110), x=basis)
        b = validate_concentration(t, 0.3, params, thr, trials, derive_rng(0, 9111), x=v)
        # two-proportion comparison at 3 sigma on the low event
        pool = (a.rate_low + b.rate_low) / 2.0
        se = np.sqrt(max(2.0 * pool * (1.0 - pool) / trials, 2.0 / trials**2))
        assert abs(a.rate_low - b.rate_low) <= 3.0 * se
