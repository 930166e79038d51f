"""Norms, residual inequalities, directions, and ball sampling."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lplsh import (
    BallSpec,
    ContractViolation,
    LpSpace,
    ball_volume_ratio,
    convexity_residual,
    lp_distance,
    lp_norm,
    random_lp_direction,
    sample_in_ball,
    smoothness_residual,
)
from lplsh.util import derive_rng

FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
P_VALUES = st.sampled_from([1.25, 1.5, 1.75, 2.0])


def vectors(dim):
    return arrays(np.float64, (dim,), elements=FINITE)


class TestLpNorm:
    def test_euclidean_345(self):
        assert lp_norm(np.array([3.0, 4.0]), LpSpace(2.0, 2)) == 5.0

    def test_p15_ones(self):
        got = lp_norm(np.array([1.0, 1.0]), LpSpace(1.5, 2))
        assert got == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-14)

    def test_zero_vector(self):
        assert lp_norm(np.zeros(4), LpSpace(1.5, 4)) == 0.0

    def test_batch_shape(self):
        x = np.ones((7, 3))
        out = lp_norm(x, LpSpace(2.0, 3))
        assert out.shape == (7,)
        assert np.allclose(out, np.sqrt(3.0))

    def test_extreme_magnitudes_no_overflow(self):
        # max-rescaled form keeps 1e300-scale coordinates finite
        x = np.array([1e300, 1e300])
        got = lp_norm(x, LpSpace(2.0, 2))
        assert np.isfinite(got)
        assert got == pytest.approx(np.sqrt(2.0) * 1e300, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            lp_norm(np.ones(3), LpSpace(1.5, 2))

    def test_nan_propagates(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(lp_norm(np.array([np.nan, 1.0]), LpSpace(1.5, 2)))
            assert lp_norm(np.array([np.inf, 1.0]), LpSpace(1.5, 2)) == np.inf
            rows = [[0.0, 0.0], [np.nan, 0.0], [3.0, 4.0], [np.inf, 1.0], [-np.inf, 0.0], [np.inf, -np.inf],
                    [np.inf, np.nan]]
            out = lp_norm(np.array(rows), LpSpace(2.0, 2))
        assert out[0] == 0.0 and np.isnan(out[1]) and out[2] == 5.0
        assert (out[3:6] == np.inf).all() and np.isnan(out[6])

    @given(x=vectors(5), y=vectors(5), p=P_VALUES)
    @settings(max_examples=150, deadline=None)
    def test_triangle_inequality(self, x, y, p):
        space = LpSpace(p, 5)
        lhs = lp_norm(x + y, space)
        rhs = lp_norm(x, space) + lp_norm(y, space)
        assert lhs <= rhs + 1e-12 * max(1.0, rhs)

    @given(x=vectors(4), alpha=st.floats(min_value=-100, max_value=100, allow_nan=False), p=P_VALUES)
    @settings(max_examples=150, deadline=None)
    def test_homogeneity(self, x, alpha, p):
        space = LpSpace(p, 4)
        base = lp_norm(x, space)
        got = lp_norm(alpha * x, space)
        assert got == pytest.approx(abs(alpha) * base, rel=1e-12, abs=1e-12)

    def test_distance_is_norm_of_difference(self, rng):
        space = LpSpace(1.5, 6)
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        assert lp_distance(x, y, space) == lp_norm(x - y, space)


class TestSpaceValidation:
    @pytest.mark.parametrize("p", [1.0, 0.5, 2.5, 3.0])
    def test_p_out_of_range(self, p):
        with pytest.raises(ContractViolation):
            LpSpace(p, 3)

    def test_dim_zero(self):
        with pytest.raises(ContractViolation):
            LpSpace(1.5, 0)

    def test_negative_radius(self):
        with pytest.raises(ContractViolation):
            BallSpec(np.zeros(2), -0.1)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_non_finite_radius(self, radius):
        with pytest.raises(ContractViolation, match="radius must be >= 0 and finite"):
            BallSpec(np.zeros(2), radius)


class TestBallVolumeRatio:
    def test_unit(self):
        assert ball_volume_ratio(1.0, 5) == 1.0

    def test_half_cubed(self):
        assert ball_volume_ratio(0.5, 3) == 0.125

    def test_two_fourth(self):
        assert ball_volume_ratio(2.0, 4) == 16.0

    @given(
        alpha=st.floats(min_value=1e-3, max_value=1e3),
        t=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_reciprocal_identity(self, alpha, t):
        prod = ball_volume_ratio(alpha, t) * ball_volume_ratio(1.0 / alpha, t)
        assert prod == pytest.approx(1.0, rel=1e-12)

    def test_negative_alpha_rejected(self):
        # nan passed a check of alpha < 0 and returned nan
        for alpha in (-1.0, math.nan):
            with pytest.raises(ContractViolation):
                ball_volume_ratio(alpha, 2)


class TestResiduals:
    def test_smoothness_equal_points(self):
        x = np.array([2.0, -1.0])
        assert smoothness_residual(x, x, LpSpace(1.5, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_smoothness_negated(self):
        x = np.array([2.0, -1.0])
        assert smoothness_residual(x, -x, LpSpace(1.5, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_smoothness_orthogonal_value(self):
        got = smoothness_residual(np.array([1.0, 0.0]), np.array([0.0, 1.0]), LpSpace(1.5, 2))
        # 2 * 2 * 0.5^1.5 - 1
        assert got == pytest.approx(0.414214, abs=1e-6)

    def test_convexity_equal_points(self):
        x = np.array([1.0, 3.0])
        assert convexity_residual(x, x, LpSpace(1.5, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_convexity_orthogonal_value(self):
        got = convexity_residual(np.array([1.0, 0.0]), np.array([0.0, 1.0]), LpSpace(1.5, 2))
        assert got == pytest.approx(0.055, abs=1e-3)

    def test_convexity_collinear_exact(self):
        got = convexity_residual(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), LpSpace(1.5, 2))
        assert got == pytest.approx(0.5, abs=1e-14)

    @given(x=vectors(6), y=vectors(6), p=P_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_smoothness_nonnegative(self, x, y, p):
        assert smoothness_residual(x, y, LpSpace(p, 6)) >= -1e-9 * max(
            1.0, float(np.abs(x).max()), float(np.abs(y).max())
        ) ** p

    @given(x=vectors(6), y=vectors(6), p=P_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_convexity_nonnegative(self, x, y, p):
        scale = max(1.0, float(np.abs(x).max()), float(np.abs(y).max()))
        assert convexity_residual(x, y, LpSpace(p, 6)) >= -1e-9 * scale**2

    def test_residual_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            smoothness_residual(np.ones(2), np.ones(3), LpSpace(1.5, 2))


class TestRandomDirection:
    def test_unit_norm(self, rng):
        space = LpSpace(1.5, 8)
        v = random_lp_direction(space, rng, size=500)
        norms = np.asarray(lp_norm(v, space))
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_dim_one_is_sign(self, rng):
        space = LpSpace(1.5, 1)
        v = random_lp_direction(space, rng, size=2000)
        assert set(np.unique(v)) == {-1.0, 1.0}
        # fair coin: 3 sigma around half
        frac = float((v > 0).mean())
        assert abs(frac - 0.5) <= 3.0 * 0.5 / np.sqrt(2000)

    def test_coordinate_symmetry(self):
        n = 100_000
        space = LpSpace(1.5, 5)
        v = random_lp_direction(space, derive_rng(0, 9001), size=n)
        m = float(v[:, 0].mean())
        s = float(v[:, 0].std(ddof=1)) / np.sqrt(n)
        assert abs(m) <= 3.0 * s


class TestSampleInBall:
    def test_all_inside(self, rng):
        space = LpSpace(1.5, 4)
        center = rng.normal(size=4)
        ball = BallSpec(center, 2.5)
        z = sample_in_ball(ball, space, rng, size=3000)
        dists = np.asarray(lp_norm(z - center[None, :], space))
        assert dists.max() <= 2.5 * (1.0 + 1e-12)

    def test_radial_cdf_uniform(self, rng):
        # ||z - c||^t is Uniform(0, w^t) for uniform ball samples
        t = 3
        space = LpSpace(2.0, t)
        ball = BallSpec(np.zeros(t), 1.0)
        z = sample_in_ball(ball, space, rng, size=20_000)
        u = np.asarray(lp_norm(z, space)) ** t
        # mean of Uniform(0,1) within 3 sigma
        assert abs(u.mean() - 0.5) <= 3.0 / np.sqrt(12.0 * 20_000)
