"""Parameter derivation, hash-function sampling, and hashing through hash_batch."""

import dataclasses
import math
import re

import numpy as np
import pytest

from lplsh import (
    ContractViolation,
    Knobs,
    derive_params,
    hash_batch,
    sample_hash,
    scale_to_unit,
)
from lplsh.lattice import LatticeParams
from lplsh.scheme import SchemeParams
from lplsh.stable import Threshold
from lplsh.util import derive_rng

from conftest import cheap_scheme


def pinned(c=3.0, p=1.5, **kwargs):
    # skip the Monte Carlo threshold where only the derived knobs matter
    overrides = dict(kwargs.pop("overrides", {}))
    overrides.setdefault("threshold", 1.0)
    return derive_params(c, p, overrides=overrides, **kwargs)


class TestDeriveParams:
    def test_main_profile_worked_example(self):
        params = pinned(3.0, 1.5)
        assert params.profile == "main"
        assert params.w == pytest.approx(3.0 * math.log(3.0), rel=1e-12)
        assert params.t == 6
        assert params.epsilon == pytest.approx(math.log(math.log(6.0)) / math.log(6.0), rel=1e-12)
        assert params.epsilon == pytest.approx(0.325489, abs=1e-6)
        assert params.delta_fail == pytest.approx(math.exp(-6.0), rel=1e-12)

    def test_remark_profile_worked_example(self):
        params = pinned(3.0, 1.5, profile="remark")
        assert params.w == pytest.approx(3.0, rel=1e-12)
        assert params.t == 6
        assert params.epsilon == pytest.approx(1.0 / math.log(6.0), rel=1e-12)
        assert params.epsilon == pytest.approx(0.558111, abs=1e-6)

    def test_main_falls_back_below_e(self):
        params = pinned(2.0, 1.5, overrides={"t": 4})
        assert params.profile == "remark"
        assert params.w == pytest.approx(2.0)
        above = pinned(2.8, 1.5)
        assert above.profile == "main"
        assert above.w == pytest.approx(2.8 * math.log(2.8), rel=1e-12)

    def test_knobs_scale_derived_values(self):
        base = pinned(3.0, 1.5, profile="remark")
        scaled = pinned(3.0, 1.5, profile="remark", knobs=Knobs(kappa_w=0.5, kappa_eps=0.5))
        assert scaled.w == pytest.approx(0.5 * base.w)
        assert scaled.epsilon == pytest.approx(0.5 / math.log(scaled.t))

    def test_derivation_ignores_dataset_shape(self):
        # parameters depend on (c, p) only; r is just recorded
        a = pinned(3.0, 1.5, r=1.0)
        b = pinned(3.0, 1.5, r=7.5)
        assert (a.w, a.t, a.epsilon, a.num_shifts) == (b.w, b.t, b.epsilon, b.num_shifts)
        assert b.r == 7.5

    def test_repeat_derivation_identical(self):
        a = cheap_scheme()
        b = cheap_scheme()
        assert a == b

    def test_overrides_recorded(self):
        params = pinned(3.0, 1.5, overrides={"w": 2.5, "t": 4})
        assert params.w == 2.5
        assert params.t == 4
        assert params.overrides == (("t", 4.0), ("threshold", 1.0), ("w", 2.5))

    def test_unknown_override_rejected(self):
        with pytest.raises(ContractViolation):
            derive_params(3.0, 1.5, overrides={"width": 2.5})

    def test_u_override_and_cap(self):
        params = pinned(3.0, 1.5, overrides={"u": 50})
        assert params.num_shifts == 50
        assert not params.lattice.saturated
        capped = pinned(3.0, 1.5, overrides={"u": 50, "u_max": 10})
        assert capped.num_shifts == 10
        assert capped.lattice.saturated

    def test_eps_leaves_unit_interval(self):
        # remark eps = 1/ln t exceeds 1 at t = 2
        with pytest.raises(ContractViolation):
            derive_params(2.0, 1.5, profile="remark", overrides={"t": 2})

    def test_validation(self):
        with pytest.raises(ContractViolation):
            derive_params(1.0, 1.5)
        with pytest.raises(ContractViolation):
            pinned(3.0, 2.5)
        with pytest.raises(ContractViolation):
            derive_params(3.0, 1.5, profile="other")
        with pytest.raises(ContractViolation):
            pinned(3.0, 1.5, overrides={"t": 1})
        with pytest.raises(ContractViolation):
            Knobs(kappa_w=0.0)

    def test_config_items_cover_derived_values(self):
        params = cheap_scheme()
        items = dict(params.config_items())
        for key in ("c", "p", "r", "profile", "w", "t", "eps", "delta",
                    "delta_fail", "U", "saturated", "T", "threshold_samples",
                    "threshold_seed", "overrides", "kappa_w"):
            assert key in items
        assert items["U"] == params.num_shifts
        assert items["T"] == params.threshold.value
        assert "t=" in items["overrides"]


class TestOneOwnerPerValue:
    def test_scheme_reads_its_owners(self):
        params = pinned(3.0, 1.5, overrides={"w": 2.5, "t": 4, "eps": 0.3, "delta_fail": 0.01})
        assert [f.name for f in dataclasses.fields(SchemeParams)] == [
            "c", "p", "r", "threshold", "lattice", "profile", "knobs", "overrides"
        ]
        assert (params.w, params.t, params.delta_fail) == (2.5, 4, 0.01)
        assert (params.w, params.t, params.delta_fail) == (
            params.lattice.w, params.lattice.t, params.lattice.delta_fail
        )
        assert params.epsilon == params.threshold.epsilon == 0.3
        assert params.threshold.t == params.t

    @pytest.mark.parametrize("name", ["w", "t", "epsilon", "delta_fail"])
    def test_derived_values_cannot_be_set_apart_from_their_owner(self, name):
        params = pinned(3.0, 1.5)
        with pytest.raises(TypeError):
            dataclasses.replace(params, **{name: 1.0})
        with pytest.raises(AttributeError):
            setattr(params, name, 1.0)

    @pytest.mark.parametrize("change", [{"t": 5}, {"p": 1.25}])
    def test_threshold_for_other_t_or_p_rejected(self, change):
        params = pinned(3.0, 1.5)
        other = dataclasses.replace(params.threshold, **change)
        with pytest.raises(ContractViolation, match=r"threshold is for \(t, p\)"):
            dataclasses.replace(params, threshold=other)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteValuesRejected:
    @pytest.mark.parametrize("c", [*NON_FINITE, 1.0])
    def test_c(self, c):
        with pytest.raises(ContractViolation, match="c must be > 1 and finite"):
            pinned(c, 1.5)
        with pytest.raises(ContractViolation, match="c must be > 1 and finite"):
            dataclasses.replace(pinned(3.0, 1.5), c=c)

    @pytest.mark.parametrize("r", [*NON_FINITE, 0.0])
    def test_r(self, r):
        with pytest.raises(ContractViolation, match="r must be > 0 and finite"):
            pinned(3.0, 1.5, r=r)

    @pytest.mark.parametrize("kappa", ["kappa_w", "kappa_t", "kappa_eps"])
    @pytest.mark.parametrize("value", [*NON_FINITE, 0.0])
    def test_knobs(self, kappa, value):
        with pytest.raises(ContractViolation, match=f"{kappa} must be > 0 and finite"):
            Knobs(**{kappa: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_override_w(self, value):
        with pytest.raises(ContractViolation, match="derived w must be > 0 and finite"):
            pinned(3.0, 1.5, overrides={"w": value})
        with pytest.raises(ContractViolation, match="w must be > 0 and finite"):
            LatticeParams(w=value, t=2, num_shifts=4)

    @pytest.mark.parametrize("value", [1e300, 1e207])
    def test_override_w_too_large_for_t(self, value):
        # finite, but kappa_t * w**p overflows a float before t can be derived from it
        with pytest.raises(ContractViolation, match=re.escape(f"w={value} is too large")):
            pinned(3.0, 1.5, overrides={"w": value})

    def test_derived_w_checked_before_t(self):
        # c * ln c overflows to inf, which ceil(kappa_t * w^p) would raise on
        with pytest.raises(ContractViolation, match="derived w must be > 0 and finite"):
            pinned(1e308, 1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_override_delta(self, value):
        with pytest.raises(ContractViolation, match="delta must be >= 3"):
            pinned(3.0, 1.5, overrides={"delta": value})
        with pytest.raises(ContractViolation, match="delta must be >= 3"):
            LatticeParams(w=1.0, t=2, num_shifts=4, delta=value)

    @pytest.mark.parametrize("value", [*NON_FINITE, 0.0, -1.0])
    def test_override_threshold(self, value):
        with pytest.raises(ContractViolation, match="threshold must be > 0 and finite"):
            pinned(3.0, 1.5, overrides={"threshold": value})
        with pytest.raises(ContractViolation, match="threshold must be > 0 and finite"):
            Threshold(value=value, t=3, epsilon=0.5, p=1.5, sample_count=0, seed=0)

    @pytest.mark.parametrize("key", ["t", "u", "u_max"])
    @pytest.mark.parametrize("value", [*NON_FINITE, 3.5])
    def test_integer_overrides(self, key, value):
        with pytest.raises(ContractViolation, match=f"override {key} must be an integer"):
            pinned(3.0, 1.5, overrides={key: value})


class TestScaleToUnit:
    def test_roundtrip(self, rng):
        pts = rng.normal(size=(20, 5)) * 10.0
        r = 2.5
        back = scale_to_unit(pts, r) * r
        assert np.max(np.abs(back - pts)) <= 1e-12 * np.max(np.abs(pts))

    def test_radius_validation(self):
        for r in (0.0, *NON_FINITE):
            with pytest.raises(ContractViolation):
                scale_to_unit(np.ones(3), r)


class TestSampleHash:
    def test_shapes(self):
        params = cheap_scheme()
        h = sample_hash(params, d=8, seed=3)
        assert h.projection.shape == (params.t, 8)
        assert h.project(np.zeros(8)).shape == (params.t,)
        assert h.project(np.zeros((5, 8))).shape == (5, params.t)

    def test_determinism(self):
        params = cheap_scheme()
        a = sample_hash(params, d=8, seed=3)
        b = sample_hash(params, d=8, seed=3)
        assert np.array_equal(a.projection, b.projection)
        assert np.array_equal(a.lattices.shift_block(0, 16), b.lattices.shift_block(0, 16))

    def test_seed_changes_function(self):
        params = cheap_scheme()
        a = sample_hash(params, d=8, seed=3)
        b = sample_hash(params, d=8, seed=4)
        assert not np.array_equal(a.projection, b.projection)

    def test_projection_includes_threshold_scale(self):
        # doubling T at fixed seed shrinks A' by 2^(1/p)
        base = cheap_scheme(threshold=1.0)
        doubled = cheap_scheme(threshold=2.0)
        a = sample_hash(base, d=6, seed=1).projection
        b = sample_hash(doubled, d=6, seed=1).projection
        assert np.allclose(b, a * 2.0 ** (-1.0 / 1.5), rtol=1e-12)

    def test_dimension_validation(self):
        params = cheap_scheme()
        with pytest.raises(ContractViolation):
            sample_hash(params, d=0, seed=1)
        h = sample_hash(params, d=8, seed=1)
        with pytest.raises(ContractViolation):
            h.project(np.zeros(7))

    def test_projection_linear(self, rng):
        params = cheap_scheme()
        h = sample_hash(params, d=10, seed=7)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        a, b = 0.73, -1.4
        lhs = h.project(a * x + b * y)
        rhs = a * h.project(x) + b * h.project(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def hashed(h, points):
    """(u, coords) of points of R^d under one sampled function, in one hash_batch call."""
    u, coords, _ = hash_batch(h.project(points), [h.lattices], h.scheme.space())
    return u, coords


class TestEvalHash:
    """A sampled function hashes points of R^d through hash_batch."""

    def test_deterministic_and_self_colliding(self, rng):
        params = cheap_scheme()
        h = sample_hash(params, d=8, seed=5)
        x = rng.normal(size=(1, 8))
        u, coords = hashed(h, x)
        again = hashed(h, x)
        assert np.array_equal(u, again[0]) and np.array_equal(coords, again[1])
        assert u.shape == (1,) and coords.shape == (1, params.t)

    def test_batch_matches_single(self, rng):
        # a many-row call equals its one-row calls
        params = cheap_scheme()
        h = sample_hash(params, d=8, seed=6)
        pts = rng.normal(size=(64, 8))
        u, coords = hashed(h, pts)
        for i in range(0, 64, 13):
            u_one, coords_one = hashed(h, pts[i : i + 1])
            assert u_one[0] == u[i]
            assert np.array_equal(coords_one[0], coords[i])

    def test_near_collides_more_than_far(self):
        # c-separated pair over >= 1e3 independent functions
        params = cheap_scheme(c=2.0, p=1.5)
        d = 8
        rows = np.zeros((3, d))  # x, a near point and a far point
        rows[1, 0] = params.r
        rows[2, 0] = params.c * params.r
        n_funcs = 1_000
        hit_near = 0
        hit_far = 0
        root = derive_rng(0, 9300).integers(0, 2**31 - 1, size=n_funcs)
        for seed in root:
            u, coords = hashed(sample_hash(params, d=d, seed=int(seed)), rows)
            if u[0] == 0:
                continue
            same = (u == u[0]) & (coords == coords[0]).all(axis=1)
            hit_near += bool(same[1])
            hit_far += bool(same[2])
        assert hit_near > hit_far
        # two-proportion z; expected gap is ~0.2 at these knobs
        p1, p2 = hit_near / n_funcs, hit_far / n_funcs
        se = math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / n_funcs)
        assert p1 - p2 > 3.0 * se
