"""Shifted ball lattices: sizing, shifts, location, hashing, coverage."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lplsh import (
    ContractViolation,
    LatticeParams,
    LpSpace,
    ShiftedLatticeSet,
    compute_num_shifts,
    covering_fraction,
    hash_batch,
    locate,
)
from lplsh.util import binomial_se, derive_rng


class TestComputeNumShifts:
    def test_small_case(self):
        got = compute_num_shifts(1, 1.5, 4.0, 0.04)
        assert got.u == 19
        assert not got.saturated

    def test_second_case(self):
        got = compute_num_shifts(2, 2.0, 4.0, 0.08)
        assert got.u == 295
        assert not got.saturated

    @given(delta_fail=st.floats(min_value=1e-6, max_value=0.999999))
    @settings(max_examples=60, deadline=None)
    def test_at_least_one(self, delta_fail):
        assert compute_num_shifts(1, 1.5, 4.0, delta_fail).u >= 1

    def test_saturation_flag(self):
        got = compute_num_shifts(8, 1.5, 4.0, 0.05, u_max=1000)
        assert got.u == 1000
        assert got.saturated

    def test_validation(self):
        with pytest.raises(ContractViolation):
            compute_num_shifts(0, 1.5, 4.0, 0.05)
        with pytest.raises(ContractViolation):
            compute_num_shifts(2, 1.5, 2.5, 0.05)
        with pytest.raises(ContractViolation):
            compute_num_shifts(2, 1.5, 4.0, 1.5)


class TestShiftedLatticeSet:
    def test_shift_range(self):
        params = LatticeParams(w=1.2, t=3, num_shifts=500)
        shifts = ShiftedLatticeSet(params, 5).shifts
        assert shifts.shape == (500, 3)
        assert shifts.min() >= 0.0
        assert shifts.max() <= params.spacing

    def test_determinism(self):
        params = LatticeParams(w=1.0, t=2, num_shifts=100)
        a = ShiftedLatticeSet(params, 9).shifts
        b = ShiftedLatticeSet(params, 9).shifts
        assert np.array_equal(a, b)

    def test_shift_mean(self):
        u = 10_000
        params = LatticeParams(w=1.0, t=2, num_shifts=u)
        shifts = ShiftedLatticeSet(params, 0).shifts
        m = float(shifts.mean())
        # mean of Uniform(0, spacing) is spacing/2, sd spacing/sqrt(12)
        se = params.spacing / np.sqrt(12.0 * shifts.size)
        assert abs(m - params.spacing / 2.0) <= 3.0 * se

    def test_chunked_prefix_stability(self):
        # rows of a shorter set are a prefix of a longer one at equal seed
        small = ShiftedLatticeSet(LatticeParams(w=1.0, t=2, num_shifts=700), 3).shifts
        large = ShiftedLatticeSet(LatticeParams(w=1.0, t=2, num_shifts=2500), 3).shifts
        assert np.array_equal(large[:700], small)

    def test_params_validation(self):
        with pytest.raises(ContractViolation):
            LatticeParams(w=0.0, t=2, num_shifts=4)
        with pytest.raises(ContractViolation):
            LatticeParams(w=1.0, t=0, num_shifts=4)
        with pytest.raises(ContractViolation):
            LatticeParams(w=1.0, t=2, num_shifts=4, delta=2.9)


class TestLocate:
    def test_center_hit(self):
        params = LatticeParams(w=1.0, t=2, num_shifts=4)
        lattices = ShiftedLatticeSet(params, 1)
        s = lattices.shifts[2]
        got = locate(s, 3, lattices, LpSpace(1.5, 2))
        assert got is not None
        assert np.array_equal(got, np.zeros(2, dtype=np.int64))

    def test_one_dimensional_hand_case(self):
        params = LatticeParams(w=1.0, t=1, num_shifts=1)
        lattices = ShiftedLatticeSet(params, 0)
        lattices._chunks[0] = np.array([[0.5]])  # pin the shift for the worked example
        space = LpSpace(1.5, 1)
        got = locate(np.array([0.8]), 1, lattices, space)
        assert got is not None and got[0] == 0
        assert locate(np.array([2.4]), 1, lattices, space) is None

    def test_index_validation(self):
        params = LatticeParams(w=1.0, t=2, num_shifts=4)
        lattices = ShiftedLatticeSet(params, 1)
        with pytest.raises(ContractViolation):
            locate(np.zeros(2), 0, lattices, LpSpace(1.5, 2))
        with pytest.raises(ContractViolation):
            locate(np.zeros(2), 5, lattices, LpSpace(1.5, 2))

    def test_agrees_with_neighborhood_bruteforce(self):
        p = 1.5
        t = 2
        params = LatticeParams(w=1.1, t=t, num_shifts=6)
        lattices = ShiftedLatticeSet(params, 4)
        space = LpSpace(p, t)
        rng = derive_rng(0, 9200)
        pts = rng.uniform(-15.0, 15.0, size=(2_000, t))
        offsets = np.array(list(itertools.product((-1, 0, 1), repeat=t)), dtype=np.float64)
        for u in range(1, params.num_shifts + 1):
            s = lattices.shifts[u - 1]
            base = np.rint((pts - s[None, :]) / params.spacing)
            for i in range(pts.shape[0]):
                centers = (base[i][None, :] + offsets) * params.spacing + s[None, :]
                inside = (np.abs(pts[i][None, :] - centers) ** p).sum(axis=1) <= params.w**p
                want = (base[i] + offsets[inside][0]).astype(np.int64) if inside.any() else None
                got = locate(pts[i], u, lattices, space)
                if want is None:
                    assert got is None
                else:
                    assert got is not None and np.array_equal(got, want)


class TestHashPoint:
    """One point hashes as a one-row hash_batch call."""

    def test_smallest_u_wins(self):
        params = LatticeParams(w=1.0, t=1, num_shifts=2)
        lattices = ShiftedLatticeSet(params, 0)
        # both lattices cover the point: the hash must name the first
        lattices._chunks[0] = np.array([[1.0], [1.5]])
        u, coords, _ = hash_batch(np.array([[1.2]]), [lattices], LpSpace(1.5, 1))
        assert u.tolist() == [1]
        assert coords.tolist() == [[0]]

    def test_determinism(self, rng):
        params = LatticeParams(w=1.0, t=3, num_shifts=50)
        lattices = ShiftedLatticeSet(params, 2)
        x = rng.normal(size=(1, 3))
        space = LpSpace(1.5, 3)
        first, again = hash_batch(x, [lattices], space), hash_batch(x, [lattices], space)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_fallback_is_zero_with_zero_coords(self):
        params = LatticeParams(w=0.01, t=2, num_shifts=1)
        lattices = ShiftedLatticeSet(params, 0)
        u, coords, _ = hash_batch(np.array([[50.0, 50.0]]), [lattices], LpSpace(1.5, 2))
        assert u.tolist() == [0]
        assert coords.tolist() == [[0, 0]]

    def test_fallback_rate_within_budget(self):
        p = 1.5
        t = 2
        delta_fail = 0.05
        count = compute_num_shifts(t, p, 4.0, delta_fail)
        params = LatticeParams(w=1.0, t=t, num_shifts=count.u, delta_fail=delta_fail, saturated=count.saturated)
        lattices = ShiftedLatticeSet(params, 0)
        rng = derive_rng(0, 9201)
        n = 10_000
        pts = rng.uniform(0.0, params.spacing, size=(n, t))
        u, _, _ = hash_batch(pts, [lattices], LpSpace(p, t))
        rate = float((u == 0).mean())
        assert rate <= delta_fail + 3.0 * binomial_se(int(delta_fail * n), n)

    def test_probes_equal_u_on_hit(self):
        params = LatticeParams(w=1.5, t=2, num_shifts=200)
        lattices = ShiftedLatticeSet(params, 6)
        rng = derive_rng(0, 9202)
        pts = rng.uniform(0.0, params.spacing, size=(500, 2))
        u, _, probes = hash_batch(pts, [lattices], LpSpace(1.5, 2))
        hit = u > 0
        assert np.array_equal(probes[hit], u[hit])
        assert (probes[~hit] == params.num_shifts).all()

    def test_batch_matches_single(self, rng):
        # a many-row call equals its one-row calls
        params = LatticeParams(w=1.0, t=3, num_shifts=80)
        lattices = ShiftedLatticeSet(params, 8)
        space = LpSpace(1.5, 3)
        pts = rng.uniform(-4.0, 8.0, size=(200, 3))
        u, coords, _ = hash_batch(pts, [lattices], space)
        for i in range(0, 200, 17):
            u_one, coords_one, _ = hash_batch(pts[i : i + 1], [lattices], space)
            assert u_one[0] == u[i]
            assert np.array_equal(coords_one[0], coords[i])

    def test_translation_equivariance(self, rng):
        params = LatticeParams(w=1.0, t=2, num_shifts=60)
        lattices = ShiftedLatticeSet(params, 11)
        space = LpSpace(1.5, 2)
        pts = rng.uniform(-6.0, 6.0, size=(300, 2))
        k = rng.integers(-2, 3, size=(300, 2))
        u0, a0, _ = hash_batch(pts, [lattices], space)
        u1, a1, _ = hash_batch(pts + params.spacing * k, [lattices], space)
        assert np.array_equal(u0, u1)
        hit = u0 > 0
        assert np.array_equal(a1[hit], a0[hit] + k[hit])


class TestCoveringFraction:
    def test_zero_shifts(self, rng):
        params = LatticeParams(w=1.0, t=2, num_shifts=0)
        got = covering_fraction(ShiftedLatticeSet(params, 0), LpSpace(1.5, 2), 100, rng)
        assert got == 0.0

    def test_empty_point_set_rejected(self, rng):
        params = LatticeParams(w=1.0, t=2, num_shifts=4)
        with pytest.raises(ContractViolation, match="at least one point"):
            covering_fraction(ShiftedLatticeSet(params, 0), LpSpace(1.5, 2), 1, rng, points=np.empty((0, 2)))

    def test_single_shift_one_dim(self):
        # one lattice of unit balls with spacing 4 covers exactly half the line
        params = LatticeParams(w=1.0, t=1, num_shifts=1)
        n = 20_000
        got = covering_fraction(ShiftedLatticeSet(params, 3), LpSpace(1.5, 1), n, derive_rng(0, 9203))
        assert abs(got - 0.5) <= 3.0 * binomial_se(n // 2, n)

    def test_full_u_meets_budget(self):
        p = 1.5
        delta_fail = 0.05
        count = compute_num_shifts(2, p, 4.0, delta_fail)
        params = LatticeParams(w=1.0, t=2, num_shifts=count.u, delta_fail=delta_fail)
        n = 5_000
        got = covering_fraction(ShiftedLatticeSet(params, 1), LpSpace(p, 2), n, derive_rng(0, 9204))
        assert got >= 0.95 - 3.0 * binomial_se(int(0.05 * n), n)

    def test_monotone_in_u_nested_prefixes(self):
        # same seed gives nested shift prefixes, so coverage of a fixed
        # point set can only grow with U
        p = 1.5
        rng = derive_rng(0, 9205)
        pts = rng.uniform(0.0, 4.0, size=(3_000, 2))
        fracs = []
        for u in (1, 2, 8, 32, 128):
            params = LatticeParams(w=1.0, t=2, num_shifts=u)
            lattices = ShiftedLatticeSet(params, 42)
            fracs.append(covering_fraction(lattices, LpSpace(p, 2), 1, rng, points=pts))
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
