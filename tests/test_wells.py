import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptwells import (
    DomainError,
    Side,
    SystemParams,
    WellIndex,
    nearest_well,
    potential,
    potential_gradient,
    well_center,
    well_x,
)
from ptwells.wells import nearest_wells

P = SystemParams(0.1, 3)


class TestWellCenter:
    def test_right_n0_position(self):
        c = well_center(WellIndex(Side.RIGHT, 0), P)
        # independent log form of arcsinh(30)/2
        assert c.real == pytest.approx(0.5 * math.log(30 + math.sqrt(901)), rel=1e-14)
        assert c.real == pytest.approx(2.04731, abs=5e-6)
        assert c.imag == pytest.approx(math.pi / 4, rel=1e-15)

    def test_left_n0_mirror(self):
        r = well_center(WellIndex(Side.RIGHT, 0), P)
        l = well_center(WellIndex(Side.LEFT, 0), P)
        assert l.real == -r.real
        assert l.imag == pytest.approx(-math.pi / 4, rel=1e-15)

    def test_zeta_one_x(self):
        c = well_center(WellIndex(Side.RIGHT, 0), SystemParams(1.0, 3))
        assert c.real == pytest.approx(0.5 * math.log(3 + math.sqrt(10)), rel=1e-14)
        assert c.real == pytest.approx(0.90922, abs=5e-6)

    def test_lattice_period(self):
        for side in Side:
            a = well_center(WellIndex(side, 3), P)
            b = well_center(WellIndex(side, 4), P)
            assert (b - a).imag == pytest.approx(math.pi, rel=1e-14)
            assert (b - a).real == 0.0

    def test_potential_vanishes_at_centers(self):
        for zeta in (0.1, 1.0):
            for m in (2, 3, 4, 5):
                params = SystemParams(zeta, m)
                for side in Side:
                    for n in range(-50, 51):
                        v = potential(well_center(WellIndex(side, n), params), params)
                        assert abs(v) <= 1e-12

    def test_gradient_vanishes_at_centers_near_origin(self):
        for zeta in (0.1, 1.0):
            for m in (2, 3, 4, 5):
                params = SystemParams(zeta, m)
                for side in Side:
                    for n in range(-12, 13):
                        g = potential_gradient(well_center(WellIndex(side, n), params), params)
                        assert abs(g) <= 1e-12

    def test_gradient_at_far_centers_bounded_by_representation_floor(self):
        # the y coordinate of the n-th center carries an O(|y| eps) float
        # representation error, amplified by the curvature 8 (M^2 + zeta^2)
        eps = 2.220446049250313e-16
        for zeta in (0.1, 1.0):
            for m in (2, 3, 4, 5):
                params = SystemParams(zeta, m)
                curv = 8.0 * (m * m + zeta * zeta)
                for side in Side:
                    for n in range(-50, 51):
                        c = well_center(WellIndex(side, n), params)
                        floor = curv * max(abs(c.imag), 1.0) * 4.0 * eps
                        g = potential_gradient(c, params)
                        assert abs(g) <= max(1e-12, floor)


class TestNearestWell:
    def test_exact_center(self):
        idx = WellIndex(Side.RIGHT, 5)
        got, d = nearest_well(well_center(idx, P), P)
        assert got == idx
        assert d == 0.0

    def test_origin_tie_breaks_right(self):
        idx, d = nearest_well(0j, P)
        assert idx == WellIndex(Side.RIGHT, 0)
        assert d == pytest.approx(math.hypot(well_x(P), math.pi / 4), rel=1e-15)

    def test_small_perturbation(self):
        idx = WellIndex(Side.LEFT, -3)
        z = well_center(idx, P) + 0.1
        got, d = nearest_well(z, P)
        assert got == idx
        assert d == pytest.approx(0.1, rel=1e-12)

    @given(
        st.floats(-5, 5, allow_nan=False),
        st.floats(-40, 40, allow_nan=False),
        st.sampled_from([(0.1, 3), (1.0, 5), (0.5, 2)]),
    )
    @settings(max_examples=150)
    def test_matches_brute_force(self, x, y, zm):
        params = SystemParams(*zm)
        z = complex(x, y)
        got, d = nearest_well(z, params)
        best = min(
            abs(z - well_center(WellIndex(side, n), params))
            for side in Side
            for n in range(-60, 61)
        )
        assert d == pytest.approx(best, rel=1e-12, abs=1e-12)
        assert abs(z - well_center(got, params)) == pytest.approx(best, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(1.0, math.inf)])
    def test_non_finite_point_raises(self, z):
        with pytest.raises(DomainError, match="z must be finite"):
            nearest_well(z, P)
        with pytest.raises(DomainError, match="z must be finite"):
            nearest_wells(np.array([z]), P)

    @pytest.mark.parametrize("zm", [(0.1, 3), (1.0, 5), (0.5, 2)])
    def test_array_matches_brute_force(self, zm, rng):
        # the whole array at once, each point against the minimum over the lattice
        params = SystemParams(*zm)
        z = rng.uniform(-5, 5, 5000) + 1j * rng.uniform(-40, 40, 5000)
        right, n, d = nearest_wells(z, params)
        centers = np.array([well_center(WellIndex(side, k), params) for side in Side for k in range(-60, 61)])
        best = np.abs(z[:, None] - centers[None, :]).min(axis=1)
        got = np.array([well_center(WellIndex(Side.RIGHT if r else Side.LEFT, int(k)), params) for r, k in zip(right, n)])
        np.testing.assert_allclose(d, best, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(np.abs(z - got), best, rtol=1e-12, atol=1e-12)
