import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptwells import (
    PARITY_POINT,
    DomainError,
    SystemParams,
    hamiltonian,
    potential,
    potential_gradient,
    real_axis_hermitian_potential,
)
from ptwells.dynamics import chart_accel, chart_coefficients

P = SystemParams(0.1, 3)

box_z = st.builds(
    complex,
    st.floats(-4.0, 4.0, allow_nan=False),
    st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False),
)


class TestSystemParams:
    def test_rejects_nonpositive_zeta(self):
        with pytest.raises(DomainError):
            SystemParams(0.0, 3)
        with pytest.raises(DomainError):
            SystemParams(-1.0, 3)

    def test_rejects_bad_m(self):
        with pytest.raises(DomainError):
            SystemParams(0.1, 0)
        with pytest.raises(DomainError):
            SystemParams(0.1, 2.5)


class TestPotential:
    def test_vanishes_where_bracket_vanishes(self):
        # cosh 2z = iM/zeta at the stationary point family
        z = 0.5 * cmath.acosh(1j * P.m_int / P.zeta)
        assert abs(potential(z, P)) < 1e-12

    def test_hand_value_at_origin(self):
        # -(0.1 - 3i)^2 = 8.99 + 0.6i
        v = potential(0j, P)
        assert v == pytest.approx(8.99 + 0.6j, abs=1e-12)

    @given(st.floats(0.05, 3.0), st.integers(1, 6))
    def test_origin_value_all_params(self, zeta, m):
        v = potential(0j, SystemParams(zeta, m))
        assert v == pytest.approx(-((zeta - 1j * m) ** 2), rel=1e-12)

    @given(box_z)
    @settings(max_examples=200)
    def test_matches_independent_complex_arithmetic(self, z):
        # cmath path is independent of the real-decomposition implementation
        expected = -((P.zeta * cmath.cosh(2 * z) - 1j * P.m_int) ** 2)
        got = potential(z, P)
        assert got == pytest.approx(expected, abs=1e-10 * max(1.0, abs(expected)))

    @given(box_z)
    @settings(max_examples=200)
    def test_pt_invariance(self, z):
        # parity through i pi/2 combined with conjugation preserves V
        lhs = potential(PARITY_POINT - z.conjugate(), P).conjugate()
        rhs = potential(z, P)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            potential(complex(float("nan"), 0), P)
        with pytest.raises(DomainError):
            potential(complex(0, float("inf")), P)


class TestGradient:
    def test_zero_at_origin(self):
        assert potential_gradient(0j, P) == 0

    def test_finite_differences(self, rng):
        h = 1e-6
        for _ in range(100):
            z = complex(rng.uniform(-4, 4), rng.uniform(-2 * math.pi, 2 * math.pi))
            fd = (potential(z + h, P) - potential(z - h, P)) / (2 * h)
            an = potential_gradient(z, P)
            assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))

    def test_finite_differences_imaginary_direction(self, rng):
        h = 1e-6
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            fd = (potential(z + h * 1j, P) - potential(z - h * 1j, P)) / (2j * h)
            an = potential_gradient(z, P)
            assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


class TestHamiltonian:
    def test_sum_of_parts(self):
        assert hamiltonian(0j, 1 + 0j, P) == 1 + potential(0j, P)

    def test_energy_round_trip(self):
        p = cmath.sqrt((1 + 1j) - potential(0j, P))
        assert hamiltonian(0j, p, P) == pytest.approx(1 + 1j, abs=1e-12)

    def test_real_inputs_give_zero_e2_kinetic(self):
        # real p adds nothing to Im H: E2 is the potential's alone
        h = hamiltonian(0.3 + 0j, 2.0 + 0j, SystemParams(0.1, 1))
        v = potential(0.3 + 0j, SystemParams(0.1, 1))
        assert h.imag == pytest.approx(v.imag, abs=1e-14)

    def test_pure_imaginary_momentum(self):
        # p = i, V = 0 at a stationary point: E = -1
        z = 0.5 * cmath.acosh(1j * P.m_int / P.zeta)
        h = hamiltonian(z, 1j, P)
        assert h.real == pytest.approx(-1.0, abs=1e-10)
        assert h.imag == pytest.approx(0.0, abs=1e-10)


class TestChartFlow:
    def test_matches_the_z_flow(self, rng):
        # s = e^{2z}, s' = 4sp, s'' = 4s (4p^2 + dp/dt) and s'^2 = 4 Q(s) on the shell H = E
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            p = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            s = cmath.exp(2 * z)
            d2s, q = chart_accel(chart_coefficients(P, hamiltonian(z, p, P)), s)
            scale = max(1.0, abs(s) * (abs(p) ** 2 + abs(potential(z, P))))
            expected = 4 * s * (4 * p * p - potential_gradient(z, P))
            assert abs(d2s - expected) <= 1e-11 * scale
            assert abs(q - 4 * s * s * p * p) <= 1e-11 * abs(s) * scale


class TestChartCoefficients:
    @pytest.mark.parametrize("params", [P, SystemParams(1.0, 5)])
    def test_kernels_match_the_factored_forms(self, params, rng):
        # 2Q' and Q from the coefficients against the hand-factored forms
        # of Q = 4E w^2 + b^2, b = zeta w^2 - 2iM w + zeta, each to 1e-14 of the
        # sum of the absolute values of its terms
        zeta, i_m = params.zeta, 1j * params.m_int
        for _ in range(200):
            energy = complex(*rng.uniform(-10, 10, 2))
            w = cmath.rect(rng.uniform(0, 1), rng.uniform(-math.pi, math.pi))
            b = (zeta * w - 2 * i_m) * w + zeta
            u = zeta * w - i_m
            accel = 16 * energy * w + 8 * b * u
            q = 4 * energy * w * w + b * b
            r, e = abs(w), abs(energy)
            big_b, big_u = zeta * r * r + 2 * params.m_int * r + zeta, zeta * r + params.m_int
            got_accel, got_q = chart_accel(chart_coefficients(params, energy), w)
            assert abs(got_accel - accel) <= 1e-14 * (16 * e * r + 8 * big_b * big_u)
            assert abs(got_q - q) <= 1e-14 * (4 * e * r * r + big_b * big_b)


class TestRealAxisPotential:
    def test_hand_value_at_origin(self):
        assert real_axis_hermitian_potential(0.0, P) == pytest.approx(-8.41, abs=1e-12)

    def test_rim_is_zero(self):
        x = 0.5 * math.acosh(P.m_int / P.zeta)
        assert abs(real_axis_hermitian_potential(x, P)) < 1e-12

    @given(st.floats(-5, 5, allow_nan=False))
    def test_even_and_nonpositive(self, x):
        v = real_axis_hermitian_potential(x, P)
        assert v <= 0.0
        assert v == pytest.approx(real_axis_hermitian_potential(-x, P), rel=1e-12)

    def test_barrier_grows_with_m(self):
        heights = [-real_axis_hermitian_potential(0.0, SystemParams(0.1, m)) for m in (2, 3, 4)]
        assert heights[0] < heights[1] < heights[2]
