import math
from dataclasses import replace

import numpy as np
import pytest

from ptwells import (
    DomainError,
    IntegratorConfig,
    MomentumBranch,
    NonFiniteStateError,
    OrbitKind,
    PhaseState,
    Side,
    SystemParams,
    Termination,
    WellIndex,
    classify_orbit,
    derivative,
    detect_axis_crossings,
    hamiltonian,
    initial_momentum,
    integrate,
    potential_gradient,
    well_center,
)
from ptwells import integrator
from ptwells.cli import run_preset
from ptwells.dynamics import chart_coefficients, chart_flow
from ptwells.integrator import SAMPLES_PER_STEP, chart_step

P = SystemParams(0.1, 3)


class TestInitialMomentum:
    def test_zero_at_well_center_zero_energy(self):
        c = well_center(WellIndex(Side.RIGHT, 0), P)
        p0 = initial_momentum(c, 0j, MomentumBranch.PRINCIPAL, P)
        assert abs(p0) < 1e-7  # sqrt of the ~1e-25 residual potential

    def test_hand_value_origin(self):
        p0 = initial_momentum(0j, 1 + 1j, MomentumBranch.PRINCIPAL, P)
        assert p0 == pytest.approx(0.0707 + 2.8276j, abs=2e-4)

    def test_negated_flips_sign(self):
        p_pos = initial_momentum(0.3 + 0.2j, 1 + 1j, MomentumBranch.PRINCIPAL, P)
        p_neg = initial_momentum(0.3 + 0.2j, 1 + 1j, MomentumBranch.NEGATED, P)
        assert p_neg == -p_pos

    def test_round_trip(self, rng):
        for _ in range(100):
            z0 = complex(rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi))
            energy = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            p0 = initial_momentum(z0, energy, MomentumBranch.PRINCIPAL, P)
            assert abs(hamiltonian(z0, p0, P) - energy) <= 1e-12


class TestDerivative:
    def test_fixed_point_at_well_center(self):
        c = well_center(WellIndex(Side.LEFT, 2), P)
        dz, dp = derivative(PhaseState(0.0, c, 0j), P)
        assert dz == 0
        assert abs(dp) < 1e-12

    def test_free_motion_at_origin(self):
        dz, dp = derivative(PhaseState(0.0, 0j, 1 + 0j), P)
        assert dz == 2.0
        assert dp == 0

    def test_matches_gradient(self, rng):
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), rng.uniform(-6, 6))
            p = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            dz, dp = derivative(PhaseState(0.0, z, p), P)
            assert dz == 2 * p
            assert dp == pytest.approx(-potential_gradient(z, P), rel=1e-14)


class TestIntegrate:
    def test_equilibrium_stays_put(self):
        c = well_center(WellIndex(Side.RIGHT, 0), P)
        traj = integrate(c, 0j, IntegratorConfig(t_max=100.0), P)
        assert traj.termination is Termination.TIME_LIMIT
        assert np.max(np.abs(traj.z - c)) < 1e-5
        assert traj.t[-1] == 100.0

    def test_closed_orbit_stays_bounded(self, fig_closed):
        assert fig_closed.termination is Termination.TIME_LIMIT
        c = well_center(WellIndex(Side.LEFT, 0), P)
        assert np.max(np.abs(fig_closed.z - c)) < 1.5
        assert np.all(fig_closed.z.real < 0)  # never crosses the imaginary axis

    def test_time_strictly_increasing(self, fig_tunneling):
        assert np.all(np.diff(fig_tunneling.t) > 0)

    def test_energy_recorded_and_drift_bounded(self, fig_closed):
        z0, p0 = fig_closed.z[0], fig_closed.p[0]
        assert fig_closed.energy == hamiltonian(complex(z0), complex(p0), P)
        # default config: drift limit 1e-8, and this bounded run never trips it
        assert fig_closed.max_drift <= 1e-8

    @pytest.mark.parametrize("fixture", ["fig_closed", "fig_tunneling"])
    def test_stored_samples_hold_the_energy(self, fixture, request):
        # H evaluated in z at every stored sample, against criterion 5's
        # allowance 1e-8 + K R: a fault in rebuilding z and p from the chart
        # state (a lost turn of w, a drifting angle) breaks it
        traj = request.getfixturevalue(fixture)
        err1, err2 = traj.energy_component_errors()
        allowance = 1e-8 + (4.0 / math.sqrt(12.0) + 1.0) * traj.drift_floor_rss
        assert max(np.abs(err1).max(), np.abs(err2).max()) <= allowance

    def test_closed_period_is_omega_a(self, fig_closed):
        # omega_A, the integral of dw / sqrt(Q) between the two small roots of Q
        assert abs(classify_orbit(fig_closed).period - 0.548162911389794) <= 1e-5

    def test_no_jump_between_samples(self, fig_tunneling):
        # one step turns w by at most 1 rad and scales it by at most e, so z
        # moves by at most 1/2 in x and in y; a miscounted turn jumps by pi
        dz = np.diff(fig_tunneling.z)
        assert np.abs(dz.imag).max() <= 0.5
        assert np.abs(dz.real).max() <= 0.5
        assert len(detect_axis_crossings(fig_tunneling)) >= 3  # both charts are used

    @pytest.mark.parametrize("fixture,steps", [("fig_closed", 2_029), ("fig_tunneling", 6_922)])
    def test_step_count_is_pinned(self, fixture, steps, request):
        # the accepted DOP853 steps, up to rounding; a change of the method or
        # of its step control moves them
        traj = request.getfixturevalue(fixture)
        assert abs(traj.n_accepted - steps) <= 0.005 * steps
        assert len(traj) == SAMPLES_PER_STEP * traj.n_accepted + 1

    def test_interior_samples_are_as_accurate_as_step_ends(self):
        # samples between step ends come from each step's degree-7 Hermite
        # interpolant of w; each is checked against a rel_tol-1e-13 run that
        # ends at its time.  Over the closed figure to t = 10 the interior
        # samples are off by up to 4.0e-10 in z and 2.4e-8 in p, the step
        # ends by 4.5e-10 and 2.7e-8 (p is large on the whips)
        c = well_center(WellIndex(Side.LEFT, 0), P)
        z0 = complex(c.real, c.imag + 0.4740)
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)
        traj = integrate(z0, p0, IntegratorConfig(t_max=10.0), P)
        for i in (i for i in range(1, len(traj), 97) if i % SAMPLES_PER_STEP):
            ref = integrate(z0, p0, IntegratorConfig(t_max=float(traj.t[i]), rel_tol=1e-13, abs_tol=1e-15), P)
            assert abs(traj.z[i] - ref.z[-1]) <= 1e-9
            assert abs(traj.p[i] - ref.p[-1]) <= 5e-8

    def test_retained_samples_respect_drift_limit(self, fig_tunneling):
        limit = fig_tunneling.config.energy_drift_limit
        assert np.all(fig_tunneling.drift <= limit)

    def test_energy_conservation_default_tolerances_t200(self):
        c = well_center(WellIndex(Side.LEFT, 0), P)
        z0 = complex(c.real, c.imag + 0.3)
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)
        traj = integrate(z0, p0, IntegratorConfig(t_max=200.0), P)
        assert traj.termination is Termination.TIME_LIMIT
        assert traj.max_drift <= 1e-8

    def test_escape_termination(self):
        c = well_center(WellIndex(Side.LEFT, 0), P)
        z0 = complex(c.real, c.imag + 0.54)
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)
        traj = integrate(z0, p0, IntegratorConfig(t_max=60.0, escape_radius=4.0), P)
        assert traj.termination is Termination.ESCAPED

    def test_discarded_step_that_leaves_the_cell_ends_escaped(self):
        # a step that both exceeds the drift limit and leaves the cell is discarded,
        # and the escape test comes first, so the run ends escaped, not drift_exceeded.
        # 0.58 above left well 0 on the bounded preset, the step that leaves the cell
        # (23) has 6.6x the largest drift of the steps before it (6.6-7.0x above each
        # left well -3..3), so a limit just below its drift discards it alone
        c = well_center(WellIndex(Side.LEFT, 0), P)
        z0 = complex(c.real, c.imag + 0.58)
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)
        lifted = integrate(z0, p0, replace(run_preset(0.8 + 0j), energy_drift_limit=1.0), P)  # the same steps
        assert lifted.termination is Termination.ESCAPED
        n = lifted.n_accepted
        step_drift = lifted.drift[SAMPLES_PER_STEP::SAMPLES_PER_STEP]  # one per step
        cfg = replace(lifted.config, energy_drift_limit=0.9 * step_drift[-1])
        assert step_drift[:-1].max() < cfg.energy_drift_limit
        traj = integrate(z0, p0, cfg, P)
        assert traj.termination is Termination.ESCAPED
        assert traj.n_accepted == n and len(traj) == SAMPLES_PER_STEP * (n - 1) + 1  # the start and n - 1 kept steps
        assert abs(traj.z[-1].imag - z0.imag) < cfg.escape_y_span  # the last kept sample is inside the cell
        assert traj.max_drift <= cfg.energy_drift_limit
        assert classify_orbit(traj).kind is OrbitKind.OPEN_ESCAPE
        # without the cell exit, the same step ends the run by drift
        unbounded = integrate(z0, p0, replace(cfg, escape_y_span=math.inf), P)
        assert unbounded.termination is Termination.DRIFT_EXCEEDED
        assert unbounded.n_accepted == n and np.array_equal(unbounded.t, traj.t)

    def test_kernel_is_called_only_where_the_loop_enters_a_chart(self, monkeypatch):
        # the stages and the new point evaluate w'' inline from Q's coefficients:
        # the scalar kernel runs once at the start and once per chart change
        calls = []

        def counting_chart_flow(params, energy):
            kernel = chart_flow(params, energy)

            def counted(w):
                if not isinstance(w, np.ndarray):  # the emission's array calls are not counted
                    calls.append(w)
                return kernel(w)

            return counted

        monkeypatch.setattr(integrator, "chart_flow", counting_chart_flow)
        p0 = initial_momentum(0j, 1 + 1j, MomentumBranch.PRINCIPAL, P)
        traj = integrate(0j, p0, IntegratorConfig(t_max=80.0), P)
        assert traj.termination is Termination.TIME_LIMIT
        # the side of Re z = 0 at the start and at each step end but the last, which
        # ends the run without a chart change
        right = traj.z.real[:-1:SAMPLES_PER_STEP] > 0.0
        changes = int(np.count_nonzero(np.diff(right)))
        assert changes >= 4
        assert len(calls) == 1 + changes

    def test_step_limit(self):
        traj = integrate(0j, 1 + 1j, IntegratorConfig(t_max=100.0, max_steps=10), P)
        assert traj.termination is Termination.STEP_LIMIT

    def test_convergence_under_tolerance_halving(self):
        c = well_center(WellIndex(Side.LEFT, 0), P)
        z0 = complex(c.real, c.imag + 0.3)
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)

        def final_z(rtol, atol):
            # drift guard off: this compares raw integration accuracy
            cfg = IntegratorConfig(rel_tol=rtol, abs_tol=atol, t_max=10.0, energy_drift_limit=10.0)
            traj = integrate(z0, p0, cfg, P)
            assert traj.termination is Termination.TIME_LIMIT
            return complex(traj.z[-1])

        ref = final_z(1e-13, 1e-15)
        errors = [abs(final_z(tol, tol * 1e-2) - ref) for tol in (1e-7, 5e-8, 2.5e-8, 1.25e-8)]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse * 1.05 + 1e-14

    def test_time_reversal(self):
        c = well_center(WellIndex(Side.LEFT, 0), P)
        z0 = complex(c.real, c.imag + 0.3)
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)
        fwd = integrate(z0, p0, IntegratorConfig(t_max=20.0), P)
        z1, p1 = complex(fwd.z[-1]), complex(fwd.p[-1])
        back = integrate(z1, -p1, IntegratorConfig(t_max=20.0), P)
        assert abs(complex(back.z[-1]) - z0) <= 1e-6

    def test_config_validation(self):
        with pytest.raises(DomainError):
            IntegratorConfig(t_max=-1.0)
        with pytest.raises(DomainError):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(DomainError):
            IntegratorConfig(max_steps=0)

    def test_overflowing_start_rejected(self):
        with pytest.raises((DomainError, NonFiniteStateError, OverflowError)):
            integrate(complex(400.0, 0.0), 0j, IntegratorConfig(), P)


class TestChartStep:
    def test_equals_the_first_order_step(self, rng):
        # one DOP853 step on y = (w, w'), y' = (w', w''(w)), taken at 40 digits
        # with the same float tableau as the Nystrom form
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rows = [{}, *integrator._DOP853_ROWS[:-1]]  # stages 1-12
        b = integrator._DOP853_ROWS[-1]
        e5 = integrator._DOP853_E5
        bhat3 = integrator._DOP853_BHAT3
        e3 = {j: b.get(j, 0.0) - bhat3.get(j, 0.0) for j in {*b, *bhat3}}

        def first_order(accel, w, v, h, atol, rtol):
            """(w, w', w'', Q) at the new point, the error norm, and the same norm
            over the absolute values of the estimates' terms."""
            w, v, h = mp.mpc(w), mp.mpc(v), mp.mpf(h)
            ks = []
            for row in rows:
                sw = sum((mp.mpf(x) * ks[j][0] for j, x in row.items()), mp.mpc(0))
                sv = sum((mp.mpf(x) * ks[j][1] for j, x in row.items()), mp.mpc(0))
                ks.append((v + h * sv, accel(w + h * sw)[0]))
            wn = w + h * sum(mp.mpf(x) * ks[j][0] for j, x in b.items())
            vn = v + h * sum(mp.mpf(x) * ks[j][1] for j, x in b.items())
            an, qn = accel(wn)
            sw, sv = atol + rtol * max(abs(w), abs(wn)), atol + rtol * max(abs(v), abs(vn))

            def norm(total):
                def sq(e):
                    ew = h * total([mp.mpf(x) * ks[j][0] for j, x in e.items()]) / sw
                    ev = h * total([mp.mpf(x) * ks[j][1] for j, x in e.items()]) / sv
                    return ew * ew + ev * ev

                return sq(e5) / mp.sqrt(2 * (sq(e5) + sq(e3) / 100))

            return (wn, vn, an, qn), norm(lambda terms: abs(sum(terms))), norm(lambda terms: sum(map(abs, terms)))

        for _ in range(50):
            energy = complex(1.0, rng.uniform(0.0, 7.0))
            accel = chart_flow(P, energy)
            w = complex(*rng.uniform(-1, 1, 2))
            v = complex(*rng.uniform(-5, 5, 2))
            h = rng.uniform(1e-3, 0.1)
            *state, err = chart_step(chart_coefficients(P, energy), w, v, accel(w)[0], h, 1e-12, 1e-10)
            ref, ref_err, ref_scale = first_order(accel, w, v, h, 1e-12, 1e-10)
            for got, want in zip(state, ref):
                assert abs(got - want) <= 1e-14 * abs(want)
            # the estimates are differences of terms of the step's size, so their
            # rounding is relative to them, not to the estimates
            assert abs(err - ref_err) <= 1e-14 * (ref_err + ref_scale)

    def test_constants_are_dop853s(self):
        # the copied tableau against scipy's copy of Hairer's dop853.f, and the
        # Nystrom constants against the same products taken in numpy
        coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        a = np.zeros((13, 13))
        for i, row in enumerate(integrator._DOP853_ROWS, 1):
            for j, x in row.items():
                a[i, j] = x
        assert np.array_equal(a, coef.A[:13, :13])
        assert np.array_equal(integrator._B[:12], coef.B) and integrator._B[12] == 0.0
        assert np.array_equal(integrator._E5, coef.E5)
        assert np.array_equal(integrator._E3, coef.E3)
        assert np.allclose(integrator._C, coef.C[:13], rtol=0.0, atol=2e-15)  # c_i: the row sums of A
        assert np.allclose(integrator._AA, a @ a, rtol=1e-14, atol=1e-15)
        assert np.allclose(integrator._E5A, coef.E5 @ a, rtol=1e-14, atol=1e-15)
        assert np.allclose(integrator._E3A, coef.E3 @ a, rtol=1e-14, atol=1e-15)
