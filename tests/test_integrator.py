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
from ptwells.integrator import MIN_SAMPLES_PER_STEP

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

    @pytest.mark.parametrize("fixture,steps,samples", [("fig_closed", 876, 16_353), ("fig_tunneling", 2_174, 58_017)])
    def test_step_count_is_pinned(self, fixture, steps, samples, request):
        # the accepted steps and the samples, up to rounding; a change of the step
        # length, of the turn rule or of the sample-count rule moves them.  Every step
        # emits a multiple of MIN_SAMPLES_PER_STEP samples, at least that many
        traj = request.getfixturevalue(fixture)
        assert abs(traj.n_accepted - steps) <= 0.005 * steps
        assert abs(len(traj) - samples) <= 0.005 * samples
        assert (len(traj) - 1) % MIN_SAMPLES_PER_STEP == 0
        assert len(traj) - 1 >= MIN_SAMPLES_PER_STEP * traj.n_accepted

    def test_interior_samples_are_as_accurate_as_step_ends(self):
        # samples between step ends come from each step's exact flow map over
        # theta h; each is checked against a rel_tol-1e-13 run that ends at its
        # time.  Over the closed figure to t = 10, at every 97th sample, those off
        # the multiples of MIN_SAMPLES_PER_STEP (where every step end lies) are off
        # by up to 1.5e-13 in z and 9.5e-12 in p (p is large on the whips), and the
        # others by 5.8e-14 and 9.3e-13; a degree-7 Hermite interpolant left
        # 2.7e-11 and 6.9e-10
        c = well_center(WellIndex(Side.LEFT, 0), P)
        z0 = complex(c.real, c.imag + 0.4740)
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)
        traj = integrate(z0, p0, IntegratorConfig(t_max=10.0), P)
        for i in (i for i in range(1, len(traj), 97) if i % MIN_SAMPLES_PER_STEP):
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
        # (8) has 4.0x the largest drift of the steps before it, so a limit just below
        # its drift discards it alone
        c = well_center(WellIndex(Side.LEFT, 0), P)
        z0 = complex(c.real, c.imag + 0.58)
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)
        lifted = integrate(z0, p0, replace(run_preset(0.8 + 0j), energy_drift_limit=1.0), P)  # the same steps
        assert lifted.termination is Termination.ESCAPED
        n = lifted.n_accepted
        # the samples of the start and the n - 1 steps before the last, whose samples all carry its drift
        kept = int(np.flatnonzero(lifted.drift != lifted.drift[-1])[-1]) + 1
        cfg = replace(lifted.config, energy_drift_limit=0.9 * lifted.drift[-1])
        assert lifted.drift[:kept].max() < cfg.energy_drift_limit
        traj = integrate(z0, p0, cfg, P)
        assert traj.termination is Termination.ESCAPED
        assert traj.n_accepted == n and len(traj) == kept and np.array_equal(traj.t, lifted.t[:kept])
        assert abs(traj.z[-1].imag - z0.imag) < cfg.escape_y_span  # the last kept sample is inside the cell
        assert traj.max_drift <= cfg.energy_drift_limit
        assert classify_orbit(traj).kind is OrbitKind.OPEN_ESCAPE
        # without the cell exit, the same step ends the run by drift
        unbounded = integrate(z0, p0, replace(cfg, escape_y_span=math.inf), P)
        assert unbounded.termination is Termination.DRIFT_EXCEEDED
        assert unbounded.n_accepted == n and np.array_equal(unbounded.t, traj.t)

    def test_kernel_is_called_only_where_the_loop_enters_a_chart(self, monkeypatch):
        # the flow map evaluates w'' and Q at the new point inline from Q's
        # coefficients: the scalar kernel runs once at the start and once per chart change
        calls = []

        def counting_chart_flow(params, energy):
            kernel = chart_flow(params, energy)

            def counted(w):
                calls.append(w)
                return kernel(w)

            return counted

        monkeypatch.setattr(integrator, "chart_flow", counting_chart_flow)
        p0 = initial_momentum(0j, 1 + 1j, MomentumBranch.PRINCIPAL, P)
        traj = integrate(0j, p0, IntegratorConfig(t_max=80.0), P)
        assert traj.termination is Termination.TIME_LIMIT
        # the side of Re z = 0 at the start and at every MIN_SAMPLES_PER_STEP-th sample
        # but the last, among them every step end but the last, which ends the run
        # without a chart change: a crossing changes the chart at the end of its step,
        # and on this orbit no two crossings share a step, nor does one lie in the last
        right = traj.z.real[:-1:MIN_SAMPLES_PER_STEP] > 0.0
        changes = int(np.count_nonzero(np.diff(right)))
        assert changes >= 4
        assert len(calls) == 1 + changes

    def test_step_limit(self):
        traj = integrate(0j, 1 + 1j, IntegratorConfig(t_max=100.0, max_steps=10), P)
        assert traj.termination is Termination.STEP_LIMIT

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


def _closed_form(mp, z0: complex, p0: complex, params: SystemParams):
    """t -> w(t) = e^{2 z(t)} of the orbit from (z0, p0), by Whittaker & Watson 20.6
    at mpmath's working precision, with E = H(z0, p0) there.  P(t) and P'(t) are
    the 16-term Laurent series at u = t / 2^n, |u| <= 1e-2, doubled n times along
    the tangent of y^2 = 4x^3 - g2 x - g3."""
    zeta, m = mp.mpf(params.zeta), mp.mpf(params.m_int)
    z0, p0 = mp.mpc(z0), mp.mpc(p0)
    energy = p0**2 - (zeta * mp.cosh(2 * z0) - 1j * m) ** 2
    # f = 4Q = a0 w^4 + 4 a1 w^3 + 6 a2 w^2 + 4 a3 w + a4
    a0 = a4 = 4 * zeta**2
    a1 = a3 = -4j * m * zeta
    a2 = (8 * zeta**2 - 16 * m**2 + 16 * energy) / 6
    g2 = a0 * a4 - 4 * a1 * a3 + 3 * a2**2
    g3 = a0 * a2 * a4 + 2 * a1 * a2 * a3 - a2**3 - a0 * a3**2 - a1**2 * a4
    w0 = mp.exp(2 * z0)
    v0 = 4 * p0 * w0
    f0 = a0 * w0**4 + 4 * a1 * w0**3 + 6 * a2 * w0**2 + 4 * a3 * w0 + a4
    f1 = 4 * a0 * w0**3 + 12 * a1 * w0**2 + 12 * a2 * w0 + 4 * a3
    f2 = 12 * a0 * w0**2 + 24 * a1 * w0 + 12 * a2
    f3 = 24 * a0 * w0 + 24 * a1
    f4 = 24 * a0
    c = [0, 0, g2 / 20, g3 / 28]
    for k in range(4, 18):
        c.append(mp.mpf(3) / ((2 * k + 1) * (k - 3)) * sum(c[j] * c[k - j] for j in range(2, k - 1)))
    dc = [(2 * k - 2) * ck for k, ck in enumerate(c)]

    def w(t: float):
        n = max(0, math.ceil(math.log2(t / 1e-2)))
        u = mp.mpf(t) / 2**n
        uu = u * u
        sp = sd = 0
        for k in range(17, 1, -1):  # the series in Horner form
            sp = sp * uu + c[k]
            sd = sd * uu + dc[k]
        p = 1 / uu + uu * sp
        d = u * sd - 2 / (uu * u)
        for _ in range(n):
            lam = (6 * p * p - g2 / 2) / d
            x3 = lam * lam / 4 - 2 * p
            p, d = x3, -(lam * (x3 - p) + d)
        s = p - f2 / 24
        return w0 + (-v0 * d + f1 * s / 2 + f0 * f3 / 24) / (2 * s * s - f0 * f4 / 48)

    return w


class TestChartStep:
    @pytest.mark.parametrize(
        "energy,offset", [(1 + 1j, None), (1 + 3.2j, None), (0.8 + 0j, 0.474)], ids=["1+1i", "1+3.2i", "0.8-closed"]
    )
    def test_matches_the_closed_form(self, energy, offset):
        # every sample up to t = 10 against the orbit's closed form at 40 digits, from the
        # run's own start: the step ends and the samples between them are exact up to
        # rounding (worst 3.6e-14, 4.4e-14 and 2.9e-13 here)
        mp = pytest.importorskip("mpmath")
        if offset is None:
            z0 = 0j
        else:
            c = well_center(WellIndex(Side.LEFT, 0), P)
            z0 = complex(c.real, c.imag + offset)
        p0 = initial_momentum(z0, energy, MomentumBranch.PRINCIPAL, P)
        traj = integrate(z0, p0, run_preset(energy, 10.0), P)
        assert traj.termination is Termination.TIME_LIMIT
        with mp.workdps(40):
            w = _closed_form(mp, z0, p0, P)
            ph = math.atan2(math.sin(2.0 * z0.imag), math.cos(2.0 * z0.imag))
            k = round((2.0 * z0.imag - ph) / (2.0 * math.pi))  # the turns of w = e^{2z} about 0
            worst = 0.0
            for t, z in zip(traj.t[1:], traj.z[1:]):
                wt = w(float(t))
                ph_new = float(mp.arg(wt))
                turn = round((ph_new - ph) / (2.0 * math.pi))
                assert abs(ph_new - ph - 2.0 * math.pi * turn) <= 1.0 + 1e-9  # so k is certain
                k -= turn
                ph = ph_new
                z_mp = complex((mp.log(abs(wt)) + 1j * (mp.arg(wt) + 2 * mp.pi * k)) / 2)
                worst = max(worst, abs(z_mp - z))
        assert traj.t[-1] == 10.0
        assert worst <= 1e-12

    @pytest.mark.parametrize("energy", [0.8 + 0j, 1 + 1j, 1 + 6.7j])
    def test_series_on_an_array_matches_the_scalar_series(self, energy):
        # the emission sums P and P' on arrays of sample offsets, the loop on one step
        # length: both from the same coefficients, to a few ulp (at most 6.5e-16 here)
        q = chart_coefficients(P, energy)
        c = integrator.laurent_coefficients(*integrator.chart_invariants(q))
        u = np.arange(1, 33) / 32 / 12.0
        p, dp = integrator.weierstrass_p(u, c)
        for x, px, dpx in zip(u.tolist(), p, dp):
            p1, dp1 = integrator.weierstrass_p(x, c)
            assert abs(px - p1) <= 2e-15 * abs(p1)
            assert abs(dpx - dp1) <= 2e-15 * abs(dp1)

    def test_step_beyond_the_series_radius_raises(self):
        # at rel_tol 100 the step length is 2.64, beyond this orbit's period
        # omega_A = 0.548, a point of the lattice: the Laurent series of the
        # Weierstrass function diverges there, and the run raises, not returning an orbit
        c = well_center(WellIndex(Side.LEFT, 0), P)
        z0 = complex(c.real, c.imag + 0.474)
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)
        with pytest.raises(NonFiniteStateError, match="did not converge"):
            integrate(z0, p0, IntegratorConfig(t_max=10.0, rel_tol=100.0), P)
