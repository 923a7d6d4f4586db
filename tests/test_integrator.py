import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from ptwells import (
    AmbiguousOrbitError,
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
from ptwells.dynamics import chart_accel, chart_coefficients, potential
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
        # default config (drift limit 1e-3); this bounded run's drift stays within 1e-8
        assert fig_closed.max_drift <= 1e-8

    @pytest.mark.parametrize("fixture", ["fig_closed", "fig_tunneling"])
    def test_stored_samples_hold_the_energy(self, fixture, request):
        # H evaluated in z at every stored sample, against K R, the rounding
        # floor alone: the samples are the flow map's, unprojected, so a sample
        # off the shell by more than rounding (a lost turn of w, a drifting
        # angle, a step start off the shell) breaks it.  Measured 0.010 and
        # 0.112 of the allowance
        traj = request.getfixturevalue(fixture)
        err1, err2 = traj.energy_component_errors()
        allowance = (4.0 / math.sqrt(12.0) + 1.0) * traj.drift_floor_rss
        assert max(np.abs(err1).max(), np.abs(err2).max()) <= allowance

    def test_closed_period_is_omega_a(self, fig_closed):
        # omega_A, the integral of dw / sqrt(Q) between the two small roots of Q: the real
        # period of the lattice, which classify_orbit reports (3.4e-14 off here)
        assert abs(classify_orbit(fig_closed).period - 0.548162911389794) <= 1e-12

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
            ref = integrate(z0, p0, IntegratorConfig(t_max=float(traj.t[i]), rel_tol=1e-13), P)
            assert abs(traj.z[i] - ref.z[-1]) <= 1e-9
            assert abs(traj.p[i] - ref.p[-1]) <= 5e-8

    def test_state_at_reads_the_samples_from_the_step_records(self, fig_closed, fig_tunneling):
        # at every 97th sample time, and at the last, the map of the step that holds it from
        # that step's start gives the sample: up to 2.2e-13 in z and 4.8e-13 relative in p on
        # the closed figure (876 step records), and 2.1e-13 and 4.3e-13 on the tunneling
        # figure (2,174); over all samples z is off by 2.7e-12 at most
        for traj in (fig_closed, fig_tunneling):
            for i in [*range(0, len(traj), 97), len(traj) - 1]:
                z, p = traj.state_at(float(traj.t[i]))
                assert abs(z - traj.z[i]) <= 2e-12 and abs(p - traj.p[i]) <= 1e-12 * abs(traj.p[i])
        t_end = float(fig_closed.t[-1])
        for t in (-1e-300, math.nextafter(t_end, math.inf), math.inf, math.nan):
            with pytest.raises(DomainError, match="outside the run"):
                fig_closed.state_at(t)
        # a trajectory built from samples alone reads no state, and so is never closed
        samples_only = replace(fig_closed, steps=None)
        with pytest.raises(DomainError, match="no step records"):
            samples_only.state_at(1.0)
        with pytest.raises(AmbiguousOrbitError):
            classify_orbit(samples_only)

    def test_retained_samples_respect_drift_limit(self, fig_tunneling):
        limit = run_preset(1 + 1j, 150.0).energy_drift_limit  # the config fig_tunneling ran with
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
        lifted_cfg = replace(run_preset(0.8 + 0j), energy_drift_limit=1.0)
        lifted = integrate(z0, p0, lifted_cfg, P)  # the same steps
        assert lifted.termination is Termination.ESCAPED
        n = lifted.n_accepted
        # the samples of the start and the n - 1 steps before the last, whose samples all carry its drift
        kept = int(np.flatnonzero(lifted.drift != lifted.drift[-1])[-1]) + 1
        cfg = replace(lifted_cfg, energy_drift_limit=0.9 * lifted.drift[-1])
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

    def test_kernel_is_called_once_per_accepted_step_and_chart_entry(self, monkeypatch):
        # the flow map returns (w, w') alone: the loop evaluates w'' and Q once at the
        # start, once at each accepted step's end and once per chart change, and never
        # at the end of a rejected attempt
        calls = []

        def counting_chart_accel(q, w):
            if sys._getframe(1).f_code is integrate.__code__:
                calls.append(w)
            return chart_accel(q, w)

        monkeypatch.setattr(integrator, "chart_accel", counting_chart_accel)
        p0 = initial_momentum(0j, 1 + 1j, MomentumBranch.PRINCIPAL, P)
        traj = integrate(0j, p0, IntegratorConfig(t_max=80.0), P)
        assert traj.termination is Termination.TIME_LIMIT
        assert traj.n_rejected > 0  # an attempt the count would include if the loop evaluated it
        # the side of Re z = 0 at the start and at every MIN_SAMPLES_PER_STEP-th sample
        # but the last, among them every step end but the last, which ends the run
        # without a chart change: a crossing changes the chart at the end of its step,
        # and on this orbit no two crossings share a step, nor does one lie in the last
        right = traj.z.real[:-1:MIN_SAMPLES_PER_STEP] > 0.0
        changes = int(np.count_nonzero(np.diff(right)))
        assert changes >= 4
        assert len(calls) == 1 + traj.n_accepted + changes

    def test_step_limit(self):
        traj = integrate(0j, 1 + 1j, IntegratorConfig(t_max=100.0, max_steps=10), P)
        assert traj.termination is Termination.STEP_LIMIT

    @pytest.mark.parametrize(
        "termination,config",
        [
            (Termination.TIME_LIMIT, IntegratorConfig(t_max=10.0)),  # 140 kept steps
            (Termination.STEP_LIMIT, replace(run_preset(1 + 1j, 150.0), max_steps=150)),  # 118
            (Termination.DRIFT_EXCEEDED, replace(run_preset(1 + 1j, 150.0), energy_drift_limit=1e-11)),  # 316
            (Termination.ESCAPED, IntegratorConfig(t_max=150.0, escape_radius=3.0)),  # 145
        ],
        ids=["time_limit", "step_limit", "drift_exceeded", "escaped"],
    )
    def test_samples_fill_the_arrays_at_every_end(self, termination, config, monkeypatch):
        # the samples are emitted after the loop, in blocks of consecutive kept steps,
        # into arrays allocated at the length the sample-count rule gives: a rule that
        # disagrees with the emission leaves np.empty's garbage in the tail, or overruns
        blocks, emit = [], integrator._emit

        def recording_emit(steps, *args):
            blocks.append(steps[:, 8].tolist())  # the steps' end times
            return emit(steps, *args)

        monkeypatch.setattr(integrator, "_emit", recording_emit)
        p0 = initial_momentum(0j, 1 + 1j, MomentumBranch.PRINCIPAL, P)
        traj = integrate(0j, p0, config, P)
        assert traj.termination is termination
        kept = sum(map(len, blocks))
        assert kept == traj.n_accepted - (termination is Termination.DRIFT_EXCEEDED)
        assert kept > integrator._BLOCK_STEPS and kept % integrator._BLOCK_STEPS
        assert all(len(b) == integrator._BLOCK_STEPS for b in blocks[:-1])
        for x in (traj.t, traj.z, traj.p, traj.drift):
            assert np.all(np.isfinite(x))
        assert np.all(np.diff(traj.t) > 0.0)
        assert (len(traj) - 1) % MIN_SAMPLES_PER_STEP == 0
        assert len(traj) - 1 >= MIN_SAMPLES_PER_STEP * kept
        assert traj.t[-1] == blocks[-1][-1]
        if termination is Termination.TIME_LIMIT:
            assert traj.t[-1] == config.t_max

    def test_time_reversal(self):
        c = well_center(WellIndex(Side.LEFT, 0), P)
        z0 = complex(c.real, c.imag + 0.3)
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)
        fwd = integrate(z0, p0, IntegratorConfig(t_max=20.0), P)
        z1, p1 = complex(fwd.z[-1]), complex(fwd.p[-1])
        back = integrate(z1, -p1, IntegratorConfig(t_max=20.0), P)
        assert abs(complex(back.z[-1]) - z0) <= 1e-6

    def test_loose_rel_tol_keeps_the_closed_start(self, fig_closed):
        # above rel_tol 1e-10 the step keeps its 1e-10 length: at 1e-5 it grew 4.2x,
        # past the Laurent series' radius, and the first step raised NonFiniteStateError
        c = well_center(WellIndex(Side.LEFT, 0), P)
        z0 = complex(c.real, c.imag + 0.4740)
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)
        traj = integrate(z0, p0, IntegratorConfig(t_max=40.0, rel_tol=1e-5), P)
        assert traj.termination is Termination.TIME_LIMIT and traj.t[-1] == 40.0
        assert (traj.n_accepted, traj.n_rejected) == (fig_closed.n_accepted, fig_closed.n_rejected)
        assert classify_orbit(traj).kind is OrbitKind.CLOSED

    def test_loose_rel_tol_keeps_the_tunneling_run(self):
        # (zeta, M) = (1.0, 4) at E = 1+i from the origin: with a step grown by
        # (1e-6 / 1e-10)^(1/8) = 3.2x the drift passed the preset's 1e-3 limit at t = 12.76
        params = SystemParams(1.0, 4)
        p0 = initial_momentum(0j, 1 + 1j, MomentumBranch.PRINCIPAL, params)
        cfg = run_preset(1 + 1j, 60.0)
        traj = integrate(0j, p0, replace(cfg, rel_tol=1e-6), params)
        ref = integrate(0j, p0, cfg, params)
        assert traj.termination is Termination.TIME_LIMIT and traj.t[-1] == 60.0
        assert traj.max_drift <= 1e-7
        assert (traj.n_accepted, traj.n_rejected) == (ref.n_accepted, ref.n_rejected)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("rel_tol", 0.0), ("rel_tol", math.nan), ("rel_tol", math.inf),
            ("t_max", -1.0), ("t_max", math.inf),
            ("max_steps", 0),
            ("energy_drift_limit", 0.0), ("energy_drift_limit", math.nan),
            ("escape_radius", -1.0), ("escape_radius", math.inf),
            ("escape_y_span", 0.0), ("escape_y_span", math.nan),
        ],
    )
    def test_config_validation(self, name, value):
        with pytest.raises(DomainError, match=name):
            IntegratorConfig(**{name: value})

    @pytest.mark.parametrize("x", [-400.0, -200.0, 200.0, 400.0])
    def test_overflowing_kernels_raise(self, x):
        # cmath.cosh(2z) is finite up to |Re z| ~ 355, the potential's square
        # and the gradient's product only up to about half that
        z = complex(x, 0.3)
        kernels = [
            lambda: potential(z, P),
            lambda: potential_gradient(z, P),
            lambda: hamiltonian(z, 1j, P),
            lambda: initial_momentum(z, 0.8 + 0j, MomentumBranch.PRINCIPAL, P),
            lambda: derivative(PhaseState(0.0, z, 1j), P),
        ]
        for kernel in kernels:
            with pytest.raises(NonFiniteStateError, match="overflow"):
                kernel()

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


def _mp_real_period(g2: complex, g3: complex) -> float:
    """omega_R = 2 K(m) / sqrt(e1 - e3), m = (e2 - e3) / (e1 - e3), from the roots
    e1 >= e2 >= e3 of 4x^3 - g2 x - g3 at 30 digits (real parts, where rounding of
    a near-degenerate g2, g3 leaves e2 and e3 a complex pair)."""
    import mpmath as mp

    with mp.workdps(30):
        roots = mp.polyroots([4, 0, -mp.mpf(g2.real), -mp.mpf(g3.real)], extraprec=60)
        e1, e2, e3 = sorted((mp.re(x) for x in roots), reverse=True)
        return float(2 * mp.ellipk((e2 - e3) / (e1 - e3)) / mp.sqrt(e1 - e3))


class TestRealPeriod:
    @pytest.mark.parametrize(
        "zeta,m_int,energy",
        [(0.1, 3, 0.8), (0.1, 3, -1.0), (0.1, 2, 0.8), (1.0, 4, 0.8), (0.3, 3, 5.0)]
        + [(0.1, 5, 1e-3), (0.1, 3, 1e-5), (0.1, 3, -1e-4)],
    )
    def test_matches_the_complete_elliptic_integral(self, zeta, m_int, energy):
        # at most 2.2e-16 relative here, also at the small energies, where
        # g2^3 - 27 g3^2 is down at its rounding
        pytest.importorskip("mpmath")
        g2, g3 = integrator.chart_invariants(chart_coefficients(SystemParams(zeta, m_int), complex(energy)))
        assert abs(integrator.real_period(g2, g3) / _mp_real_period(g2, g3) - 1.0) <= 1e-14

    @pytest.mark.parametrize("zeta,m_int", [(0.1, 3), (0.1, 1), (0.3, 4), (1.0, 5)])
    def test_zero_energy_gives_the_limit(self, zeta, m_int):
        # at E = 0 the well centers are equilibria and the lattice degenerates to e2 = e3;
        # omega_R tends to T0 = pi / (2 sqrt(M^2 + zeta^2)), the real period of the orbits
        # there.  The computed cos 3phi reads 1 - 1.1e-16 at (0.1, 1), 1 at (0.1, 3),
        # 1 - 3.3e-16 at (0.3, 4) and (1.0, 5)
        g2, g3 = integrator.chart_invariants(chart_coefficients(SystemParams(zeta, m_int), 0j))
        t0 = math.pi / (2.0 * math.hypot(m_int, zeta))
        assert abs(integrator.real_period(g2, g3) / t0 - 1.0) <= 1e-14

    @pytest.mark.parametrize("g2,g3", [(3.0, -1.0), (3.0, -1.5), (0.0, 1.0), (-1.0, 0.0), (math.nan, 1.0)])
    def test_no_finite_real_period_raises(self, g2, g3):
        # e1 = e2 (cos 3phi = -1, or past it), or g2 <= 0, or not a number
        with pytest.raises(DomainError, match="no finite real period"):
            integrator.real_period(complex(g2), complex(g3))

    @pytest.mark.parametrize("m_int,energy", [(5, 1e-3), (3, 1e-5), (3, 0.0)])
    def test_small_energy_start_is_closed(self, m_int, energy):
        # a closed start near or at E = 0, 0.2 above left well 0, classifies closed with
        # the period of the 30-digit roots
        pytest.importorskip("mpmath")
        params = SystemParams(0.1, m_int)
        c = well_center(WellIndex(Side.LEFT, 0), params)
        z0 = complex(c.real, c.imag + 0.2)
        p0 = initial_momentum(z0, complex(energy), MomentumBranch.PRINCIPAL, params)
        traj = integrate(z0, p0, IntegratorConfig(t_max=2.0), params)
        oc = classify_orbit(traj)
        assert oc.kind is OrbitKind.CLOSED
        omega = _mp_real_period(*integrator.chart_invariants(chart_coefficients(params, traj.energy)))
        assert abs(oc.period - omega) <= 1e-12


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
        # a step of 2.64 lies beyond the period omega_A = 0.548 of the E = 0.8 orbits,
        # a point of the lattice: the Laurent series of the Weierstrass function
        # diverges there, and the step's constants raise, not returning a state.
        # integrate no longer takes such a step (test_loose_rel_tol_keeps_the_closed_start)
        c = integrator.laurent_coefficients(*integrator.chart_invariants(chart_coefficients(P, 0.8 + 0j)))
        with pytest.raises(NonFiniteStateError, match="did not converge"):
            integrator.step_constants(2.64, c)
